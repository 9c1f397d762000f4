"""Tests for the baselines: no replication (RnB over R = 1 RCH) and
full replication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.urn import expected_tpr
from repro.cluster.cluster import Cluster
from repro.cluster.placement import FullReplicationPlacer
from repro.core.baselines import FullReplicationClient
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.errors import ConfigurationError
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request
from tests.core._oracle import full_replication_reference


def no_repl_stack(n_servers=16, n_items=5000):
    placer = RangedConsistentHashPlacer(n_servers, 1, vnodes=64)
    cluster = Cluster(placer, range(n_items), memory_factor=1.0)
    return cluster, RnBClient(cluster, Bundler(placer))


class TestNoReplication:
    """Plain consistent hashing is RnB over RCH at R = 1: one copy per
    item, transactions = distinct home servers touched."""

    def test_all_items_fetched(self):
        _, client = no_repl_stack()
        res = client.execute(Request(items=tuple(range(40))))
        assert res.items_fetched == 40
        assert res.misses == 0

    def test_transactions_equal_distinct_homes(self):
        cluster, client = no_repl_stack()
        items = tuple(range(40))
        homes = {cluster.placer.distinguished_for(i) for i in items}
        res = client.execute(Request(items=items))
        assert res.transactions == len(homes)
        assert set(res.servers_contacted) == homes

    def test_tpr_matches_urn_model(self):
        """Mean transactions over random requests ~ N*W(N,M)."""
        cluster, client = no_repl_stack(n_servers=8, n_items=20_000)
        rng = np.random.default_rng(3)
        m = 20
        tprs = []
        for _ in range(300):
            items = tuple(int(x) for x in rng.choice(20_000, m, replace=False))
            tprs.append(client.execute(Request(items=items)).transactions)
        expected = expected_tpr(8, m)
        assert np.mean(tprs) == pytest.approx(expected, rel=0.05)

    def test_limit_reduces_transactions(self):
        _, client = no_repl_stack()
        items = tuple(range(40))
        full = client.execute(Request(items=items))
        half = client.execute(Request(items=items, limit_fraction=0.5))
        assert half.items_fetched >= 20
        assert half.transactions < full.transactions

    def test_limit_prefers_largest_groups(self):
        """The half fetch must not use more transactions than the optimum
        = smallest prefix of group sizes summing to the target."""
        cluster, client = no_repl_stack()
        items = tuple(range(60))
        groups: dict[int, int] = {}
        for i in items:
            h = cluster.placer.distinguished_for(i)
            groups[h] = groups.get(h, 0) + 1
        sizes = sorted(groups.values(), reverse=True)
        need = 30
        optimum = 0
        acc = 0
        for s in sizes:
            optimum += 1
            acc += s
            if acc >= need:
                break
        res = client.execute(Request(items=items, limit_fraction=0.5))
        assert res.transactions == optimum


class TestFullReplicationClient:
    def make(self, n_servers=16, banks=2, n_items=5000, rng=None):
        placer = FullReplicationPlacer(n_servers, banks, vnodes=64)
        cluster = Cluster(placer, range(n_items), memory_factor=None)
        return cluster, FullReplicationClient(cluster, rng=rng)

    def test_requires_full_placer(self):
        placer = RangedConsistentHashPlacer(4, 2)
        cluster = Cluster(placer, range(10))
        with pytest.raises(ConfigurationError):
            FullReplicationClient(cluster)

    def test_requires_unlimited_memory(self):
        placer = FullReplicationPlacer(4, 2)
        cluster = Cluster(placer, range(100), memory_factor=2.0)
        with pytest.raises(ConfigurationError):
            FullReplicationClient(cluster)

    def test_all_items_fetched_single_bank(self):
        cluster, client = self.make(rng=np.random.default_rng(0))
        stats = ClusterStats()
        client.tally_chunk([Request(items=tuple(range(40)))], stats)
        assert stats.items_fetched == 40
        # all servers contacted lie in one bank
        banks = {s // client.bank_size for s in stats.per_server_transactions}
        assert len(banks) == 1

    def test_tpr_matches_bank_sized_urn(self):
        """k banks: TPR ~ (N/k) * W(N/k, M) — 'exactly what one pays for'."""
        cluster, client = self.make(
            n_servers=16, banks=2, n_items=20_000, rng=np.random.default_rng(1)
        )
        rng = np.random.default_rng(5)
        m = 30
        requests = [
            Request(items=tuple(int(x) for x in rng.choice(20_000, m, replace=False)))
            for _ in range(300)
        ]
        stats = ClusterStats()
        client.tally_chunk(requests, stats)
        assert stats.tpr == pytest.approx(expected_tpr(8, m), rel=0.05)

    def test_banks_used_uniformly(self):
        cluster, client = self.make(banks=4, rng=np.random.default_rng(2))
        bank_hits = np.zeros(4)
        for i in range(400):
            stats = ClusterStats()
            client.tally_chunk([Request(items=(i, i + 1000, i + 2000))], stats)
            bank_hits[min(stats.per_server_transactions) // client.bank_size] += 1
        assert bank_hits.min() > 50  # each bank gets a fair share

    def test_a_chunk_draws_the_banks_of_one_draw_per_request(self):
        """One ``integers(banks, size=k)`` per chunk gives the banks that
        ``k`` scalar draws would, and leaves the generator where they
        would: the engine's chunk boundaries cannot move a bank."""
        for banks in range(1, 17):
            for seed in range(5):
                chunked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                got = [*chunked.integers(banks, size=37), *chunked.integers(banks, size=5)]
                want = [scalar.integers(banks) for _ in range(42)]
                assert got == want
                assert chunked.integers(banks) == scalar.integers(banks)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(4, 1), (8, 2), (12, 3), (16, 4)]),
        requests=st.lists(
            st.tuples(
                st.lists(st.integers(0, 299), min_size=1, max_size=40, unique=True),
                st.sampled_from([None, 0.2, 0.5, 0.9, 1.0]),
            ),
            min_size=1,
            max_size=8,
        ),
        cut=st.integers(0, 8),
        compiled=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_bank_grouping(self, shape, requests, cut, compiled, seed):
        """Bank by bank, a tally does what grouping by home in the bank
        does: the same stats and the same counters on every server.  The
        tally reads no store, and with every copy resident LRU order is
        unobservable, so no store is compared."""
        n_servers, banks = shape
        placer = FullReplicationPlacer(n_servers, banks, vnodes=16, seed=seed)
        reference = Cluster(placer, range(300))
        if compiled:
            placer = PlacementTable.compile(placer, 300)
        cluster = Cluster(placer, range(300))
        client = FullReplicationClient(cluster, rng=np.random.default_rng(seed))
        bank_rng = np.random.default_rng(seed)  # the client's draws, one per request
        requests = [Request(items=tuple(items), limit_fraction=f) for items, f in requests]
        got, want = ClusterStats(), ClusterStats()
        for chunk in (requests[:cut], requests[cut:]):
            if chunk:
                client.tally_chunk(chunk, got)
        for request in requests:
            bank = int(bank_rng.integers(banks))
            want.record(full_replication_reference(reference, request, bank))
        assert got == want
        assert [s.counters for s in cluster.servers] == [s.counters for s in reference.servers]
