"""Tests for cluster provisioning and memory budgeting."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.placement import FullReplicationPlacer
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.perf.table import PlacementTable


def make_cluster(n_servers=8, replication=3, n_items=1000, memory_factor=None):
    placer = RangedConsistentHashPlacer(n_servers, replication, vnodes=32)
    return Cluster(placer, range(n_items), memory_factor=memory_factor)


class TestProvisioning:
    def test_every_item_pinned_once(self):
        cluster = make_cluster()
        pinned_total = sum(s.pinned_items for s in cluster)
        assert pinned_total == 1000

    def test_distinguished_on_home_server(self):
        cluster = make_cluster()
        for item in range(0, 1000, 37):
            home = cluster.placer.distinguished_for(item)
            assert cluster.server(home).store.is_pinned(item)

    def test_unlimited_memory_preloads_all_replicas(self):
        cluster = make_cluster(replication=3, memory_factor=None)
        assert cluster.total_resident_items() == 3 * 1000
        assert cluster.effective_memory_factor() == pytest.approx(3.0)

    def test_empty_items_rejected(self):
        placer = RangedConsistentHashPlacer(4, 1)
        with pytest.raises(ConfigurationError):
            Cluster(placer, [])

    def test_memory_factor_below_one_rejected(self):
        with pytest.raises(CapacityError):
            make_cluster(memory_factor=0.9)

    def test_repeated_items_rejected(self):
        placer = RangedConsistentHashPlacer(4, 2, vnodes=32)
        with pytest.raises(ConfigurationError, match="distinct"):
            Cluster(placer, [3, 1, 3])


def _fleet_state(cluster):
    return [
        (s.store.pinned_keys(), s.store.replica_keys(), s.store.evictions, len(s.store))
        for s in cluster
    ]


class TestBulkProvisioning:
    """Over a compiled table the cluster groups items by server in arrays;
    over the raw placer it walks item by item.  Both groupings must leave
    every store as the other does, LRU order included."""

    @pytest.mark.parametrize(
        "placer",
        [
            RangedConsistentHashPlacer(8, 3, vnodes=32),
            RangedConsistentHashPlacer(8, 1, vnodes=32),
            MultiHashPlacer(8, 4, seed=3),
        ],
        ids=["rch-r3", "single-hash", "multihash-r4"],
    )
    @pytest.mark.parametrize("memory_factor", [None, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("lru_policy", ["pinned", "priority"])
    def test_compiled_table_provisions_like_the_raw_placer(
        self, placer, memory_factor, lru_policy
    ):
        n_items = 700
        table = PlacementTable.compile(placer, n_items)
        assert table is not placer
        raw, bulk = (
            Cluster(p, range(n_items), memory_factor=memory_factor, lru_policy=lru_policy)
            for p in (placer, table)
        )
        assert _fleet_state(bulk) == _fleet_state(raw)
        assert bulk.total_resident_items() == raw.total_resident_items()


class TestMemoryBudget:
    def test_replica_capacity_formula(self):
        """Extra memory beyond one copy splits evenly across servers."""
        cluster = make_cluster(n_servers=8, memory_factor=2.0, n_items=1000)
        assert cluster.replica_capacity_per_server == round(1000 / 8)

    def test_factor_one_gives_zero_replica_space(self):
        cluster = make_cluster(memory_factor=1.0)
        assert cluster.replica_capacity_per_server == 0
        # only the pinned copies are resident
        assert cluster.total_resident_items() == 1000

    def test_limited_memory_bounds_residency(self):
        cluster = make_cluster(n_servers=8, replication=3, memory_factor=1.5)
        # <= one full copy pinned + 0.5 copies of replicas (rounding slack)
        assert cluster.total_resident_items() <= 1000 + 8 * round(500 / 8) + 8

    def test_effective_memory_factor_tracks_budget(self):
        cluster = make_cluster(n_servers=8, replication=4, memory_factor=2.0)
        # preload fills replica LRUs to capacity
        assert cluster.effective_memory_factor() == pytest.approx(2.0, rel=0.05)


class TestCounters:
    def test_total_transactions_and_reset(self):
        cluster = make_cluster()
        sid = cluster.placer.distinguished_for(0)
        cluster.server(sid).multi_get([0])
        assert cluster.total_transactions() == 1
        cluster.reset_counters()
        assert cluster.total_transactions() == 0

    def test_txn_size_histogram_merges_servers(self):
        cluster = make_cluster()
        s0 = cluster.placer.distinguished_for(0)
        s1 = cluster.placer.distinguished_for(1)
        cluster.server(s0).multi_get([0])
        cluster.server(s1).multi_get([1])
        hist = cluster.txn_size_histogram()
        assert hist.total == 2
        assert hist.counts == {1: 2}

    def test_iteration_and_len(self):
        cluster = make_cluster(n_servers=8)
        assert len(cluster) == 8
        assert len(list(cluster)) == 8


class TestSingleCopyCluster:
    def test_no_replicas_with_single_hash(self):
        placer = RangedConsistentHashPlacer(4, 1, vnodes=16)
        cluster = Cluster(placer, range(100), memory_factor=1.0)
        assert cluster.total_resident_items() == 100
        for s in cluster:
            assert s.store.n_replicas == 0


class TestOneStepLoad:
    """Each store is loaded in one step, trusting its groups (a table's are
    checked in ``tests/perf/test_table.py``; ``TestBulkProvisioning``
    holds a raw placer's to them); the result must be the fleet that one
    ``pin`` per home, then one ``put`` per replica in item order, builds."""

    @pytest.mark.parametrize(
        "placer",
        [
            RangedConsistentHashPlacer(8, 3, vnodes=32),
            MultiHashPlacer(8, 4, seed=3),
            FullReplicationPlacer(8, 2, vnodes=32),
        ],
        ids=["rch-r3", "multihash-r4", "banks-r2"],
    )
    @pytest.mark.parametrize("memory_factor", [None, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("lru_policy", ["pinned", "priority"])
    def test_one_step_load_is_one_pin_or_put_per_item(self, placer, memory_factor, lru_policy):
        n_items = 700
        table = PlacementTable.compile(placer, n_items)

        def build() -> Cluster:
            return Cluster(
                table, range(n_items), memory_factor=memory_factor, lru_policy=lru_policy
            )

        loaded, per_key = build(), build()
        for server in per_key:
            server.wipe()
        for item in range(n_items):
            per_key.servers[table.distinguished_for(item)].store.pin(item)
        for item in range(n_items):
            for sid in table.servers_for(item)[1:]:
                per_key.servers[sid].store.put(item)
        assert _fleet_state(loaded) == _fleet_state(per_key)
        for a, b in zip(loaded, per_key):
            assert a.store.replica_capacity == b.store.replica_capacity
        # the cluster's items and every stored key are the table's objects
        objects = table.item_objects
        assert all(item is objects[item] for item in loaded.items)
        for server in loaded:
            for key in server.store.pinned_keys() + server.store.replica_keys():
                assert key is objects[key]
