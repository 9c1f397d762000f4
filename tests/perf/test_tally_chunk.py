"""The aggregate tally against its per-request specification.

``Bundler.plan_transactions`` + ``RnBClient.tally_chunk`` handle a chunk
as arrays; ``Bundler.plan`` + ``RnBClient.tally_footprint`` +
``ClusterStats.record`` handle it a request at a time.  Every counter
must come out the same — and every dict with its keys in the same order,
because float sums downstream (``work_per_request``) run in key order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.obs import MetricsRegistry
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request, RequestBlock
from repro.utils.histogram import add_counts, first_seen_counts

N_ITEMS = 900
TABLE = PlacementTable.compile(RandomPlacer(16, 3, seed=9), N_ITEMS)


def _client(**bundler_kwargs) -> RnBClient:
    cluster = Cluster(TABLE, range(N_ITEMS))
    return RnBClient(cluster, Bundler(TABLE, **bundler_kwargs))


def _footprint(plan):
    return tuple((t.server, len(t.primary)) for t in plan.transactions)


def _state(client: RnBClient, stats: ClusterStats):
    """Everything a tally writes, dict key order included."""
    counters = []
    for server in client.cluster.servers:
        c = dataclasses.asdict(server.counters)
        c["txn_sizes"] = list(server.counters.txn_sizes.counts.items())
        counters.append(c)
    s = dataclasses.asdict(stats)
    s["txn_size_histogram"] = list(stats.txn_size_histogram.items())
    s["per_server_transactions"] = list(stats.per_server_transactions.items())
    return counters, s, list(client.cluster.txn_size_histogram().counts.items())


def _as_block(requests) -> RequestBlock:
    sizes = [len(r.items) for r in requests]
    items = np.array([i for r in requests for i in r.items], dtype=np.int64)
    return RequestBlock(items, np.concatenate(([0], np.cumsum(sizes))).astype(np.int64))


@st.composite
def chunks(draw):
    """A chunk of plain requests, sizes 1..700, optionally salted with what
    the block planner cannot express."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 5, 9, 40, 64, 65, 300, 700]), max_size=40))
    requests = [
        Request(items=tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist()))
        for size in sizes
    ]
    odd = {
        "empty": Request(items=()),
        "limit": Request(items=tuple(range(10, 50)), limit_fraction=0.5),
        "limit_full": Request(items=tuple(range(5, 30)), limit_fraction=1.0),
        "outside": Request(items=(3, N_ITEMS + 5)),
    }
    for kind in draw(st.lists(st.sampled_from(sorted(odd)), max_size=3)):
        requests.insert(draw(st.integers(0, len(requests))), odd[kind])
    return requests


@given(chunks(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_tally_chunk_is_the_per_request_fold(requests, single_item_rule):
    spec, spec_stats = _client(single_item_rule=single_item_rule), ClusterStats()
    footprints = [_footprint(spec.bundler.plan(r)) for r in requests]
    for request, footprint in zip(requests, footprints):
        spec_stats.record(spec.tally_footprint(request, footprint))

    got = _client(single_item_rule=single_item_rule)
    txn_servers, txn_sizes, n_txns = got.bundler.plan_transactions(requests)
    assert list(zip(txn_servers.tolist(), txn_sizes.tolist())) == [
        pair for footprint in footprints for pair in footprint
    ]
    assert n_txns.tolist() == [len(footprint) for footprint in footprints]

    # two chunks into one stats object: keys already present keep their place
    got_stats = ClusterStats()
    cut = len(requests) // 2
    got.tally_chunk(requests[:cut], got_stats)
    got.tally_chunk(requests[cut:], got_stats)
    assert _state(got, got_stats) == _state(spec, spec_stats)

    if all(r.items and r.limit_fraction is None for r in requests):
        blocked, blocked_stats = _client(single_item_rule=single_item_rule), ClusterStats()
        blocked.tally_chunk(_as_block(requests[:cut]), blocked_stats)
        blocked.tally_chunk(_as_block(requests[cut:]), blocked_stats)
        assert _state(blocked, blocked_stats) == _state(spec, spec_stats)


def test_tally_chunk_without_stats_still_counts():
    rng = np.random.default_rng(3)
    requests = [
        Request(items=tuple(rng.choice(N_ITEMS, size=7, replace=False).tolist()))
        for _ in range(20)
    ]
    a, b = _client(), _client()
    a.tally_chunk(requests, None)
    b.tally_chunk(requests, ClusterStats())
    assert _state(a, ClusterStats())[0] == _state(b, ClusterStats())[0]
    assert a.cluster.total_transactions() > 0


@pytest.mark.parametrize("kwargs", [{}, {"hitchhiking": True}, {"tie_break": "random"}])
def test_block_off_the_envelope_goes_through_requests(kwargs):
    """An empty request in a block, ids outside the table, hitchhiking or
    another tie-break: same arrays, through ``block.requests()``."""
    rng = np.random.default_rng(4)
    bundler = Bundler(TABLE, rng=np.random.default_rng(1), **kwargs)
    twin = Bundler(TABLE, rng=np.random.default_rng(1), **kwargs)
    blocks = [
        _as_block([Request(items=(1, 2, 3)), Request(items=()), Request(items=(7,))]),
        _as_block([Request(items=(3, N_ITEMS + 5))]),
        _as_block([Request(items=tuple(rng.choice(N_ITEMS, size=30, replace=False).tolist()))]),
        RequestBlock(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)),
    ]
    for block in blocks:
        want = [_footprint(twin.plan(r)) for r in block.requests()]
        txn_servers, txn_sizes, n_txns = bundler.plan_transactions(block)
        assert list(zip(txn_servers.tolist(), txn_sizes.tolist())) == [
            pair for footprint in want for pair in footprint
        ]
        assert n_txns.tolist() == [len(footprint) for footprint in want]


def test_block_planning_feeds_the_planner_families_like_plan():
    rng = np.random.default_rng(5)
    requests = [
        Request(items=tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist()))
        for size in rng.integers(1, 120, size=150)
    ]
    scalar, chunked = MetricsRegistry(), MetricsRegistry()
    bundler = Bundler(TABLE, metrics=scalar)
    for r in requests:
        bundler.plan(r)
    Bundler(TABLE, metrics=chunked).plan_transactions(_as_block(requests))
    assert chunked.snapshot() == scalar.snapshot()


def test_block_requests_round_trip():
    requests = [Request(items=(4, 9, 2)), Request(items=()), Request(items=(7,))]
    assert _as_block(requests).requests() == requests
    assert len(_as_block(requests)) == 3


@given(st.lists(st.integers(0, 40), max_size=200))
def test_first_seen_counts_is_a_counting_dict(values):
    want: dict[int, int] = {3: 1}
    for v in values:
        want[v] = want.get(v, 0) + 1
    got = {3: 1}
    add_counts(got, np.array(values, dtype=np.int64))
    assert list(got.items()) == list(want.items())
    keys, counts = first_seen_counts(np.array(values, dtype=np.int64))
    assert keys.tolist() == list(dict.fromkeys(values))
    assert counts.tolist() == [values.count(k) for k in keys.tolist()]
