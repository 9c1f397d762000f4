"""Batched planning must equal per-request planning, plan for plan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.core.setcover import greedy_partial_cover
from repro.obs import MetricsRegistry
from repro.perf.table import PlacementTable
from repro.types import Request
from repro.utils.bitset import bit_indices

N_ITEMS = 900


@pytest.fixture(scope="module")
def table():
    return PlacementTable.compile(RandomPlacer(16, 3, seed=9), N_ITEMS)


def _mixed_requests(rng, n=120):
    """Sizes straddling one uint64 of item bits, plus singletons."""
    requests = []
    for _ in range(n):
        size = int(rng.choice([1, 2, 7, 30, 63, 64, 200]))
        items = tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist())
        requests.append(Request(items=items))
    return requests


def cover_then_finish(bundler, request):
    """The specification of :meth:`Bundler.plan` without exclusions: the
    general solver's cover, decoded to index lists, through ``_finish``."""
    replica_sets = [bundler.placer.servers_for(item) for item in request.items]
    subsets: dict[int, int] = {}
    for idx, servers in enumerate(replica_sets):
        for server in servers:
            subsets[server] = subsets.get(server, 0) | (1 << idx)
    cover = greedy_partial_cover(
        subsets,
        len(request.items),
        request.required_items,
        tie_break=bundler.tie_break,
        rng=bundler.rng,
    )
    assigned = {server: bit_indices(mask) for server, mask in cover.assignment.items()}
    return bundler._finish(request, request.items, replica_sets, assigned, None)


@given(
    st.integers(0, 2**31),
    # fleets past 8 and past 64 server ids: rows of 1 to 25 bytes
    st.sampled_from([4, 8, 9, 16, 64, 65, 72, 128, 200]).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min(n, 4)))
    ),
    st.lists(
        st.lists(st.integers(0, 9_999), min_size=1, max_size=64, unique=True),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_packed_plan_matches_cover_then_finish(
    seed, fleet, item_lists, string_ids, single_item_rule, limit
):
    """The packed kernel (a full cover, ``lowest`` tie-break, no exclusions, no
    hitchhikers) plans what the general solver and ``_finish`` plan, and
    counts it the same in ``rnb_plans_total`` / ``rnb_cover_size``.  The
    requests share one bundler, so a later one can widen the memo's rows."""
    placer = RandomPlacer(*fleet, seed=seed)
    packed_registry, spec_registry = MetricsRegistry(), MetricsRegistry()
    packed = Bundler(placer, single_item_rule=single_item_rule, metrics=packed_registry)
    spec = Bundler(placer, single_item_rule=single_item_rule, metrics=spec_registry)
    for items in item_lists:
        ids = tuple(f"item:{i}" for i in items) if string_ids else tuple(items)
        request = Request(items=ids, limit_fraction=limit)
        want = cover_then_finish(spec, request)
        assert packed.plan(request) == want
        assert packed.plan(request, exclude=frozenset()) == want  # the memo, warm
        assert sum(len(t.primary) for t in want.transactions) == len(ids)
        cover_then_finish(spec, request)  # two plans a request on each side
    assert packed_registry.snapshot() == spec_registry.snapshot()


@pytest.mark.parametrize("single_item_rule", [True, False])
def test_plan_batch_matches_plan(table, single_item_rule):
    rng = np.random.default_rng(7)
    bundler = Bundler(table, single_item_rule=single_item_rule)
    requests = _mixed_requests(rng)
    assert bundler.plan_batch(requests) == [bundler.plan(r) for r in requests]


def test_plan_batch_matches_plan_hitchhiking(table):
    rng = np.random.default_rng(8)
    bundler = Bundler(table, hitchhiking=True)
    requests = _mixed_requests(rng)
    assert bundler.plan_batch(requests) == [bundler.plan(r) for r in requests]


def test_plan_batch_limit_requests_fall_back(table):
    """LIMIT requests (required < size) take the scalar path, same plans."""
    rng = np.random.default_rng(9)
    bundler = Bundler(table)
    requests = [
        Request(
            items=tuple(rng.choice(N_ITEMS, size=20, replace=False).tolist()),
            limit_fraction=0.5,
        )
        for _ in range(10)
    ]
    assert bundler.plan_batch(requests) == [bundler.plan(r) for r in requests]


def test_plan_batch_exclude_falls_back(table):
    rng = np.random.default_rng(10)
    bundler = Bundler(table)
    requests = _mixed_requests(rng, n=20)
    exclude = {3, 11}
    assert bundler.plan_batch(requests, exclude=exclude) == [
        bundler.plan(r, exclude=exclude) for r in requests
    ]


def test_plan_batch_non_integer_items_fall_back():
    """String item ids defeat the dense table; plans must still agree."""
    placer = RandomPlacer(8, 2, seed=1)
    table = PlacementTable.compile(placer, 50)
    bundler = Bundler(table)
    requests = [
        Request(items=("user:1", "user:2", "user:9")),
        Request(items=(1, 2, 3)),
        Request(items=(49, 50, 51)),  # partially outside the universe
    ]
    assert bundler.plan_batch(requests) == [bundler.plan(r) for r in requests]


def test_plan_batch_raw_placer_falls_back():
    placer = RandomPlacer(8, 2, seed=1)  # no .lookup
    bundler = Bundler(placer)
    requests = [Request(items=(1, 2, 3)), Request(items=(4,))]
    assert bundler.plan_batch(requests) == [bundler.plan(r) for r in requests]


def test_plan_footprints_match_plans(table):
    rng = np.random.default_rng(11)
    for kwargs in ({}, {"single_item_rule": False}, {"hitchhiking": True}):
        bundler = Bundler(table, **kwargs)
        requests = _mixed_requests(rng, n=60)
        expected = [
            tuple((t.server, len(t.primary)) for t in bundler.plan(r).transactions)
            for r in requests
        ]
        assert bundler.plan_footprints(requests) == expected


def test_plan_footprints_bulk_metrics_match_scalar(table):
    """The vectorised path's bulk plan recording is snapshot-identical
    to the scalar path's per-plan hooks."""
    from repro.obs import MetricsRegistry

    rng = np.random.default_rng(13)
    requests = _mixed_requests(rng, n=60)

    fast_reg, scalar_reg = MetricsRegistry(), MetricsRegistry()
    Bundler(table, metrics=fast_reg).plan_footprints(requests)
    scalar = Bundler(table, metrics=scalar_reg)
    for r in requests:
        scalar.plan(r)
    assert fast_reg.snapshot() == scalar_reg.snapshot()


def test_tally_footprint_matches_execute_plan(table):
    """Counters and FetchResults agree with real execution when nothing
    can miss (naive allocation, pinned policy)."""
    rng = np.random.default_rng(12)
    requests = _mixed_requests(rng, n=60)

    def build():
        cluster = Cluster(table, range(N_ITEMS), memory_factor=None)
        return cluster, RnBClient(cluster, Bundler(table))

    real_cluster, real_client = build()
    real = [real_client.execute_plan(real_client.bundler.plan(r)) for r in requests]

    tally_cluster, tally_client = build()
    footprints = tally_client.bundler.plan_footprints(requests)
    tallied = [
        tally_client.tally_footprint(r, fp) for r, fp in zip(requests, footprints)
    ]

    assert tallied == real
    for real_srv, tally_srv in zip(real_cluster.servers, tally_cluster.servers):
        assert real_srv.counters.transactions == tally_srv.counters.transactions
        assert real_srv.counters.items_requested == tally_srv.counters.items_requested
        assert real_srv.counters.items_returned == tally_srv.counters.items_returned
        assert real_srv.counters.hits == tally_srv.counters.hits
        assert real_srv.counters.txn_sizes == tally_srv.counters.txn_sizes
