"""The item-major chunk planner against its oracles: the scalar solver
(pick for pick, through each item's assignment), ``Bundler.plan`` (plan
for plan) and the mask-major kernels it replaced (``_oracle.py``)."""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import (
    FullReplicationPlacer,
    RandomPlacer,
    SingleHashPlacer,
)
from repro.core.bundling import Bundler
from repro.core.setcover import greedy_partial_cover
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs import MetricsRegistry
from repro.perf.batchcover import batch_cover
from repro.perf.table import PlacementTable
from repro.types import Request
from repro.utils.bitset import iter_bits
from tests.perf import _oracle

N_ITEMS = 800
#: straddling one uint64 of item bits (the old narrow/wide fork) and the
#: ego workload's heavy tail
SIZES = (1, 2, 7, 63, 64, 200, 700)

PLACERS = {
    "rch": lambda: RangedConsistentHashPlacer(16, 3, vnodes=32, seed=3),
    "multihash": lambda: MultiHashPlacer(16, 3, seed=3),
    "single": lambda: SingleHashPlacer(16, vnodes=32, seed=3),  # R = 1
    "full": lambda: FullReplicationPlacer(16, 4, vnodes=32, seed=3),
    "generic": lambda: RandomPlacer(12, 3, seed=3),  # the per-item compiler
}


@cache
def table(kind: str) -> PlacementTable:
    return PlacementTable.compile(PLACERS[kind](), N_ITEMS)


def _requests(rng, n, sizes=SIZES):
    return [
        Request(items=tuple(rng.choice(N_ITEMS, size=int(size), replace=False).tolist()))
        for size in rng.choice(sizes, size=n)
    ]


def _kernel_assignment(tbl, requests):
    """Per request, the server ``batch_cover`` assigns each item to."""
    counts = [len(r.items) for r in requests]
    items = np.array([i for r in requests for i in r.items], dtype=np.int64)
    row = np.repeat(np.arange(len(requests)), counts)
    assigned = batch_cover(row, tbl.lookup(items), len(requests), tbl.n_servers)
    return np.split(assigned, np.cumsum(counts)[:-1])


def _scalar_cover(tbl, items):
    subsets: dict[int, int] = {}
    for idx, item in enumerate(items):
        for s in tbl.servers_for(item):
            subsets[s] = subsets.get(s, 0) | (1 << idx)
    return greedy_partial_cover(subsets, len(items), len(items))


def _assignment_of(picks, n_items):
    """Per item, the server whose pick mask carries it."""
    out = [None] * n_items
    for server, mask in picks:
        for idx in iter_bits(mask):
            out[idx] = server
    return out


def _assert_kernel_matches_scalar(kind, requests):
    tbl = table(kind)
    for request, assigned in zip(requests, _kernel_assignment(tbl, requests)):
        cover = _scalar_cover(tbl, request.items)
        assert assigned.tolist() == _assignment_of(
            cover.assignment.items(), len(request.items)
        )


@pytest.mark.parametrize("kind", PLACERS)
def test_kernel_matches_scalar_on_every_placer(kind):
    _assert_kernel_matches_scalar(kind, _requests(np.random.default_rng(41), 40))


def test_narrow_kernel_matches_scalar():
    rng = np.random.default_rng(42)
    _assert_kernel_matches_scalar("generic", _requests(rng, 200, sizes=range(1, 64)))


def test_wide_kernel_matches_scalar():
    rng = np.random.default_rng(43)
    _assert_kernel_matches_scalar("generic", _requests(rng, 40, sizes=range(1, 301)))


@pytest.mark.skipif(not _oracle.HAS_BITWISE_COUNT, reason="the oracle needs NumPy >= 2.0")
@pytest.mark.parametrize("kind", PLACERS)
@pytest.mark.parametrize("single_item_rule", [True, False])
def test_chunk_planner_matches_mask_oracle(kind, single_item_rule):
    tbl = table(kind)
    requests = _requests(np.random.default_rng(44), 80)
    counts = np.array([len(r.items) for r in requests])
    items = np.array([i for r in requests for i in r.items])
    picks = _oracle.batch_covers(counts, tbl.lookup(items), tbl.n_servers)

    assigned = _kernel_assignment(tbl, requests)
    bundler = Bundler(tbl, single_item_rule=single_item_rule)
    footprints = bundler.plan_footprints(requests)
    plans = bundler.plan_batch(requests)
    for row, request in enumerate(requests):
        assert assigned[row].tolist() == _assignment_of(picks[row], len(request.items))
        homes = [tbl.distinguished_for(item) for item in request.items]
        assert footprints[row] == _oracle.footprint(picks[row], homes, single_item_rule)
        replica_sets = [tbl.servers_for(item) for item in request.items]
        by_server = {server: list(iter_bits(mask)) for server, mask in picks[row]}
        assert plans[row] == bundler._finish(
            request, request.items, replica_sets, by_server, None
        )


@given(
    st.sampled_from(sorted(PLACERS)),
    st.integers(0, 2**31),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_chunk_planner_matches_plan(kind, seed, single_item_rule, hitchhiking, with_metrics):
    """``plan_batch(reqs)[i] == plan(reqs[i])``, footprints and telemetry too."""
    requests = _requests(np.random.default_rng(seed), 24)

    def bundler():
        registry = MetricsRegistry() if with_metrics else None
        return registry, Bundler(
            table(kind),
            single_item_rule=single_item_rule,
            hitchhiking=hitchhiking,
            metrics=registry,
        )

    scalar_registry, scalar = bundler()
    want = [scalar.plan(r) for r in requests]
    batch_registry, batched = bundler()
    assert batched.plan_batch(requests) == want
    footprint_registry, footprinted = bundler()
    assert footprinted.plan_footprints(requests) == [
        tuple((t.server, len(t.primary)) for t in plan.transactions) for plan in want
    ]
    if with_metrics:  # rnb_plans_total and the rnb_cover_size histogram
        assert batch_registry.snapshot() == scalar_registry.snapshot()
        assert footprint_registry.snapshot() == scalar_registry.snapshot()


def _count_plan_calls(bundler, monkeypatch):
    calls = []
    plan = bundler.plan
    monkeypatch.setattr(
        bundler, "plan", lambda request, **kw: calls.append(request) or plan(request, **kw)
    )
    return calls


def test_batch_covers_skips_zero_item_rows(monkeypatch):
    # A narrow request, a 0-item request and a wide one: the empty row gets
    # an empty plan from the scalar path and never reaches the kernel.
    rng = np.random.default_rng(45)
    requests = [
        Request(items=(1, 2, 3)),
        Request(items=()),
        Request(items=tuple(rng.choice(N_ITEMS, size=100, replace=False).tolist())),
    ]
    bundler = Bundler(table("generic"))
    want = [bundler.plan(r) for r in requests]
    assert bundler._cover_requests(requests)[0] == [0, 2]
    calls = _count_plan_calls(bundler, monkeypatch)
    assert bundler.plan_batch(requests) == want
    assert bundler.plan_footprints(requests) == [
        tuple((t.server, len(t.primary)) for t in plan.transactions) for plan in want
    ]
    assert calls == [requests[1]] * 2


def test_mixed_chunk_falls_back_per_request(monkeypatch):
    """Only what the kernel cannot express goes through ``plan``: LIMIT
    below 100 % and empty requests; an id outside the table sends the
    whole chunk there."""
    rng = np.random.default_rng(46)

    def items(n):
        return tuple(rng.choice(N_ITEMS, size=n, replace=False).tolist())

    chunk = [
        Request(items=items(5)),
        Request(items=items(40), limit_fraction=0.5),
        Request(items=()),
        Request(items=items(70), limit_fraction=1.0),  # LIMIT at 100 %: a full cover
        Request(items=items(1)),
    ]
    outside = Request(items=(3, N_ITEMS + 5))
    bundler = Bundler(table("rch"))
    want = [bundler.plan(r) for r in chunk + [outside]]

    calls = _count_plan_calls(bundler, monkeypatch)
    assert bundler.plan_batch(chunk) == want[:-1]
    assert calls == [chunk[1], chunk[2]]
    del calls[:]
    assert bundler.plan_batch(chunk + [outside]) == want
    assert calls == chunk + [outside]
    assert bundler.plan_footprints(chunk + [outside]) == [
        tuple((t.server, len(t.primary)) for t in plan.transactions) for plan in want
    ]
