"""The per-run cover memo against planning every request afresh.

An ego block carries each item's slot in its graph (``slots``) and the
graph itself (``source``); ``Bundler._cover_chunk`` then solves each
adjacency row once and reads it back for every later draw of the same
user.  The same blocks with ``slots`` and ``source`` stripped take the
memo-free path, so every plan must come out the same either way —
across chunks, across graphs, with ``include_self`` and across a change
of the placer's epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.placement import RandomPlacer
from repro.core import bundling
from repro.core.bundling import Bundler
from repro.perf.table import PlacementTable
from repro.types import RequestBlock
from repro.workloads.requests import EgoRequestGenerator
from repro.workloads.synthetic import make_slashdot_like

N_SERVERS = 16


@pytest.fixture(scope="module")
def graphs():
    """Two graphs over one item universe whose slots hold different items."""
    first = make_slashdot_like(seed=7, scale=0.02)
    second = make_slashdot_like(seed=8, scale=0.02)
    assert first.n_nodes == second.n_nodes
    n = min(len(first.indices), len(second.indices))
    assert (first.indices[:n] != second.indices[:n]).any()
    return first, second


def _table(n_items: int, seed: int = 9) -> PlacementTable:
    return PlacementTable.compile(RandomPlacer(N_SERVERS, 3, seed=seed), n_items)


def _stripped(block: RequestBlock) -> RequestBlock:
    return RequestBlock(block.items, block.offsets)


def _repeated_roots(block: RequestBlock) -> int:
    """How many of the block's requests repeat an earlier one of the block."""
    heads = block.slots[block.offsets[:-1]]
    return len(heads) - len(np.unique(heads))


def _assert_same_plans(memo: Bundler, fresh: Bundler, block: RequestBlock) -> None:
    got, want = memo.plan_cells(block), fresh.plan_cells(_stripped(block))
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(memo.plan_transactions(block), fresh.plan_transactions(_stripped(block))):
        np.testing.assert_array_equal(a, b)


@pytest.fixture()
def solved(monkeypatch):
    """Items handed to ``batch_cover``, one entry per call."""
    sizes: list[int] = []
    kernel = bundling.batch_cover

    def spy(row, servers, n_requests, n_servers):
        sizes.append(len(row))
        return kernel(row, servers, n_requests, n_servers)

    monkeypatch.setattr(bundling, "batch_cover", spy)
    return sizes


def test_repeated_roots_within_and_across_chunks(graphs, solved):
    graph = graphs[0]
    table = _table(graph.n_nodes)
    memo, fresh = Bundler(table), Bundler(table)
    gen = EgoRequestGenerator(graph, rng=2013)
    blocks = [gen.block(k) for k in (700, 700, 1, 900)]
    assert all(_repeated_roots(b) for b in (blocks[0], blocks[3]))
    for block in blocks:
        _assert_same_plans(memo, fresh, block)
    # the memo answered rows: the kernel saw fewer items than were asked
    # (each block is planned twice above, once by each method)
    memo_items = sum(solved[0::4])
    assert memo_items < sum(len(b.items) for b in blocks)
    assert solved[1::4] == [len(b.items) for b in blocks]


def test_two_graphs_on_one_bundler_reset_the_memo(graphs):
    first, second = graphs
    table = _table(first.n_nodes)
    memo, fresh = Bundler(table), Bundler(table)
    gens = [EgoRequestGenerator(g, rng=2013) for g in (first, second)]
    for gen in (*gens, *gens, gens[1], gens[0]):
        for _ in range(2):
            _assert_same_plans(memo, fresh, gen.block(400))


def test_include_self_blocks_carry_no_slots(graphs):
    graph = graphs[0]
    table = _table(graph.n_nodes)
    memo, fresh = Bundler(table), Bundler(table)
    with_self = EgoRequestGenerator(graph, rng=5, include_self=True)
    plain = EgoRequestGenerator(graph, rng=5)
    for _ in range(3):
        block = with_self.block(300)
        assert block.slots is None and block.source is None
        _assert_same_plans(memo, fresh, block)
        _assert_same_plans(memo, fresh, plain.block(300))


class _EpochedTable(PlacementTable):
    """A compiled table whose rows change with the placer's epoch."""

    epoch = 0

    def install(self, other: PlacementTable) -> None:
        self.table, self._tuples = other.table, other._tuples
        self.epoch += 1


def test_a_new_epoch_plans_afresh(graphs):
    graph = graphs[0]
    before, after = _table(graph.n_nodes, seed=9), _table(graph.n_nodes, seed=10)
    placer = _EpochedTable(before.base, before.table)
    memo, fresh = Bundler(placer), Bundler(placer)
    gen = EgoRequestGenerator(graph, rng=11)
    blocks = [gen.block(600) for _ in range(3)]
    for block in blocks:
        _assert_same_plans(memo, fresh, block)
    placer.install(after)
    for block in blocks:  # the same rows again, now placed elsewhere
        _assert_same_plans(memo, fresh, block)
