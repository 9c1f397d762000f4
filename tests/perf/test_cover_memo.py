"""The per-run row table against planning every request afresh.

An ego block names its rows by their heads in its graph (``source``);
``Bundler._plan_rows`` then plans each adjacency row once, keeps its
cover and transactions in a table over the graph's slots, and reads
them back for every later draw of the same user.  The same blocks with
their heads, slots and source stripped take the table-free path, so
every plan must come out the same either way — across chunks, across
graphs, with ``include_self``, across a change of the placer's epoch,
for a row drawn twice before it is planned, for a block that names its
rows by slots alone and for a block whose items are never read.
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
    return len(block.heads) - len(np.unique(block.heads))


def _assert_same_plans(memo: Bundler, fresh: Bundler, block: RequestBlock) -> None:
    got, want = memo.plan_cells(block), fresh.plan_cells(_stripped(block))
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)
    # the second array is each item's home, not its replica row
    homes = [memo.placer.distinguished_for(item) for item in block.items.tolist()]
    assert got[1].tolist() == homes
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


def test_an_adapted_list_of_requests_gets_the_home_column(graphs):
    table = _table(graphs[0].n_nodes)
    block = EgoRequestGenerator(graphs[0], rng=4).block(200)
    got = Bundler(table).plan_cells(block.requests())
    homes = [table.distinguished_for(item) for item in block.items.tolist()]
    assert got[1].tolist() == homes
    np.testing.assert_array_equal(got[1], Bundler(table).plan_cells(block)[1])


class _EpochedTable(PlacementTable):
    """A compiled table whose rows change with the placer's epoch."""

    epoch = 0

    def install(self, other: PlacementTable) -> None:
        self.table, self._tuples = other.table, other._tuples
        self.distinguished = other.distinguished  # the cached home column
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


def test_a_fresh_row_drawn_twice_in_one_chunk_is_planned_once(graphs, solved):
    graph = graphs[0]
    table = _table(graph.n_nodes)
    memo, fresh = Bundler(table), Bundler(table)
    gen = EgoRequestGenerator(graph, rng=3)
    first, second = gen.block(5), gen.block(5)
    # the second chunk: a planned row, then a new row three times over
    heads = np.concatenate((first.heads[:1], np.repeat(second.heads[:1], 3)))
    assert not np.isin(second.heads[:1], first.heads).any()
    roots = np.searchsorted(graph.indptr, heads, side="right") - 1
    sizes = graph.indptr[roots + 1] - heads
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    twice = RequestBlock(None, offsets, source=graph, heads=heads)
    assert twice.requests() == first.requests()[:1] + second.requests()[:1] * 3
    for a, b in zip(memo.plan_transactions(first), fresh.plan_transactions(_stripped(first))):
        np.testing.assert_array_equal(a, b)
    del solved[:]
    _assert_same_plans(memo, fresh, twice)
    # plan_cells then plan_transactions of each bundler: the table's one
    # kernel call saw the new row once, and the second none
    assert solved[0::2] == [sizes[1], 0]


@pytest.mark.parametrize("single_item_rule", [True, False])
def test_a_block_with_slots_and_no_heads(graphs, single_item_rule):
    graph = graphs[0]
    table = _table(graph.n_nodes)
    memo, fresh = (Bundler(table, single_item_rule=single_item_rule) for _ in range(2))
    gen = EgoRequestGenerator(graph, rng=4)
    for _ in range(3):
        drawn = gen.block(500)
        by_slots = RequestBlock(drawn.items, drawn.offsets, drawn.slots, drawn.source)
        np.testing.assert_array_equal(by_slots.heads, drawn.heads)
        _assert_same_plans(memo, fresh, by_slots)


class _Unread(RequestBlock):
    """An ego block that fails the test if anything reads its items or slots."""

    __slots__ = ()

    @property
    def items(self):
        raise AssertionError("the block's items were read")

    @property
    def slots(self):
        raise AssertionError("the block's slots were read")


def test_a_tally_never_reads_the_blocks_items(graphs):
    graph = graphs[0]
    table = _table(graph.n_nodes)
    memo, fresh = Bundler(table), Bundler(table)
    gen = EgoRequestGenerator(graph, rng=6)
    for _ in range(3):  # new rows, then mostly known ones
        drawn = gen.block(700)
        unread = _Unread(None, drawn.offsets, source=graph, heads=drawn.heads)
        got = memo.plan_transactions(unread)
        for a, b in zip(got, fresh.plan_transactions(_stripped(drawn))):
            np.testing.assert_array_equal(a, b)
