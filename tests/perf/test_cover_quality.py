"""How far the greedy covers are from the optimum (ROADMAP item 9).

Greedy set cover picks at most ``H(d) * OPT`` sets, ``d`` the largest
set and ``H`` the harmonic number; here a set is the request's items on
one server.  Every cover path in ``src/`` is held to that band against
the exhaustive optimum of ``_oracle.optimal_cover_size``: the scalar
solver ``greedy_partial_cover`` (its picks), the chunk kernel
``batch_cover`` (the servers it assigns items to) and ``Bundler.plan``
on a compiled table (its transactions: the single-item rule only moves a
lone item to its home, where it may merge, so a plan has at most as many
transactions as its cover has picks — and, being a cover, at least OPT).
"""

from __future__ import annotations

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.setcover import greedy_partial_cover
from repro.perf.batchcover import batch_cover
from repro.perf.table import PlacementTable
from repro.types import Request
from tests.perf._oracle import optimal_cover_size

N_ITEMS = 120


@cache
def _table(n_servers: int, replication: int, seed: int) -> PlacementTable:
    return PlacementTable.compile(RandomPlacer(n_servers, replication, seed=seed), N_ITEMS)


def _harmonic(d: int) -> float:
    return sum(1 / i for i in range(1, d + 1))


@st.composite
def _cases(draw):
    n_servers = draw(st.integers(2, 16))
    replication = draw(st.integers(1, min(4, n_servers)))
    table = _table(n_servers, replication, draw(st.integers(0, 3)))
    items = draw(st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=40, unique=True))
    return table, items


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_every_cover_path_is_within_the_greedy_bound_of_the_optimum(case):
    table, items = case
    rows = [table.servers_for(item) for item in items]
    opt = optimal_cover_size(rows, table.n_servers)
    subsets: dict[int, int] = {}
    for idx, row in enumerate(rows):
        for server in row:
            subsets[server] = subsets.get(server, 0) | 1 << idx
    bound = _harmonic(max(mask.bit_count() for mask in subsets.values())) * opt + 1e-9

    picks = greedy_partial_cover(subsets, len(items), len(items)).n_selected
    item_ids = np.array(items, dtype=np.int64)
    assigned = batch_cover(
        np.zeros(len(items), dtype=np.int64), table.lookup(item_ids), 1, table.n_servers
    )
    kernel = len(set(assigned.tolist()))
    plan = Bundler(table).plan(Request(tuple(items))).n_transactions
    assert opt <= plan <= kernel == picks <= bound


def test_the_oracle_finds_covers_greedy_misses():
    """A request where greedy takes three servers and two suffice: greedy
    first takes server 0 (four items), then needs both 1 and 2, which
    hold every item between them."""
    rows = [(0, 1), (0, 1), (1,), (0, 2), (0, 2), (2,)]
    subsets: dict[int, int] = {}
    for idx, row in enumerate(rows):
        for server in row:
            subsets[server] = subsets.get(server, 0) | 1 << idx
    assert greedy_partial_cover(subsets, len(rows), len(rows)).n_selected == 3
    assert optimal_cover_size(rows, 3) == 2
