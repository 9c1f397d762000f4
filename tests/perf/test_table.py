"""Compiled placement tables must be bit-exact with the wrapped placer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.placement import (
    FullReplicationPlacer,
    RandomPlacer,
)
from repro.errors import ConfigurationError
from repro.hashing.hashfns import hash64_int
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.perf.table import PlacementTable, compile_placement, splitmix64_array

N_ITEMS = 500


PLACERS = [
    pytest.param(
        lambda: RangedConsistentHashPlacer(16, 3, vnodes=32, seed=5), id="rch"
    ),
    pytest.param(lambda: MultiHashPlacer(16, 3, seed=5), id="multihash"),
    pytest.param(lambda: RangedConsistentHashPlacer(16, 1, vnodes=32, seed=5), id="single"),
    pytest.param(lambda: FullReplicationPlacer(16, 4, vnodes=32, seed=5), id="full"),
    pytest.param(lambda: RandomPlacer(16, 3, seed=5), id="random-generic"),
]


@pytest.mark.parametrize("make", PLACERS)
def test_compile_matches_placer(make):
    placer = make()
    table = PlacementTable.compile(placer, N_ITEMS)
    for item in range(N_ITEMS):
        assert table.servers_for(item) == placer.servers_for(item)
        assert table.distinguished_for(item) == placer.distinguished_for(item)
        assert table.replicas_for(item).servers == placer.replicas_for(item).servers


@pytest.mark.parametrize("make", PLACERS)
def test_batch_lookup_matches_rows(make):
    table = PlacementTable.compile(make(), N_ITEMS)
    items = np.array([0, 7, 499, 7, 123])
    got = table.lookup(items)
    assert got.shape == (5, table.replication)
    for row, item in zip(got.tolist(), items.tolist()):
        assert tuple(row) == table.servers_for(item)
    assert table.distinguished.tolist() == [
        table.distinguished_for(i) for i in range(N_ITEMS)
    ]
    # one contiguous column, built once
    assert table.distinguished.flags.c_contiguous
    assert table.distinguished is table.distinguished


def test_out_of_universe_delegates_to_base():
    placer = RangedConsistentHashPlacer(8, 2, vnodes=16, seed=1)
    table = PlacementTable.compile(placer, 100)
    for item in (100, 10_000, "user:42", -1):
        assert table.servers_for(item) == placer.servers_for(item)
        assert table.distinguished_for(item) == placer.distinguished_for(item)


def test_lookup_returns_plain_ints():
    table = PlacementTable.compile(RandomPlacer(8, 2, seed=0), 10)
    servers = table.servers_for(3)
    assert all(type(s) is int for s in servers)


def test_recompile_reuses_or_extends():
    placer = RandomPlacer(8, 2, seed=0)
    table = compile_placement(placer, 50)
    assert PlacementTable.compile(table, 30) is table
    bigger = PlacementTable.compile(table, 80)
    assert bigger.base is placer
    assert bigger.n_items == 80


def test_compile_rejects_empty_universe():
    with pytest.raises(ConfigurationError):
        PlacementTable.compile(RandomPlacer(8, 2, seed=0), 0)


@pytest.mark.parametrize("seed", [0, 1, 17, 2013])
def test_splitmix64_array_matches_scalar(seed):
    values = np.array(
        [0, 1, 2, 63, 1 << 32, (1 << 64) - 1, 123456789], dtype=np.uint64
    )
    got = splitmix64_array(values, seed=seed)
    expected = [hash64_int(int(v), seed=seed) for v in values.tolist()]
    assert got.tolist() == expected


def assert_provisioning_guarantees(table: PlacementTable) -> None:
    """What ``Cluster`` loads a store in one step on, without checking it
    per run: every provisioning group is strictly ascending (so distinct)
    and in range, and holds the table's own item objects; no server holds
    a replica of an item it is home to; and the groups are the table's
    rows, every item once a home and ``R - 1`` times a replica."""
    homes, replicas = table.provisioning
    objects = table.item_objects
    for groups in (homes, replicas):
        for sid, group in groups.items():
            assert 0 <= sid < table.n_servers
            assert group and 0 <= group[0] and group[-1] < table.n_items
            assert all(a < b for a, b in zip(group, group[1:])), sid
            assert all(item is objects[item] for item in group)
    for sid, group in replicas.items():
        assert set(group).isdisjoint(homes.get(sid, ())), sid
    assert sum(map(len, homes.values())) == table.n_items
    assert sum(map(len, replicas.values())) == table.n_items * (table.replication - 1)


@pytest.mark.parametrize("make", PLACERS)
def test_provisioning_gives_what_the_one_step_load_relies_on(make):
    table = PlacementTable.compile(make(), N_ITEMS)
    assert_provisioning_guarantees(table)
    objects = table.item_objects
    assert objects.dtype == object and objects is table.item_objects
    assert objects.tolist() == list(range(N_ITEMS))
    assert all(type(item) is int for item in objects.tolist())


@pytest.mark.parametrize("row", [[1, 2, 2], [2, 1, 2]], ids=["replica-twice", "home-again"])
def test_a_table_that_repeats_a_server_in_a_row_fails_the_guarantees(row):
    """A row naming one server twice puts its item twice in a group, or in
    a server's home and replica groups both: the check must see it."""
    base = RangedConsistentHashPlacer(4, 3, vnodes=8, seed=1)
    rows = PlacementTable.compile(base, 10).table.copy()
    rows[4] = row
    with pytest.raises(AssertionError):
        assert_provisioning_guarantees(PlacementTable(base, rows))
