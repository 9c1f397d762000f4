"""The ring's per-slot successor memo answers what a fresh walk would.

``ConsistentHashRing.distinct_successors`` walks each ring slot once and
remembers the owners it found (``slot_successors``); ``add_server`` and
``remove_server`` forget them.  The reference below is the walk it
replaced: a generator over one revolution of the ring, filtered through a
seen-set, run anew for every key.  The compiled tables read the same memo,
so they are pinned to digests taken from the walk-per-slot compiler.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import FullReplicationPlacer
from repro.hashing.hashring import ConsistentHashRing
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.perf.table import PlacementTable


def slot_of(ring: ConsistentHashRing, key) -> int:
    """The first ring slot clockwise from ``key``, found by numpy, not bisect."""
    points = np.asarray(ring.slots()[0], dtype=np.uint64)
    return int(np.searchsorted(points, ring.key_position(key), "right")) % len(points)


def reference_successors(ring: ConsistentHashRing, key, k: int) -> tuple:
    """The first ``k`` distinct owners clockwise from ``key``, walked afresh."""
    points, owners = ring.slots()
    start = slot_of(ring, key)

    def walk():
        for off in range(len(points)):
            yield owners[(start + off) % len(points)]

    out: list = []
    seen: set = set()
    for owner in walk():
        if owner not in seen:
            seen.add(owner)
            out.append(owner)
            if len(out) == k:
                return tuple(out)
    raise AssertionError("walk exhausted before k distinct servers")


KEYS = [*range(30), "alpha", "beta", ("t", 1), b"raw"]


def assert_matches_reference(ring: ConsistentHashRing, ks) -> None:
    for key in KEYS:
        for k in ks:
            assert ring.distinct_successors(key, k) == reference_successors(ring, key, k)


@settings(max_examples=40, deadline=None)
@given(
    n_servers=st.integers(1, 64),
    vnodes=st.integers(1, 200),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_memo_matches_a_fresh_walk_across_membership_changes(n_servers, vnodes, seed, data):
    ring = ConsistentHashRing(range(n_servers), vnodes=vnodes, seed=seed)
    # several k per ring, larger after smaller and back, so a slot's memo is
    # both cut to a shorter prefix and widened in place
    ks = data.draw(st.lists(st.integers(1, n_servers), min_size=1, max_size=4))
    assert_matches_reference(ring, ks)

    ring.add_server(n_servers)
    assert_matches_reference(ring, [*ks, n_servers + 1])

    gone = data.draw(st.integers(0, n_servers))
    ring.remove_server(gone)
    assert_matches_reference(ring, ks)
    assert all(gone not in ring.distinct_successors(key, n_servers) for key in KEYS)


def test_memo_is_dropped_on_every_membership_change():
    ring = ConsistentHashRing(range(4), vnodes=8, seed=3)
    before = {key: ring.distinct_successors(key, 4) for key in KEYS}
    ring.add_server(4)
    assert any(4 in ring.distinct_successors(key, 5) for key in KEYS)
    ring.remove_server(4)
    assert {key: ring.distinct_successors(key, 4) for key in KEYS} == before
    ring.remove_server(0)
    assert all(0 not in ring.distinct_successors(key, 3) for key in KEYS)


def test_keys_on_one_slot_share_one_answer():
    ring = ConsistentHashRing(range(16), vnodes=4, seed=0)
    by_slot: dict[int, tuple] = {}
    for key in range(2000):
        got = ring.distinct_successors(key, 3)
        assert by_slot.setdefault(slot_of(ring, key), got) is got


#: sha256 prefixes of the compiled int64 tables (5 000 items) of the RCH
#: shapes tests/perf and the simulator benchmarks use, taken from the
#: compiler that walked the ring once per slot itself
PINNED_TABLES = {
    "rch-16-3-32-5": (
        lambda: RangedConsistentHashPlacer(16, 3, vnodes=32, seed=5),
        "448ce83d0d605af5",
    ),
    "rch-16-1-32-5": (
        lambda: RangedConsistentHashPlacer(16, 1, vnodes=32, seed=5),
        "ed4e7a5a8089324b",
    ),
    "full-16-4-32-5": (
        lambda: FullReplicationPlacer(16, 4, vnodes=32, seed=5),
        "c85def610c3636da",
    ),
    "rch-8-2-16-1": (
        lambda: RangedConsistentHashPlacer(8, 2, vnodes=16, seed=1),
        "d253047c8f4f04be",
    ),
    "rch-4-3-8-1": (
        lambda: RangedConsistentHashPlacer(4, 3, vnodes=8, seed=1),
        "da4b085de03f7d93",
    ),
    "rch-16-3-32-3": (
        lambda: RangedConsistentHashPlacer(16, 3, vnodes=32, seed=3),
        "2e1b160b912b4be0",
    ),
    "rch-16-1-32-3": (
        lambda: RangedConsistentHashPlacer(16, 1, vnodes=32, seed=3),
        "c3d4c7129a5aa1e5",
    ),
    "rch-16-3-128-0": (
        lambda: RangedConsistentHashPlacer(16, 3, seed=0),
        "bb9a86baead4232d",
    ),
    "rch-16-4-128-2013": (
        lambda: RangedConsistentHashPlacer(16, 4, seed=2013),
        "3fd41e43e049481d",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_TABLES))
def test_compiled_tables_are_unchanged(shape):
    make, digest = PINNED_TABLES[shape]
    table = PlacementTable.compile(make(), 5000).table
    assert table.dtype == np.int64
    assert hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("warm", [False, True], ids=["cold-ring", "warm-ring"])
def test_compile_reads_the_memo_the_placer_filled(warm):
    """A table compiled after the placer's own lookups equals one compiled cold."""
    placer = RangedConsistentHashPlacer(16, 3, vnodes=32, seed=5)
    if warm:
        for item in range(0, 5000, 7):
            placer.servers_for(item)
        placer.ring.distinct_successors("x", 1)  # a shorter answer on some slot
    table = PlacementTable.compile(placer, 5000).table
    assert hashlib.sha256(table.tobytes()).hexdigest()[:16] == PINNED_TABLES["rch-16-3-32-5"][1]
