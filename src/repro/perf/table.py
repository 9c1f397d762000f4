"""Compiled placement tables: ``item -> R servers`` as dense arrays.

The paper's client recomputes placement per item per request; our
simulator memoises those lookups, but a memo is still a dict probe per
item and — far worse — every *cold* lookup re-walks the consistent-hash
ring.  Multi-probe consistent hashing (Appleton & O'Reilly, PAPERS.md)
makes the key observation that placement over a fixed membership is a
*table*, not a computation: for a known item universe the whole map can
be compiled once and then served by array indexing.

:class:`PlacementTable` compiles any :class:`~repro.cluster.placement.
ReplicaPlacer` over the integer item universe ``0..n_items-1`` into a
dense ``(n_items, R)`` NumPy array with O(1) row lookup and vectorized
batch lookup (:meth:`lookup`).  It satisfies the ``ReplicaPlacer``
protocol itself, so a compiled table drops into the cluster, the bundler
and the clients unchanged; items outside the compiled universe fall back
to the wrapped placer.

Compilation is *exact* — tables must reproduce the wrapped placer's
output bit for bit (property-tested in ``tests/perf``).  Three
specialised compilers avoid the per-item ring walk / hash re-probing:

* **RCH**: the first ``R`` distinct owners clockwise of a ring slot
  depend only on the slot, so the walk is computed once per *used* slot
  (never more walks than the naive per-item path) and items are mapped
  to slots with one vectorised ``searchsorted``.
* **Multi-hash**: the SplitMix64 mixer vectorises directly over uint64
  arrays; collision re-probing proceeds in lock-step rounds over the
  still-colliding items only.
* **Full replication**: compile the bank-0 ring, then shift by bank
  arithmetic.

Everything else uses the generic per-item fallback, which costs exactly
what warming the placer's memo would.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.cluster.placement import (
    FullReplicationPlacer,
    ReplicaPlacer,
    SingleHashPlacer,
)
from repro.errors import ConfigurationError
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.types import ReplicaSet

_MASK64 = (1 << 64) - 1


def splitmix64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`repro.hashing.hashfns.hash64_int`.

    Bit-exact with the scalar version for every uint64 input (tested in
    ``tests/perf``); wraparound is the native modular arithmetic of the
    uint64 dtype.
    """
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64((0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _compile_ring(ring, replication: int, n_items: int) -> np.ndarray:
    """Compile ``ring.distinct_successors(item, replication)`` for the
    integer items ``0..n_items-1``.

    The first ``replication`` distinct owners clockwise from a slot are a
    pure function of the slot, so the walk runs once per slot actually
    hit by an item — at most ``min(n_items, n_slots)`` walks, never more
    than the naive per-item compile.
    """
    points, owners = ring.slots()
    n_slots = len(points)
    positions = np.fromiter(
        (ring.key_position(item) for item in range(n_items)),
        dtype=np.uint64,
        count=n_items,
    )
    idx = np.searchsorted(np.asarray(points, dtype=np.uint64), positions, side="right")
    idx[idx == n_slots] = 0

    used = np.unique(idx)
    succ = np.empty((used.size, replication), dtype=np.int64)
    for row, start in enumerate(used.tolist()):
        seen: set = set()
        off = 0
        filled = 0
        while filled < replication:
            owner = owners[(start + off) % n_slots]
            if owner not in seen:
                seen.add(owner)
                succ[row, filled] = owner
                filled += 1
            off += 1
    return succ[np.searchsorted(used, idx)]


def _compile_multihash(placer: MultiHashPlacer, n_items: int) -> np.ndarray:
    """Vectorised multi-hash placement with lock-step collision re-probing.

    Round ``p`` computes hash ``(j, probe=p)`` for every item still
    unplaced at replica index ``j`` — exactly the probe sequence of the
    scalar code, since an item re-probes independently of the others.
    """
    n = placer.n_servers
    allowed = placer._allowed  # frozenset | None; perf is a friend module
    allowed_lut = None
    if allowed is not None:
        allowed_lut = np.zeros(n, dtype=bool)
        allowed_lut[np.fromiter(allowed, dtype=np.int64)] = True

    items = np.arange(n_items, dtype=np.uint64)
    table = np.empty((n_items, placer.replication), dtype=np.int64)
    for j in range(placer.replication):
        pending = np.arange(n_items)
        probe = 0
        while pending.size:
            stream = placer.seed * 1_000_003 + j * 1009 + probe
            s = (splitmix64_array(items[pending], seed=stream) % np.uint64(n)).astype(
                np.int64
            )
            ok = np.ones(pending.size, dtype=bool)
            if j:
                ok &= ~(table[pending, :j] == s[:, None]).any(axis=1)
            if allowed_lut is not None:
                ok &= allowed_lut[s]
            table[pending[ok], j] = s[ok]
            pending = pending[~ok]
            probe += 1
    return table


def _compile_generic(placer: ReplicaPlacer, n_items: int) -> np.ndarray:
    rows = [placer.servers_for(item) for item in range(n_items)]
    return np.asarray(rows, dtype=np.int64)


def _group_by_server(items: np.ndarray, sids: np.ndarray) -> dict[int, list[int]]:
    """Group ``items`` by server id, items ascending within each group."""
    if not sids.size:
        return {}
    order = np.lexsort((items, sids))
    sids_sorted = sids[order]
    boundaries = np.flatnonzero(np.diff(sids_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    groups = np.split(items[order], boundaries)
    return dict(zip(sids_sorted[starts].tolist(), (group.tolist() for group in groups)))


class PlacementTable:
    """A compiled, array-backed view of a replica placer.

    Satisfies the ``ReplicaPlacer`` protocol (``n_servers``,
    ``replication``, ``replicas_for`` / ``servers_for`` /
    ``distinguished_for``) so it can replace the wrapped placer anywhere;
    single-item lookups inside the compiled universe return precomputed
    tuples, batch lookups (:meth:`lookup`) are one fancy index, and items
    outside ``0..n_items-1`` (string keys, elastic-growth overflow)
    transparently delegate to the wrapped placer.
    """

    def __init__(self, base: ReplicaPlacer, table: np.ndarray) -> None:
        if table.ndim != 2:
            raise ConfigurationError("placement table must be 2-dimensional")
        self.base = base
        self.table = table
        self.n_items = table.shape[0]
        self.n_servers = base.n_servers
        self.replication = base.replication
        # One tuple per row, precomputed: the simulator calls servers_for
        # millions of times and tuple() per call would dominate.
        self._tuples = [tuple(row) for row in table.tolist()]

    # -- construction -------------------------------------------------

    @classmethod
    def compile(cls, placer: ReplicaPlacer, n_items: int) -> "PlacementTable":
        """Compile ``placer`` over the item universe ``0..n_items-1``.

        Dispatches to a vectorised compiler when the placer's structure
        is known, and to the generic per-item loop otherwise.  A
        ``PlacementTable`` input is returned as-is when its universe
        suffices (recompiled from its base otherwise).
        """
        if n_items <= 0:
            raise ConfigurationError("n_items must be positive")
        if isinstance(placer, PlacementTable):
            if placer.n_items >= n_items:
                return placer
            return cls.compile(placer.base, n_items)
        if isinstance(placer, RangedConsistentHashPlacer):
            table = _compile_ring(placer.ring, placer.replication, n_items)
        elif isinstance(placer, SingleHashPlacer):
            table = _compile_ring(placer._inner.ring, 1, n_items)
        elif isinstance(placer, MultiHashPlacer):
            table = _compile_multihash(placer, n_items)
        elif isinstance(placer, FullReplicationPlacer):
            pos = _compile_ring(placer._inner.ring, 1, n_items)[:, 0]
            banks = np.arange(placer.banks, dtype=np.int64) * placer.bank_size
            table = pos[:, None] + banks[None, :]
        else:
            table = _compile_generic(placer, n_items)
        return cls(placer, table)

    # -- batch lookup --------------------------------------------------

    def lookup(self, items: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup: ``(k,) item ids -> (k, R) server ids``.

        All ids must lie in the compiled universe ``0..n_items-1``.
        ``take`` gathers the rows faster than ``table[items]`` does.
        """
        return self.table.take(items, axis=0)

    @property
    def distinguished(self) -> np.ndarray:
        """The distinguished-copy column (``(n_items,)`` server ids)."""
        return self.table[:, 0]

    @cached_property
    def provisioning(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Per server, the items it is home to and the items it holds a
        replica of, each in item order: what a
        :class:`~repro.cluster.cluster.Cluster` over exactly the compiled
        universe pins and preloads.  Computed once per table, so every run
        that shares a compiled table shares them; the lists are read, never
        changed.
        """
        items = np.arange(self.n_items)
        replicas = self.table[:, 1:]
        return (
            _group_by_server(items, self.table[:, 0]),
            _group_by_server(np.repeat(items, replicas.shape[1]), replicas.ravel()),
        )

    # -- ReplicaPlacer protocol ---------------------------------------

    def replicas_for(self, item) -> ReplicaSet:
        return ReplicaSet(item=item, servers=self.servers_for(item))

    def servers_for(self, item) -> tuple:
        if type(item) is int and 0 <= item < self.n_items:
            return self._tuples[item]
        return self.base.servers_for(item)

    def distinguished_for(self, item) -> int:
        if type(item) is int and 0 <= item < self.n_items:
            return self._tuples[item][0]
        return self.base.distinguished_for(item)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlacementTable(base={type(self.base).__name__}, "
            f"n_items={self.n_items}, R={self.replication})"
        )


def compile_placement(placer: ReplicaPlacer, n_items: int) -> PlacementTable:
    """Module-level alias for :meth:`PlacementTable.compile`."""
    return PlacementTable.compile(placer, n_items)
