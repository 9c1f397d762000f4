"""Consistent hash ring with virtual nodes.

This is the placement scheme memcached clients use (Karger et al., STOC
1997, cited as [1] in the paper): each server is hashed to ``vnodes``
points on a ring; a key is stored on the server owning the first point at
or after the key's own ring position.  Adding or removing one server only
remaps ~1/N of the keys.

The ring also exposes :meth:`distinct_successors`, the primitive Ranged
Consistent Hashing needs: the first k distinct servers clockwise from a
key's position, walked once per ring slot and remembered
(:meth:`slot_successors`).
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Hashable, Iterator

from repro.errors import ConfigurationError, PlacementError
from repro.hashing.hashfns import keyed_hash64


class ConsistentHashRing:
    """A consistent-hash ring mapping keys to server ids.

    Parameters
    ----------
    servers:
        Initial server ids (any hashable, typically ints).
    vnodes:
        Virtual nodes per server.  More vnodes give a more uniform share
        of the key space per server at the cost of a larger ring; 64–256
        is the practical sweet spot (tested in ``tests/hashing``).
    seed:
        Seed of the hash function used for both server points and keys,
        so distinct rings can be built over the same servers.
    """

    def __init__(self, servers=(), vnodes: int = 128, seed: int = 0) -> None:
        if vnodes <= 0:
            raise ConfigurationError("vnodes must be positive")
        self._vnodes = vnodes
        self._point_hash = keyed_hash64(seed)
        #: a key's ring coordinate (:meth:`key_position`)
        self._key_hash = keyed_hash64(seed ^ 0x5BD1E995)
        self._points: list[int] = []  # sorted ring positions
        self._owners: list[Hashable] = []  # owner of each position
        #: per slot, the distinct owners clockwise from it found so far
        #: (:meth:`slot_successors`); ``None`` until the slot is first asked for
        self._successors: list[tuple | None] = []
        self._servers: set[Hashable] = set()
        for s in servers:
            self.add_server(s)

    # -- membership ---------------------------------------------------

    @property
    def servers(self) -> frozenset:
        return frozenset(self._servers)

    @property
    def n_servers(self) -> int:
        return len(self._servers)

    @property
    def vnodes(self) -> int:
        return self._vnodes

    def _server_points(self, server: Hashable) -> list[int]:
        point_hash = self._point_hash
        return [point_hash((repr(server), v)) for v in range(self._vnodes)]

    def add_server(self, server: Hashable) -> None:
        """Add a server's virtual nodes to the ring."""
        if server in self._servers:
            raise ConfigurationError(f"server {server!r} already on the ring")
        self._servers.add(server)
        for p in self._server_points(server):
            idx = bisect.bisect_left(self._points, p)
            # hash collisions on a 64-bit ring are ~impossible, but break
            # ties deterministically by keeping first-inserted ownership
            self._points.insert(idx, p)
            self._owners.insert(idx, server)
        self._successors = [None] * len(self._points)

    def remove_server(self, server: Hashable) -> None:
        """Remove a server and all its virtual nodes."""
        if server not in self._servers:
            raise ConfigurationError(f"server {server!r} not on the ring")
        self._servers.remove(server)
        keep_points: list[int] = []
        keep_owners: list[Hashable] = []
        for p, o in zip(self._points, self._owners):
            if o != server:
                keep_points.append(p)
                keep_owners.append(o)
        self._points = keep_points
        self._owners = keep_owners
        self._successors = [None] * len(keep_points)

    def slots(self) -> tuple[list[int], list[Hashable]]:
        """The ring's raw geometry: sorted positions and their owners.

        Exposed for :mod:`repro.perf`, which maps items to slots in one
        vectorised search and reads each slot's :meth:`slot_successors`.
        Returns copies so callers cannot corrupt the ring.
        """
        return list(self._points), list(self._owners)

    def slot_successors(self, slot: int, k: int) -> tuple:
        """The first ``k`` distinct owners clockwise from ring slot ``slot``.

        A pure function of the slot while the membership holds, so each
        slot walks the ring once; ``add_server`` and ``remove_server``
        drop every slot's answer.  Assumes ``1 <= k <= n_servers``.
        """
        memo = self._successors  # a membership change replaces it: no stale fill lands
        known = memo[slot]
        if known is not None and len(known) >= k:
            return known if len(known) == k else known[:k]
        owners = self._owners
        out: list[Hashable] = []
        seen: set[Hashable] = set()
        for i in chain(range(slot, len(owners)), range(slot)):
            owner = owners[i]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == k:
                    break
        found = memo[slot] = tuple(out)
        return found

    # -- lookups ------------------------------------------------------

    def key_position(self, key) -> int:
        """Ring coordinate of a key."""
        return self._key_hash(key)

    def lookup(self, key) -> Hashable:
        """Owner server of ``key`` (the classic single-copy mapping)."""
        if not self._points:
            raise PlacementError("cannot look up a key on an empty ring")
        idx = bisect.bisect_right(self._points, self.key_position(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def walk(self, key) -> Iterator[Hashable]:
        """Iterate ring-point owners clockwise from the key's position.

        Owners repeat (each server has many vnodes); the caller filters
        for distinctness.  Yields exactly ``len(points)`` owners, i.e. one
        full revolution.
        """
        if not self._points:
            raise PlacementError("cannot walk an empty ring")
        start = bisect.bisect_right(self._points, self.key_position(key))
        n = len(self._points)
        for off in range(n):
            yield self._owners[(start + off) % n]

    def distinct_successors(self, key, k: int) -> tuple:
        """The first ``k`` *distinct* servers clockwise from the key.

        This is the core operation of Ranged Consistent Hashing: "traveling
        along the consistent hashing continuum, gathering servers until
        there are enough unique ones" (paper section IV).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if k > len(self._servers):
            raise PlacementError(
                f"requested {k} distinct servers but ring only has {len(self._servers)}"
            )
        points = self._points
        slot = bisect.bisect_right(points, self._key_hash(key))
        return self.slot_successors(0 if slot == len(points) else slot, k)

    def load_share(self, samples: int = 100_000, seed: int = 1) -> dict:
        """Empirical fraction of the key space owned by each server.

        Diagnostic used by tests and the ablation bench to check ring
        uniformity for a given vnode count.
        """
        counts: dict[Hashable, int] = {s: 0 for s in self._servers}
        for i in range(samples):
            counts[self.lookup(("load-share-probe", seed, i))] += 1
        return {s: c / samples for s, c in counts.items()}
