"""LRU stores with two service classes.

Memcached servers keep "a local LRU list of the items stored on the
server, and drop unused items when running out of space" (paper section
III-C1).  RnB needs the LRU to treat *distinguished copies* differently
from ordinary replicas so that every item keeps at least one
memory-resident copy.  The paper lists "several approaches for handling
two service classes in LRU based caching systems" as a contribution; this
module implements two, both pinning class-A entries (never evicted, never
in the LRU) beside an LRU of class-B entries:

* :class:`PinnedLRU` — the pins live in a reserve of their own; the
  replica capacity bounds only the class-B LRU.  This is the policy the
  paper's evaluation uses ("ensuring that the distinguished copies of the
  items will never suffer a miss", section III-D).
* :class:`PriorityClassStore` — one shared capacity; the replica LRU gets
  whatever the pins leave, so a pin evicts the least recently used
  replica, never another pin.

All stores count capacity in *item units* (the paper assumes equally
sized items, section III-B).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

from repro.errors import CapacityError


class PinnedLRU:
    """Two-class store: pinned class-A entries plus an LRU of class-B.

    ``replica_capacity`` bounds only the class-B (replica) entries; pinned
    entries are accounted separately because the paper reserves "for the
    distinguished copies the same amount of memory that the original
    system had" (section III-D).  ``None`` means unlimited (the naive,
    memory-rich experiments of Fig 6).  A pinned key is never in the
    replica LRU.

    ``pin_version`` counts the changes to the pinned set: :meth:`pin`,
    :meth:`pin_all`, :meth:`unpin` and :meth:`wipe` move it.  An
    unchanged version is an unchanged pinned set, so a reader can check
    its pins once per change instead of once per read
    (:meth:`RnBClient.execute_chunk` does).
    """

    def __init__(self, replica_capacity: int | None = None) -> None:
        if replica_capacity is not None and replica_capacity < 0:
            raise CapacityError("capacity must be non-negative")
        self.replica_capacity = replica_capacity
        self._pinned: set[Hashable] = set()
        # the replica LRU, least recently used first (presence only)
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self.evictions = 0
        self.pin_version = 0

    def pin(self, key: Hashable) -> None:
        """Insert ``key`` as a pinned (distinguished) entry."""
        self._pinned.add(key)
        self._entries.pop(key, None)
        self.pin_version += 1

    def pin_all(self, keys: Iterable[Hashable]) -> None:
        if not self._entries:
            # nothing to displace: pinning is a plain set update
            self._pinned.update(keys)
            self.pin_version += 1
            return
        for k in keys:
            self.pin(k)

    def is_pinned(self, key: Hashable) -> bool:
        return key in self._pinned

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pinned or key in self._entries

    def __len__(self) -> int:
        return len(self._pinned) + len(self._entries)

    @property
    def n_pinned(self) -> int:
        return len(self._pinned)

    @property
    def n_replicas(self) -> int:
        return len(self._entries)

    def touch(self, key: Hashable) -> bool:
        """Record an access; returns True iff the key was present."""
        if key in self._pinned:
            return True
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def touch_many(self, keys: Iterable[Hashable]) -> tuple[list, list]:
        """:meth:`touch` each key in order; returns ``(present, absent)``.

        One call per transaction instead of one per item: the LRU ends in
        the order the per-key calls would leave it.
        """
        pinned = self._pinned
        entries = self._entries
        present: list = []
        absent: list = []
        for key in keys:
            if key in pinned:
                present.append(key)
            elif key in entries:
                entries.move_to_end(key)
                present.append(key)
            else:
                absent.append(key)
        return present, absent

    def replay(self, keys: list, edges: list[int], *, put: bool = True) -> list[int]:
        """Serve a run of transactions in order; returns where they missed.

        ``keys[edges[i]:edges[i + 1]]`` is the ``i``-th transaction, its
        keys distinct.  Each one is :meth:`touch_many`, then, with
        ``put``, a :meth:`put` of each of its misses in turn.  The LRU and
        its evictions end as those calls would leave them, under any
        capacity, in one call instead of one per transaction and one per
        miss.  Returns the positions in ``keys`` that missed, in order.

        A pinned key is a hit that moves nothing (it is never in the
        replica LRU), so a caller may leave those out:
        :meth:`RnBClient.execute_chunk` passes only the reads that can
        reach the replica LRU.
        """
        pinned = self._pinned
        entries, capacity = self._entries, self.replica_capacity
        move, pop = entries.move_to_end, entries.popitem
        missed: list[int] = []
        miss = missed.append
        evicted = done = 0
        lo = edges[0]
        for hi in edges[1:]:
            for i in range(lo, hi):
                key = keys[i]
                if key in entries:
                    move(key)
                elif key not in pinned:
                    miss(i)
            lo = hi
            if not put or done == len(missed):
                continue
            # put of each key known to be absent
            for i in missed[done:]:
                if capacity is None:
                    entries[keys[i]] = None
                elif capacity:
                    while len(entries) >= capacity:
                        pop(False)
                        evicted += 1
                    entries[keys[i]] = None
                else:
                    evicted += 1  # immediately dropped
            done = len(missed)
        self.evictions += evicted
        return missed

    def pins_all(self, keys: Iterable[Hashable]) -> bool:
        """True iff every key is pinned here."""
        return self._pinned.issuperset(keys)

    def put(self, key: Hashable) -> None:
        """Insert (or refresh) a replica copy, evicting the least recently
        used replica if full; a no-op if the key is pinned here."""
        if key in self._pinned:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        capacity = self.replica_capacity
        if capacity is not None:
            if capacity == 0:
                self.evictions += 1  # immediately dropped
                return
            while len(entries) >= capacity:
                entries.popitem(last=False)
                self.evictions += 1
        entries[key] = None

    def provision(self, pinned: list, replicas: list) -> None:
        """Load an empty store in one step: :meth:`pin_all` of ``pinned``,
        then one :meth:`put` per replica, in order.

        The caller guarantees ``replicas`` distinct and none of them in
        ``pinned`` (:class:`~repro.cluster.cluster.Cluster` does), so the
        replicas are appended one after another: of ``n`` the last
        ``replica_capacity`` survive, in order, and the others count as
        evictions, as one ``put`` each would leave them.
        """
        self.pin_all(pinned)
        capacity = self.replica_capacity
        overflow = 0 if capacity is None else max(0, len(replicas) - capacity)
        self._entries = OrderedDict.fromkeys(replicas[overflow:])
        self.evictions += overflow

    def discard(self, key: Hashable) -> bool:
        """Remove a replica copy; pinned entries cannot be discarded."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def unpin(self, key: Hashable) -> bool:
        if key not in self._pinned:
            return False
        self._pinned.remove(key)
        self.pin_version += 1
        return True

    def replica_keys(self) -> list:
        """Replica entries from least to most recently used."""
        return list(self._entries)

    def pinned_keys(self) -> list:
        """Pinned (distinguished) entries, deterministically ordered."""
        return sorted(self._pinned, key=repr)

    def wipe(self) -> None:
        """Drop every entry, pinned or not, keeping the capacity.

        Models a server restart after a crash: the memory is gone but the
        provisioned budget is unchanged (re-replication must repopulate).
        The eviction count restarts with it.
        """
        self._pinned.clear()
        self._entries = OrderedDict()
        self.evictions = 0
        self.pin_version += 1


class PriorityClassStore(PinnedLRU):
    """A :class:`PinnedLRU` whose two classes share ONE capacity.

    Instead of reserving dedicated space for distinguished copies (the
    pinned policy), ``capacity`` is the server's TOTAL item budget (pins
    plus replicas): the replica LRU gets whatever the pins leave, and a
    pin that needs a replica's room evicts the least recently used one,
    so a distinguished copy is never displaced.  This is the "shared
    budget" alternative in the two-service-class design space; the
    ``lru_policy`` ablation compares it against the pinned reserve.
    ``replica_capacity`` follows every :meth:`pin`, :meth:`unpin` and
    :meth:`wipe`; in between the store is a :class:`PinnedLRU`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__(capacity)
        self.capacity = capacity

    def pin(self, key: Hashable) -> None:
        """Pin ``key``; raises :class:`CapacityError`, changing nothing,
        if the pins already fill the capacity."""
        if key not in self._pinned and self.capacity is not None:
            if len(self._pinned) >= self.capacity:
                raise CapacityError(
                    "priority store capacity too small for distinguished copies"
                )
        super().pin(key)
        self._fit()

    def pin_all(self, keys: Iterable[Hashable]) -> None:
        for k in keys:
            self.pin(k)

    def unpin(self, key: Hashable) -> bool:
        unpinned = super().unpin(key)
        self._fit()
        return unpinned

    def wipe(self) -> None:
        super().wipe()
        self._fit()

    def _fit(self) -> None:
        """Give the replicas the room the pins leave, evicting the least
        recently used ones that no longer fit."""
        if self.capacity is None:
            return
        self.replica_capacity = self.capacity - len(self._pinned)
        while len(self._entries) > self.replica_capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
