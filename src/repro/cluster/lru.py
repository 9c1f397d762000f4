"""LRU caches with two service classes.

Memcached servers keep "a local LRU list of the items stored on the
server, and drop unused items when running out of space" (paper section
III-C1).  RnB needs the LRU to treat *distinguished copies* differently
from ordinary replicas so that every item keeps at least one
memory-resident copy.  The paper lists "several approaches for handling
two service classes in LRU based caching systems" as a contribution; this
module implements three:

* :class:`PinnedLRU` — class-A entries are pinned (never evicted); the
  remaining capacity is a plain LRU over class-B entries.  This is the
  policy the paper's evaluation uses ("ensuring that the distinguished
  copies of the items will never suffer a miss", section III-D).
* :class:`PartitionedLRU` — each class gets its own fixed capacity and its
  own LRU list; classes never steal from each other.
* :class:`PriorityLRU` — one shared capacity; eviction removes the least
  recently used class-B entry first and only touches class-A entries once
  no class-B entry remains.

All caches count capacity in *item units* (the paper assumes equally
sized items, section III-B).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

from repro.errors import CapacityError

CLASS_REPLICA = 0
CLASS_DISTINGUISHED = 1


class LRUCache:
    """A plain single-class LRU cache of keys (no values — presence only).

    ``capacity=None`` means unlimited (used for the naive, memory-rich
    experiments of Fig 6).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise CapacityError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self.evictions = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def touch(self, key: Hashable) -> bool:
        """Mark ``key`` most-recently-used; returns False if absent."""
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def put(self, key: Hashable) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if self.capacity is not None:
            if self.capacity == 0:
                self.evictions += 1  # immediately dropped
                return
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        self._entries[key] = None

    def put_all(self, keys: Iterable[Hashable]) -> None:
        """Insert many keys; equivalent to ``put`` per key, in order.

        Into an empty LRU, distinct keys are appended one after another,
        so one ``OrderedDict.fromkeys`` builds the identical LRU without a
        Python-level loop, under any capacity: of ``n`` keys the last
        ``capacity`` survive and the other ones count as evictions, as one
        ``put`` per key would leave it.  Anything else — a filled LRU, a
        repeated key — takes the per-key path (a bulk build would skip the
        move-to-end refresh a present or repeated key gets).
        """
        keys = list(keys)
        if not self._entries:
            overflow = 0 if self.capacity is None else max(0, len(keys) - self.capacity)
            fresh = OrderedDict.fromkeys(keys[overflow:])
            # a repeat can hide in the dropped prefix, so then check them all
            distinct = len(set(keys)) == len(keys) if overflow else len(fresh) == len(keys)
            if distinct:
                self._entries = fresh
                self.evictions += overflow
                return
        for key in keys:
            self.put(key)

    def discard(self, key: Hashable) -> bool:
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def keys(self) -> list:
        """Keys from least to most recently used."""
        return list(self._entries)


class PinnedLRU:
    """Two-class store: pinned class-A entries plus an LRU of class-B.

    ``replica_capacity`` bounds only the class-B (replica) entries; pinned
    entries are accounted separately because the paper reserves "for the
    distinguished copies the same amount of memory that the original
    system had" (section III-D).
    """

    def __init__(self, replica_capacity: int | None = None) -> None:
        self._pinned: set[Hashable] = set()
        self._lru = LRUCache(replica_capacity)

    @property
    def replica_capacity(self) -> int | None:
        return self._lru.capacity

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def pin(self, key: Hashable) -> None:
        """Insert ``key`` as a pinned (distinguished) entry."""
        self._pinned.add(key)
        self._lru.discard(key)

    def pin_all(self, keys: Iterable[Hashable]) -> None:
        if not len(self._lru):
            # nothing to displace: pinning is a plain set update
            self._pinned.update(keys)
            return
        for k in keys:
            self.pin(k)

    def is_pinned(self, key: Hashable) -> bool:
        return key in self._pinned

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pinned or key in self._lru

    def __len__(self) -> int:
        return len(self._pinned) + len(self._lru)

    @property
    def n_pinned(self) -> int:
        return len(self._pinned)

    @property
    def n_replicas(self) -> int:
        return len(self._lru)

    def touch(self, key: Hashable) -> bool:
        """Record an access; returns True iff the key was present."""
        if key in self._pinned:
            return True
        return self._lru.touch(key)

    def touch_many(self, keys: Iterable[Hashable]) -> tuple[list, list]:
        """:meth:`touch` each key in order; returns ``(present, absent)``.

        One call per transaction instead of one per item: the LRU ends in
        the order the per-key calls would leave it.
        """
        pinned = self._pinned
        entries = self._lru._entries
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
        entries, capacity = self._lru._entries, self._lru.capacity
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
            # LRUCache.put of each key known to be absent
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
        self._lru.evictions += evicted
        return missed

    def pins_all(self, keys: Iterable[Hashable]) -> bool:
        """True iff every key is pinned here."""
        return self._pinned.issuperset(keys)

    def put(self, key: Hashable) -> None:
        """Insert a replica copy (no-op if the key is pinned here)."""
        if key in self._pinned:
            return
        self._lru.put(key)

    def put_all(self, keys: Iterable[Hashable]) -> None:
        """Bulk :meth:`put`; order-equivalent to putting one at a time."""
        # provisioning never preloads a pinned key: filter only if one is
        keys, pinned = list(keys), self._pinned
        if not pinned.isdisjoint(keys):
            keys = [k for k in keys if k not in pinned]
        self._lru.put_all(keys)

    def discard(self, key: Hashable) -> bool:
        """Remove a replica copy; pinned entries cannot be discarded."""
        return self._lru.discard(key)

    def unpin(self, key: Hashable) -> bool:
        if key in self._pinned:
            self._pinned.remove(key)
            return True
        return False

    def replica_keys(self) -> list:
        return self._lru.keys()

    def pinned_keys(self) -> list:
        """Pinned (distinguished) entries, deterministically ordered."""
        return sorted(self._pinned, key=repr)

    def wipe(self) -> None:
        """Drop every entry, pinned or not, keeping the capacity.

        Models a server restart after a crash: the memory is gone but the
        provisioned budget is unchanged (re-replication must repopulate).
        """
        self._pinned.clear()
        self._lru = LRUCache(self._lru.capacity)


class PriorityClassStore:
    """A :class:`PinnedLRU`-compatible store backed by :class:`PriorityLRU`.

    Instead of reserving dedicated space for distinguished copies (the
    pinned policy), this store shares ONE capacity between both classes:
    replicas may use any space distinguished copies do not currently
    need, but are always evicted first, so a distinguished copy is never
    displaced by a replica.  This is the "shared budget" alternative in
    the two-service-class design space; the ``lru_policy`` ablation
    compares it against the pinned reserve.

    ``capacity`` is the server's TOTAL item budget (pinned + replicas),
    unlike ``PinnedLRU.replica_capacity`` which counts replicas only.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._lru = PriorityLRU(capacity)
        self._distinguished: set[Hashable] = set()

    @property
    def replica_capacity(self) -> int | None:
        if self._lru.capacity is None:
            return None
        return max(0, self._lru.capacity - len(self._distinguished))

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def pin(self, key: Hashable) -> None:
        self._distinguished.add(key)
        self._lru.put(key, CLASS_DISTINGUISHED)
        if key not in self._lru:  # pragma: no cover - capacity misconfig guard
            raise CapacityError(
                "priority store capacity too small for distinguished copies"
            )

    def pin_all(self, keys: Iterable[Hashable]) -> None:
        for k in keys:
            self.pin(k)

    def is_pinned(self, key: Hashable) -> bool:
        return key in self._distinguished

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def n_pinned(self) -> int:
        return len(self._distinguished)

    @property
    def n_replicas(self) -> int:
        return len(self._lru) - len(self._distinguished)

    def touch(self, key: Hashable) -> bool:
        return self._lru.touch(key)

    def touch_many(self, keys: Iterable[Hashable]) -> tuple[list, list]:
        """:meth:`touch` each key in order; returns ``(present, absent)``."""
        return self._lru.touch_many(keys)

    def put(self, key: Hashable) -> None:
        if key in self._distinguished:
            self._lru.touch(key)
            return
        self._lru.put(key, CLASS_REPLICA)

    def put_all(self, keys: Iterable[Hashable]) -> None:
        """Bulk :meth:`put`; order-equivalent to putting one at a time."""
        for key in keys:
            self.put(key)

    def discard(self, key: Hashable) -> bool:
        if key in self._distinguished:
            return False
        return self._lru.discard(key)

    def unpin(self, key: Hashable) -> bool:
        if key not in self._distinguished:
            return False
        self._distinguished.remove(key)
        self._lru.discard(key)
        return True

    def replica_keys(self) -> list:
        return [k for k in self._lru._b.keys()]

    def pinned_keys(self) -> list:
        """Distinguished entries, deterministically ordered."""
        return sorted(self._distinguished, key=repr)

    def wipe(self) -> None:
        """Drop every entry, keeping the capacity (server restart)."""
        self._distinguished.clear()
        self._lru = PriorityLRU(self._lru.capacity)


class PartitionedLRU:
    """Two independent LRU lists with fixed per-class capacities."""

    def __init__(self, capacity_a: int | None, capacity_b: int | None) -> None:
        self._a = LRUCache(capacity_a)
        self._b = LRUCache(capacity_b)

    def _seg(self, klass: int) -> LRUCache:
        return self._a if klass == CLASS_DISTINGUISHED else self._b

    def __contains__(self, key: Hashable) -> bool:
        return key in self._a or key in self._b

    def __len__(self) -> int:
        return len(self._a) + len(self._b)

    @property
    def evictions(self) -> int:
        return self._a.evictions + self._b.evictions

    def touch(self, key: Hashable) -> bool:
        return self._a.touch(key) or self._b.touch(key)

    def put(self, key: Hashable, klass: int = CLASS_REPLICA) -> None:
        # an entry lives in exactly one segment: re-inserting under a new
        # class migrates it
        other = self._b if klass == CLASS_DISTINGUISHED else self._a
        other.discard(key)
        self._seg(klass).put(key)

    def discard(self, key: Hashable) -> bool:
        return self._a.discard(key) or self._b.discard(key)


class PriorityLRU:
    """One shared capacity; class-B entries are always evicted first.

    Within a class, eviction order is least-recently-used.  Inserting into
    a cache whose capacity is exhausted by class-A entries silently drops
    class-B inserts and evicts the LRU class-A entry for class-A inserts.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise CapacityError("capacity must be non-negative")
        self.capacity = capacity
        self._a = LRUCache(None)
        self._b = LRUCache(None)
        self.evictions = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._a or key in self._b

    def __len__(self) -> int:
        return len(self._a) + len(self._b)

    def touch(self, key: Hashable) -> bool:
        return self._a.touch(key) or self._b.touch(key)

    def touch_many(self, keys: Iterable[Hashable]) -> tuple[list, list]:
        """:meth:`touch` each key in order; returns ``(present, absent)``."""
        segments = (self._a._entries, self._b._entries)
        present: list = []
        absent: list = []
        for key in keys:
            for entries in segments:
                if key in entries:
                    entries.move_to_end(key)
                    present.append(key)
                    break
            else:
                absent.append(key)
        return present, absent

    def _evict_one(self) -> bool:
        victim_seg = self._b if len(self._b) else self._a
        keys = victim_seg.keys()
        if not keys:
            return False
        victim_seg.discard(keys[0])
        self.evictions += 1
        return True

    def put(self, key: Hashable, klass: int = CLASS_REPLICA) -> None:
        seg = self._a if klass == CLASS_DISTINGUISHED else self._b
        other = self._b if klass == CLASS_DISTINGUISHED else self._a
        other.discard(key)
        if key in seg:
            seg.touch(key)
            return
        if self.capacity is not None:
            if self.capacity == 0:
                self.evictions += 1
                return
            while len(self) >= self.capacity:
                # never evict class A to admit class B
                if klass == CLASS_REPLICA and len(self._b) == 0:
                    self.evictions += 1
                    return
                if not self._evict_one():
                    return
        seg.put(key)

    def discard(self, key: Hashable) -> bool:
        return self._a.discard(key) or self._b.discard(key)
