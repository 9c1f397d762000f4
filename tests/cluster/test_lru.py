"""Tests for the LRU caches and their two-service-class variants."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster.lru import (
    CLASS_DISTINGUISHED,
    CLASS_REPLICA,
    LRUCache,
    PartitionedLRU,
    PinnedLRU,
    PriorityClassStore,
    PriorityLRU,
)
from repro.errors import CapacityError


class TestLRUCache:
    def test_unlimited(self):
        lru = LRUCache(None)
        for i in range(1000):
            lru.put(i)
        assert len(lru) == 1000
        assert lru.evictions == 0

    def test_eviction_order(self):
        lru = LRUCache(3)
        for k in "abc":
            lru.put(k)
        lru.put("d")  # evicts "a"
        assert "a" not in lru and "d" in lru
        assert lru.evictions == 1

    def test_touch_prevents_eviction(self):
        lru = LRUCache(3)
        for k in "abc":
            lru.put(k)
        assert lru.touch("a")
        lru.put("d")  # now evicts "b"
        assert "a" in lru and "b" not in lru

    def test_touch_missing(self):
        assert not LRUCache(2).touch("nope")

    def test_put_existing_refreshes(self):
        lru = LRUCache(2)
        lru.put("a")
        lru.put("b")
        lru.put("a")  # refresh, no eviction
        lru.put("c")  # evicts "b"
        assert "a" in lru and "b" not in lru
        assert len(lru) == 2

    def test_zero_capacity_drops_everything(self):
        lru = LRUCache(0)
        lru.put("a")
        assert "a" not in lru
        assert lru.evictions == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(CapacityError):
            LRUCache(-1)

    def test_discard(self):
        lru = LRUCache(2)
        lru.put("a")
        assert lru.discard("a")
        assert not lru.discard("a")

    def test_keys_lru_order(self):
        lru = LRUCache(3)
        for k in "abc":
            lru.put(k)
        lru.touch("a")
        assert lru.keys() == ["b", "c", "a"]


class TestPinnedLRU:
    def test_pinned_never_evicted(self):
        store = PinnedLRU(replica_capacity=2)
        store.pin_all(["p1", "p2", "p3"])
        for i in range(10):
            store.put(i)
        assert all(store.is_pinned(p) for p in ("p1", "p2", "p3"))
        assert store.n_pinned == 3
        assert store.n_replicas == 2

    def test_pinned_do_not_consume_replica_capacity(self):
        store = PinnedLRU(replica_capacity=2)
        store.pin_all(range(100))
        store.put("r1")
        store.put("r2")
        assert store.n_replicas == 2

    def test_put_pinned_is_noop(self):
        store = PinnedLRU(replica_capacity=1)
        store.pin("p")
        store.put("p")
        assert store.n_replicas == 0

    def test_pin_promotes_existing_replica(self):
        store = PinnedLRU(replica_capacity=4)
        store.put("x")
        store.pin("x")
        assert store.is_pinned("x")
        assert store.n_replicas == 0
        assert len(store) == 1

    def test_touch_hits_both_classes(self):
        store = PinnedLRU(replica_capacity=2)
        store.pin("p")
        store.put("r")
        assert store.touch("p")
        assert store.touch("r")
        assert not store.touch("missing")

    def test_discard_only_replicas(self):
        store = PinnedLRU(2)
        store.pin("p")
        store.put("r")
        assert not store.discard("p")
        assert store.discard("r")
        assert "p" in store

    def test_unpin(self):
        store = PinnedLRU(2)
        store.pin("p")
        assert store.unpin("p")
        assert not store.unpin("p")
        assert "p" not in store

    def test_zero_replica_capacity(self):
        """memory_factor=1.0: only distinguished copies fit."""
        store = PinnedLRU(replica_capacity=0)
        store.pin("p")
        store.put("r")
        assert "r" not in store and "p" in store

    def test_replica_lru_semantics(self):
        store = PinnedLRU(2)
        store.put("a")
        store.put("b")
        store.touch("a")
        store.put("c")  # evicts b
        assert "b" not in store and "a" in store and "c" in store


class TestPartitionedLRU:
    def test_classes_do_not_steal(self):
        store = PartitionedLRU(capacity_a=2, capacity_b=2)
        store.put("a1", CLASS_DISTINGUISHED)
        store.put("a2", CLASS_DISTINGUISHED)
        for i in range(5):
            store.put(f"b{i}", CLASS_REPLICA)
        assert "a1" in store and "a2" in store
        assert len(store) == 4

    def test_class_migration(self):
        store = PartitionedLRU(2, 2)
        store.put("x", CLASS_REPLICA)
        store.put("x", CLASS_DISTINGUISHED)
        assert len(store) == 1

    def test_touch_and_discard(self):
        store = PartitionedLRU(2, 2)
        store.put("a", CLASS_DISTINGUISHED)
        assert store.touch("a")
        assert store.discard("a")
        assert not store.touch("a")

    def test_eviction_counted(self):
        store = PartitionedLRU(1, 1)
        store.put("a", CLASS_REPLICA)
        store.put("b", CLASS_REPLICA)
        assert store.evictions == 1


class TestPriorityLRU:
    def test_replica_evicted_before_distinguished(self):
        store = PriorityLRU(capacity=3)
        store.put("d1", CLASS_DISTINGUISHED)
        store.put("r1", CLASS_REPLICA)
        store.put("r2", CLASS_REPLICA)
        store.put("d2", CLASS_DISTINGUISHED)  # evicts r1 (LRU replica)
        assert "d1" in store and "d2" in store
        assert "r1" not in store and "r2" in store

    def test_replica_insert_dropped_when_full_of_distinguished(self):
        store = PriorityLRU(capacity=2)
        store.put("d1", CLASS_DISTINGUISHED)
        store.put("d2", CLASS_DISTINGUISHED)
        store.put("r", CLASS_REPLICA)
        assert "r" not in store
        assert "d1" in store and "d2" in store

    def test_distinguished_evicts_lru_distinguished_when_needed(self):
        store = PriorityLRU(capacity=2)
        store.put("d1", CLASS_DISTINGUISHED)
        store.put("d2", CLASS_DISTINGUISHED)
        store.put("d3", CLASS_DISTINGUISHED)
        assert "d1" not in store and "d3" in store

    def test_touch_refreshes(self):
        store = PriorityLRU(capacity=2)
        store.put("r1", CLASS_REPLICA)
        store.put("r2", CLASS_REPLICA)
        store.touch("r1")
        store.put("r3", CLASS_REPLICA)  # evicts r2
        assert "r1" in store and "r2" not in store

    def test_zero_capacity(self):
        store = PriorityLRU(capacity=0)
        store.put("x", CLASS_REPLICA)
        assert "x" not in store

    def test_negative_capacity_rejected(self):
        with pytest.raises(CapacityError):
            PriorityLRU(capacity=-1)

    def test_reinsert_same_key(self):
        store = PriorityLRU(capacity=2)
        store.put("a", CLASS_REPLICA)
        store.put("a", CLASS_REPLICA)
        assert len(store) == 1


# ---------------------------------------------------------------------------
# model-based property test: LRUCache behaves like an ordered-dict reference
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "touch", "discard"]),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=60,
)


@given(st.integers(min_value=1, max_value=5), ops)
def test_lru_matches_reference_model(capacity, operations):
    lru = LRUCache(capacity)
    model: list[int] = []  # LRU -> MRU order

    for op, key in operations:
        if op == "put":
            lru.put(key)
            if key in model:
                model.remove(key)
                model.append(key)
            else:
                if len(model) >= capacity:
                    model.pop(0)
                model.append(key)
        elif op == "touch":
            assert lru.touch(key) == (key in model)
            if key in model:
                model.remove(key)
                model.append(key)
        else:
            assert lru.discard(key) == (key in model)
            if key in model:
                model.remove(key)
        assert lru.keys() == model


@given(
    st.sets(st.integers(0, 20), max_size=8),
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(0, 20), max_size=50),
)
def test_pinned_lru_invariants(pinned, capacity, puts):
    """Pinned keys always present; replica count never exceeds capacity."""
    store = PinnedLRU(replica_capacity=capacity)
    store.pin_all(pinned)
    for key in puts:
        store.put(key)
        assert store.n_replicas <= capacity
        for p in pinned:
            assert p in store
    for key in puts:
        if key not in pinned:
            assert store.is_pinned(key) is False


@given(
    st.sampled_from(["pinned", "priority"]),
    st.sets(st.integers(0, 20), max_size=6),
    st.lists(st.integers(0, 20), max_size=30),
    st.lists(st.lists(st.integers(0, 25), max_size=8), max_size=6),
)
def test_touch_many_is_touch_per_key(policy, pinned, puts, transactions):
    """One ``touch_many`` per transaction leaves the store as ``touch`` per
    item does: same hits and misses in request order, same eviction order."""

    def build():
        store = PinnedLRU(8) if policy == "pinned" else PriorityClassStore(14)
        store.pin_all(pinned)
        for key in puts:
            store.put(key)
        return store

    per_key, per_txn = build(), build()
    for keys in transactions:
        touched = [(key, per_key.touch(key)) for key in keys]
        present, absent = per_txn.touch_many(keys)
        assert present == [key for key, hit in touched if hit]
        assert absent == [key for key, hit in touched if not hit]
    assert per_txn.replica_keys() == per_key.replica_keys()
    assert per_txn.pinned_keys() == per_key.pinned_keys()
    if policy == "priority":  # distinguished copies have a recency order too
        assert per_txn._lru._a.keys() == per_key._lru._a.keys()


@given(
    st.sampled_from([0, 1, 7, None]),
    st.lists(st.integers(0, 30), max_size=12),
    st.lists(st.integers(0, 30), max_size=40),
    st.booleans(),
)
def test_put_all_is_put_per_key(capacity, before, keys, distinct):
    """The bulk load leaves what one ``put`` per key leaves — entries in
    order and the eviction count — from an empty or a filled LRU, for
    fresh keys and for keys repeated or already present."""
    if distinct:
        keys = list(dict.fromkeys(keys))
    per_key, bulk = LRUCache(capacity), LRUCache(capacity)
    for lru in (per_key, bulk):
        for key in before:
            lru.put(key)
    for key in keys:
        per_key.put(key)
    bulk.put_all(iter(keys))
    assert bulk.keys() == per_key.keys()
    assert bulk.evictions == per_key.evictions


@given(
    st.sampled_from([0, 1, 7, None]),
    st.sets(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=10),
    st.lists(st.integers(0, 30), max_size=40),
)
@example(7, {1, 2}, [], [3, 1, 4, 2, 5])  # some keys pinned
@example(7, {1, 2}, [], [3, 4, 5, 6, 8, 9, 10, 11])  # none pinned (provisioning)
def test_pinned_put_all_is_put_per_key(capacity, pinned, before, keys):
    """Pinned keys in the bulk load are skipped as ``put`` skips them, and a
    load that names none of them (provisioning's case) skips nothing."""
    per_key, bulk = PinnedLRU(capacity), PinnedLRU(capacity)
    for store in (per_key, bulk):
        store.pin_all(pinned)
        for key in before:
            store.put(key)
    for key in keys:
        per_key.put(key)
    bulk.put_all(iter(keys))
    assert bulk.replica_keys() == per_key.replica_keys()
    assert bulk.pinned_keys() == per_key.pinned_keys()
    assert bulk.evictions == per_key.evictions
    assert len(bulk) == len(per_key)


def test_bounded_bulk_load_keeps_the_last_keys():
    lru = LRUCache(3)
    lru.put_all(range(10))
    assert lru.keys() == [7, 8, 9]
    assert lru.evictions == 7


@given(
    st.sampled_from([0, 1, 7, None]),
    st.sets(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=10),
    st.lists(st.lists(st.integers(0, 30), max_size=8, unique=True), max_size=8),
    st.integers(0, 3),
    st.booleans(),
)
@example(1, {1}, [2], [[3, 1, 4], [2, 3]], 0, True)  # pinned keys among evicting puts
def test_replay_is_touch_many_then_put_per_miss(capacity, pinned, before, txns, pad, put):
    """``replay`` of a run of transactions leaves the LRU order and the
    eviction count that ``touch_many`` per transaction and a ``put`` per
    miss leave, and returns the positions of the misses, for every
    capacity and without puts; the run may start past position 0."""
    per_txn, replayed = PinnedLRU(capacity), PinnedLRU(capacity)
    for store in (per_txn, replayed):
        store.pin_all(pinned)
        for key in before:
            store.put(key)
    keys, edges, want = [-1] * pad, [pad], []
    for txn in txns:
        _, absent = per_txn.touch_many(txn)
        want += [len(keys) + txn.index(key) for key in absent]
        if put:
            for key in absent:
                per_txn.put(key)
        keys += txn
        edges.append(len(keys))
    assert replayed.replay(keys, edges, put=put) == want
    assert replayed.replica_keys() == per_txn.replica_keys()
    assert replayed.evictions == per_txn.evictions
    assert replayed.pinned_keys() == per_txn.pinned_keys()
