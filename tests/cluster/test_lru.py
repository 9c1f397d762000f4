"""Tests for the two-service-class LRU stores."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster.lru import PinnedLRU, PriorityClassStore
from repro.errors import CapacityError


class TestReplicaLRU:
    """A :class:`PinnedLRU` with no pins is a plain LRU of its replicas."""

    def test_unlimited(self):
        lru = PinnedLRU(None)
        for i in range(1000):
            lru.put(i)
        assert len(lru) == 1000
        assert lru.evictions == 0

    def test_eviction_order(self):
        lru = PinnedLRU(3)
        for k in "abc":
            lru.put(k)
        lru.put("d")  # evicts "a"
        assert "a" not in lru and "d" in lru
        assert lru.evictions == 1

    def test_touch_prevents_eviction(self):
        lru = PinnedLRU(3)
        for k in "abc":
            lru.put(k)
        assert lru.touch("a")
        lru.put("d")  # now evicts "b"
        assert "a" in lru and "b" not in lru

    def test_touch_missing(self):
        assert not PinnedLRU(2).touch("nope")

    def test_put_existing_refreshes(self):
        lru = PinnedLRU(2)
        lru.put("a")
        lru.put("b")
        lru.put("a")  # refresh, no eviction
        lru.put("c")  # evicts "b"
        assert "a" in lru and "b" not in lru
        assert len(lru) == 2

    def test_zero_capacity_drops_everything(self):
        lru = PinnedLRU(0)
        lru.put("a")
        assert "a" not in lru
        assert lru.evictions == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(CapacityError):
            PinnedLRU(-1)

    def test_discard(self):
        lru = PinnedLRU(2)
        lru.put("a")
        assert lru.discard("a")
        assert not lru.discard("a")

    def test_keys_lru_order(self):
        lru = PinnedLRU(3)
        for k in "abc":
            lru.put(k)
        lru.touch("a")
        assert lru.replica_keys() == ["b", "c", "a"]


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


class TestSharedBudgetLRU:
    """A :class:`PriorityClassStore` shares its capacity: the replica LRU
    gets what the pins leave."""

    def test_replica_evicted_before_distinguished(self):
        store = PriorityClassStore(capacity=3)
        store.pin("d1")
        store.put("r1")
        store.put("r2")
        store.pin("d2")  # evicts r1 (LRU replica)
        assert "d1" in store and "d2" in store
        assert "r1" not in store and "r2" in store
        assert store.evictions == 1

    def test_replica_insert_dropped_when_full_of_distinguished(self):
        store = PriorityClassStore(capacity=2)
        store.pin("d1")
        store.pin("d2")
        store.put("r")
        assert "r" not in store
        assert "d1" in store and "d2" in store

    def test_touch_refreshes(self):
        store = PriorityClassStore(capacity=2)
        store.put("r1")
        store.put("r2")
        store.touch("r1")
        store.put("r3")  # evicts r2
        assert "r1" in store and "r2" not in store

    def test_zero_capacity(self):
        store = PriorityClassStore(capacity=0)
        store.put("x")
        assert "x" not in store

    def test_negative_capacity_rejected(self):
        with pytest.raises(CapacityError):
            PriorityClassStore(capacity=-1)

    def test_reinsert_same_key(self):
        store = PriorityClassStore(capacity=2)
        store.put("a")
        store.put("a")
        assert len(store) == 1


# ---------------------------------------------------------------------------
# model-based property test: the replica LRU behaves like an ordered-dict reference
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
    lru = PinnedLRU(capacity)
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
        assert lru.replica_keys() == model


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


@given(
    st.sampled_from([0, 1, 7, None]),
    st.lists(st.integers(0, 30), max_size=40, unique=True),
)
def test_provision_is_put_per_key(capacity, keys):
    """The one-step load of distinct replicas into an empty LRU leaves what
    one ``put`` per key leaves: entries in order and the eviction count."""
    per_key, bulk = PinnedLRU(capacity), PinnedLRU(capacity)
    for key in keys:
        per_key.put(key)
    bulk.provision([], keys)
    assert bulk.replica_keys() == per_key.replica_keys()
    assert bulk.evictions == per_key.evictions


@given(
    st.sampled_from([0, 1, 7, None]),
    st.sets(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=40, unique=True),
    st.sampled_from(["pinned", "priority"]),
)
@example(7, {1, 2}, [3, 4, 5, 6, 8, 9, 10, 11], "pinned")
@example(7, {1, 2}, [3, 4, 5, 6, 8, 9, 10, 11], "priority")
def test_provision_is_pin_and_put_per_key(capacity, pinned, keys, policy):
    """Either store, loaded in one step with pins and the replicas no pin
    names (what a cluster gives it), ends as one ``pin`` per pin, then
    one ``put`` per replica, leaves it."""
    keys = [key for key in keys if key not in pinned]

    def empty():
        if policy == "pinned":
            return PinnedLRU(capacity)
        return PriorityClassStore(None if capacity is None else capacity + len(pinned))

    per_key, bulk = empty(), empty()
    for key in sorted(pinned):
        per_key.pin(key)
    for key in keys:
        per_key.put(key)
    bulk.provision(sorted(pinned), keys)
    assert bulk.replica_keys() == per_key.replica_keys()
    assert bulk.pinned_keys() == per_key.pinned_keys()
    assert bulk.evictions == per_key.evictions
    assert len(bulk) == len(per_key)


def test_bounded_bulk_load_keeps_the_last_keys():
    lru = PinnedLRU(3)
    lru.provision([], list(range(10)))
    assert lru.replica_keys() == [7, 8, 9]
    assert lru.evictions == 7


@given(
    st.sampled_from([0, 1, 7, None]),
    st.sets(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=10),
    st.lists(st.lists(st.integers(0, 30), max_size=8, unique=True), max_size=8),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
)
# pinned keys among evicting puts
@example(1, {1}, [2], [[3, 1, 4], [2, 3]], 0, True, False)
def test_replay_is_touch_many_then_put_per_miss(capacity, pinned, before, txns, pad, put, shared):
    """``replay`` of a run of transactions leaves the LRU order and the
    eviction count that ``touch_many`` per transaction and a ``put`` per
    miss leave, and returns the positions of the misses, for every
    capacity and without puts; the run may start past position 0.  A
    shared-budget store whose pins leave ``capacity`` replays alike."""

    def build():
        if not shared:
            return PinnedLRU(capacity)
        return PriorityClassStore(None if capacity is None else capacity + len(pinned))

    per_txn, replayed = build(), build()
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
