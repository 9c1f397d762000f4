"""Tests for the shared-budget PriorityClassStore and its cluster wiring."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.lru import PinnedLRU, PriorityClassStore
from repro.cluster.server import Server
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.rch import RangedConsistentHashPlacer


class TestPriorityClassStore:
    def test_pinned_never_displaced_by_replicas(self):
        store = PriorityClassStore(capacity=3)
        store.pin_all(["d1", "d2"])
        for i in range(10):
            store.put(i)
        assert store.is_pinned("d1") and "d1" in store
        assert store.is_pinned("d2") and "d2" in store
        assert store.n_replicas == 1  # only one shared slot left

    def test_replicas_share_leftover_budget(self):
        store = PriorityClassStore(capacity=5)
        store.pin("d")
        for i in range(10):
            store.put(i)
        assert store.n_replicas == 4
        assert store.replica_capacity == 4

    def test_put_on_pinned_is_touch(self):
        store = PriorityClassStore(capacity=2)
        store.pin("d")
        store.put("d")
        assert store.n_replicas == 0

    def test_discard_protects_pinned(self):
        store = PriorityClassStore(capacity=3)
        store.pin("d")
        store.put("r")
        assert not store.discard("d")
        assert store.discard("r")

    def test_unpin(self):
        store = PriorityClassStore(capacity=3)
        store.pin("d")
        assert store.unpin("d")
        assert "d" not in store
        assert not store.unpin("d")

    def test_touch_both_classes(self):
        store = PriorityClassStore(capacity=4)
        store.pin("d")
        store.put("r")
        assert store.touch("d") and store.touch("r")
        assert not store.touch("nope")

    def test_lru_semantics_within_replicas(self):
        store = PriorityClassStore(capacity=3)
        store.pin("d")
        store.put("r1")
        store.put("r2")
        store.touch("r1")
        store.put("r3")  # evicts r2
        assert "r1" in store and "r2" not in store and "r3" in store

    def test_replica_keys(self):
        store = PriorityClassStore(capacity=4)
        store.pin("d")
        store.put("r1")
        store.put("r2")
        assert sorted(store.replica_keys()) == ["r1", "r2"]

    def test_unlimited(self):
        store = PriorityClassStore(None)
        store.pin("d")
        for i in range(100):
            store.put(i)
        assert store.n_replicas == 100
        assert store.replica_capacity is None


    def test_pin_past_capacity_raises_and_changes_nothing(self):
        store = PriorityClassStore(capacity=2)
        store.pin("a")
        store.pin("b")
        with pytest.raises(CapacityError):
            store.pin("c")
        assert store.pinned_keys() == ["a", "b"]
        assert "a" in store and "b" in store and "c" not in store
        assert store.n_replicas == 0 and store.evictions == 0
        store.pin("a")  # already pinned: takes no room
        assert store.n_pinned == 2

    def test_pin_evicts_the_lru_replica_never_a_pin(self):
        store = PriorityClassStore(capacity=3)
        store.pin("a")
        store.put("r1")
        store.put("r2")
        store.touch("r1")
        store.pin("b")  # the free space is all replicas: r2 is the LRU one
        assert store.replica_keys() == ["r1"] and store.evictions == 1
        assert store.replica_capacity == 1
        store.pin("r1")  # promoting a replica takes no extra room
        assert store.n_replicas == 0 and store.evictions == 1
        assert all(store.is_pinned(k) and k in store for k in ("a", "b", "r1"))

    def test_unpin_and_wipe_return_room_to_replicas(self):
        store = PriorityClassStore(capacity=2)
        store.pin("d")
        store.put("r1")
        store.put("r2")  # one replica slot: evicts r1
        assert store.replica_keys() == ["r2"]
        store.unpin("d")
        store.put("r3")
        assert store.replica_keys() == ["r2", "r3"]
        store.pin("d")  # evicts r2 again
        store.wipe()
        assert len(store) == 0 and store.replica_capacity == 2


class TestServerInjection:
    def test_server_accepts_custom_store(self):
        server = Server(0, store=PriorityClassStore(capacity=5))
        server.store.provision([1, 2], [])
        hits, misses, _ = server.multi_get([1, 2, 3])
        assert hits == [1, 2] and misses == [3]

    def test_default_store_is_pinned(self):
        assert isinstance(Server(0).store, PinnedLRU)


class TestClusterPolicy:
    def make(self, policy, memory_factor=2.0):
        placer = RangedConsistentHashPlacer(8, 3, vnodes=32)
        return Cluster(
            placer, range(800), memory_factor=memory_factor, lru_policy=policy
        )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make("bogus")

    def test_priority_stores_used(self):
        cluster = self.make("priority")
        assert all(isinstance(s.store, PriorityClassStore) for s in cluster)

    def test_all_distinguished_resident_under_priority(self):
        cluster = self.make("priority", memory_factor=1.0)
        for item in range(0, 800, 41):
            home = cluster.placer.distinguished_for(item)
            assert item in cluster.server(home).store

    def test_joined_server_gets_the_budget_of_a_server_with_no_homes(self):
        # three items over eight servers: a server home to none gets 0
        placer = RangedConsistentHashPlacer(8, 3, vnodes=32)
        cluster = Cluster(placer, range(3), memory_factor=1.0, lru_policy="priority")
        idle = [s.store for s in cluster if s.store.n_pinned == 0]
        assert idle and all(store.capacity == 0 for store in idle)
        assert cluster.add_server(8).store.capacity == 0

    def test_total_budget_matches_memory_factor(self):
        cluster = self.make("priority", memory_factor=2.0)
        # shared budgets: resident items converge to ~2x one copy
        assert cluster.total_resident_items() <= 2 * 800 + 8 * 2

    def test_priority_simulation_runs(self, small_slashdot):
        from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
        from repro.sim.engine import run_simulation

        cfg = SimConfig(
            cluster=ClusterConfig(
                n_servers=8, replication=3, memory_factor=1.5, lru_policy="priority"
            ),
            client=ClientConfig(mode="rnb", hitchhiking=True),
            n_requests=200,
            warmup_requests=200,
            seed=9,
        )
        res = run_simulation(small_slashdot, cfg)
        assert res.tpr > 0
        assert res.stats.items_fetched > 0
