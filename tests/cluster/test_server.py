"""Tests for the simulated memcached server."""

from __future__ import annotations

import pytest

from repro.cluster.server import Server


class TestMultiGet:
    def test_all_hits(self):
        s = Server(0)
        s.pin_distinguished([1, 2, 3])
        hits, misses, hh = s.multi_get([1, 2, 3])
        assert hits == [1, 2, 3] and misses == [] and hh == []
        assert s.counters.transactions == 1
        assert s.counters.hits == 3

    def test_misses(self):
        s = Server(0, replica_capacity=10)
        s.pin_distinguished([1])
        hits, misses, _ = s.multi_get([1, 2])
        assert hits == [1] and misses == [2]
        assert s.counters.misses == 1

    def test_empty_transaction_rejected(self):
        with pytest.raises(ValueError):
            Server(0).multi_get([])

    def test_hitchhikers_counted_separately(self):
        s = Server(0, replica_capacity=10)
        s.pin_distinguished([1])
        s.preload_replicas([5])
        hits, misses, hh = s.multi_get([1], hitchhikers=[5, 6])
        assert hits == [1] and misses == [] and hh == [5]
        assert s.counters.hitchhiker_hits == 1
        assert s.counters.hitchhiker_misses == 1

    def test_txn_size_includes_hitchhikers(self):
        s = Server(0)
        s.pin_distinguished([1])
        s.multi_get([1], hitchhikers=[2, 3])
        assert s.counters.txn_sizes.counts == {3: 1}

    def test_hit_touches_lru(self):
        s = Server(0, replica_capacity=2)
        s.preload_replicas([10, 11])
        s.multi_get([10])  # 10 becomes MRU
        s.write_back(12)  # evicts 11
        assert 10 in s.store and 11 not in s.store

    def test_hitchhiker_hit_touches_lru(self):
        """Paper policy: LRU updated upon a hitchhiker hit."""
        s = Server(0, replica_capacity=2)
        s.preload_replicas([10, 11])
        s.pin_distinguished([1])
        s.multi_get([1], hitchhikers=[10])
        s.write_back(12)  # evicts 11, not the hitchhiker-touched 10
        assert 10 in s.store and 11 not in s.store

    def test_hitchhiker_miss_does_not_insert(self):
        s = Server(0, replica_capacity=5)
        s.pin_distinguished([1])
        s.multi_get([1], hitchhikers=[99])
        assert 99 not in s.store


class TestWriteBack:
    def test_write_back_inserts(self):
        s = Server(0, replica_capacity=2)
        s.write_back(7)
        assert 7 in s.store
        assert s.counters.writes == 1

    def test_write_back_respects_capacity(self):
        s = Server(0, replica_capacity=1)
        s.write_back(1)
        s.write_back(2)
        assert 1 not in s.store and 2 in s.store

    def test_unversioned_write_back_drops_an_evicted_copys_stamp(self):
        s = Server(0, replica_capacity=1)
        s.write_back(10, stamp="v1")
        s.write_back(11)  # evicts 10
        assert 10 not in s.store
        s.write_back(10)
        assert 10 in s.store and 10 not in s.stamps

    def test_a_copy_that_does_not_land_keeps_no_stamp(self):
        s = Server(0, replica_capacity=0)
        s.stamps[5] = "old"
        s.write_back(5, stamp="v2")
        assert 5 not in s.store and 5 not in s.stamps


class TestCounters:
    def test_reset(self):
        s = Server(0)
        s.pin_distinguished([1])
        s.multi_get([1])
        s.reset_counters()
        assert s.counters.transactions == 0
        assert s.counters.txn_sizes.total == 0
        assert 1 in s.store  # data survives a counter reset

    def test_items_requested_vs_returned(self):
        s = Server(0, replica_capacity=0)
        s.pin_distinguished([1])
        s.multi_get([1, 2, 3])
        assert s.counters.items_requested == 3
        assert s.counters.items_returned == 1
