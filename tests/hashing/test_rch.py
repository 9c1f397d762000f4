"""Tests for Ranged Consistent Hashing placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.rch import RangedConsistentHashPlacer


class TestValidation:
    def test_bad_replication(self):
        with pytest.raises(ConfigurationError):
            RangedConsistentHashPlacer(4, 5)
        with pytest.raises(ConfigurationError):
            RangedConsistentHashPlacer(4, 0)

    def test_bad_servers(self):
        with pytest.raises(ConfigurationError):
            RangedConsistentHashPlacer(0, 1)


class TestReplicaSets:
    def test_distinct_servers(self):
        placer = RangedConsistentHashPlacer(16, 4, vnodes=32)
        for item in range(500):
            servers = placer.servers_for(item)
            assert len(servers) == 4
            assert len(set(servers)) == 4
            assert all(0 <= s < 16 for s in servers)

    def test_deterministic_across_instances(self):
        a = RangedConsistentHashPlacer(16, 3, seed=5)
        b = RangedConsistentHashPlacer(16, 3, seed=5)
        for item in range(200):
            assert a.servers_for(item) == b.servers_for(item)

    def test_distinguished_is_plain_consistent_hashing(self):
        """RnB's distinguished copy = classic memcached location, so a
        deployment can be migrated in place (paper section IV)."""
        rch = RangedConsistentHashPlacer(16, 4, vnodes=32, seed=3)
        single = RangedConsistentHashPlacer(16, 1, vnodes=32, seed=3)
        for item in range(300):
            assert rch.distinguished_for(item) == single.distinguished_for(item)

    def test_replicas_prefix_stable_in_replication(self):
        """Raising R only appends replicas — existing copies never move."""
        r2 = RangedConsistentHashPlacer(16, 2, vnodes=32, seed=1)
        r4 = RangedConsistentHashPlacer(16, 4, vnodes=32, seed=1)
        for item in range(200):
            assert r4.servers_for(item)[:2] == r2.servers_for(item)

    def test_replicas_for_wraps_servers(self):
        placer = RangedConsistentHashPlacer(8, 2)
        rs = placer.replicas_for(42)
        assert rs.item == 42
        assert rs.servers == placer.servers_for(42)
        assert rs.distinguished == placer.distinguished_for(42)


class TestBalance:
    def test_replica_load_balanced(self):
        """Every server hosts ~ R*items/N replicas."""
        placer = RangedConsistentHashPlacer(16, 3, vnodes=128)
        counts = np.zeros(16)
        n_items = 4000
        for item in range(n_items):
            for s in placer.servers_for(item):
                counts[s] += 1
        expected = 3 * n_items / 16
        assert counts.min() > 0.6 * expected
        assert counts.max() < 1.5 * expected

    def test_distinguished_load_balanced(self):
        placer = RangedConsistentHashPlacer(8, 3, vnodes=128)
        counts = np.zeros(8)
        n_items = 4000
        for item in range(n_items):
            counts[placer.distinguished_for(item)] += 1
        expected = n_items / 8
        assert counts.min() > 0.6 * expected
        assert counts.max() < 1.5 * expected

    def test_pairwise_coverage(self):
        """Replica sets hit many distinct server pairs (spread, not banks)."""
        placer = RangedConsistentHashPlacer(12, 2, vnodes=64)
        pairs = {tuple(sorted(placer.servers_for(i))) for i in range(2000)}
        assert len(pairs) > 50  # of C(12,2)=66 possible
