"""Tests for placement policies: the protocol, full replication, random."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.placement import (
    FullReplicationPlacer,
    RandomPlacer,
    ReplicaPlacer,
    make_placer,
)
from repro.errors import ConfigurationError
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "placer",
        [
            RangedConsistentHashPlacer(8, 1),
            FullReplicationPlacer(8, 2),
            RandomPlacer(8, 3),
            RangedConsistentHashPlacer(8, 3),
            MultiHashPlacer(8, 3),
        ],
        ids=["single", "full", "random", "rch", "multihash"],
    )
    def test_satisfies_replica_placer(self, placer):
        assert isinstance(placer, ReplicaPlacer)
        rs = placer.replicas_for(123)
        assert rs.servers == placer.servers_for(123)
        assert rs.distinguished == placer.distinguished_for(123)
        assert len(rs.servers) == placer.replication
        assert len(set(rs.servers)) == len(rs.servers)
        assert all(0 <= s < placer.n_servers for s in rs.servers)


class TestFullReplicationPlacer:
    def test_banks_must_divide(self):
        with pytest.raises(ConfigurationError):
            FullReplicationPlacer(10, 3)

    def test_banks_positive(self):
        with pytest.raises(ConfigurationError):
            FullReplicationPlacer(8, 0)

    def test_same_offset_in_every_bank(self):
        p = FullReplicationPlacer(12, 3)
        for item in range(200):
            servers = p.servers_for(item)
            offsets = {s % p.bank_size for s in servers}
            banks = sorted(s // p.bank_size for s in servers)
            assert len(offsets) == 1
            assert banks == [0, 1, 2]

    def test_each_bank_holds_full_copy(self):
        """Every item has exactly one replica per bank."""
        p = FullReplicationPlacer(8, 2)
        for item in range(100):
            servers = p.servers_for(item)
            assert len(servers) == 2
            assert servers[0] < 4 <= servers[1]

    def test_within_bank_distribution(self):
        p = FullReplicationPlacer(8, 2)
        counts = np.zeros(4)
        for item in range(2000):
            counts[p.distinguished_for(item)] += 1
        assert counts.min() > 0.6 * 500
        assert counts.max() < 1.5 * 500


class TestRandomPlacer:
    def test_memoised_determinism(self):
        p = RandomPlacer(16, 4, seed=3)
        assert p.servers_for(9) == p.servers_for(9)
        q = RandomPlacer(16, 4, seed=3)
        assert p.servers_for(9) == q.servers_for(9)

    def test_uniform_over_servers(self):
        p = RandomPlacer(8, 1)
        counts = np.zeros(8)
        for item in range(4000):
            counts[p.servers_for(item)[0]] += 1
        expected = 4000 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 24.3  # 7 dof, p ~ 0.001

    def test_replication_bounds(self):
        with pytest.raises(ConfigurationError):
            RandomPlacer(4, 5)


class TestMakePlacer:
    def test_known_kinds(self):
        assert isinstance(make_placer("rch", 8, 2), RangedConsistentHashPlacer)
        assert isinstance(make_placer("multihash", 8, 2), MultiHashPlacer)
        assert isinstance(make_placer("random", 8, 2), RandomPlacer)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_placer("nope", 8, 2)

    def test_kwargs_forwarded(self):
        p = make_placer("rch", 8, 2, vnodes=16)
        assert p.ring.vnodes == 16
