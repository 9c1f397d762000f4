"""Validation tests for simulation configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig


class TestClusterConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig(n_servers=16)
        assert cfg.replication == 1
        assert cfg.memory_factor is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_servers": 0},
            {"n_servers": 4, "replication": 5},
            {"n_servers": 4, "replication": 0},
            {"n_servers": 4, "placement": "bogus"},
            {"n_servers": 4, "memory_factor": 0.5},
            {"n_servers": 4, "vnodes": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**kwargs)


class TestClientConfig:
    def test_defaults_valid(self):
        cfg = ClientConfig()
        assert cfg.mode == "rnb"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"tie_break": "bogus"},
            {"merge_window": 0},
            {"limit_fraction": 0.0},
            {"limit_fraction": 1.1},
            {"limit_fraction": 0.5, "merge_window": 2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClientConfig(**kwargs)


class TestSimConfig:
    def base(self, **kwargs):
        defaults = dict(
            cluster=ClusterConfig(n_servers=16, replication=2),
            client=ClientConfig(),
            n_requests=10,
            warmup_requests=0,
        )
        defaults.update(kwargs)
        return SimConfig(**defaults)

    def test_valid(self):
        assert self.base().seed == 0

    def test_request_counts(self):
        with pytest.raises(ConfigurationError):
            self.base(n_requests=0)
        with pytest.raises(ConfigurationError):
            self.base(warmup_requests=-1)

    def test_noreplication_needs_r1(self):
        with pytest.raises(ConfigurationError):
            self.base(client=ClientConfig(mode="noreplication"))

    @pytest.mark.parametrize("placement", ["multihash", "random"])
    @pytest.mark.parametrize(
        "mode, replication", [("noreplication", 1), ("fullreplication", 2)]
    )
    def test_baselines_place_by_consistent_hashing(self, mode, replication, placement):
        """Both baselines place by consistent hashing, whatever the cluster
        asks for: a placement they would ignore is refused."""
        with pytest.raises(ConfigurationError, match="placement"):
            SimConfig(
                cluster=ClusterConfig(16, replication, placement=placement),
                client=ClientConfig(mode=mode),
            )

    def test_fullreplication_divisibility(self):
        with pytest.raises(ConfigurationError):
            SimConfig(
                cluster=ClusterConfig(n_servers=10, replication=3),
                client=ClientConfig(mode="fullreplication"),
                n_requests=10,
            )

    @pytest.mark.parametrize(
        "client",
        [
            dict(hitchhiking=True),
            dict(tie_break="random"),
            dict(tie_break="least_loaded"),
        ],
        ids=["hitchhiking", "random", "least_loaded"],
    )
    def test_fullreplication_refuses_what_it_would_ignore(self, client):
        """A bank holds one copy of each item: no replica to hitchhike on and
        no tie to break, so asking for either is refused."""
        with pytest.raises(ConfigurationError, match="full replication"):
            SimConfig(
                cluster=ClusterConfig(n_servers=8, replication=2),
                client=ClientConfig(mode="fullreplication", **client),
            )

    def test_fullreplication_needs_unlimited_memory(self):
        with pytest.raises(ConfigurationError):
            SimConfig(
                cluster=ClusterConfig(n_servers=8, replication=2, memory_factor=2.0),
                client=ClientConfig(mode="fullreplication"),
                n_requests=10,
            )
