"""Integration tests for the full simulation engine."""

from __future__ import annotations

import pytest

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import build_client, build_cluster, run_simulation


def cfg(mode="rnb", n_servers=8, replication=2, memory=None, **kwargs):
    client_kwargs = {
        k: kwargs.pop(k)
        for k in ("hitchhiking", "merge_window", "limit_fraction", "tie_break")
        if k in kwargs
    }
    return SimConfig(
        cluster=ClusterConfig(
            n_servers=n_servers, replication=replication, memory_factor=memory
        ),
        client=ClientConfig(mode=mode, **client_kwargs),
        n_requests=kwargs.pop("n_requests", 200),
        warmup_requests=kwargs.pop("warmup", 100),
        seed=kwargs.pop("seed", 0),
    )


class TestRunSimulation:
    def test_basic_run(self, small_slashdot):
        res = run_simulation(small_slashdot, cfg())
        assert res.stats.requests == 200
        assert res.tpr > 0
        assert res.txn_histogram.total == res.stats.transactions

    def test_deterministic(self, small_slashdot):
        a = run_simulation(small_slashdot, cfg(seed=42))
        b = run_simulation(small_slashdot, cfg(seed=42))
        assert a.tpr == b.tpr
        assert a.stats.transactions == b.stats.transactions

    def test_seed_changes_results(self, small_slashdot):
        a = run_simulation(small_slashdot, cfg(seed=1, n_requests=300))
        b = run_simulation(small_slashdot, cfg(seed=2, n_requests=300))
        assert a.stats.transactions != b.stats.transactions

    def test_replication_reduces_tpr(self, small_slashdot):
        base = run_simulation(small_slashdot, cfg(replication=1, n_requests=400))
        rnb = run_simulation(small_slashdot, cfg(replication=4, n_requests=400))
        assert rnb.tpr < base.tpr

    def test_rnb_beats_noreplication(self, small_slashdot):
        nr = run_simulation(
            small_slashdot,
            cfg(mode="noreplication", replication=1, memory=1.0, n_requests=400),
        )
        rnb = run_simulation(
            small_slashdot, cfg(replication=3, memory=None, n_requests=400)
        )
        assert rnb.tpr < nr.tpr

    def test_merge_window_normalisation(self, small_slashdot):
        merged = run_simulation(
            small_slashdot,
            cfg(mode="noreplication", replication=1, memory=1.0, merge_window=2),
        )
        assert merged.n_original_requests == 2 * merged.stats.requests
        assert merged.tpr == merged.stats.transactions / merged.n_original_requests

    def test_merging_lowers_per_request_tpr(self, small_slashdot):
        single = run_simulation(
            small_slashdot,
            cfg(mode="noreplication", replication=1, memory=1.0, n_requests=400),
        )
        merged = run_simulation(
            small_slashdot,
            cfg(
                mode="noreplication",
                replication=1,
                memory=1.0,
                merge_window=2,
                n_requests=200,
            ),
        )
        assert merged.tpr < single.tpr

    def test_limit_lowers_tpr(self, small_slashdot):
        full = run_simulation(small_slashdot, cfg(replication=2, n_requests=300))
        lim = run_simulation(
            small_slashdot, cfg(replication=2, limit_fraction=0.5, n_requests=300)
        )
        assert lim.tpr < full.tpr

    def test_fullreplication_mode(self, small_slashdot):
        res = run_simulation(
            small_slashdot,
            cfg(mode="fullreplication", n_servers=8, replication=2, n_requests=300),
        )
        assert res.stats.misses == 0
        assert res.tpr > 0

    def test_throughput_positive(self, small_slashdot):
        res = run_simulation(small_slashdot, cfg())
        assert res.throughput(DEFAULT_MEMCACHED_MODEL) > 0

    def test_warmup_excluded_from_stats(self, small_slashdot):
        res = run_simulation(small_slashdot, cfg(n_requests=100, warmup=300))
        assert res.stats.requests == 100


class TestBuilders:
    def test_build_cluster_modes(self, small_slashdot):
        c = build_cluster(cfg(), 100)
        assert c.n_servers == 8
        c2 = build_cluster(cfg(mode="fullreplication"), 100)
        # compiled like every mode's placement: the table wraps the banks
        assert c2.placer.base.banks == 2

    def test_build_client_modes(self):
        for mode, repl, mem in (
            ("rnb", 2, None),
            ("noreplication", 1, 1.0),
            ("fullreplication", 2, None),
        ):
            config = cfg(mode=mode, replication=repl, memory=mem)
            cluster = build_cluster(config, 50)
            client = build_client(config, cluster)
            # every client reads a chunk in one call
            assert hasattr(client, "tally_chunk")


class TestSimResult:
    def test_to_dict_keys(self, small_slashdot):
        res = run_simulation(small_slashdot, cfg())
        d = res.to_dict()
        for key in ("tpr", "tprps", "misses", "mean_txn_size", "mode"):
            assert key in d

    def test_tprps(self, small_slashdot):
        res = run_simulation(small_slashdot, cfg(n_servers=8))
        assert res.tprps == pytest.approx(res.tpr / 8)
