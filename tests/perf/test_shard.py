"""The sharded engine must be bit-identical to the in-process run.

``run_simulation_sharded`` partitions the measurement stream across
workers and merges per-shard aggregates; every observable quantity —
headline counters, percentile-bearing histograms, the determinism
token, the obs registry — must match the sequential engine exactly for
any worker count (ISSUE 9's property).  Inline mode runs the same
partition + merge without forking, so hypothesis can sweep many
seed/shard combinations cheaply; one test forks real processes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.perf.shard import (
    MIN_REQUESTS_PER_SHARD,
    plan_shards,
    run_simulation_sharded,
    shardable,
)
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.types import RequestBlock
from repro.workloads.synthetic import make_slashdot_like


@pytest.fixture(scope="module")
def graph():
    return make_slashdot_like(seed=7, scale=0.02)


def _config(seed: int = 2013, n_requests: int = 150, **kwargs) -> SimConfig:
    base = dict(
        cluster=ClusterConfig(n_servers=16, replication=3),
        client=ClientConfig(mode="rnb"),
        n_requests=n_requests,
        warmup_requests=0,
        seed=seed,
        fast_path=True,
    )
    base.update(kwargs)
    return SimConfig(**base)


def _assert_identical(a, b):
    assert a.stats == b.stats
    assert a.txn_histogram.counts == b.txn_histogram.counts
    assert a.txn_histogram.quantile(0.5) == b.txn_histogram.quantile(0.5)
    assert a.txn_histogram.quantile(0.99) == b.txn_histogram.quantile(0.99)
    assert a.to_dict() == b.to_dict()
    assert a.determinism_token() == b.determinism_token()


# -- partition properties ----------------------------------------------------


@given(
    n_requests=st.integers(min_value=0, max_value=5000),
    workers=st.integers(min_value=1, max_value=64),
)
def test_plan_shards_partitions_exactly(n_requests, workers):
    shards = plan_shards(n_requests, workers)
    assert sum(count for _, count in shards) == n_requests
    # contiguous, in order, no gaps
    expect = 0
    for offset, count in shards:
        assert offset == expect
        assert count > 0
        expect += count
    # balanced: sizes differ by at most one
    if shards:
        sizes = [count for _, count in shards]
        assert max(sizes) - min(sizes) <= 1
    assert len(shards) <= workers


def test_plan_shards_rejects_zero_workers():
    with pytest.raises(ValueError):
        plan_shards(10, 0)


# -- shardability ------------------------------------------------------------


def test_shardable_tally_envelope():
    assert shardable(_config())
    assert not shardable(_config(fast_path=False))
    assert not shardable(
        _config(client=ClientConfig(mode="rnb", tie_break="least_loaded"))
    )
    assert not shardable(
        _config(client=ClientConfig(mode="rnb", tie_break="random"))
    )
    assert not shardable(_config(client=ClientConfig(mode="rnb", hitchhiking=True)))
    assert not shardable(
        _config(
            cluster=ClusterConfig(n_servers=16, replication=1),
            client=ClientConfig(mode="noreplication"),
        )
    )
    assert not shardable(
        _config(cluster=ClusterConfig(n_servers=16, replication=3, memory_factor=2.0))
    )
    assert not shardable(
        _config(
            cluster=ClusterConfig(n_servers=16, replication=3, lru_policy="priority")
        )
    )


# -- bit-identical merge (the tentpole property) -----------------------------


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2, 4]),
)
def test_sharded_matches_sequential(graph, seed, workers):
    config = _config(seed=seed)
    sequential = run_simulation(graph, config)
    sharded = run_simulation_sharded(graph, config, workers=workers, inline=True)
    _assert_identical(sequential, sharded)


@settings(max_examples=6, deadline=None)
@given(workers=st.sampled_from([2, 3, 7]))
def test_sharded_matches_with_warmup_and_merge_window(graph, workers):
    config = _config(
        n_requests=120,
        warmup_requests=40,
        client=ClientConfig(mode="rnb", merge_window=3),
    )
    sequential = run_simulation(graph, config)
    sharded = run_simulation_sharded(graph, config, workers=workers, inline=True)
    _assert_identical(sequential, sharded)


def test_sharded_metrics_registry_merges_identically(graph):
    # Warmup plans feed the obs planner families before counters reset,
    # so shard 0 re-plans warmup when telemetry is collected; the merged
    # registry must match the sequential one's token exactly.
    config = _config(n_requests=150, warmup_requests=50)
    seq_metrics = MetricsRegistry()
    run_simulation(graph, config, metrics=seq_metrics)
    shard_metrics = MetricsRegistry()
    run_simulation_sharded(
        graph, config, workers=3, metrics=shard_metrics, inline=True
    )
    assert seq_metrics.token() == shard_metrics.token()
    assert seq_metrics.snapshot() == shard_metrics.snapshot()


def test_shards_skip_by_root_draws_and_build_no_request(graph, monkeypatch):
    """A shard reaches its slice by drawing roots and runs it as blocks: on
    the plain stream nothing — prefix, warm-up or slice — becomes a ``Request``."""
    config = _config(n_requests=300, warmup_requests=70)
    sequential = run_simulation(graph, config)

    def no_requests(self):
        raise AssertionError("a tally shard built Request objects")

    monkeypatch.setattr(RequestBlock, "requests", no_requests)
    for metrics in (None, MetricsRegistry()):
        sharded = run_simulation_sharded(
            graph, config, workers=3, metrics=metrics, inline=True
        )
        _assert_identical(sequential, sharded)


def test_sharded_limit_requests_match(graph):
    # LIMIT chunks mix block-planned and scalar-planned requests
    config = _config(
        n_requests=200, warmup_requests=30, client=ClientConfig(mode="rnb", limit_fraction=0.5)
    )
    sequential = run_simulation(graph, config)
    sharded = run_simulation_sharded(graph, config, workers=3, inline=True)
    _assert_identical(sequential, sharded)


def test_sharded_real_processes_match(graph):
    # One real ProcessPoolExecutor run: the pickled-graph round trip and
    # forked-interpreter rebuild must not perturb anything.
    config = _config(n_requests=MIN_REQUESTS_PER_SHARD * 3)
    sequential = run_simulation(graph, config)
    sharded = run_simulation_sharded(graph, config, workers=2)
    _assert_identical(sequential, sharded)


# -- fallbacks ---------------------------------------------------------------


def test_small_runs_fall_back_in_process(graph):
    config = _config(n_requests=MIN_REQUESTS_PER_SHARD)  # below the 2x floor
    result = run_simulation_sharded(graph, config, workers=4)
    _assert_identical(run_simulation(graph, config), result)


def test_unshardable_config_falls_back(graph):
    config = _config(
        n_requests=200,
        cluster=ClusterConfig(n_servers=16, replication=3, memory_factor=2.0),
        warmup_requests=100,
    )
    result = run_simulation(graph, config, workers=4)
    _assert_identical(run_simulation(graph, config), result)


def test_run_simulation_workers_dispatch(graph):
    # the engine's workers= knob routes through the sharded path and
    # stays bit-identical
    config = _config(n_requests=MIN_REQUESTS_PER_SHARD * 3, seed=99)
    base = run_simulation(graph, config)
    via_engine = run_simulation(graph, config, workers=2)
    _assert_identical(base, via_engine)


def test_shard_results_independent_of_worker_count(graph):
    config = _config(seed=5)
    tokens = {
        run_simulation_sharded(
            graph, config, workers=w, inline=True
        ).determinism_token()
        for w in (1, 2, 3, 4, 5, 8)
    }
    assert len(tokens) == 1
