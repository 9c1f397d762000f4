"""The compiled pipeline is an implementation detail: results are bit-identical.

``run_simulation`` serves an RnB run from a compiled placement table,
chunked ``plan_batch`` planning and (when nothing can miss) counter-only
execution.  None of that may change a single number in the result —
these tests run it and the request-at-a-time oracle (``_oracle.run_scalar``:
raw placer, one ``execute`` per request) over the same configurations and
require equality of every aggregate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL
from repro.obs import MetricsRegistry
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim import engine
from repro.sim.engine import _TABLE_CACHE, build_cluster, run_simulation
from repro.workloads.synthetic import make_slashdot_like
from tests.sim._oracle import run_scalar

CONFIGS = [
    pytest.param(dict(), dict(), id="defaults"),
    pytest.param(dict(replication=1), dict(), id="r1"),
    pytest.param(dict(), dict(hitchhiking=True), id="hitchhiking"),
    pytest.param(dict(), dict(single_item_rule=False), id="no-single-item-rule"),
    pytest.param(dict(memory_factor=1.5), dict(), id="limited-memory"),
    pytest.param(
        dict(memory_factor=1.5, lru_policy="priority"), dict(), id="priority-lru"
    ),
    pytest.param(dict(placement="multihash"), dict(), id="multihash"),
    pytest.param(
        dict(memory_factor=1.2), dict(limit_fraction=0.5), id="limit"
    ),
    pytest.param(dict(), dict(merge_window=3), id="merged"),
    pytest.param(dict(), dict(tie_break="random"), id="random-ties"),
    pytest.param(
        dict(memory_factor=1.5),
        dict(tie_break="random", hitchhiking=True),
        id="random-ties-hitchhiking",
    ),
    pytest.param(dict(placement="random"), dict(), id="random-placement"),
    pytest.param(dict(memory_factor=1.5), dict(write_back=False), id="no-write-back"),
    pytest.param(dict(), dict(limit_fraction=1.0), id="limit-all"),
    pytest.param(dict(replication=4, memory_factor=2.0), dict(), id="fig8-shape"),
    pytest.param(dict(memory_factor=1.5), dict(merge_window=2), id="merged-limited-memory"),
]


def _config(cluster_kwargs, client_kwargs):
    cluster_kwargs = {"n_servers": 8, "replication": 3, **cluster_kwargs}
    warmup = 50 if cluster_kwargs.get("memory_factor") else 0
    return SimConfig(
        cluster=ClusterConfig(**cluster_kwargs),
        client=ClientConfig(mode="rnb", **client_kwargs),
        n_requests=120,
        warmup_requests=warmup,
        seed=2013,
        batch_size=32,
    )


@pytest.mark.parametrize("cluster_kwargs,client_kwargs", CONFIGS)
def test_fast_path_bit_identical(small_slashdot, cluster_kwargs, client_kwargs):
    config = _config(cluster_kwargs, client_kwargs)
    slow = run_scalar(small_slashdot, config)
    fast = run_simulation(small_slashdot, config)
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert fast.txn_histogram == slow.txn_histogram
    assert fast.meta == slow.meta
    assert fast.n_original_requests == slow.n_original_requests


TALLY_RUNS = [
    pytest.param(dict(), dict(), id="plain"),
    pytest.param(dict(merge_window=2), dict(), id="merge-2"),
    pytest.param(dict(limit_fraction=0.5), dict(), id="limit-half"),
    pytest.param(dict(), dict(warmup_requests=333), id="warm-up"),
    pytest.param(dict(single_item_rule=False), dict(batch_size=1000), id="one-chunk"),
]


def _everything(result, registry):
    """All a run reports, dicts as ordered lists: experiments sum floats over them."""
    return {
        "token": result.determinism_token(),
        "to_dict": result.to_dict(),
        "stats": dataclasses.asdict(result.stats),
        "txn_size_histogram": list(result.stats.txn_size_histogram.items()),
        "per_server_transactions": list(result.stats.per_server_transactions.items()),
        "txn_histogram": list(result.txn_histogram.counts.items()),
        "throughput": repr(result.throughput(DEFAULT_MEMCACHED_MODEL)),
        "metrics": registry.snapshot(),
    }


@pytest.mark.parametrize("client_kwargs,sim_kwargs", TALLY_RUNS)
def test_tally_regime_reports_what_the_scalar_engine_does(
    small_slashdot, client_kwargs, sim_kwargs
):
    """The tally regime (naive allocation) never builds a result per request;
    the scalar oracle builds nothing else."""
    config = SimConfig(
        cluster=ClusterConfig(n_servers=16, replication=3),
        client=ClientConfig(mode="rnb", **client_kwargs),
        n_requests=700,
        seed=2013,
        **{"warmup_requests": 0, "batch_size": 256, **sim_kwargs},
    )
    reports = []
    for run in (run_scalar, run_simulation):
        registry = MetricsRegistry()
        result = run(small_slashdot, config, metrics=registry)
        reports.append(_everything(result, registry))
    assert reports[1] == reports[0]


def test_batch_size_does_not_change_results(small_slashdot):
    results = [
        run_simulation(
            small_slashdot,
            SimConfig(
                cluster=ClusterConfig(n_servers=8, replication=3),
                client=ClientConfig(mode="rnb"),
                n_requests=100,
                warmup_requests=0,
                seed=2013,
                batch_size=batch_size,
            ),
        )
        for batch_size in (1, 7, 64, 1024)
    ]
    first = results[0]
    for other in results[1:]:
        assert dataclasses.asdict(other.stats) == dataclasses.asdict(first.stats)
        assert other.txn_histogram == first.txn_histogram


@pytest.mark.parametrize("memory_factor", [None, 1.5], ids=["tally", "executor"])
def test_batch_size_does_not_change_results_over_many_chunks(small_slashdot, memory_factor):
    """Several chunks a phase, a warm-up that ends mid-chunk, and limited
    memory, which runs the executor regime instead of the tally one."""
    base = SimConfig(
        cluster=ClusterConfig(n_servers=8, replication=3, memory_factor=memory_factor),
        client=ClientConfig(mode="rnb"),
        warmup_requests=777,
        seed=2013,
    )
    base = dataclasses.replace(base, n_requests=2 * base.batch_size + 555)
    results = [
        run_simulation(small_slashdot, dataclasses.replace(base, batch_size=batch_size))
        for batch_size in (1, 7, 256, 2048)
    ] + [run_simulation(small_slashdot, base)]
    first = results[0]
    for other in results[1:]:
        assert other.determinism_token() == first.determinism_token()
        assert dataclasses.asdict(other.stats) == dataclasses.asdict(first.stats)
        assert other.txn_histogram == first.txn_histogram


class TestPinnedBenchShapes:
    """``bench/``'s two simulator workloads give the numbers they gave when
    the literals below were generated, so a change to chunking, the cover
    kernel or provisioning that moves a result fails in tier 1.  Shapes as
    in ``bench/spec.py``: slashdot-like graph at scale 0.1, 16 servers."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_slashdot_like(scale=0.1, seed=7)

    @pytest.mark.parametrize(
        "replication, memory_factor, n_requests, warmup, token, tpr",
        [
            (3, None, 20_000, 0, 18409122967460574868, 2.62805),
            (4, 2.0, 5_000, 2_500, 11440372295460263216, 3.372),
        ],
        ids=["sim_fig6", "sim_fig8"],
    )
    def test_pinned_token(
        self, graph, replication, memory_factor, n_requests, warmup, token, tpr
    ):
        config = SimConfig(
            cluster=ClusterConfig(
                n_servers=16, replication=replication, memory_factor=memory_factor
            ),
            client=ClientConfig(mode="rnb"),
            n_requests=n_requests,
            warmup_requests=warmup,
            seed=2013,
        )
        result = run_simulation(graph, config)
        assert result.determinism_token() == token
        assert result.tpr == tpr


def test_compiled_table_cache_reused(small_slashdot, monkeypatch):
    config = SimConfig(
        cluster=ClusterConfig(n_servers=8, replication=3),
        client=ClientConfig(mode="rnb"),
        n_requests=10,
        seed=2013,
    )
    _TABLE_CACHE.clear()
    first = build_cluster(config, small_slashdot.n_nodes)

    def no_raw_placer(*args, **kwargs):
        raise AssertionError("a cache hit built the raw placer")

    # a hit needs no placer: it is only the table compiler's input
    monkeypatch.setattr(engine, "make_placer", no_raw_placer)
    second = build_cluster(config, small_slashdot.n_nodes)
    assert first.placer is second.placer
    # a different memory factor shares the same placement table
    third = build_cluster(
        dataclasses.replace(
            config, cluster=ClusterConfig(n_servers=8, replication=3, memory_factor=1.5)
        ),
        small_slashdot.n_nodes,
    )
    assert third.placer is first.placer
    assert len(_TABLE_CACHE) == 1
