"""Sharded multiprocessing sweep engine with deterministic merge.

A single Python process is the fast path's ceiling: PR 4's pipeline
(compiled placement tables, lock-step NumPy covers, counter-only tally
execution) saturates one core long before it saturates the machine.
This module partitions a simulation's *measurement* request stream into
contiguous slices and runs each slice in a worker process, then merges
the per-shard aggregates back in shard order — producing a
:class:`repro.sim.results.SimResult` that is **bit-identical** to the
single-process run (property-tested; the CI perf-smoke gate diffs the
determinism tokens).

Why this is exact, not approximate
----------------------------------
Sharding is only offered in the engine's *tally* regime (see
``run_simulation``'s ``tally`` predicate): naive allocation
(``memory_factor=None``), pinned LRUs, no hitchhiking, no fault
injector, a deterministic rng-free tie-break.  In that regime every
request's fetch plan is a pure function of the compiled placement —
execution is pure counter arithmetic and *no request can observe any
other request's effects*.  Therefore:

* a contiguous slice of the stream processed in isolation yields the
  same per-request results as the same slice processed mid-sequence;
* the run's aggregates (:class:`repro.types.ClusterStats` counters, the
  transaction-size histogram, the ``repro.obs`` planner families) are
  order-independent sums of exact integer quantities, so merging shard
  aggregates in shard order reproduces the sequential totals bit for
  bit (integer bucket adds; float counter sums stay exact because every
  addend is an integer well below 2**53).

Each worker rebuilds the cluster and client from ``(graph, config)`` —
the compiled placement table is deterministic, and the engine's table
cache makes it cheap — then draws (and discards) the roots of the
requests before its slice offset, so shard ``i`` sees exactly the
requests the sequential run would have fed it: the stream is seeded
from the sweep seed (``derive_rng(config.seed, 1, 0)``) and drawing the
roots of ``warmup + offset`` requests advances the generator identically
to serving them, without building one.  The slice itself runs through
the engine's own phase loop (:func:`repro.sim.engine.prepare_run`).

When forking is worth it: slices must amortise process spawn + graph
pickling (~100ms+), so sharding pays off for sweep-scale runs
(thousands of requests per shard) and is skipped automatically —
falling back to the in-process engine — for tiny runs, ``workers <= 1``
or configs outside the tally envelope (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.types import ClusterStats
from repro.utils.histogram import Histogram

if TYPE_CHECKING:  # sim imports deferred: repro.core.bundling imports
    # repro.perf at module load, so shard's sim dependencies resolve at
    # call time to keep the package import graph acyclic
    from repro.sim.config import SimConfig
    from repro.sim.results import SimResult
    from repro.workloads.graphs import SocialGraph

#: Below this many measurement requests per worker, fork overhead
#: dominates and the sharded engine falls back to in-process execution.
MIN_REQUESTS_PER_SHARD = 64


def shardable(config: SimConfig) -> bool:
    """True when ``config`` is in the tally regime sharding relies on.

    Mirrors the ``tally`` predicate in
    :func:`repro.sim.engine.run_simulation` (a fresh cluster never has a
    fault injector), plus excludes the ``random`` tie-break: its rng
    draws are consumed in request order, which a shard boundary would
    shift.
    """
    return (
        config.fast_path
        and config.client.mode == "rnb"
        and config.client.tie_break not in ("least_loaded", "random")
        and config.cluster.memory_factor is None
        and config.cluster.lru_policy == "pinned"
        and not config.client.hitchhiking
    )


def plan_shards(n_requests: int, workers: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``(offset, count)`` slices of the stream.

    The first ``n_requests % workers`` shards take one extra request;
    offsets are cumulative, so concatenating the slices in shard order
    reproduces the sequential stream exactly.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(n_requests, workers)
    shards: list[tuple[int, int]] = []
    offset = 0
    for i in range(workers):
        count = base + (1 if i < extra else 0)
        if count == 0:
            break
        shards.append((offset, count))
        offset += count
    return shards


def _run_shard(
    graph: SocialGraph,
    config: SimConfig,
    offset: int,
    count: int,
    collect_metrics: bool,
):
    """Execute one contiguous slice of the measurement stream.

    Module-level (picklable) worker.  Returns ``(stats, txn_histogram,
    metrics_registry_or_None)`` — the per-shard aggregates the parent
    merges in shard order.
    """
    # Imported here so a forked worker resolves everything in its own
    # interpreter state (and to avoid an engine<->shard import cycle).
    from repro.obs import MetricsRegistry
    from repro.sim.engine import prepare_run

    registry = MetricsRegistry() if collect_metrics else None
    cluster, run_phase, skip = prepare_run(graph, config, metrics=registry)

    # Pass over everything before this slice.  In the tally regime
    # execution has no observable side effects on later requests, so
    # drawing the roots of the sequential run's warmup + preceding
    # shards is equivalent to serving them.  One exception: the
    # sequential engine's warmup phase *plans* through the bundler,
    # which feeds the obs planner families before counters reset — so
    # when telemetry is collected, shard 0 runs the warmup as the engine
    # does, to keep the merged registry byte-identical.
    if collect_metrics and offset == 0:
        run_phase(config.warmup_requests, None)
        cluster.reset_counters()
    else:
        skip(config.warmup_requests + offset)

    stats = ClusterStats()
    run_phase(count, stats)
    return stats, cluster.txn_size_histogram(), registry


def run_simulation_sharded(
    graph: SocialGraph,
    config: SimConfig,
    *,
    workers: int,
    metrics=None,
    inline: bool = False,
) -> SimResult:
    """Sharded :func:`repro.sim.engine.run_simulation`, bit-identical.

    Partitions the measurement stream across ``workers`` processes and
    deterministically merges the per-shard tallies, histograms and
    telemetry in shard order.  Falls back to the in-process engine when
    the config is outside the tally envelope, ``workers <= 1``, or the
    run is too small to amortise forking.

    ``inline=True`` runs the shard workers serially in this process —
    same partition, same merge, no fork — which is how the property
    tests sweep many seed/shard combinations cheaply and how the merge
    logic stays testable without multiprocessing flakiness.
    """
    from repro.sim.engine import run_simulation, sim_result

    shards = plan_shards(config.n_requests, max(1, workers))
    if (
        workers <= 1
        or not shardable(config)
        or len(shards) <= 1
        or (not inline and config.n_requests < MIN_REQUESTS_PER_SHARD * 2)
    ):
        return run_simulation(graph, config, metrics=metrics)

    collect = metrics is not None
    if inline:
        parts = [
            _run_shard(graph, config, offset, count, collect)
            for offset, count in shards
        ]
    else:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            futures = [
                pool.submit(_run_shard, graph, config, offset, count, collect)
                for offset, count in shards
            ]
            parts = [f.result() for f in futures]

    stats = ClusterStats()
    txn_histogram = Histogram()
    for shard_stats, shard_txns, shard_registry in parts:
        stats.merge(shard_stats)
        txn_histogram.merge(shard_txns)
        if collect and shard_registry is not None:
            metrics.merge(shard_registry)

    return sim_result(graph, config, stats, txn_histogram)
