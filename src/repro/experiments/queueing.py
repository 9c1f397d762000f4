"""Latency vs offered load with queueing: where the fleet saturates.

The end-to-end throughput story (paper §V-B future work): sweep the
offered request rate on a fixed 16-server fleet and measure p95 latency
for the classic client and RnB (R=4, memory-rich), under Poisson
arrivals and FIFO server queues — :func:`repro.overload.desim.
simulate_overload` with every client policy off.

Expected outcome: identical latency at low load (both are RTT-bound);
the classic deployment's latency explodes at the load where its
per-request transaction work saturates the servers, while RnB — doing
roughly half the transactions — keeps serving far beyond it.  The knee
ratio approximates the TPR-derived throughput ratio of Fig 3's
methodology, now with queue dynamics instead of a work-conservation
argument.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL, CostModel
from repro.core.bundling import Bundler
from repro.experiments.base import ExperimentResult
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.cluster.placement import SingleHashPlacer
from repro.overload.desim import simulate_overload
from repro.utils.rng import derive_rng
from repro.workloads.graphs import SocialGraph
from repro.workloads.requests import EgoRequestGenerator
from repro.workloads.synthetic import make_slashdot_like

DEFAULT_LOAD_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6)


def _nominal_capacity(
    graph: SocialGraph,
    placer: SingleHashPlacer,
    n_servers: int,
    cost_model: CostModel,
    seed: int,
) -> float:
    """Work-conservation capacity of the classic deployment, used to scale
    the load axis.  A request's transactions are its items grouped by home
    in first-seen order, and the sum runs in that order: summing the
    bundler's server-sorted transactions instead moves the result by an
    ulp at some scales, and the pinned queueing token with it."""
    gen = EgoRequestGenerator(graph, rng=derive_rng(seed, 10))
    total = 0.0
    n = 400
    for request in gen.stream(n):
        groups: dict[int, int] = {}
        for item in request.items:
            home = placer.distinguished_for(item)
            groups[home] = groups.get(home, 0) + 1
        for n_items in groups.values():
            total += cost_model.txn_time(n_items)
    return n_servers / (total / n)


def run(
    graph: SocialGraph | None = None,
    *,
    n_servers: int = 16,
    replication: int = 4,
    load_fractions=DEFAULT_LOAD_FRACTIONS,
    n_requests: int = 6000,
    scale: float = 0.1,
    seed: int = 2013,
    cost_model: CostModel = DEFAULT_MEMCACHED_MODEL,
) -> list[ExperimentResult]:
    graph = graph or make_slashdot_like(seed=seed, scale=scale)

    single = SingleHashPlacer(n_servers, vnodes=64)
    rch = RangedConsistentHashPlacer(n_servers, replication, vnodes=64)
    bundlers = {
        "classic": Bundler(single),
        f"RnB R={replication}": Bundler(rch),
    }

    # scale the load axis by the CLASSIC deployment's nominal capacity so
    # fraction 1.0 is exactly its work-conservation limit
    base_capacity = _nominal_capacity(graph, single, n_servers, cost_model, seed)

    series: dict[str, list[float]] = {}
    for label, bundler in bundlers.items():
        p95s, utils = [], []
        for frac in load_fractions:
            gen = EgoRequestGenerator(graph, rng=derive_rng(seed, 11, int(frac * 100)))
            result = simulate_overload(
                itertools.islice(gen.stream(), n_requests),
                bundler,
                n_servers=n_servers,
                cost_model=cost_model,
                arrival_rate=frac * base_capacity,
                rng=derive_rng(seed, 12, int(frac * 100)),
            )
            p95s.append(float(np.percentile(result.latencies, 95)) * 1e6)
            utils.append(result.max_utilization)
        series[f"{label} p95 us"] = p95s
        series[f"{label} max util"] = utils

    return [
        ExperimentResult(
            name="queueing",
            title=(
                f"Queueing: p95 latency vs offered load "
                f"(load 1.0 = classic capacity, {n_servers} servers)"
            ),
            x_label="load",
            x_values=list(load_fractions),
            series=series,
            expectation=(
                "equal latency at low load; classic p95 explodes approaching "
                "load 1.0 while RnB stays flat well past it (its knee sits "
                "near the TPR ratio x classic capacity)"
            ),
            meta={"graph": graph.name, "base_capacity_rps": base_capacity},
        )
    ]
