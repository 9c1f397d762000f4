"""Single-item workloads and cross-request bundling (paper §III-G).

"Data items are read individually (single-item requests), without any
grouping of the requested items: in such cases, basic RnB would do
nothing, but cross-request bundling can still help."

This experiment generates single-item requests (Zipf-popular, modelling
point lookups) and sweeps the merge window: window 1 means every lookup
is its own transaction (TPR = 1, the floor — basic RnB genuinely does
nothing); larger windows turn batches of lookups into multi-item
requests whose items can then be bundled, and replication multiplies the
bundling opportunities.

The y value is transactions per ORIGINAL lookup; the win condition is
dropping well below 1.0.
"""

from __future__ import annotations

from itertools import islice

from repro.core.merge import merge_stream
from repro.experiments.base import ExperimentResult
from repro.sim.config import ClusterConfig, SimConfig
from repro.sim.engine import build_client, build_cluster
from repro.types import ClusterStats
from repro.utils.rng import derive_rng
from repro.workloads.requests import ZipfRequestGenerator

DEFAULT_WINDOWS = (1, 2, 4, 8, 16)


def _run_point(
    *,
    n_servers: int,
    replication: int,
    n_items: int,
    window: int,
    n_requests: int,
    seed: int,
) -> float:
    config = SimConfig(
        cluster=ClusterConfig(
            n_servers=n_servers,
            replication=replication,
            memory_factor=1.0 if replication == 1 else None,
        ),
        n_requests=n_requests,
        warmup_requests=0,
        seed=seed,
    )
    cluster = build_cluster(config, n_items)
    client = build_client(config, cluster)
    gen = ZipfRequestGenerator(
        n_items, 1, exponent=0.9, rng=derive_rng(seed, window, replication)
    )
    merged_count = n_requests // window
    stats = ClusterStats()
    client.execute_chunk(islice(merge_stream(gen.stream(), window), merged_count), stats)
    return stats.transactions / (merged_count * window)


def run(
    *,
    n_servers: int = 16,
    n_items: int = 20_000,
    replications=(1, 4),
    windows=DEFAULT_WINDOWS,
    n_requests: int = 3200,
    seed: int = 2013,
) -> list[ExperimentResult]:
    series: dict[str, list[float]] = {}
    for r in replications:
        label = "no replication" if r == 1 else f"RnB R={r}"
        series[label] = [
            _run_point(
                n_servers=n_servers,
                replication=r,
                n_items=n_items,
                window=w,
                n_requests=n_requests,
                seed=seed,
            )
            for w in windows
        ]
    return [
        ExperimentResult(
            name="single_item",
            title=(
                "Single-item lookups: transactions per lookup vs merge window "
                f"({n_servers} servers)"
            ),
            x_label="merge window",
            x_values=list(windows),
            series=series,
            expectation=(
                "window 1 pins everyone at 1.0 (basic RnB does nothing for "
                "point lookups); merging drops transactions per lookup below "
                "1, and replication amplifies the drop at larger windows"
            ),
            meta={"n_items": n_items},
        )
    ]
