"""Reference implementation: the simulator as the paper states it.

"Requests were simulated individually" (§III-B): the placer as
``make_placer`` built it (no :class:`repro.perf.PlacementTable`), one
``client.execute`` per request, every request a :class:`repro.types.Request`.
``run_simulation`` compiles the placement, plans a chunk per kernel call
and, under naive allocation, never builds a result per request;
``test_fast_path.py`` and ``tests/overload/test_bit_identity.py`` hold it
to this loop on every number a run reports.
"""

from __future__ import annotations

from itertools import islice

from repro.cluster.cluster import Cluster
from repro.cluster.placement import make_placer
from repro.sim.config import SimConfig
from repro.sim.engine import _request_stream, build_client
from repro.sim.results import SimResult
from repro.types import ClusterStats
from repro.workloads.graphs import SocialGraph


def run_scalar(graph: SocialGraph, config: SimConfig, metrics=None) -> SimResult:
    """``run_simulation(graph, config, metrics=metrics)``, request at a time."""
    assert config.client.mode == "rnb"  # the baselines' placers are never compiled
    cc = config.cluster
    placer = make_placer(
        cc.placement,
        cc.n_servers,
        cc.replication,
        seed=cc.placement_seed,
        **({"vnodes": cc.vnodes} if cc.placement == "rch" else {}),
    )
    cluster = Cluster(
        placer, range(graph.n_nodes), memory_factor=cc.memory_factor, lru_policy=cc.lru_policy
    )
    client = build_client(config, cluster, metrics=metrics)

    stream = iter(_request_stream(graph, config, 0))
    for request in islice(stream, config.warmup_requests):
        client.execute(request)
    cluster.reset_counters()
    stats = ClusterStats()
    for request in islice(stream, config.n_requests):
        stats.record(client.execute(request))
    return SimResult(
        n_servers=cc.n_servers,
        stats=stats,
        n_original_requests=config.n_requests * config.client.merge_window,
        merge_window=config.client.merge_window,
        txn_histogram=cluster.txn_size_histogram(),
        meta={
            "mode": config.client.mode,
            "replication": cc.replication,
            "memory_factor": cc.memory_factor,
            "graph": graph.name,
            "seed": config.seed,
        },
    )
