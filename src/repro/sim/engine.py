"""The full stateful simulator (paper section III-B).

``run_simulation`` wires a social-graph workload, a provisioned cluster
and a client together, runs a warmup phase (so LRUs converge under
overbooking) followed by a measurement phase, and returns a
:class:`SimResult`.

Requests are simulated individually and queuing is not modelled, exactly
as in the paper: "Since our emphasis is on the multi-get hole, we focused
on the total amount of server work per request ... queuing is not
relevant and requests were simulated individually."
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.cluster.placement import FullReplicationPlacer, make_placer
from repro.core.baselines import FullReplicationClient
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.core.merge import merge_stream
from repro.perf.table import PlacementTable
from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.types import ClusterStats, Request
from repro.utils.rng import derive_rng
from repro.workloads.graphs import SocialGraph
from repro.workloads.requests import EgoRequestGenerator, with_limit


# Compiled placement tables, keyed by everything that determines them.
# Placement is a pure function of the cluster config, and sweeps (memory
# factors, client modes, repeated benchmark runs) rebuild the same
# placement over and over; compiled tables are immutable, so sharing one
# across runs is safe.  Bounded small: a sweep touches few placements.
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 8


def _compiled_placer(config: SimConfig, n_items: int) -> PlacementTable:
    cc = config.cluster
    # full replication compiles its banks, not RCH at the same R
    kind = "banks" if config.client.mode == "fullreplication" else cc.placement
    key = (kind, cc.n_servers, cc.replication, cc.vnodes, cc.placement_seed, n_items)
    table = _TABLE_CACHE.get(key)
    if table is None:
        # the raw placer is only the compiler's input: on a hit, skip it
        table = PlacementTable.compile(_raw_placer(config), n_items)
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        _TABLE_CACHE[key] = table
    return table


def _raw_placer(config: SimConfig):
    cc = config.cluster
    if config.client.mode == "fullreplication":
        return FullReplicationPlacer(
            cc.n_servers, cc.replication, vnodes=cc.vnodes, seed=cc.placement_seed
        )
    return make_placer(
        cc.placement,
        cc.n_servers,
        cc.replication,
        seed=cc.placement_seed,
        **({"vnodes": cc.vnodes} if cc.placement == "rch" else {}),
    )


def build_cluster(config: SimConfig, n_items: int) -> Cluster:
    """Provision the cluster (placer + servers + pinned copies) for a run.

    Every mode's placement is compiled over the item universe, so
    provisioning, planning and routing are table lookups.
    """
    cc = config.cluster
    return Cluster(
        _compiled_placer(config, n_items),
        range(n_items),
        memory_factor=cc.memory_factor,
        lru_policy=cc.lru_policy,
    )


def build_client(config: SimConfig, cluster: Cluster, *, metrics=None):
    """Build the client matching the configuration's mode.

    ``fullreplication`` gets a :class:`FullReplicationClient` (a tally
    only); the other two modes get the same :class:`RnBClient`, which
    reads a ``noreplication`` cluster's R = 1 placement as plain
    consistent hashing.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) makes the RnB
    client's bundler feed the planner families (``rnb_plans_total``,
    ``rnb_cover_size``; docs/OBSERVABILITY.md).
    """
    if config.client.mode == "fullreplication":
        return FullReplicationClient(cluster, rng=derive_rng(config.seed, 2))
    tie_break = config.client.tie_break
    if tie_break == "least_loaded":
        # Per-server transaction counters are the simulator's load
        # signal (requests are simulated individually, so queue depth
        # has no meaning here); the callable tie-break automatically
        # keeps planning on the scalar path, where counters are current.
        from repro.overload.tiebreak import counter_tie_break

        tie_break = counter_tie_break(cluster)
    bundler = Bundler(
        cluster.placer,
        hitchhiking=config.client.hitchhiking,
        single_item_rule=config.client.single_item_rule,
        tie_break=tie_break,
        rng=derive_rng(config.seed, 3),
        metrics=metrics,
    )
    return RnBClient(cluster, bundler, write_back=config.client.write_back)


def _request_stream(
    graph: SocialGraph, config: SimConfig, stream_index: int
) -> Iterable[Request]:
    gen = EgoRequestGenerator(graph, rng=derive_rng(config.seed, 1, stream_index))
    return _composed(gen.stream(), config)


def _composed(stream: Iterable[Request], config: SimConfig) -> Iterable[Request]:
    if config.client.merge_window > 1:
        stream = merge_stream(stream, config.client.merge_window)
    if config.client.limit_fraction is not None:
        stream = with_limit(stream, config.client.limit_fraction)
    return stream


def run_simulation(graph: SocialGraph, config: SimConfig, *, metrics=None) -> SimResult:
    """Run warmup + measurement and return aggregated metrics.

    The warmup phase executes ``config.warmup_requests`` (merged) requests
    to let the replica LRUs converge, then all counters are reset; the
    measurement phase executes ``config.n_requests`` more.  Both phases
    draw from the same endless request stream, so measurement continues
    the warmed state rather than replaying it, one call per chunk.
    ``metrics`` threads an obs registry into the client's planner
    (:func:`build_client`).
    """
    cluster = build_cluster(config, graph.n_nodes)
    client = build_client(config, cluster, metrics=metrics)

    # Load-aware tie-breaking reads per-server counters that execution
    # updates, so planning must interleave with execution request by
    # request; chunked planning would freeze the load signal mid-batch.
    chunk_size = 1 if config.client.tie_break == "least_loaded" else config.batch_size
    # With naive allocation (Fig 6) every replica stays resident, so
    # executing a plan is pure counter arithmetic — see
    # RnBClient.tally_footprint for the full precondition argument (the
    # cluster is fresh, so it has no injector, and either LRU policy keeps
    # every copy).  SimConfig holds full replication to this regime.
    tally = config.cluster.memory_factor is None and not config.client.hitchhiking
    read = client.tally_chunk if tally else client.execute_chunk

    gen = EgoRequestGenerator(graph, rng=derive_rng(config.seed, 1, 0))
    if config.client.merge_window == 1 and config.client.limit_fraction is None:
        # the plain ego stream: chunks stay arrays from the graph to the
        # counters (docs/PERFORMANCE.md, section 3)
        draw = gen.block
    else:
        stream = iter(_composed(gen.stream(), config))

        def draw(k: int) -> list[Request]:
            return list(islice(stream, k))

    def run_phase(n_requests: int, stats: ClusterStats | None) -> None:
        # Plans depend only on the (static) placement, never on cluster
        # cache state, so planning a whole chunk ahead of execution is
        # exactly equivalent to the request-at-a-time loop; execution
        # order — which does mutate LRU state — is unchanged.  Both chunk
        # methods take blocks and request lists, and send a chunk off the
        # vectorised envelope through the per-request path.
        remaining = n_requests
        while remaining > 0:
            take = min(chunk_size, remaining)
            read(draw(take), stats)
            remaining -= take

    run_phase(config.warmup_requests, None)
    cluster.reset_counters()
    stats = ClusterStats()
    run_phase(config.n_requests, stats)
    return SimResult(
        n_servers=config.cluster.n_servers,
        stats=stats,
        n_original_requests=config.n_requests * config.client.merge_window,
        merge_window=config.client.merge_window,
        txn_histogram=cluster.txn_size_histogram(),
        meta={
            "mode": config.client.mode,
            "replication": config.cluster.replication,
            "memory_factor": config.cluster.memory_factor,
            "graph": graph.name,
            "seed": config.seed,
        },
    )
