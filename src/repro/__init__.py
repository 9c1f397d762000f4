"""Replicate and Bundle (RnB) — IPDPS 2013 reproduction.

RnB relieves the *multi-get hole* of RAM key-value fleets: instead of
adding CPUs, it adds memory.  Every item is replicated onto R distinct,
pseudo-randomly chosen servers (Ranged Consistent Hashing), and at read
time a greedy minimum-set-cover picks a small group of servers jointly
holding the whole request, bundling all items per server into a single
transaction — cutting per-request server work substantially.

Quick start::

    from repro import (
        Bundler, Cluster, RangedConsistentHashPlacer, Request, RnBClient,
    )

    placer = RangedConsistentHashPlacer(n_servers=16, replication=4)
    cluster = Cluster(placer, items=range(100_000))
    client = RnBClient(cluster, Bundler(placer))
    result = client.execute(Request(items=tuple(range(40))))
    print(result.transactions)  # ~6-7 instead of ~15 without RnB

See ``examples/`` for runnable scenarios, ``repro.experiments`` for the
per-figure reproduction drivers, and DESIGN.md for the system inventory.
"""

from repro._lazy import lazy_exports

# the quick-start API: each name imports its module on first use, so
# ``import repro.<subpackage>`` pays for none of them
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "__version__": "repro._version",
        "CostModel": "repro.analysis.calibration",
        "DEFAULT_MEMCACHED_MODEL": "repro.analysis.calibration",
        "fit_cost_model": "repro.analysis.calibration",
        "expected_tpr": "repro.analysis.urn",
        "expected_tprps": "repro.analysis.urn",
        "prob_server_contacted": "repro.analysis.urn",
        "tprps_scaling_factor": "repro.analysis.urn",
        "Cluster": "repro.cluster.cluster",
        "FullReplicationPlacer": "repro.cluster.placement",
        "make_placer": "repro.cluster.placement",
        "RandomPlacer": "repro.cluster.placement",
        "ReplicaPlacer": "repro.cluster.placement",
        "Server": "repro.cluster.server",
        "FullReplicationClient": "repro.core.baselines",
        "Bundler": "repro.core.bundling",
        "RnBClient": "repro.core.client",
        "merge_requests": "repro.core.merge",
        "merge_stream": "repro.core.merge",
        "greedy_partial_cover": "repro.core.setcover",
        "greedy_set_cover": "repro.core.setcover",
        "RnBError": "repro.errors",
        "ConsistentHashRing": "repro.hashing.hashring",
        "MultiHashPlacer": "repro.hashing.multihash",
        "RangedConsistentHashPlacer": "repro.hashing.rch",
        "ClientConfig": "repro.sim.config",
        "ClusterConfig": "repro.sim.config",
        "SimConfig": "repro.sim.config",
        "run_simulation": "repro.sim.engine",
        "mc_tpr": "repro.sim.montecarlo",
        "FetchPlan": "repro.types",
        "FetchResult": "repro.types",
        "ReplicaSet": "repro.types",
        "Request": "repro.types",
        "Transaction": "repro.types",
        "SocialGraph": "repro.workloads.graphs",
        "EgoRequestGenerator": "repro.workloads.requests",
        "RandomRequestGenerator": "repro.workloads.requests",
        "make_epinions_like": "repro.workloads.synthetic",
        "make_slashdot_like": "repro.workloads.synthetic",
    },
)
