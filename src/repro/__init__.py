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

from repro._version import __version__
from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL, CostModel, fit_cost_model
from repro.analysis.urn import (
    expected_tpr,
    expected_tprps,
    prob_server_contacted,
    tprps_scaling_factor,
)
from repro.cluster.cluster import Cluster
from repro.cluster.placement import (
    FullReplicationPlacer,
    RandomPlacer,
    ReplicaPlacer,
    make_placer,
)
from repro.cluster.server import Server
from repro.core.baselines import FullReplicationClient
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.core.merge import merge_requests, merge_stream
from repro.core.setcover import greedy_partial_cover, greedy_set_cover
from repro.errors import RnBError
from repro.hashing.hashring import ConsistentHashRing
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.sim.montecarlo import mc_tpr
from repro.types import FetchPlan, FetchResult, ReplicaSet, Request, Transaction
from repro.workloads.graphs import SocialGraph
from repro.workloads.requests import EgoRequestGenerator, RandomRequestGenerator
from repro.workloads.synthetic import make_epinions_like, make_slashdot_like

__all__ = [
    "Bundler",
    "ClientConfig",
    "Cluster",
    "ClusterConfig",
    "ConsistentHashRing",
    "CostModel",
    "DEFAULT_MEMCACHED_MODEL",
    "EgoRequestGenerator",
    "FetchPlan",
    "FetchResult",
    "FullReplicationClient",
    "FullReplicationPlacer",
    "MultiHashPlacer",
    "RandomPlacer",
    "RandomRequestGenerator",
    "RangedConsistentHashPlacer",
    "ReplicaPlacer",
    "ReplicaSet",
    "Request",
    "RnBClient",
    "RnBError",
    "Server",
    "SimConfig",
    "SocialGraph",
    "Transaction",
    "__version__",
    "expected_tpr",
    "expected_tprps",
    "fit_cost_model",
    "greedy_partial_cover",
    "greedy_set_cover",
    "make_epinions_like",
    "make_placer",
    "make_slashdot_like",
    "mc_tpr",
    "merge_requests",
    "merge_stream",
    "prob_server_contacted",
    "run_simulation",
    "tprps_scaling_factor",
]
