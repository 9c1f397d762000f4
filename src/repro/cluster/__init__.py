"""Simulated memcached fleet: LRU stores, servers, placement, cluster.

The cluster model captures exactly what the paper's simulator needed
(section III-B): per-server transaction counts, per-transaction item
counts, and — for the limited-memory experiments (section III-D) — LRU
eviction with pinned *distinguished copies*.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.lru import PinnedLRU, PriorityClassStore
from repro.cluster.placement import (
    FullReplicationPlacer,
    ReplicaPlacer,
    make_placer,
)
from repro.cluster.server import Server

__all__ = [
    "Cluster",
    "FullReplicationPlacer",
    "PinnedLRU",
    "PriorityClassStore",
    "ReplicaPlacer",
    "Server",
    "make_placer",
]
