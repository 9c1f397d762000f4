"""Simulated memcached fleet: LRU stores, servers, placement, cluster.

The cluster model captures exactly what the paper's simulator needed
(section III-B): per-server transaction counts, per-transaction item
counts, and — for the limited-memory experiments (section III-D) — LRU
eviction with pinned *distinguished copies*.
"""
