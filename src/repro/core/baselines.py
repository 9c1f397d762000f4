"""The full-replication baseline of paper section II-C.

Industry solution 3, the paper's comparison baseline: ``banks`` complete
copies of the whole system; the client picks one bank uniformly at random
per request and fetches everything from it.  k banks give exactly k-fold
throughput and no more ("one gets exactly what one pays for").

The no-replication baseline (solution 1, plain consistent hashing) needs
no client of its own: it is an :class:`repro.core.client.RnBClient` over
a :class:`repro.hashing.rch.RangedConsistentHashPlacer` with ``R = 1``,
whose only copy of an item is the one plain consistent hashing picks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.placement import FullReplicationPlacer
from repro.core.bundling import Bundler
from repro.core.client import fold_counters
from repro.errors import ConfigurationError
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request, RequestBlock
from repro.utils.rng import ensure_rng


class FullReplicationClient:
    """Whole-system replication client (the paper's baseline 3).

    The cluster must use a :class:`FullReplicationPlacer`, compiled or
    not, with unlimited memory (every bank holds a full copy).  Inside a
    bank each item has one copy, so a bank read is the no-replication read
    of the bank's own placement (RCH at R = 1 over ``bank_size`` servers:
    column 0 of the compiled table) with ``bank * bank_size`` added to
    every server.  The shift keeps the servers' order, so tie-breaks and
    LIMIT picks are the bank's own, and nothing misses: a read is a tally.
    """

    def __init__(self, cluster: Cluster, *, rng=None) -> None:
        table = PlacementTable.compile(cluster.placer, len(cluster.items))
        full = table.base
        if not isinstance(full, FullReplicationPlacer):
            raise ConfigurationError("FullReplicationClient requires a FullReplicationPlacer")
        if cluster.memory_factor is not None:
            raise ConfigurationError(
                "full-system replication assumes every bank holds a complete copy; "
                "use memory_factor=None"
            )
        self.cluster = cluster
        self.rng = ensure_rng(rng)
        self.banks, self.bank_size = full.banks, full.bank_size
        self.bundler = Bundler(PlacementTable(full._inner, table.table[:, :1]))

    def tally_chunk(
        self, chunk: RequestBlock | Iterable[Request], stats: ClusterStats | None = None
    ) -> None:
        """:meth:`repro.core.client.RnBClient.tally_chunk`, each request in a
        random bank.  One draw per chunk gives the banks of one
        ``rng.integers(banks)`` per request."""
        txn_servers, txn_sizes, n_txns = self.bundler.plan_transactions(chunk)
        banks = self.rng.integers(self.banks, size=len(n_txns))
        txn_servers = txn_servers + np.repeat(banks * self.bank_size, n_txns)
        if stats is not None:
            stats.record_transactions(len(n_txns), txn_servers, txn_sizes)
        fold_counters(self.cluster.servers, txn_servers, txn_sizes)
