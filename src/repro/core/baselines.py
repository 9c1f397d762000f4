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

from repro.cluster.cluster import Cluster
from repro.cluster.placement import FullReplicationPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.errors import ConfigurationError
from repro.types import FetchResult, Request
from repro.utils.rng import ensure_rng


class FullReplicationClient:
    """Whole-system replication client (the paper's baseline 3).

    The cluster must use a :class:`FullReplicationPlacer` with unlimited
    memory (every bank holds a full copy).  Each request goes to one
    uniformly chosen bank and is read through an :class:`RnBClient` that
    excludes every server outside it: an item's bank copy is its only
    candidate, so the cover groups the items by their home in the bank.
    """

    def __init__(self, cluster: Cluster, *, rng=None) -> None:
        placer = cluster.placer
        if not isinstance(placer, FullReplicationPlacer):
            raise ConfigurationError("FullReplicationClient requires a FullReplicationPlacer")
        if cluster.memory_factor is not None:
            raise ConfigurationError(
                "full-system replication assumes every bank holds a complete copy; "
                "use memory_factor=None"
            )
        self.cluster = cluster
        self.rng = ensure_rng(rng)
        self.reader = RnBClient(cluster, Bundler(placer))
        # per bank, the servers its requests must not touch
        self._outside = [
            frozenset(s for s in range(placer.n_servers) if s // placer.bank_size != bank)
            for bank in range(placer.banks)
        ]

    def execute(self, request: Request) -> FetchResult:
        bank = int(self.rng.integers(len(self._outside)))
        plan = self.reader.bundler.plan(request, exclude=self._outside[bank])
        return self.reader.execute_plan(plan)
