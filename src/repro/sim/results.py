"""Simulation results container."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.calibration import CostModel
from repro.analysis.throughput import system_throughput
from repro.hashing.hashfns import stable_hash64
from repro.types import ClusterStats
from repro.utils.histogram import Histogram


@dataclass(slots=True)
class SimResult:
    """Aggregated outcome of one simulation run.

    ``n_original_requests`` differs from ``stats.requests`` when requests
    were merged: merging window w turns w end-user requests into one
    simulated request, and the paper reports TPR *per original end-user
    request* so merged and unmerged runs are comparable (Figs 9–10).
    """

    n_servers: int
    stats: ClusterStats
    n_original_requests: int
    merge_window: int = 1
    txn_histogram: Histogram = field(default_factory=Histogram)
    meta: dict = field(default_factory=dict)

    @property
    def tpr(self) -> float:
        """Transactions per *original* end-user request."""
        if self.n_original_requests == 0:
            return 0.0
        return self.stats.transactions / self.n_original_requests

    @property
    def tpr_per_merged_request(self) -> float:
        """Transactions per simulated (possibly merged) request."""
        return self.stats.tpr

    @property
    def tprps(self) -> float:
        return self.tpr / self.n_servers

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    @property
    def mean_txn_size(self) -> float:
        return self.txn_histogram.mean

    def throughput(self, cost_model: CostModel) -> float:
        """Fleet capacity in original end-user requests/second."""
        return system_throughput(
            self.txn_histogram, self.n_original_requests, self.n_servers, cost_model
        )

    def determinism_token(self, seed: int = 0) -> int:
        """64-bit digest of every counter this result carries.

        Hashes the full aggregate state — headline counters, the exact
        transaction-size histogram, and the per-server transaction
        spread — canonically sorted, in the repo's established
        determinism-token pattern: two runs that agree on every counter
        produce the same token, and a divergence in any one changes it.
        """
        payload = {
            "n_servers": self.n_servers,
            "n_original_requests": self.n_original_requests,
            "merge_window": self.merge_window,
            "requests": self.stats.requests,
            "transactions": self.stats.transactions,
            "items_fetched": self.stats.items_fetched,
            "items_transferred": self.stats.items_transferred,
            "misses": self.stats.misses,
            "second_round_transactions": self.stats.second_round_transactions,
            "txn_size_histogram": sorted(self.stats.txn_size_histogram.items()),
            "per_server_transactions": sorted(
                self.stats.per_server_transactions.items()
            ),
            "txn_histogram": sorted(self.txn_histogram.counts.items()),
            "meta": {k: repr(v) for k, v in sorted(self.meta.items())},
        }
        return stable_hash64(json.dumps(payload, sort_keys=True), seed=seed)

    def to_dict(self) -> dict:
        """Flat summary for tables / JSON export."""
        return {
            "n_servers": self.n_servers,
            "n_original_requests": self.n_original_requests,
            "merge_window": self.merge_window,
            "tpr": self.tpr,
            "tprps": self.tprps,
            "transactions": self.stats.transactions,
            "misses": self.stats.misses,
            "miss_rate": self.miss_rate,
            "second_round_transactions": self.stats.second_round_transactions,
            "items_fetched": self.stats.items_fetched,
            "items_transferred": self.stats.items_transferred,
            "mean_txn_size": self.mean_txn_size,
            **self.meta,
        }
