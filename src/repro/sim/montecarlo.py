"""The simplified Monte-Carlo simulator for LIMIT experiments.

Paper section III-F: "The simplified simulator performed Monte Carlo
style simulation.  It assumed that the servers have enough memory to
completely avoid misses, and that the set of items in each request is
random and independent of the previous request."

Under those assumptions there is no state at all: each trial draws, for
every requested item, a uniformly random set of ``replication`` distinct
servers (one NumPy draw per trial), and runs the bundler's greedy
(partial) cover, :func:`repro.core.setcover.cover_from_replica_lists`,
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.setcover import cover_from_replica_lists
from repro.utils.rng import ensure_rng


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    """Mean/stderr TPR over the trials of one parameter point."""

    n_servers: int
    request_size: int
    replication: int
    limit_fraction: float | None
    n_trials: int
    mean_tpr: float
    std_tpr: float
    mean_items_fetched: float

    @property
    def stderr_tpr(self) -> float:
        return self.std_tpr / np.sqrt(self.n_trials)


def mc_tpr(
    n_servers: int,
    request_size: int,
    replication: int,
    *,
    limit_fraction: float | None = None,
    n_trials: int = 400,
    rng=None,
    seed: int | None = None,
) -> MonteCarloResult:
    """Monte-Carlo estimate of TPR for random independent requests.

    Parameters mirror the sweep axes of paper Figs 11–12: fleet size,
    request size, replication level and the LIMIT fetch fraction
    (``None`` or 1.0 = fetch the full set; note the two differ in *plan
    flexibility* only for the stateful simulator — here a 1.0 limit is
    identical to no limit).
    """
    if not (1 <= replication <= n_servers):
        raise ValueError("replication must be in [1, n_servers]")
    if request_size < 1:
        raise ValueError("request_size must be >= 1")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if limit_fraction is not None and not (0.0 < limit_fraction <= 1.0):
        raise ValueError("limit_fraction must be in (0, 1]")
    rng = ensure_rng(seed if rng is None else rng)

    if limit_fraction is None:
        required = request_size
    else:
        required = max(1, min(request_size, int(np.ceil(limit_fraction * request_size - 1e-9))))

    tprs = np.empty(n_trials, dtype=np.float64)
    items = np.empty(n_trials, dtype=np.float64)
    for t in range(n_trials):
        # replica sets: for each item the first `replication` entries of a
        # random permutation of servers — uniform over distinct sets
        scores = rng.random((request_size, n_servers))
        replicas = np.argpartition(scores, replication - 1, axis=1)[:, :replication]
        cover = cover_from_replica_lists(replicas.tolist(), required=required)
        tprs[t] = cover.n_selected
        items[t] = cover.n_covered
    return MonteCarloResult(
        n_servers=n_servers,
        request_size=request_size,
        replication=replication,
        limit_fraction=limit_fraction,
        n_trials=n_trials,
        mean_tpr=float(tprs.mean()),
        std_tpr=float(tprs.std(ddof=1)) if n_trials > 1 else 0.0,
        mean_items_fetched=float(items.mean()),
    )
