"""Urn-model analysis of the multi-get hole (paper section II-A).

With M requested items placed uniformly at random on N servers, the
probability that a given server is contacted is the probability a given
urn is non-empty after throwing M balls into N urns:

    W(N, M) = 1 - (1 - 1/N)^M

* expected transactions per request:  TPR = N * W(N, M)
* transactions per request per server: TPRPS = W(N, M)
* TPRPS scaling factor when growing N -> c*N:
      W(N, M) / W(cN, M)
  (ideal scaling gives exactly c; the multi-get hole is this factor
  collapsing toward 1 when N <~ M — paper Fig 2).

``occupancy_pmf`` gives the exact distribution of the number of occupied
urns (via the standard inclusion–exclusion / Stirling-number identity),
used to validate the simulator against theory in the test suite.
"""

from __future__ import annotations

import math

import numpy as np


def prob_server_contacted(n_servers: int, request_size: int) -> float:
    """W(N, M): probability a given server receives a transaction."""
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if request_size < 0:
        raise ValueError("request_size must be >= 0")
    return 1.0 - (1.0 - 1.0 / n_servers) ** request_size


def expected_tpr(n_servers: int, request_size: int) -> float:
    """Expected number of transactions per request: N * W(N, M)."""
    return n_servers * prob_server_contacted(n_servers, request_size)


def expected_tprps(n_servers: int, request_size: int) -> float:
    """Expected transactions per request per server (= W(N, M))."""
    return prob_server_contacted(n_servers, request_size)


def tprps_scaling_factor(
    n_servers: int, request_size: int, growth: float = 2.0
) -> float:
    """TPRPS ratio between an N-server and a growth*N-server system.

    This is the *throughput* scaling factor when per-transaction work
    dominates: doubling servers multiplies capacity by
    ``W(N,M)/W(2N,M) <= 2``.  Ideal scaling returns ``growth`` (attained
    as M -> 1); values near 1 mean adding servers buys nothing.
    """
    if growth <= 0:
        raise ValueError("growth must be positive")
    grown = n_servers * growth
    if grown != int(grown):
        # W extends naturally to non-integer N; keep it exact when we can
        grown_n = grown
    else:
        grown_n = int(grown)
    w_before = prob_server_contacted(n_servers, request_size)
    w_after = 1.0 - (1.0 - 1.0 / grown_n) ** request_size
    if w_after == 0.0:
        raise ValueError("scaling factor undefined for request_size=0")
    return w_before / w_after


def occupancy_pmf(n_servers: int, request_size: int) -> np.ndarray:
    """Exact PMF of the number of occupied urns.

    ``P(K = k) = C(N,k) * sum_{j=0}^{k} (-1)^j C(k,j) ((k-j)/N)^M``
    for ``k = 0..N``; returned as an array indexed by k.  Computed with
    ``math.comb`` (exact integers) and floats only at the end, so it is
    stable for the N <= 1024 range the experiments use.
    """
    if n_servers < 1 or request_size < 0:
        raise ValueError("need n_servers >= 1 and request_size >= 0")
    n, m = n_servers, request_size
    pmf = np.zeros(n + 1, dtype=np.float64)
    for k in range(0, n + 1):
        total = 0.0
        for j in range(0, k + 1):
            sign = -1.0 if j % 2 else 1.0
            total += sign * math.comb(k, j) * ((k - j) / n) ** m
        pmf[k] = math.comb(n, k) * total
    # clip tiny negative round-off and renormalise
    pmf = np.clip(pmf, 0.0, None)
    s = pmf.sum()
    if s > 0:
        pmf /= s
    return pmf


def expected_tpr_exact(n_servers: int, request_size: int) -> float:
    """Mean of :func:`occupancy_pmf` — agrees with :func:`expected_tpr`
    when items are sampled *with* replacement; used in tests."""
    pmf = occupancy_pmf(n_servers, request_size)
    return float(np.dot(np.arange(len(pmf)), pmf))
