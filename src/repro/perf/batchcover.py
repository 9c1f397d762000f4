"""Chunk-vectorised greedy set cover for batched planning.

The batch-codes line of work (Zhang, Yaakobi & Silberstein, PAPERS.md)
frames RnB's read path as batched retrieval: many small independent
requests decoded against the same replica layout.  The per-request
greedy cover is tiny (median request 3 items, a handful of picks), so at
high request rates the Python interpreter overhead of running it
request-at-a-time dwarfs the actual arithmetic.

:func:`batch_cover` runs the *same* greedy algorithm lock-step across a
whole chunk of requests in NumPy, **item-major**: one flat array entry
per requested item, whatever the size of its request.  Each greedy
round counts, for every (request, server) cell at once, the request's
still-uncovered items with a replica on that server (one ``bincount``),
picks every request's best server (``argmax`` returns the first maximal
column, which is the lowest server id — exactly the solver's
``tie_break="lowest"`` policy) and hands it every uncovered item it
holds.  An item's replicas are distinct servers, so that count is the
popcount :func:`repro.core.setcover.greedy_partial_cover` maximises and
the picks, and each item's assignment, are identical (property-tested
in ``tests/perf``, also against the mask-major kernels this replaced).

Scope: full covers (no LIMIT), no exclusions, ``tie_break="lowest"``;
callers fall back to the scalar solver outside that envelope.
"""

from __future__ import annotations

import numpy as np


def batch_cover(
    row: np.ndarray, servers: np.ndarray, n_requests: int, n_servers: int
) -> np.ndarray:
    """Greedy full cover of every request in the chunk, lock-step.

    Parameters
    ----------
    row:
        ``(T,)`` request row (``0..n_requests-1``, non-decreasing) of
        each flattened item.
    servers:
        ``(T, R)`` replica servers of each item, distinct within a row
        (a :meth:`repro.perf.PlacementTable.lookup` slice), ``R >= 1``.

    Returns the ``(T,)`` server each item is assigned to: the first
    greedy pick of its request that holds one of its replicas, i.e. the
    server whose ``assignment`` mask carries the item in the scalar
    solver's :class:`~repro.core.setcover.CoverResult`.  Every round
    covers at least one item of every unfinished request, so there are
    at most ``n_servers`` rounds.
    """
    assigned = np.empty(row.shape[0], dtype=np.int64)
    live = np.arange(row.shape[0])  # flat index of the items still uncovered
    # Replica-major: key[j, t] is the (request, server) cell of live item
    # t's j-th replica, so one replica of every item is one contiguous row.
    key = row * n_servers + servers.T
    first_cell = np.arange(0, n_requests * n_servers, n_servers)
    n_rows = n_requests
    while True:
        gains = np.bincount(key.ravel(), minlength=n_rows * n_servers)
        best = gains.reshape(n_rows, n_servers).argmax(axis=1) + first_cell[:n_rows]
        pick = best.take(row)
        # a reduction over the short replica axis costs five times this loop
        hit = key[0] == pick
        for replica in key[1:]:
            hit |= replica == pick
        done = np.flatnonzero(hit)
        assigned[live.take(done)] = pick.take(done)
        if done.size == live.size:
            return assigned % n_servers
        keep = np.flatnonzero(~hit)
        live, row, key = live.take(keep), row.take(keep), key.take(keep, axis=1)
        if gains.size > 2 * key.size:
            # Most requests finish in a few rounds and the heavy tail goes
            # on for many: once the gain matrix outweighs the items left,
            # renumber the unfinished requests 0..k-1 so it shrinks to them.
            fresh = np.zeros(row.shape[0], dtype=np.int64)
            np.not_equal(row[1:], row[:-1], out=fresh[1:])
            fresh = np.cumsum(fresh)
            key += (fresh - row) * n_servers
            row = fresh
            n_rows = int(row[-1]) + 1
