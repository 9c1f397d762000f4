"""Reference implementations: executable specifications the fast code
is held to.

``greedy_partial_cover_reference`` is the greedy cover as the original
rescan loop.  It moved whole out of ``repro.core.setcover``
(docs/PERFORMANCE.md, "PR 24"), where it had no caller left but the
property tests in ``test_setcover_incremental.py``, which hold the
incremental kernel to it pick for pick: selection order, assignment
masks, rng consumption.

``full_replication_reference`` is a full-replication read as the paper
states it: group the request by home inside one bank and fetch the
groups, largest first.  ``test_baselines.py`` holds
``FullReplicationClient``, which tallies a bank-shifted R = 1 plan, to it.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

import numpy as np

from repro.core.setcover import (
    CoverResult,
    TieBreak,
    _resolve_tie_break,
    _trim_overshoot,
)
from repro.errors import CoverError
from repro.types import FetchResult, Request


def greedy_partial_cover_reference(
    subsets: Mapping[int, int],
    n_elements: int,
    required: int,
    *,
    tie_break: TieBreak = "lowest",
    rng: np.random.Generator | None = None,
    exclude: AbstractSet[int] | None = None,
    allow_partial: bool = False,
) -> CoverResult:
    """The original rescan greedy — executable specification.

    Recomputes every candidate's gain on every pick (O(S·picks)).
    Semantics and parameters are identical to
    :func:`repro.core.setcover.greedy_partial_cover`.
    """
    if not (0 <= required <= n_elements):
        raise ValueError(f"required must be in [0, n_elements]; got {required}")
    pick = _resolve_tie_break(tie_break, rng)
    if exclude:
        subsets = {k: v for k, v in subsets.items() if k not in exclude}

    union = 0
    for mask in subsets.values():
        union |= mask
    if union.bit_count() < required:
        if not allow_partial:
            raise CoverError(
                f"instance is infeasible: union covers {union.bit_count()} of the "
                f"{required} required elements"
            )
        required = union.bit_count()

    # Work on a mutable copy; keys sorted once so "lowest" tie-break and
    # iteration order are deterministic regardless of dict order.
    remaining = {k: subsets[k] for k in sorted(subsets)}
    uncovered = (1 << n_elements) - 1
    covered = 0
    selected: list[int] = []
    assignment: dict[int, int] = {}

    while covered.bit_count() < required:
        best_gain = 0
        candidates: list[int] = []
        for key, mask in remaining.items():
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                candidates = [key]
            elif gain == best_gain and gain > 0:
                candidates.append(key)
        if best_gain == 0:  # pragma: no cover - guarded by union check above
            raise CoverError("greedy stalled before reaching required coverage")
        choice = pick(candidates)
        newly = remaining[choice] & uncovered

        need = required - covered.bit_count()
        if newly.bit_count() > need:
            newly = _trim_overshoot(newly, need)

        selected.append(choice)
        assignment[choice] = newly
        covered |= newly
        uncovered &= ~newly
        del remaining[choice]

    return CoverResult(
        selected=tuple(selected),
        assignment=assignment,
        covered=covered,
        n_elements=n_elements,
    )


def full_replication_reference(cluster, request: Request, bank: int) -> FetchResult:
    """Read ``request`` from bank ``bank`` of a full-replication cluster.

    Items group by their copy in the bank; groups are fetched largest
    first, ties to the lowest server, and a LIMIT request stops once it
    holds enough, its last group cut to the items it still needs.
    """
    groups: dict[int, list] = {}
    for item in request.items:
        groups.setdefault(cluster.placer.servers_for(item)[bank], []).append(item)
    required = request.required_items
    obtained = 0
    servers_contacted: list[int] = []
    txn_sizes: list[int] = []
    for server_id, group in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if obtained >= required:
            break
        fetch = group[: required - obtained]
        hits, misses, _ = cluster.server(server_id).multi_get(fetch)
        assert not misses, f"bank {bank} is missing items on server {server_id}"
        obtained += len(hits)
        servers_contacted.append(server_id)
        txn_sizes.append(len(fetch))
    return FetchResult(
        request=request,
        transactions=len(servers_contacted),
        items_fetched=obtained,
        items_transferred=obtained,
        misses=0,
        second_round_transactions=0,
        servers_contacted=tuple(servers_contacted),
        txn_sizes=tuple(txn_sizes),
    )
