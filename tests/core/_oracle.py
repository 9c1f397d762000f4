"""Reference implementation: the greedy cover as the original rescan loop.

Moved whole out of ``repro.core.setcover`` (docs/PERFORMANCE.md, "PR 24"),
where it had no caller left but the property tests in
``test_setcover_incremental.py``, which hold the incremental kernel to it
pick for pick: selection order, assignment masks, rng consumption.
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
