"""Bit-set greedy minimum set cover.

Finding the minimum group of servers that jointly hold all requested
items is the classic NP-complete minimum set cover problem (Karp 1972;
paper section III-A), so RnB uses the greedy approximation: repeatedly
pick the server covering the most still-uncovered items.  Greedy achieves
the optimal ln(n)+1 approximation ratio, and the paper observes it is
"extremely good" on RnB instances in the mean.

Following the paper's proof-of-concept (section IV: "an implementation
based on bit-sets, which finds a cover solution using a relatively small
number of CPU cycles"), sets are Python integers used as bit vectors over
the request's items, so one greedy step over an N-server candidate list
costs N ``and``/``popcount`` machine-word operations.

The solver, :func:`greedy_partial_cover`, is an *incremental*
(lazy-decreasing) greedy: per-server gains live in a priority heap and
are revalidated only when a server reaches the top (Minoux's accelerated
greedy, 1978).  Because gains are submodular — covering elements can only
shrink another server's marginal gain — a heap entry whose recorded gain
matches its recomputed gain is globally maximal, so each pick touches
only the handful of servers whose gains went stale instead of rescanning
every candidate.  The O(S·picks) rescan loop it replaced is its
executable specification and lives beside the property tests that hold
the two together pick for pick (``tests/core/_oracle.py``).

Tie-breaking matters for RnB beyond determinism: breaking ties toward the
lowest server id makes replica choices *sticky* across similar requests,
which is what lets per-server LRUs identify globally cold replicas
(section III-C1, Fig 7).  A randomised tie-break is provided for the
ablation that quantifies this effect.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Sequence, TypeAlias

import numpy as np

from repro.errors import CoverError

#: Tie-break policy: ``"lowest"`` / ``"random"``, or a callable that
#: receives the tied candidate keys (ascending) and returns the winner.
TieBreak: TypeAlias = "str | Callable[[Sequence[int]], int]"


@dataclass(frozen=True, slots=True)
class CoverResult:
    """Outcome of a (partial) greedy cover.

    ``selected`` lists chosen set keys in pick order; ``assignment`` maps
    each chosen key to the bitmask of elements it *newly* covered (the
    items that will be fetched from that server); ``covered`` is the union
    bitmask.
    """

    selected: tuple[int, ...]
    assignment: dict[int, int]
    covered: int
    n_elements: int

    @property
    def n_covered(self) -> int:
        return self.covered.bit_count()

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def is_full_cover(self) -> bool:
        return self.n_covered == self.n_elements

    def missing_indices(self) -> tuple[int, ...]:
        """Element indices left uncovered (empty for a full cover).

        Non-empty only for partial covers: LIMIT requests that stopped
        early, or degraded covers where every replica of an element sat
        on an excluded (failed) server.
        """
        missing = ~self.covered & ((1 << self.n_elements) - 1)
        out = []
        while missing:
            low = missing & -missing
            out.append(low.bit_length() - 1)
            missing ^= low
        return tuple(out)


def _resolve_tie_break(tie_break: TieBreak, rng: np.random.Generator | None):
    if callable(tie_break):
        return tie_break
    if tie_break == "lowest":
        return lambda candidates: candidates[0]
    if tie_break == "random":
        if rng is None:
            raise ValueError("tie_break='random' requires an rng")
        return lambda candidates: candidates[int(rng.integers(len(candidates)))]
    raise ValueError(f"unknown tie_break {tie_break!r}")


def _trim_overshoot(newly: int, need: int) -> int:
    """LIMIT trimming: keep only ``need`` elements of ``newly`` (lowest
    element indices first, deterministic)."""
    trimmed = 0
    for _ in range(need):
        low = newly & -newly
        trimmed |= low
        newly ^= low
    return trimmed


def greedy_partial_cover(
    subsets: Mapping[int, int],
    n_elements: int,
    required: int,
    *,
    tie_break: TieBreak = "lowest",
    rng: np.random.Generator | None = None,
    exclude: AbstractSet[int] | None = None,
    allow_partial: bool = False,
) -> CoverResult:
    """Greedy cover stopping once ``required`` elements are covered.

    Incremental (lazy-decreasing) kernel: picks are identical to the
    rescan greedy's (``tests/core/_oracle.py``), but each greedy step
    costs O(stale log S) heap work instead of an O(S) rescan of every
    candidate.

    Parameters
    ----------
    subsets:
        Maps a set key (server id) to a bitmask over ``n_elements``
        element indices.
    n_elements:
        Universe size; element indices are ``0..n_elements-1``.
    required:
        Stop when this many elements are covered.  ``required ==
        n_elements`` is the ordinary full cover; smaller values implement
        the LIMIT clause (paper section III-F): "ceasing to pick servers
        after enough items are covered".
    tie_break:
        ``"lowest"`` (stable, locality-friendly), ``"random"`` (ablation),
        or a callable receiving the tied candidate keys.
    exclude:
        Set keys (server ids) that must not be chosen — the failover
        path passes the servers currently believed down.  Excluded keys
        are removed before the union feasibility check, so an element
        whose every replica is excluded counts as uncoverable.
    allow_partial:
        Degraded-read mode: instead of raising on an infeasible
        instance, cover as many of the required elements as the
        surviving subsets allow and return a partial
        :class:`CoverResult` (``missing_indices`` lists the casualties).

    Raises
    ------
    CoverError
        If fewer than ``required`` elements appear in the union of all
        (non-excluded) subsets and ``allow_partial`` is false.
    """
    if not (0 <= required <= n_elements):
        raise ValueError(f"required must be in [0, n_elements]; got {required}")
    lowest = tie_break == "lowest"
    pick = None if lowest else _resolve_tie_break(tie_break, rng)
    if exclude:
        subsets = {k: v for k, v in subsets.items() if k not in exclude}
    # The no-exclude path reads ``subsets`` in place: the kernel never
    # mutates the mapping, so no defensive copy is needed.

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

    selected: list[int] = []
    assignment: dict[int, int] = {}
    covered = 0
    if required == 0:
        return CoverResult(
            selected=(), assignment=assignment, covered=0, n_elements=n_elements
        )

    # Heap of (-recorded_gain, key).  Recorded gains are upper bounds on
    # the true marginal gain (gains only decrease as coverage grows), so
    # an entry whose recomputed gain equals its recorded gain is maximal.
    # Keys are inserted in ascending order purely for determinism of the
    # initial heapify; correctness rests on tuple ordering alone.
    heap: list[tuple[int, int]] = []
    for key in sorted(subsets):
        gain = subsets[key].bit_count()
        if gain:
            heap.append((-gain, key))
    heapq.heapify(heap)

    uncovered = (1 << n_elements) - 1
    covered_count = 0

    while covered_count < required:
        # Revalidate the top until its recorded gain is fresh.
        while heap:
            neg_gain, key = heap[0]
            actual = (subsets[key] & uncovered).bit_count()
            if actual == -neg_gain:
                break
            if actual:
                heapq.heapreplace(heap, (-actual, key))
            else:
                heapq.heappop(heap)
        if not heap:  # pragma: no cover - guarded by union check above
            raise CoverError("greedy stalled before reaching required coverage")
        best_gain = -heap[0][0]

        if lowest:
            # Tuple order already yields the lowest key among maximal
            # gains: any lower key with true gain == best_gain would have
            # a recorded gain >= best_gain and therefore sit above the
            # validated top — impossible.
            choice = heapq.heappop(heap)[1]
        else:
            # Collect *all* keys whose true gain equals best_gain.  Only
            # entries with recorded gain == best_gain can qualify (the
            # top is the maximum recorded gain), and equal-priority pops
            # arrive in ascending key order, matching the reference
            # scan's candidate order.
            candidates: list[int] = []
            stale: list[tuple[int, int]] = []
            while heap and -heap[0][0] == best_gain:
                neg_gain, key = heapq.heappop(heap)
                actual = (subsets[key] & uncovered).bit_count()
                if actual == best_gain:
                    candidates.append(key)
                elif actual:
                    stale.append((-actual, key))
            choice = pick(candidates)
            for key in candidates:
                if key != choice:
                    heapq.heappush(heap, (-best_gain, key))
            for entry in stale:
                heapq.heappush(heap, entry)

        newly = subsets[choice] & uncovered

        # LIMIT trimming: if the last pick overshoots, keep only as many
        # items as needed (lowest element indices first, deterministic).
        need = required - covered_count
        if best_gain > need:
            newly = _trim_overshoot(newly, need)

        selected.append(choice)
        assignment[choice] = newly
        covered |= newly
        uncovered &= ~newly
        covered_count = covered.bit_count()

    return CoverResult(
        selected=tuple(selected),
        assignment=assignment,
        covered=covered,
        n_elements=n_elements,
    )


def greedy_set_cover(
    subsets: Mapping[int, int],
    n_elements: int,
    *,
    tie_break: TieBreak = "lowest",
    rng: np.random.Generator | None = None,
    exclude: AbstractSet[int] | None = None,
    allow_partial: bool = False,
) -> CoverResult:
    """Full greedy set cover (cover every element)."""
    return greedy_partial_cover(
        subsets,
        n_elements,
        n_elements,
        tie_break=tie_break,
        rng=rng,
        exclude=exclude,
        allow_partial=allow_partial,
    )


def cover_from_replica_lists(
    replica_lists: Sequence[Sequence[int]],
    *,
    required: int | None = None,
    tie_break: TieBreak = "lowest",
    rng: np.random.Generator | None = None,
    exclude: AbstractSet[int] | None = None,
    allow_partial: bool = False,
) -> CoverResult:
    """Convenience wrapper: build server bitmasks from per-item replica lists.

    ``replica_lists[i]`` is the list of servers holding element ``i``.
    This is the exact shape the bundler produces; exposed separately so
    tests and the Monte-Carlo simulator can call the solver directly.

    With ``exclude`` / ``allow_partial`` this is the failover re-cover:
    residual items are covered from surviving replicas only, and items
    with no surviving replica are reported via ``missing_indices()``
    instead of raising (when ``allow_partial`` is set).
    """
    subsets: dict[int, int] = {}
    for i, servers in enumerate(replica_lists):
        if not servers and not allow_partial:
            raise CoverError(f"element {i} has an empty replica list")
        bit = 1 << i
        for s in servers:
            subsets[s] = subsets.get(s, 0) | bit
    n = len(replica_lists)
    return greedy_partial_cover(
        subsets,
        n,
        n if required is None else required,
        tie_break=tie_break,
        rng=rng,
        exclude=exclude,
        allow_partial=allow_partial,
    )
