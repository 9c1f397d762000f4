"""Property tests pinning the incremental cover kernel to the reference.

``greedy_partial_cover`` (lazy-decreasing heap) must match
``greedy_partial_cover_reference`` (full rescan) pick for pick: same
selection order, same per-pick assignment masks, same rng consumption
for the random tie-break — across full covers, LIMIT partial covers,
exclusions and degraded (allow_partial) instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.setcover import greedy_partial_cover
from repro.errors import CoverError
from tests.core._oracle import greedy_partial_cover_reference

# A random instance: up to 14 subsets over up to 24 elements.
instances = st.integers(1, 24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.integers(0, 13),
            st.integers(0, (1 << n) - 1),
            min_size=1,
            max_size=14,
        ),
    )
)


def _assert_same(result_a, result_b):
    assert result_a.selected == result_b.selected
    assert result_a.assignment == result_b.assignment
    assert result_a.covered == result_b.covered
    assert result_a.n_elements == result_b.n_elements


def _both(subsets, n, required, **kwargs):
    try:
        expected = greedy_partial_cover_reference(subsets, n, required, **kwargs)
    except CoverError:
        with pytest.raises(CoverError):
            greedy_partial_cover(subsets, n, required, **kwargs)
        return
    _assert_same(greedy_partial_cover(subsets, n, required, **kwargs), expected)


@settings(max_examples=300, deadline=None)
@given(instances)
def test_full_cover_matches_reference(instance):
    n, subsets = instance
    _both(subsets, n, n)


@settings(max_examples=300, deadline=None)
@given(instances, st.floats(0.0, 1.0))
def test_partial_cover_matches_reference(instance, fraction):
    n, subsets = instance
    _both(subsets, n, int(round(fraction * n)))


@settings(max_examples=200, deadline=None)
@given(instances, st.sets(st.integers(0, 13), max_size=6))
def test_exclusions_match_reference(instance, exclude):
    n, subsets = instance
    _both(subsets, n, n, exclude=exclude, allow_partial=True)


@settings(max_examples=200, deadline=None)
@given(instances, st.integers(0, 2**31 - 1))
def test_random_tie_break_matches_reference(instance, seed):
    """Same picks AND same rng draw sequence as the reference scan."""
    n, subsets = instance
    expected = greedy_partial_cover_reference(
        subsets, n, n, tie_break="random",
        rng=np.random.default_rng(seed), allow_partial=True,
    )
    rng = np.random.default_rng(seed)
    got = greedy_partial_cover(
        subsets, n, n, tie_break="random", rng=rng, allow_partial=True
    )
    _assert_same(got, expected)
    # rng consumption parity: replaying the reference leaves its stream at
    # the same position, so the next draw from each generator agrees
    reference_rng = np.random.default_rng(seed)
    greedy_partial_cover_reference(
        subsets, n, n, tie_break="random",
        rng=reference_rng, allow_partial=True,
    )
    assert rng.integers(1 << 30) == reference_rng.integers(1 << 30)


@settings(max_examples=100, deadline=None)
@given(instances)
def test_callable_tie_break_matches_reference(instance):
    """A highest-key tie-break exercises the multi-candidate path."""
    n, subsets = instance
    pick = lambda candidates: candidates[-1]  # noqa: E731
    _both(subsets, n, n, tie_break=pick, allow_partial=True)


def test_infeasible_raises_in_both():
    subsets = {0: 0b011}
    for solver in (greedy_partial_cover, greedy_partial_cover_reference):
        with pytest.raises(CoverError):
            solver(subsets, 3, 3)


def test_required_zero_short_circuits():
    result = greedy_partial_cover({0: 0b1}, 1, 0)
    assert result.selected == ()
    assert result.covered == 0
