"""Tests for the hotspot soak experiment (overload defences vs straggler)."""

from __future__ import annotations

import pytest

from repro.experiments import hotspot
from repro.experiments.registry import EXPERIMENTS

PARAMS = {"scale": 0.25, "seed": 2013}


@pytest.fixture(scope="module")
def result():
    [res] = hotspot.run(**PARAMS)
    return res


class TestHotspotSoak:
    def test_registered(self):
        assert "hotspot" in EXPERIMENTS

    def test_overload_arm_beats_baseline_p99(self, result):
        assert result.meta["p99_speedup"] > 1.0
        assert result.meta["p999_speedup"] > 1.0

    def test_zero_failed_requests_in_both_arms(self, result):
        assert result.meta["requests_failed"] == 0
        assert result.series["requests failed"] == [0.0, 0.0]

    def test_defences_actually_engaged(self, result):
        # the speedup must come from the mechanisms under test, not noise
        assert result.meta["breaker_transitions"] > 0
        assert result.meta["hedges_issued"] > 0
        assert 0.0 <= result.meta["hedge_wins"] <= result.meta["hedges_issued"]

    def test_served_fraction_high_under_degradation(self, result):
        assert result.meta["served_fraction_overload"] > 0.9

    def test_arms_axis(self, result):
        assert result.x_values == ["baseline", "overload"]
        assert set(result.series) >= {
            "p50 latency (ms)",
            "p99 latency (ms)",
            "served fraction",
            "breaker transitions",
        }


class TestRequestStream:
    def test_streams_identical_across_calls(self):
        a = hotspot.make_requests(1, 300, 8, 50, 1.0)
        b = hotspot.make_requests(1, 300, 8, 50, 1.0)
        assert a == b

    def test_items_sorted_and_unique(self):
        for req in hotspot.make_requests(2, 300, 8, 20, 1.0):
            assert list(req.items) == sorted(set(req.items))
            assert len(req.items) == 8
