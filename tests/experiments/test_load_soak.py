"""Load soak experiment: arm ordering, zero failures (determinism: test_soaks.py rows)."""

from __future__ import annotations

import pytest

from repro.experiments import load_soak
from repro.experiments.registry import EXPERIMENTS


@pytest.fixture(scope="module")
def result():
    return load_soak.run(scale=0.12, seed=2013)[0]


class TestLoadSoak:
    def test_registered(self):
        assert "load_soak" in EXPERIMENTS
        assert EXPERIMENTS["load_soak"] is load_soak.run

    def test_arms_axis(self, result):
        assert result.name == "load_soak"
        assert list(result.x_values) == ["steady", "diurnal", "flash"]

    def test_zero_failed_requests_everywhere(self, result):
        assert result.meta["requests_failed"] == 0
        assert all(v == 0.0 for v in result.series["requests failed"])

    def test_flash_arm_hurts_most(self, result):
        p99 = dict(zip(result.x_values, result.series["p99 latency (ms)"]))
        assert p99["flash"] >= p99["steady"]
        pain = [
            s + c
            for s, c in zip(
                result.series["shed rate"], result.series["deadline cut rate"]
            )
        ]
        by_arm = dict(zip(result.x_values, pain))
        assert by_arm["flash"] >= by_arm["steady"]

    def test_goodput_positive_in_every_arm(self, result):
        assert all(g > 0 for g in result.series["goodput (items/s)"])
