"""Nemesis wiring in the live load harness: seeded blackouts, safe default."""

from __future__ import annotations

import pytest

from repro.experiments import load_soak
from repro.loadgen.runner import (
    LoadTestConfig,
    nemesis_blackouts,
    run_loadtest,
)


class TestBlackoutSchedule:
    def test_empty_without_a_seed(self):
        assert nemesis_blackouts(LoadTestConfig()) == []

    def test_pure_function_of_the_config(self):
        config = LoadTestConfig(nemesis_seed=9, duration=1.0, n_servers=4)
        a = nemesis_blackouts(config)
        assert a == nemesis_blackouts(config)
        other = LoadTestConfig(nemesis_seed=10, duration=1.0, n_servers=4)
        assert a != nemesis_blackouts(other)

    def test_spans_fit_the_schedule_and_name_real_servers(self):
        config = LoadTestConfig(nemesis_seed=9, duration=2.0, n_servers=4)
        spans = nemesis_blackouts(config)
        assert spans
        for start, end, victim in spans:
            assert 0.0 <= start < end <= config.duration
            assert 0 <= victim < config.n_servers

    def test_spans_scale_with_duration(self):
        short = nemesis_blackouts(
            LoadTestConfig(nemesis_seed=9, duration=1.0, n_servers=4)
        )
        long = nemesis_blackouts(
            LoadTestConfig(nemesis_seed=9, duration=2.0, n_servers=4)
        )
        for (s1, e1, v1), (s2, e2, v2) in zip(short, long):
            assert v1 == v2
            assert s1 * 2 == pytest.approx(s2, rel=1e-9)
            assert e1 * 2 == pytest.approx(e2, rel=1e-9)

    def test_load_soak_draws_the_same_incident(self):
        # one nemesis seed names one incident in both --nemesis harnesses:
        # same windows, same victims, over the same span and fleet
        for nemesis_seed in range(1, 8):
            (soak,) = load_soak.run(scale=0.12, seed=7, nemesis_seed=nemesis_seed)
            config = LoadTestConfig(
                nemesis_seed=nemesis_seed,
                n_servers=soak.meta["n_servers"],
                duration=soak.meta["duration"],
            )
            spans = nemesis_blackouts(config)
            assert soak.meta["nemesis_blackouts"] == [
                [round(s, 6), round(e, 6), victim] for s, e, victim in spans
            ]


class TestLiveRun:
    TINY = dict(
        users=40,
        duration=0.4,
        n_servers=3,
        replication=2,
        n_items=200,
        request_size=4,
        pool_size=2,
        seed=3,
    )

    def test_nemesis_run_reports_and_survives(self):
        report = run_loadtest(LoadTestConfig(nemesis_seed=9, **self.TINY))
        w, m = report.workload, report.measured
        assert w["nemesis_seed"] == 9
        assert len(w["nemesis_blackouts"]) >= 1
        # the client rides failover through the cut: nothing fails
        assert m["failed"] == 0
        assert m["ok"] + m["degraded"] == self.TINY["users"]
        assert m["connections_refused"] >= 0

    def test_default_path_is_untouched(self):
        report = run_loadtest(LoadTestConfig(**self.TINY))
        assert report.workload["nemesis_seed"] is None
        assert report.workload["nemesis_blackouts"] == []
        assert report.measured["connections_refused"] == 0
        assert report.measured["failed"] == 0
