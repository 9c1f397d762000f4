"""Determinism and semantics of the failure schedule."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultConfig, FaultPlan


class TestFaultConfig:
    def test_defaults_are_benign(self):
        cfg = FaultConfig()
        assert cfg.crash_rate == 0.0
        assert cfg.timeout_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.5},
            {"timeout_rate": 2.0},
            {"horizon": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        cfg = FaultConfig(crash_rate=0.4, timeout_rate=0.2, seed=42)
        a = FaultPlan(16, cfg)
        b = FaultPlan(16, cfg)
        assert a.schedule() == b.schedule()
        assert a.ever_crashed() == b.ever_crashed()
        for tick in range(0, 50, 7):
            for sid in range(16):
                assert a.is_crashed(sid, tick) == b.is_crashed(sid, tick)
                for attempt in range(3):
                    assert a.is_timeout(sid, tick, attempt) == b.is_timeout(
                        sid, tick, attempt
                    )

    def test_different_seed_different_schedule(self):
        schedules = {
            FaultPlan(32, FaultConfig(crash_rate=0.5, seed=s)).schedule() for s in range(5)
        }
        assert len(schedules) > 1

    def test_queries_do_not_mutate(self):
        plan = FaultPlan(8, FaultConfig(crash_rate=0.5, timeout_rate=0.5, seed=3))
        before = plan.schedule()
        plan.is_timeout(0, 0, 0)
        plan.is_crashed(0, 0)
        plan.crashed_at(10)
        assert plan.schedule() == before


class TestCrashStop:
    def test_crash_is_permanent(self):
        plan = FaultPlan(8, FaultConfig(crash_rate=1.0, horizon=10, seed=1))
        assert plan.ever_crashed() == frozenset(range(8))
        for sid in range(8):
            crash = min(t for t in range(10) if plan.is_crashed(sid, t))
            assert not plan.is_crashed(sid, crash - 1)
            assert all(plan.is_crashed(sid, t) for t in range(crash, 20))

    def test_crashed_at_monotone(self):
        plan = FaultPlan(16, FaultConfig(crash_rate=0.6, horizon=30, seed=9))
        prev: frozenset[int] = frozenset()
        for tick in range(35):
            now = plan.crashed_at(tick)
            assert prev <= now
            prev = now
        assert prev == plan.ever_crashed()

    def test_zero_rate_no_crashes(self):
        plan = FaultPlan(16, FaultConfig(seed=5))
        assert plan.ever_crashed() == frozenset()
        assert plan.schedule() == ()


class TestTimeouts:
    def test_attempts_draw_independently(self):
        plan = FaultPlan(4, FaultConfig(timeout_rate=0.5, seed=7))
        draws = {
            (sid, tick, attempt): plan.is_timeout(sid, tick, attempt)
            for sid in range(4)
            for tick in range(20)
            for attempt in range(4)
        }
        assert any(draws.values()) and not all(draws.values())
        # a retry is not doomed to repeat the first attempt's outcome
        assert any(
            draws[(s, t, 0)] and not draws[(s, t, 1)]
            for s in range(4)
            for t in range(20)
        )

    def test_rate_is_roughly_honoured(self):
        plan = FaultPlan(8, FaultConfig(timeout_rate=0.2, seed=11))
        n = 8 * 200
        hits = sum(
            plan.is_timeout(sid, tick, 0) for sid in range(8) for tick in range(200)
        )
        assert 0.1 < hits / n < 0.3
