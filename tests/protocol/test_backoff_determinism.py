"""Backoff determinism, deadline budgets, and the connect-refused path.

The retry schedule is load-bearing for reproducibility (simulated
clients share seeded generators with the rest of a run), so the bounds
and determinism are pinned here rather than assumed:

* same seed -> bit-identical delay sequence;
* no delay ever exceeds ``backoff_max * (1 + jitter)``;
* a deadline budget cuts the schedule short instead of sleeping past it;
* a refused TCP connection is retryable like any transient fault.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.aio.transport import BlockingConnection
from repro.errors import ConfigurationError
from repro.protocol.retry import RetryPolicy, call_with_retries

POLICY = RetryPolicy(
    max_retries=6, backoff_base=0.01, backoff_multiplier=3.0, backoff_max=0.2, jitter=0.25
)


class TestBackoffDeterminism:
    def test_same_seed_same_delays(self):
        a = POLICY.backoff_schedule(rng=np.random.default_rng(99))
        b = POLICY.backoff_schedule(rng=np.random.default_rng(99))
        assert a == b

    def test_different_seeds_jitter_differently(self):
        a = POLICY.backoff_schedule(rng=np.random.default_rng(1))
        b = POLICY.backoff_schedule(rng=np.random.default_rng(2))
        assert a != b

    def test_delays_never_exceed_cap(self):
        ceiling = POLICY.backoff_max * (1 + POLICY.jitter)
        for seed in range(50):
            for delay in POLICY.backoff_schedule(rng=np.random.default_rng(seed)):
                assert 0.0 <= delay <= ceiling

    def test_jitter_only_inflates(self):
        bare = POLICY.backoff_schedule()
        jittered = POLICY.backoff_schedule(rng=np.random.default_rng(5))
        assert all(j >= b for j, b in zip(jittered, bare))

    def test_sleeps_observed_match_schedule(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        slept: list[float] = []

        def always_fails():
            raise ConnectionError("nope")

        with pytest.raises(ConnectionError):
            call_with_retries(always_fails, POLICY, rng=rng_a, sleep=slept.append)
        assert slept == POLICY.backoff_schedule(rng=rng_b)


class TestDeadlineBudget:
    def test_deadline_cuts_retries_short(self):
        clock = iter([0.0, 0.0, 10.0]).__next__  # second check far past budget
        calls = []

        def always_fails():
            calls.append(1)
            raise ConnectionError("nope")

        with pytest.raises(ConnectionError):
            call_with_retries(
                always_fails, POLICY, sleep=lambda s: None, deadline=5.0, clock=clock
            )
        # first attempt + one retry; the second retry would sleep past
        # the budget, so the error re-raises instead
        assert len(calls) == 2

    def test_generous_deadline_changes_nothing(self):
        attempts = []

        def fails_twice():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("flaky")
            return "ok"

        ticks = iter(float(t) for t in range(100))
        assert (
            call_with_retries(
                fails_twice,
                POLICY,
                sleep=lambda s: None,
                deadline=1e9,
                clock=lambda: next(ticks),
            )
            == "ok"
        )

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            call_with_retries(lambda: 1, POLICY, deadline=0.0)


class TestConnectRefused:
    @pytest.fixture()
    def dead_port(self):
        # bind-then-close guarantees a port with no listener
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        return port

    def test_refused_connection_propagates(self, dead_port):
        conn = BlockingConnection("127.0.0.1", dead_port, connect_timeout=1.0)
        with pytest.raises(ConnectionRefusedError):
            conn.exchange(b"get k\r\n")  # connecting is lazy: the first exchange

    def test_refused_connection_is_retried(self, dead_port):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0, backoff_max=0.0, jitter=0.0)
        retries = []
        conn = BlockingConnection("127.0.0.1", dead_port, connect_timeout=1.0)

        with pytest.raises(ConnectionRefusedError):
            call_with_retries(
                lambda: conn.exchange(b"get k\r\n"),
                policy,
                sleep=lambda s: None,
                on_retry=lambda attempt, exc: retries.append(attempt),
            )
        assert retries == [0, 1]  # full schedule ran before giving up
