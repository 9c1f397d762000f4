"""RetryPolicy: backoff bounds, bounded retries, timeout plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError, ServerTimeout
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import (
    DEFAULT_POLICY,
    RETRYABLE_ERRORS,
    RetryPolicy,
    call_with_retries,
)
from repro.protocol.transport import LoopbackTransport


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"connect_timeout": 0.0},
            {"request_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_base": 2.0, "backoff_max": 1.0},
            {"backoff_multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_default_policy_sane(self):
        assert DEFAULT_POLICY.max_retries >= 0
        assert DEFAULT_POLICY.request_timeout > 0


class TestBackoff:
    def test_deterministic_schedule_without_rng(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_multiplier=2.0, backoff_max=1.0, max_retries=6
        )
        assert policy.backoff_schedule() == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_cap_applies(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_max=0.6, max_retries=4)
        assert all(d <= 0.6 for d in policy.backoff_schedule())

    def test_jitter_bounds(self):
        policy = RetryPolicy(
            backoff_base=0.1,
            backoff_multiplier=2.0,
            backoff_max=1.0,
            jitter=0.25,
            max_retries=5,
        )
        rng = np.random.default_rng(0)
        for _ in range(50):
            for k in range(policy.max_retries):
                bare = policy.backoff(k)
                jittered = policy.backoff(k, rng=rng)
                assert bare <= jittered <= bare * 1.25 + 1e-12

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_POLICY.backoff(-1)


class TestCallWithRetries:
    def make(self, fail_times: int, exc=ConnectionError):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise exc("boom")
            return "ok"

        return fn, calls

    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0, backoff_max=0.0)
        sleeps: list[float] = []
        fn, calls = self.make(2)
        result = call_with_retries(fn, policy, rng=None, sleep=sleeps.append)
        assert result == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0, backoff_max=0.0)
        fn, calls = self.make(10)
        with pytest.raises(ConnectionError):
            call_with_retries(fn, policy, rng=None, sleep=lambda d: None)
        assert calls["n"] == 3  # 1 attempt + max_retries

    def test_zero_retries_single_shot(self):
        policy = RetryPolicy(max_retries=0)
        fn, calls = self.make(1)
        with pytest.raises(ConnectionError):
            call_with_retries(fn, policy, rng=None, sleep=lambda d: None)
        assert calls["n"] == 1

    def test_non_retryable_passes_through(self):
        policy = RetryPolicy(max_retries=5)
        fn, calls = self.make(3, exc=ValueError)
        with pytest.raises(ValueError):
            call_with_retries(fn, policy, rng=None, sleep=lambda d: None)
        assert calls["n"] == 1

    def test_on_retry_hook_sees_attempts(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.0, backoff_max=0.0)
        seen: list[tuple[int, str]] = []
        fn, _ = self.make(2)
        call_with_retries(
            fn,
            policy,
            rng=None,
            sleep=lambda d: None,
            on_retry=lambda k, e: seen.append((k, type(e).__name__)),
        )
        assert seen == [(0, "ConnectionError"), (1, "ConnectionError")]

    def test_retryable_covers_injected_faults(self):
        # ServerDown/ServerTimeout subclass ConnectionError/TimeoutError
        from repro.errors import ServerDown

        assert issubclass(ServerDown, RETRYABLE_ERRORS)
        assert issubclass(ServerTimeout, RETRYABLE_ERRORS)
        assert issubclass(ProtocolError, RETRYABLE_ERRORS)


class FlakyTransport:
    """Loopback that raises on the first ``fail_times`` exchanges."""

    def __init__(self, server: MemcachedServer, fail_times: int):
        self.inner = LoopbackTransport(server)
        self.fail_times = fail_times
        self.exchanges = 0

    def exchange(self, request: bytes, n_responses: int = 1):
        self.exchanges += 1
        if self.exchanges <= self.fail_times:
            raise ServerTimeout("injected")
        return self.inner.exchange(request, n_responses)

    def close(self) -> None:
        pass


class TestConnectionRetries:
    def test_idempotent_ops_retry(self):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0, backoff_max=0.0)
        server = MemcachedServer()
        conn = MemcachedConnection(
            FlakyTransport(server, 2), policy=policy, sleep=lambda d: None
        )
        assert conn.set("k", b"v")  # 2 failures ridden out
        assert conn.retries == 2
        assert conn.get("k") == b"v"

    def test_without_policy_single_shot(self):
        server = MemcachedServer()
        conn = MemcachedConnection(FlakyTransport(server, 1))
        with pytest.raises(ServerTimeout):
            conn.get("k")
        assert conn.retries == 0

    def test_non_idempotent_ops_never_retry(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.0, backoff_max=0.0)
        server = MemcachedServer()
        transport = FlakyTransport(server, 1)
        conn = MemcachedConnection(transport, policy=policy, sleep=lambda d: None)
        with pytest.raises(ServerTimeout):
            conn.incr("counter", 1)
        assert transport.exchanges == 1  # a retried incr could double-count


class TestTransportTimeoutPlumbing:
    def test_policy_sets_socket_timeouts(self):
        from repro.aio.server import serve_aio
        from repro.aio.transport import BlockingConnection

        policy = RetryPolicy(connect_timeout=2.5, request_timeout=0.75)
        handle, (host, port) = serve_aio(MemcachedServer())
        try:
            transport = BlockingConnection(host, port, policy=policy)
            assert MemcachedConnection(transport).set("k", b"v")  # a live socket
            assert transport.connection.connect_timeout == 2.5
            assert transport.connection.read_timeout == 0.75
            transport.close()
            # a per-phase keyword wins over the policy
            transport = BlockingConnection(host, port, policy=policy, read_timeout=3.0)
            assert transport.connection.read_timeout == 3.0
            assert transport.connection.connect_timeout == 2.5
            transport.close()
        finally:
            handle.stop()

    def test_default_policy_when_nothing_passed(self):
        from repro.aio.server import serve_aio
        from repro.aio.transport import BlockingConnection

        handle, (host, port) = serve_aio(MemcachedServer())
        try:
            transport = BlockingConnection(host, port)
            assert MemcachedConnection(transport).get("k") is None
            assert transport.connection.read_timeout == DEFAULT_POLICY.request_timeout
            assert transport.connection.connect_timeout == DEFAULT_POLICY.connect_timeout
            transport.close()
        finally:
            handle.stop()
