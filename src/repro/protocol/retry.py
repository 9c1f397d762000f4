"""Timeouts, bounded retries and exponential backoff for the live path.

One config object — :class:`RetryPolicy` — carries every network knob
end-to-end: :class:`repro.aio.transport.AsyncConnection` (and so
:class:`repro.aio.transport.BlockingConnection`) takes its socket
timeouts from it unless a per-phase keyword overrides one,
:class:`repro.protocol.memclient.MemcachedConnection` retries idempotent
retrieval ops with it, and :class:`repro.protocol.rnbclient.RnBProtocolClient`
uses it for failover re-dispatch.

The backoff schedule is the standard capped exponential with full
jitter on top: attempt ``k`` (0-based) sleeps
``min(base * multiplier**k, max) * (1 + U[0, jitter])``.  Jitter draws
come from a caller-supplied generator so tests (and the simulator) stay
deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, ProtocolError
from repro.utils.rng import ensure_rng

#: errors that indicate the *server* (not the request) failed; the only
#: ones worth retrying.  ServerDown/ServerTimeout from repro.errors are
#: subclasses of ConnectionError/TimeoutError, hence of OSError.
RETRYABLE_ERRORS = (ProtocolError, ConnectionError, OSError)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Every network knob of the live read path in one place.

    Parameters
    ----------
    connect_timeout:
        Seconds allowed for establishing a TCP connection.
    request_timeout:
        Seconds allowed for one request/response exchange on the socket.
    max_retries:
        Retries after the first attempt (0 disables retrying).
    backoff_base:
        Sleep before the first retry, in seconds.
    backoff_multiplier:
        Growth factor between consecutive retries.
    backoff_max:
        Upper bound on any single (pre-jitter) sleep.
    jitter:
        Fraction of random inflation: each sleep is multiplied by
        ``1 + U[0, jitter]``.  0 disables jitter.
    """

    connect_timeout: float = 5.0
    request_timeout: float = 5.0
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0 or self.request_timeout <= 0:
            raise ConfigurationError("timeouts must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                "need 0 <= backoff_base <= backoff_max; got "
                f"base={self.backoff_base}, max={self.backoff_max}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1.0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError("jitter must be in [0, 1]")

    # -- the schedule -----------------------------------------------------

    def backoff(self, attempt: int, *, rng=None) -> float:
        """Sleep (seconds) before retry number ``attempt`` (0-based).

        Without an ``rng`` the deterministic (jitter-free) schedule is
        returned; with one, full jitter inflates it by up to ``jitter``.
        Always within ``[0, backoff_max * (1 + jitter)]``.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        delay = min(
            self.backoff_base * self.backoff_multiplier**attempt, self.backoff_max
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + float(ensure_rng(rng).random()) * self.jitter
        return delay

    def backoff_schedule(self, *, rng=None) -> list[float]:
        """The sleeps of a full retry run (length ``max_retries``)."""
        return [self.backoff(k, rng=rng) for k in range(self.max_retries)]


#: module default, shared where no policy is passed explicitly
DEFAULT_POLICY = RetryPolicy()


async def async_call_with_retries(
    fn,
    policy: RetryPolicy = DEFAULT_POLICY,
    *,
    rng=None,
    sleep=None,
    retry_on: tuple = RETRYABLE_ERRORS,
    on_retry: Callable[[int, BaseException], None] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
):
    """:func:`call_with_retries` for coroutines (the ``repro.aio`` path).

    ``fn`` is an async callable; backoff sleeps await ``sleep`` (default
    :func:`asyncio.sleep`, injectable so tests stay instant).  The
    schedule, retryable error set, ``on_retry`` hook and ``deadline``
    budget behave exactly like the synchronous twin — one
    :class:`RetryPolicy` tunes both paths.
    """
    import asyncio

    if sleep is None:
        sleep = asyncio.sleep
    if deadline is not None and deadline <= 0:
        raise ConfigurationError("deadline must be positive (or None)")
    start = clock() if deadline is not None else 0.0
    attempt = 0
    while True:
        try:
            return await fn()
        except retry_on as exc:
            if attempt >= policy.max_retries:
                raise
            delay = policy.backoff(attempt, rng=rng)
            if deadline is not None and (clock() - start) + delay >= deadline:
                raise  # the budget cannot fit another sleep + attempt
            if on_retry is not None:
                on_retry(attempt, exc)
            await sleep(delay)
            attempt += 1


def call_with_retries(
    fn: Callable[[], object],
    policy: RetryPolicy = DEFAULT_POLICY,
    *,
    rng=None,
    sleep: Callable[[float], None] = time.sleep,
    retry_on: tuple = RETRYABLE_ERRORS,
    on_retry: Callable[[int, BaseException], None] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
):
    """Run ``fn`` under the policy's bounded retry + backoff schedule.

    ``on_retry(attempt, error)`` is invoked before each backoff sleep —
    clients hook health tracking and retry counters there.  The last
    error is re-raised once ``max_retries`` is exhausted.

    ``deadline`` is an optional per-call time budget in seconds (measured
    on ``clock``, injectable for tests): once the budget cannot
    accommodate the next backoff sleep, the last error is re-raised
    immediately instead of sleeping past it.  ``None`` — the default —
    retries exactly as before.
    """
    if deadline is not None and deadline <= 0:
        raise ConfigurationError("deadline must be positive (or None)")
    start = clock() if deadline is not None else 0.0
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.max_retries:
                raise
            delay = policy.backoff(attempt, rng=rng)
            if deadline is not None and (clock() - start) + delay >= deadline:
                raise  # the budget cannot fit another sleep + attempt
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(delay)
            attempt += 1
