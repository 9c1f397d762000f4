"""Per-server circuit breakers (closed / open / half-open).

The :class:`repro.faults.health.HealthTracker` handles servers that
*die*: consecutive hard errors mark a server dead and one success (or an
authoritative recovery) rehabilitates it.  Overload looks different — a
server sheds or straggles *intermittently*, so consecutive-error
counting never trips, yet every request routed at it pays.  The
classic remedy is the circuit breaker (Nygard, *Release It!*):

* **closed** — traffic flows; failures within a sliding window are
  counted.  ``trip_after`` failures in the last ``window`` observations
  open the breaker.
* **open** — the server is excluded from covers exactly like a dead one
  (``tripped()`` feeds the same ``exclude`` set the health tracker's
  exclusions do).  After ``open_ticks`` (plus a seeded deterministic
  jitter so a fleet of breakers doesn't probe in lockstep) it moves to
  half-open.
* **half-open** — exactly one *probe* transaction is let through
  (:meth:`BreakerBoard.allow_probe`).  Success closes the breaker;
  failure re-opens it with the backoff doubled (capped).

The board is clock-driven by logical ticks (one per request in the
simulators; the DES maps its float clock onto ticks) and fully
deterministic: probe jitter comes from :func:`repro.hashing.hashfns.
hash64_int` keyed by ``(seed, server, trip_count)``, never from shared
RNG state.

Layering: the board *observes* a :class:`HealthTracker` when one is
passed — every ``record_success`` / ``record_error`` is forwarded — so
the read path keeps a single reporting call-site, and exclusions merge
dead and tripped servers with one union.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.health import HealthTracker
from repro.hashing.hashfns import hash64_int

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(slots=True)
class BreakerState:
    """Mutable record for one server's breaker."""

    state: str = CLOSED
    #: sliding window of recent outcomes (True = failure)
    window: deque = field(default_factory=deque)
    failures_in_window: int = 0
    #: tick at which an OPEN breaker may go half-open
    retry_at: int = 0
    #: consecutive trips without an intervening close (backoff escalation)
    trip_streak: int = 0
    #: lifetime transitions, the soak experiment's "breaker transitions"
    transitions: int = 0
    #: True once the half-open probe slot has been handed out this period
    probe_inflight: bool = False


class BreakerBoard:
    """A fleet of circuit breakers sharing one config and logical clock.

    Parameters
    ----------
    n_servers:
        Fleet size (server ids ``0..n_servers-1``).
    trip_after:
        Failures within the sliding window that open the breaker.
    window:
        Number of most-recent observations the failure count runs over.
    open_ticks:
        Base ticks an open breaker waits before allowing a probe; the
        actual wait adds a seeded jitter of up to ``open_ticks // 2``
        and doubles per consecutive re-trip (capped at 8x).
    health:
        Optional :class:`HealthTracker` to forward observations to, so
        callers report each outcome exactly once.
    seed:
        Probe-jitter seed; two boards with equal seeds and observation
        sequences transition identically.
    """

    MAX_BACKOFF_FACTOR = 8

    def __init__(
        self,
        n_servers: int,
        *,
        trip_after: int = 3,
        window: int = 8,
        open_ticks: int = 10,
        health: HealthTracker | None = None,
        seed: int = 0,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if trip_after < 1 or window < trip_after:
            raise ConfigurationError(
                "need 1 <= trip_after <= window; got "
                f"trip_after={trip_after}, window={window}"
            )
        if open_ticks < 1:
            raise ConfigurationError("open_ticks must be >= 1")
        self.trip_after = trip_after
        self.window = window
        self.open_ticks = open_ticks
        self.health = health
        self.seed = seed
        self.tick = 0
        self._breakers = [BreakerState() for _ in range(n_servers)]
        self._registry = None
        #: the OPEN breakers (what :meth:`advance` ripens) and :meth:`tripped`,
        #: kept in step with every state change so that neither scans the fleet
        self._open: set[int] = set()
        self._tripped: frozenset[int] = frozenset()

    # -- metrics ----------------------------------------------------------

    #: numeric encoding of breaker states for the per-server gauge
    STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def bind_metrics(self, registry) -> None:
        """Expose breaker state as callback gauges on an obs registry.

        ``rnb_breaker_state{server=...}`` is 0/1/2 for
        closed/half-open/open, ``rnb_breakers{state=...}`` counts the
        fleet per state, and ``rnb_breaker_transitions`` is the lifetime
        transition total.  This replaces reaching into the private
        ``_breakers`` list, which is deprecated (docs/OBSERVABILITY.md
        release note).  Servers that join later
        (:meth:`ensure_capacity`) are bound automatically.
        """
        self._registry = registry
        for sid in range(len(self._breakers)):
            self._bind_server(sid)
        for state in (CLOSED, OPEN, HALF_OPEN):
            registry.gauge(
                "rnb_breakers",
                "breakers currently in each state",
                state=state,
                fn=lambda state=state: float(self.counts()[state]),
            )
        registry.gauge(
            "rnb_breaker_transitions",
            "lifetime breaker state transitions across the fleet",
            fn=lambda: float(self.transitions_total()),
        )

    def _bind_server(self, sid: int) -> None:
        if self._registry is None:
            return
        self._registry.gauge(
            "rnb_breaker_state",
            "per-server breaker state (0 closed, 1 half-open, 2 open)",
            server=sid,
            fn=lambda sid=sid: float(self.STATE_CODES[self.state(sid)]),
        )

    # -- fleet size -------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return len(self._breakers)

    def ensure_capacity(self, n_servers: int) -> None:
        """Grow the tracked id space (elastic join); never shrinks."""
        while len(self._breakers) < n_servers:
            self._breakers.append(BreakerState())
            if self._registry is not None:
                self._bind_server(len(self._breakers) - 1)
        if self.health is not None:
            self.health.ensure_capacity(n_servers)

    # -- clock ------------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Move the logical clock; open breakers ripen toward half-open."""
        self.tick += ticks
        if not self._open:
            return
        for sid in [sid for sid in self._open if self.tick >= self._breakers[sid].retry_at]:
            b = self._breakers[sid]
            b.state = HALF_OPEN
            b.probe_inflight = False
            b.transitions += 1
            self._open.discard(sid)
            self._set_tripped(sid, False)

    def _set_tripped(self, sid: int, tripped: bool) -> None:
        if (sid in self._tripped) != tripped:
            self._tripped = self._tripped | {sid} if tripped else self._tripped - {sid}

    # -- observations -----------------------------------------------------

    def _observe(self, sid: int, failure: bool) -> None:
        b = self._breakers[sid]
        b.window.append(failure)
        if failure:
            b.failures_in_window += 1
        while len(b.window) > self.window:
            if b.window.popleft():
                b.failures_in_window -= 1

    def _trip(self, sid: int) -> None:
        b = self._breakers[sid]
        if b.state != OPEN:
            b.transitions += 1
        b.state = OPEN
        self._open.add(sid)
        self._set_tripped(sid, True)
        b.trip_streak += 1
        factor = min(2 ** (b.trip_streak - 1), self.MAX_BACKOFF_FACTOR)
        jitter = hash64_int(sid * 1_000_003 + b.trip_streak, seed=self.seed) % (
            max(self.open_ticks // 2, 1)
        )
        b.retry_at = self.tick + self.open_ticks * factor + jitter
        b.window.clear()
        b.failures_in_window = 0
        b.probe_inflight = False

    def _failure_local(self, sid: int) -> None:
        b = self._breakers[sid]
        if b.state == HALF_OPEN:
            self._trip(sid)  # probe failed: straight back to OPEN
            return
        if b.state == OPEN:
            return
        self._observe(sid, failure=True)
        if b.failures_in_window >= self.trip_after:
            self._trip(sid)

    def record_success(self, sid: int) -> None:
        """A transaction to ``sid`` completed normally."""
        if self.health is not None:
            self.health.record_success(sid)
        self.observe(sid, "success")

    def record_failure(self, sid: int, *, hard: bool = False) -> None:
        """A transaction to ``sid`` failed.

        ``hard`` marks failures that should also advance the health
        tracker's dead-server state machine (crash refusal, timeout);
        soft failures (BUSY sheds, deadline misses) only feed the
        breaker — a shedding server is *alive*, just overloaded, and
        must not be declared dead.
        """
        if self.health is not None and hard:
            self.health.record_error(sid)
        self._failure_local(sid)

    def record_recovery(self, sid: int) -> None:
        """Authoritative recovery: force the breaker closed, streak forgiven."""
        b = self._breakers[sid]
        if b.state != CLOSED:
            b.transitions += 1
        b.state = CLOSED
        self._open.discard(sid)
        self._set_tripped(sid, False)
        b.trip_streak = 0
        b.probe_inflight = False
        b.window.clear()
        b.failures_in_window = 0

    def observe(self, sid: int, outcome: str) -> None:
        """:meth:`repro.faults.health.HealthTracker.add_observer` hook.

        The inverse wiring of ``health=``: a read path that already
        reports to a health tracker feeds this board for free.  Only
        breaker-side state is touched — never the health tracker — so
        the two wirings cannot recurse into each other.
        """
        if sid >= len(self._breakers):
            self.ensure_capacity(sid + 1)
        if outcome == "success":
            b = self._breakers[sid]
            if b.state == HALF_OPEN:
                # the probe came back: close and forgive the backoff streak
                b.state = CLOSED
                b.trip_streak = 0
                b.probe_inflight = False
                b.transitions += 1
                b.window.clear()
                b.failures_in_window = 0
                self._set_tripped(sid, False)
            elif b.failures_in_window:
                # while the window holds no failure, a success it drops could only
                # push out other successes: no trip decision changes, so none is kept
                self._observe(sid, failure=False)
        elif outcome == "error":
            self._failure_local(sid)
        elif outcome == "recovery":
            self.record_recovery(sid)
        else:
            raise ConfigurationError(f"unknown health outcome {outcome!r}")

    # -- routing queries --------------------------------------------------

    def allow_probe(self, sid: int) -> bool:
        """Claim the single half-open probe slot for ``sid``.

        Returns True for exactly one caller per half-open period; the
        probe's outcome (``record_success`` / ``record_failure``)
        decides the next state.
        """
        b = self._breakers[sid]
        if b.state != HALF_OPEN or b.probe_inflight:
            return False
        b.probe_inflight = True
        self._set_tripped(sid, True)
        return True

    def state(self, sid: int) -> str:
        return self._breakers[sid].state

    def tripped(self) -> frozenset[int]:
        """Servers covers must avoid: OPEN, plus HALF_OPEN ones whose
        probe slot is already taken."""
        return self._tripped

    def exclusions(self) -> frozenset[int]:
        """Union of breaker trips and (when layered) health exclusions."""
        out = self.tripped()
        if self.health is not None:
            out = out | self.health.exclusions()
        return out

    def transitions_total(self) -> int:
        """Lifetime state transitions across the fleet (soak metric)."""
        return sum(b.transitions for b in self._breakers)

    def counts(self) -> dict[str, int]:
        """How many breakers are in each state."""
        out = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for b in self._breakers:
            out[b.state] += 1
        return out
