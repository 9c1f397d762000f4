"""Reference implementations: the health tracker and the breaker board as
they were when every query scanned the fleet.

Kept only under ``tests/``: ``exclusions()`` and ``tripped()`` build their
sets from every server's state, ``advance()`` visits every breaker, and
every success lands in the breaker's window.  ``test_kept_sets.py`` holds
the kept-set implementations to them, state by state.
"""

from __future__ import annotations

from repro.faults.health import ALIVE, DEAD, SUSPECTED, ServerHealth
from repro.hashing.hashfns import hash64_int
from repro.overload.breaker import CLOSED, HALF_OPEN, OPEN, BreakerState


def scan_exclusions(health, *, include_suspected: bool = False) -> frozenset[int]:
    """``HealthTracker.exclusions`` by definition: every server's state read."""
    banned = (DEAD, SUSPECTED) if include_suspected else (DEAD,)
    return frozenset(sid for sid in range(health.n_servers) if health.state(sid) in banned)


def scan_tripped(board) -> frozenset[int]:
    """``BreakerBoard.tripped`` by definition: OPEN, or HALF_OPEN with the probe out."""
    return frozenset(
        sid
        for sid, b in enumerate(board._breakers)
        if b.state == OPEN or (b.state == HALF_OPEN and b.probe_inflight)
    )


class HealthTracker:
    def __init__(self, n_servers, *, suspect_after=1, dead_after=3, flap_threshold=None):
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.flap_threshold = flap_threshold
        self._health = [ServerHealth() for _ in range(n_servers)]
        self._observers: list = []

    @property
    def n_servers(self) -> int:
        return len(self._health)

    def add_observer(self, observer) -> None:
        self._observers.append(observer)

    def _notify(self, server, outcome) -> None:
        for observer in self._observers:
            observer.observe(server, outcome)

    def ensure_capacity(self, n_servers) -> None:
        while len(self._health) < n_servers:
            self._health.append(ServerHealth())

    def record_success(self, server) -> None:
        h = self._health[server]
        h.consecutive_errors = 0
        h.total_successes += 1
        h.consecutive_successes += 1
        if (
            h.state == DEAD
            and self.flap_threshold is not None
            and h.flaps >= 2
            and h.consecutive_successes < self.flap_threshold
        ):
            self._notify(server, "success")
            return
        h.state = ALIVE
        self._notify(server, "success")

    def record_error(self, server) -> None:
        h = self._health[server]
        h.consecutive_errors += 1
        h.total_errors += 1
        h.consecutive_successes = 0
        if h.consecutive_errors >= self.dead_after:
            if h.state != DEAD:
                h.flaps += 1
            h.state = DEAD
        elif h.consecutive_errors >= self.suspect_after:
            h.state = SUSPECTED
        self._notify(server, "error")

    def record_recovery(self, server) -> None:
        h = self._health[server]
        damped = self.flap_threshold is not None and h.flaps >= 2
        h.state = ALIVE
        h.consecutive_errors = 0
        h.consecutive_successes = 0
        self._notify(server, "success" if damped else "recovery")

    def state(self, server) -> str:
        return self._health[server].state

    def exclusions(self, *, include_suspected=False) -> frozenset[int]:
        return scan_exclusions(self, include_suspected=include_suspected)


class BreakerBoard:
    MAX_BACKOFF_FACTOR = 8

    def __init__(
        self, n_servers, *, trip_after=3, window=8, open_ticks=10, health=None, seed=0
    ):
        self.trip_after = trip_after
        self.window = window
        self.open_ticks = open_ticks
        self.health = health
        self.seed = seed
        self.tick = 0
        self._breakers = [BreakerState() for _ in range(n_servers)]

    @property
    def n_servers(self) -> int:
        return len(self._breakers)

    def ensure_capacity(self, n_servers) -> None:
        while len(self._breakers) < n_servers:
            self._breakers.append(BreakerState())
        if self.health is not None:
            self.health.ensure_capacity(n_servers)

    def advance(self, ticks=1) -> None:
        self.tick += ticks
        for b in self._breakers:
            if b.state == OPEN and self.tick >= b.retry_at:
                b.state = HALF_OPEN
                b.probe_inflight = False
                b.transitions += 1

    def _observe(self, sid, failure) -> None:
        b = self._breakers[sid]
        b.window.append(failure)
        if failure:
            b.failures_in_window += 1
        while len(b.window) > self.window:
            if b.window.popleft():
                b.failures_in_window -= 1

    def _trip(self, sid) -> None:
        b = self._breakers[sid]
        if b.state != OPEN:
            b.transitions += 1
        b.state = OPEN
        b.trip_streak += 1
        factor = min(2 ** (b.trip_streak - 1), self.MAX_BACKOFF_FACTOR)
        jitter = hash64_int(sid * 1_000_003 + b.trip_streak, seed=self.seed) % (
            max(self.open_ticks // 2, 1)
        )
        b.retry_at = self.tick + self.open_ticks * factor + jitter
        b.window.clear()
        b.failures_in_window = 0
        b.probe_inflight = False

    def _success_local(self, sid) -> None:
        b = self._breakers[sid]
        if b.state == HALF_OPEN:
            b.state = CLOSED
            b.trip_streak = 0
            b.probe_inflight = False
            b.transitions += 1
            b.window.clear()
            b.failures_in_window = 0
            return
        self._observe(sid, failure=False)

    def _failure_local(self, sid) -> None:
        b = self._breakers[sid]
        if b.state == HALF_OPEN:
            self._trip(sid)
            return
        if b.state == OPEN:
            return
        self._observe(sid, failure=True)
        if b.failures_in_window >= self.trip_after:
            self._trip(sid)

    def record_success(self, sid) -> None:
        if self.health is not None:
            self.health.record_success(sid)
        self._success_local(sid)

    def record_failure(self, sid, *, hard=False) -> None:
        if self.health is not None and hard:
            self.health.record_error(sid)
        self._failure_local(sid)

    def record_recovery(self, sid) -> None:
        b = self._breakers[sid]
        if b.state != CLOSED:
            b.transitions += 1
        b.state = CLOSED
        b.trip_streak = 0
        b.probe_inflight = False
        b.window.clear()
        b.failures_in_window = 0

    def observe(self, sid, outcome) -> None:
        if sid >= len(self._breakers):
            self.ensure_capacity(sid + 1)
        if outcome == "success":
            self._success_local(sid)
        elif outcome == "error":
            self._failure_local(sid)
        else:
            self.record_recovery(sid)

    def allow_probe(self, sid) -> bool:
        b = self._breakers[sid]
        if b.state != HALF_OPEN or b.probe_inflight:
            return False
        b.probe_inflight = True
        return True

    def state(self, sid) -> str:
        return self._breakers[sid].state

    def tripped(self) -> frozenset[int]:
        return scan_tripped(self)

    def exclusions(self) -> frozenset[int]:
        out = self.tripped()
        if self.health is not None:
            out = out | self.health.exclusions()
        return out
