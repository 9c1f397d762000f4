"""Wiring a :class:`FaultPlan` into a simulated cluster.

The injector sits between the client and :class:`repro.cluster.cluster.
Cluster`: once attached (``cluster.attach_injector(...)``), every
``cluster.server(sid)`` access is vetted against the plan at the current
logical tick — crashed servers raise :class:`repro.errors.ServerDown`,
and transiently faulty attempts raise :class:`repro.errors.ServerTimeout`.

Attempt numbering: repeated accesses to the same server within one tick
are counted, and each gets an independent timeout draw from the plan —
that is what makes bounded retries effective against transient faults
while remaining fully deterministic.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ConfigurationError, ServerBusy, ServerDown, ServerTimeout
from repro.faults.plan import FaultPlan
from repro.hashing.hashfns import hash64_int

_MASK64 = (1 << 64) - 1


class FaultInjector:
    """Stateful clock + counters around a deterministic :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.tick = 0
        self._attempts: Counter[int] = Counter()  # per-server, this tick
        self.down_rejections = 0
        self.timeouts_injected = 0

    # -- clock -----------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Move the logical clock (one tick per request in the simulator)."""
        self.tick += ticks
        self._attempts.clear()

    # -- the gate ----------------------------------------------------------

    def check(self, server: int) -> None:
        """Vet one access; raises :class:`ServerDown` / :class:`ServerTimeout`.

        Called by ``Cluster.server`` on every access when attached.
        """
        if self.plan.is_crashed(server, self.tick):
            self.down_rejections += 1
            raise ServerDown(f"server {server} crashed (tick {self.tick})")
        attempt = self._attempts[server]
        self._attempts[server] += 1
        if self.plan.is_timeout(server, self.tick, attempt):
            self.timeouts_injected += 1
            raise ServerTimeout(
                f"server {server} timed out (tick {self.tick}, attempt {attempt})"
            )

    # -- convenience --------------------------------------------------------

    def crashed_now(self) -> frozenset[int]:
        """Servers dead at the current tick (oracle view, for metrics)."""
        return self.plan.crashed_at(self.tick)


class DynamicFaultInjector:
    """An injector whose down-set is edited at runtime (no fixed plan).

    The chaos harness (``repro.experiments.chaos``) drives kills,
    restarts and joins from an explicit schedule rather than a
    probability model, so it needs ground truth it can mutate:
    :meth:`kill` takes a server down (every later access raises
    :class:`ServerDown` until :meth:`restore`), :meth:`set_busy` makes
    it shed (:class:`ServerBusy` until :meth:`clear_busy`), and
    ``timeout_rate`` optionally layers deterministic per-attempt
    transient timeouts on the live servers via the same stateless mixer
    :class:`repro.faults.plan.FaultPlan` uses.

    Satisfies the same interface :meth:`repro.cluster.cluster.Cluster.
    attach_injector` expects (``check`` / ``advance`` /
    ``crashed_now``).
    """

    def __init__(self, *, timeout_rate: float = 0.0, seed: int = 0) -> None:
        if not (0.0 <= timeout_rate <= 1.0):
            raise ConfigurationError(
                f"timeout_rate must be in [0, 1]; got {timeout_rate}"
            )
        self.timeout_rate = timeout_rate
        self.seed = seed
        self.tick = 0
        self.down: set[int] = set()
        self.busy: set[int] = set()
        self._attempts: Counter[int] = Counter()
        self.down_rejections = 0
        self.timeouts_injected = 0
        self.busy_rejections = 0

    # -- schedule edits ----------------------------------------------------

    def kill(self, server: int) -> None:
        self.down.add(server)

    def restore(self, server: int) -> None:
        self.down.discard(server)

    def set_busy(self, server: int) -> None:
        """Mark ``server`` as saturated: every access is shed with
        :class:`ServerBusy` until :meth:`clear_busy`.

        A soft refusal, not sickness — breakers trip and covers route
        around it, but health trackers and quorum writers must not
        strike it (docs/OVERLOAD.md), which is why the nemesis drives
        overload through this verdict rather than timeouts.
        """
        self.busy.add(server)

    def clear_busy(self, server: int) -> None:
        self.busy.discard(server)

    # -- clock -------------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        self.tick += ticks
        self._attempts.clear()

    # -- the gate ------------------------------------------------------------

    def check(self, server: int) -> None:
        if server in self.down:
            self.down_rejections += 1
            raise ServerDown(f"server {server} is down (tick {self.tick})")
        if server in self.busy:
            self.busy_rejections += 1
            raise ServerBusy(f"server {server} shed the access (tick {self.tick})")
        if self.timeout_rate > 0.0:
            attempt = self._attempts[server]
            self._attempts[server] += 1
            key = (self.tick * 65_521 + server) * 8191 + attempt
            draw = hash64_int(key, seed=self.seed ^ 0xC4A0) / (_MASK64 + 1)
            if draw < self.timeout_rate:
                self.timeouts_injected += 1
                raise ServerTimeout(
                    f"server {server} timed out (tick {self.tick}, attempt {attempt})"
                )

    # -- convenience --------------------------------------------------------

    def crashed_now(self) -> frozenset[int]:
        return frozenset(self.down)
