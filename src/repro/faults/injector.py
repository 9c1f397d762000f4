"""The fault gate between a simulated cluster and its clients.

Once attached (``cluster.attach_injector(...)``), a :class:`FaultInjector`
vets every ``cluster.server(sid)`` access at the current logical tick.
One gate carries every simulated fault family:

* **node edits** — :meth:`~FaultInjector.kill` / :meth:`~FaultInjector.
  restore` and :meth:`~FaultInjector.set_busy` / :meth:`~FaultInjector.
  clear_busy`, the ground truth a chaos schedule mutates;
* **a seeded** :class:`~repro.faults.plan.FaultPlan` (optional) —
  crash-stop at drawn ticks and per-attempt transient timeouts;
* **link cuts** — a :class:`~repro.faults.partition.PartitionPlan`
  checked from the gate's mutable ``vantage`` endpoint.

Verdict order: a cut request edge raises
:class:`~repro.errors.ServerUnreachable`, a cut reply edge
:class:`~repro.errors.ServerTimeout`, a crashed or killed server
:class:`~repro.errors.ServerDown`, a busy one
:class:`~repro.errors.ServerBusy`; only then does the plan draw a
transient timeout.

Attempt numbering: repeated accesses to the same server within one tick
are counted, and each gets an independent timeout draw from the plan —
that is what makes bounded retries effective against transient faults
while remaining fully deterministic.  A cut or refused access counts no
attempt.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ServerBusy, ServerDown, ServerTimeout, ServerUnreachable
from repro.faults.partition import CLIENT, PartitionPlan
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Clock, counters and fault state of one simulated fleet's gate.

    ``plan`` is the optional seeded node-fault schedule.  ``partitions``
    holds the link cuts: it starts empty, and a
    :class:`~repro.faults.nemesis.Nemesis` or an experiment installs rules
    in it.
    ``vantage`` names the endpoint whose round trips :meth:`check`
    models; mutable, because a single-threaded experiment re-points it
    when alternating between client processes on different sides of a
    split.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan
        self.partitions = PartitionPlan()
        self.vantage = CLIENT
        self.tick = 0
        self.down: set[int] = set()
        self.busy: set[int] = set()
        self._attempts: Counter[int] = Counter()  # per-server, this tick
        self.down_rejections = 0
        self.busy_rejections = 0
        self.timeouts_injected = 0
        self.blocked_requests = 0
        self.blocked_replies = 0
        self._blocked_counters = None

    def bind_metrics(self, registry, **labels) -> None:
        """``rnb_partition_blocked_total{edge=...}`` counters and the
        ``rnb_partition_links_active`` callback gauge."""
        self._blocked_counters = {
            edge: registry.counter(
                "rnb_partition_blocked_total",
                "cluster accesses blocked by a partition rule",
                edge=edge,
                **labels,
            )
            for edge in ("request", "reply")
        }
        registry.gauge(
            "rnb_partition_links_active",
            "partition rules active at the current tick",
            fn=lambda: float(self.partitions.active_rules(self.tick)),
            **labels,
        )

    # -- node edits ----------------------------------------------------------

    def kill(self, server: int) -> None:
        """Take ``server`` down: every access raises :class:`ServerDown`
        until :meth:`restore`."""
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

    # -- clock ---------------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Move the logical clock (one tick per request in the simulator)."""
        self.tick += ticks
        self._attempts.clear()

    # -- the gate --------------------------------------------------------------

    def check(self, server: int) -> None:
        """Vet one access from ``vantage``; raises the first verdict that holds.

        Called by ``Cluster.server`` on every access when attached.  A cut
        reply edge means the request would execute but the answer never
        returns — modelled conservatively as a timeout *without*
        server-side effects, so the simulated store stays exactly what
        the surviving acks say it is.
        """
        tick, links = self.tick, self.partitions
        if links.rules:  # most runs install no link rule: skip both scans
            vantage = self.vantage
            if links.blocked(vantage, server, tick):
                self.blocked_requests += 1
                if self._blocked_counters is not None:
                    self._blocked_counters["request"].inc()
                raise ServerUnreachable(
                    f"server {server} unreachable from endpoint {vantage} (tick {tick})"
                )
            if links.blocked(server, vantage, tick):
                self.blocked_replies += 1
                if self._blocked_counters is not None:
                    self._blocked_counters["reply"].inc()
                raise ServerTimeout(
                    f"reply from server {server} to endpoint {vantage} lost (tick {tick})"
                )
        plan = self.plan
        if server in self.down or (plan is not None and plan.is_crashed(server, tick)):
            self.down_rejections += 1
            raise ServerDown(f"server {server} is down (tick {tick})")
        if server in self.busy:
            self.busy_rejections += 1
            raise ServerBusy(f"server {server} shed the access (tick {tick})")
        if plan is not None:
            attempt = self._attempts[server]
            self._attempts[server] = attempt + 1
            if plan.is_timeout(server, tick, attempt):
                self.timeouts_injected += 1
                raise ServerTimeout(
                    f"server {server} timed out (tick {tick}, attempt {attempt})"
                )

    def can_reach(self, src: int, dst: int) -> bool:
        """Oracle round-trip reachability of endpoint ``dst`` from ``src``
        at the current tick: a dead ``dst`` is unreachable, a busy one is
        not.  Membership probes use this; it ignores ``vantage`` on
        purpose."""
        if dst in self.crashed_now():
            return False
        links, tick = self.partitions, self.tick
        return not (links.blocked(src, dst, tick) or links.blocked(dst, src, tick))

    def crashed_now(self) -> frozenset[int]:
        """Servers dead at the current tick, killed or plan-crashed (oracle
        view, for metrics)."""
        if self.plan is None:
            return frozenset(self.down)
        return self.plan.crashed_at(self.tick) | self.down
