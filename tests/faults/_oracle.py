"""Reference implementation: the fault gate as the two layers it was.

Before ``repro.faults.injector.FaultInjector`` held every fault family,
a simulated fleet's gate was a composition: a ``PartitionedInjector``
vetting link cuts from its vantage, over an inner node-fault injector —
the plan-driven ``FaultInjector`` (seeded crash-stop and per-attempt
timeouts) or the ``DynamicFaultInjector`` (runtime kill / restore /
busy edits).  The three classes are kept here as they were, less the
dynamic injector's timeout knobs that no caller set, and
``test_gate_oracle.py`` holds the one gate to :func:`composition`
verdict for verdict.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ServerBusy, ServerDown, ServerTimeout, ServerUnreachable
from repro.faults.partition import CLIENT, PartitionPlan
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Stateful clock + counters around a deterministic :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.tick = 0
        self._attempts: Counter[int] = Counter()
        self.down_rejections = 0
        self.timeouts_injected = 0

    def advance(self, ticks: int = 1) -> None:
        self.tick += ticks
        self._attempts.clear()

    def check(self, server: int) -> None:
        if self.plan.is_crashed(server, self.tick):
            self.down_rejections += 1
            raise ServerDown(f"server {server} crashed (tick {self.tick})")
        attempt = self._attempts[server]
        self._attempts[server] += 1
        if self.plan.is_timeout(server, self.tick, attempt):
            self.timeouts_injected += 1
            raise ServerTimeout(f"server {server} timed out (tick {self.tick})")

    def crashed_now(self) -> frozenset[int]:
        return self.plan.crashed_at(self.tick)


class DynamicFaultInjector:
    """An injector whose down and busy sets are edited at runtime."""

    def __init__(self) -> None:
        self.tick = 0
        self.down: set[int] = set()
        self.busy: set[int] = set()
        self.down_rejections = 0
        self.timeouts_injected = 0
        self.busy_rejections = 0

    def kill(self, server: int) -> None:
        self.down.add(server)

    def restore(self, server: int) -> None:
        self.down.discard(server)

    def set_busy(self, server: int) -> None:
        self.busy.add(server)

    def clear_busy(self, server: int) -> None:
        self.busy.discard(server)

    def advance(self, ticks: int = 1) -> None:
        self.tick += ticks

    def check(self, server: int) -> None:
        if server in self.down:
            self.down_rejections += 1
            raise ServerDown(f"server {server} is down (tick {self.tick})")
        if server in self.busy:
            self.busy_rejections += 1
            raise ServerBusy(f"server {server} shed the access (tick {self.tick})")

    def crashed_now(self) -> frozenset[int]:
        return frozenset(self.down)


class PartitionedInjector:
    """Link cuts checked from ``vantage``, then the inner injector's verdict."""

    def __init__(self, plan: PartitionPlan, inner=None, *, vantage: int = CLIENT) -> None:
        self.plan = plan
        self.inner = inner
        self.vantage = vantage
        self.tick = 0
        self.blocked_requests = 0
        self.blocked_replies = 0
        self._blocked_counters = None

    def bind_metrics(self, registry, **labels) -> None:
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
            fn=lambda: float(self.plan.active_rules(self.tick)),
            **labels,
        )

    def advance(self, ticks: int = 1) -> None:
        self.tick += ticks
        if self.inner is not None:
            self.inner.advance(ticks)

    def check(self, server: int) -> None:
        if self.plan.blocked(self.vantage, server, self.tick):
            self.blocked_requests += 1
            if self._blocked_counters is not None:
                self._blocked_counters["request"].inc()
            raise ServerUnreachable(f"server {server} unreachable (tick {self.tick})")
        if self.plan.blocked(server, self.vantage, self.tick):
            self.blocked_replies += 1
            if self._blocked_counters is not None:
                self._blocked_counters["reply"].inc()
            raise ServerTimeout(f"reply from server {server} lost (tick {self.tick})")
        if self.inner is not None:
            self.inner.check(server)

    def can_reach(self, src: int, dst: int) -> bool:
        if self.inner is not None and dst in self.inner.crashed_now():
            return False
        return not (
            self.plan.blocked(src, dst, self.tick) or self.plan.blocked(dst, src, self.tick)
        )

    def crashed_now(self) -> frozenset[int]:
        if self.inner is not None:
            return self.inner.crashed_now()
        return frozenset()


def composition(plan: FaultPlan | None, partitions: PartitionPlan) -> PartitionedInjector:
    """The two-layer gate a run built: link cuts over the plan-driven
    injector when there is a plan, over the runtime-edited one when not."""
    inner = DynamicFaultInjector() if plan is None else FaultInjector(plan)
    return PartitionedInjector(partitions, inner)
