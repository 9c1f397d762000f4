"""The nemesis: one seeded timeline composing every fault family.

A :class:`Nemesis` owns one deterministic timeline of
:class:`NemesisEvent` entries — crash/restore, busy-shed, and
the link-level cuts from :mod:`repro.faults.partition` — and drives the
one fault gate (:class:`~repro.faults.injector.FaultInjector`) from it.
``write_chaos`` replays its kill/restore schedule through one; ``chaos``
(whose ``join`` has no action here) and ``partition_chaos`` (a split
between two client groups, which ``cut`` cannot express) keep their own
loops.

The schedule is pure data: :func:`make_nemesis_schedule` draws it once
from :func:`repro.utils.rng.derive_rng` (construction-time draws, the
:class:`~repro.faults.plan.FaultPlan` discipline), and
:meth:`Nemesis.apply` replays events whose tick has come due — call it
once per simulated tick (or per scheduler window in wall-clock
harnesses).  Link cuts carry their end tick inside the installed
:class:`~repro.faults.partition.LinkRule`, so they expire without a
matching heal event; node faults are paired with explicit restore
events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.partition import CLIENT
from repro.hashing.hashfns import stable_hash64
from repro.utils.rng import derive_rng

#: node-fault actions edit the gate's down and busy sets; link actions its cuts
NODE_ACTIONS = frozenset({"kill", "restore", "busy", "clear_busy"})
LINK_ACTIONS = frozenset({"cut", "one_way", "flap", "heal"})


@dataclass(frozen=True, slots=True)
class NemesisEvent:
    """One scheduled fault action.

    ``arg`` depends on ``action``: a server id for node actions,
    ``(targets, end)`` for ``cut`` / ``one_way``, ``(targets, end,
    period, duty)`` for ``flap``, ``None`` for ``heal``.
    """

    tick: int
    action: str
    arg: object = None


def make_nemesis_schedule(
    seed: int,
    n_servers: int,
    horizon: int,
    *,
    n_faults: int = 4,
    kinds: tuple[str, ...] = ("kill", "busy", "cut", "one_way", "flap"),
) -> tuple[NemesisEvent, ...]:
    """A seeded composed-incident timeline over ``[0, horizon)``.

    Each fault opens somewhere in the first 70% of the horizon and heals
    before 95% of it, so every run ends with the system given a chance
    to recover — the property the convergence gates check.  Link cuts
    isolate the client endpoint from a random minority of servers
    (richer topologies are hand-built on a
    :class:`~repro.faults.partition.PartitionPlan`).
    """
    if n_servers < 2:
        raise ConfigurationError("nemesis needs >= 2 servers")
    if horizon < 20:
        raise ConfigurationError("horizon too short for a nemesis timeline")
    unknown = set(kinds) - (NODE_ACTIONS | LINK_ACTIONS - {"heal"})
    if unknown:
        raise ConfigurationError(f"unknown nemesis kinds: {sorted(unknown)}")
    rng = derive_rng(seed, stable_hash64("nemesis-schedule") & 0x7FFFFFFF)
    events: list[NemesisEvent] = []
    for _ in range(n_faults):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        start = int(rng.integers(horizon // 10, max(horizon * 7 // 10, horizon // 10 + 1)))
        end = min(start + int(rng.integers(horizon // 10, horizon // 3)), horizon * 19 // 20)
        if end <= start:
            end = start + 1
        if kind in ("kill", "busy"):
            sid = int(rng.integers(0, n_servers))
            events.append(NemesisEvent(tick=start, action=kind, arg=sid))
            paired = "restore" if kind == "kill" else "clear_busy"
            events.append(NemesisEvent(tick=end, action=paired, arg=sid))
        else:
            n_cut = int(rng.integers(1, max(2, n_servers // 2)))
            targets = tuple(
                sorted(int(s) for s in rng.choice(n_servers, size=n_cut, replace=False))
            )
            if kind == "flap":
                period = int(rng.integers(4, 17))
                arg = (targets, end, period, 0.5)
            else:
                arg = (targets, end)
            events.append(NemesisEvent(tick=start, action=kind, arg=arg))
    return tuple(sorted(events, key=lambda e: (e.tick, e.action, repr(e.arg))))


class Nemesis:
    """Replays a schedule against one fault gate.

    Parameters
    ----------
    schedule:
        Tick-ordered :class:`NemesisEvent` tuple (from
        :func:`make_nemesis_schedule` or hand-built).
    gate:
        The :class:`~repro.faults.injector.FaultInjector` it edits: node
        actions its down and busy sets, link actions its ``partitions``.
    client:
        Client-side endpoint id used by generated link cuts.
    on_kill / on_restore:
        Optional callbacks (e.g. ``cluster.wipe_server`` /
        ``health.record_recovery``) invoked after the gate edit.
    """

    def __init__(
        self,
        schedule,
        gate: FaultInjector,
        *,
        client: int = CLIENT,
        on_kill=None,
        on_restore=None,
        metrics=None,
    ) -> None:
        self.schedule = tuple(schedule)
        self.gate = gate
        self.client = client
        self.on_kill = on_kill
        self.on_restore = on_restore
        self._next = 0
        self.applied: list[NemesisEvent] = []
        self._counters = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry, **labels) -> None:
        counter = registry.counter
        self._counters = {
            action: counter(
                "rnb_nemesis_events_total",
                "nemesis schedule events applied",
                kind=action,
                **labels,
            )
            for action in sorted(NODE_ACTIONS | LINK_ACTIONS)
        }

    def pending(self) -> int:
        return len(self.schedule) - self._next

    def apply(self, tick: int) -> list[NemesisEvent]:
        """Apply every event with ``event.tick <= tick``; returns them."""
        fired: list[NemesisEvent] = []
        while self._next < len(self.schedule) and self.schedule[self._next].tick <= tick:
            event = self.schedule[self._next]
            self._next += 1
            self._apply_one(event)
            fired.append(event)
            self.applied.append(event)
            if self._counters is not None:
                self._counters[event.action].inc()
        return fired

    def _apply_one(self, event: NemesisEvent) -> None:
        action, arg = event.action, event.arg
        gate, links = self.gate, self.gate.partitions
        if action == "kill":
            gate.kill(arg)
            if self.on_kill is not None:
                self.on_kill(arg)
        elif action == "restore":
            gate.restore(arg)
            if self.on_restore is not None:
                self.on_restore(arg)
        elif action == "busy":
            gate.set_busy(arg)
        elif action == "clear_busy":
            gate.clear_busy(arg)
        elif action == "cut":
            targets, end = arg
            links.symmetric_split((self.client,), targets, start=event.tick, end=end)
        elif action == "one_way":
            targets, end = arg
            links.one_way((self.client,), targets, start=event.tick, end=end)
        elif action == "flap":
            targets, end, period, duty = arg
            links.flapping_link(
                (self.client,), targets, period=period, duty=duty,
                start=event.tick, end=end,
            )
            links.flapping_link(
                targets, (self.client,), period=period, duty=duty,
                start=event.tick, end=end,
            )
        elif action == "heal":
            links.heal(event.tick)
        else:
            raise ConfigurationError(f"unknown nemesis action {action!r}")
