"""Link-level faults: partitions, one-way loss, flapping links.

Every fault the layer modelled so far is *node-shaped* — a server is
down, timing out, or shedding.  Real incidents that replicated caches must
survive are just as often *link-shaped*: a switch partitions two racks
symmetrically, a gray link drops traffic in one direction only, a
flapping uplink alternates between the two.  :class:`PartitionPlan`
models reachability over directed ``(src, dst)`` edges as a pure
function of the logical tick; the simulated fleet's one gate,
:class:`~repro.faults.injector.FaultInjector`, checks it before the
node faults, so one gate vets both families.

Vantage points
--------------
Edges connect *endpoints*: server ids ``0..n-1``, plus negative
sentinel ids for client processes (:data:`CLIENT` by default).  The
gate checks the round trip from its **vantage** endpoint — a
blocked ``vantage -> server`` edge refuses the request
(:class:`~repro.errors.ServerUnreachable`), a blocked ``server ->
vantage`` edge swallows the reply, surfacing as
:class:`~repro.errors.ServerTimeout`.  One-way loss therefore shows up
exactly as it does in production: requests that cost a full timeout
even though the server executed nothing is *not* modelled (the request
never reaches the server in this conservative model — a documented
simplification that keeps the simulated stores single-writer per edge).

Determinism
-----------
Like :class:`~repro.faults.plan.FaultPlan`, all queries are pure
functions of the tick: flapping uses period arithmetic, never RNG state,
so the same plan answers identically forever.  Seeded *construction*
helpers (:func:`link_blackout_windows`) draw once from
:func:`repro.utils.rng.derive_rng`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.errors import ConfigurationError
from repro.hashing.hashfns import stable_hash64
from repro.utils.rng import derive_rng

#: Default client-process endpoint id.  Negative so it can never collide
#: with a server id; experiments that model several client vantages use
#: further negative ids (-2, -3, ...).
CLIENT = -1


@dataclass(frozen=True, slots=True)
class LinkRule:
    """One directed reachability cut, active over a tick window.

    ``srcs`` / ``dsts`` are endpoint sets (``None`` = every endpoint).
    The rule blocks edge ``(src, dst)`` at ``tick`` when both endpoints
    match, ``start <= tick`` and (``end`` is ``None`` or ``tick < end``).
    A ``period`` makes the rule *flap*: within each period it blocks only
    the first ``duty`` fraction of ticks, computed by pure arithmetic on
    ``tick - start``.
    """

    srcs: frozenset[int] | None
    dsts: frozenset[int] | None
    start: int = 0
    end: int | None = None
    period: int | None = None
    duty: float = 1.0

    def __post_init__(self) -> None:
        if self.end is not None and self.end < self.start:
            raise ConfigurationError(
                f"rule end {self.end} precedes start {self.start}"
            )
        if self.period is not None and self.period < 2:
            raise ConfigurationError("flap period must be >= 2 ticks")
        if not (0.0 < self.duty <= 1.0):
            raise ConfigurationError(f"duty must be in (0, 1]; got {self.duty}")

    def active(self, tick: int) -> bool:
        """Is the rule's window (including flap phase) open at ``tick``?"""
        if tick < self.start or (self.end is not None and tick >= self.end):
            return False
        if self.period is None:
            return True
        phase = (tick - self.start) % self.period
        return phase < max(1, round(self.duty * self.period))

    def blocks(self, src: int, dst: int, tick: int) -> bool:
        if self.srcs is not None and src not in self.srcs:
            return False
        if self.dsts is not None and dst not in self.dsts:
            return False
        return self.active(tick)


def _endpoints(group: Iterable[int] | None) -> frozenset[int] | None:
    return None if group is None else frozenset(group)


class PartitionPlan:
    """A mutable set of :class:`LinkRule` cuts over the logical clock.

    Reads (``blocked``) are pure; the rule list is edited at runtime by
    the builder methods below or by a :class:`~repro.faults.nemesis.
    Nemesis` schedule — the same split as the gate's runtime
    kill/restore edits (:class:`~repro.faults.injector.FaultInjector`).
    """

    def __init__(self, rules: Iterable[LinkRule] = ()) -> None:
        self.rules: list[LinkRule] = list(rules)

    # -- queries -----------------------------------------------------------

    def blocked(self, src: int, dst: int, tick: int) -> bool:
        """Is the directed edge ``src -> dst`` cut at ``tick``?"""
        return any(rule.blocks(src, dst, tick) for rule in self.rules)

    def active_rules(self, tick: int) -> int:
        """Rules whose window (and flap phase) is open at ``tick``."""
        return sum(1 for rule in self.rules if rule.active(tick))

    def describe(self) -> tuple[tuple, ...]:
        """Deterministic fingerprint of the rule list (tests, tokens)."""
        return tuple(
            (
                None if r.srcs is None else tuple(sorted(r.srcs)),
                None if r.dsts is None else tuple(sorted(r.dsts)),
                r.start,
                r.end,
                r.period,
                r.duty,
            )
            for r in self.rules
        )

    # -- builders ----------------------------------------------------------

    def add(self, rule: LinkRule) -> LinkRule:
        self.rules.append(rule)
        return rule

    def symmetric_split(
        self,
        group_a: Iterable[int],
        group_b: Iterable[int],
        *,
        start: int = 0,
        end: int | None = None,
    ) -> tuple[LinkRule, LinkRule]:
        """Cut every edge between the two groups, both directions.

        The classic majority/minority partition: endpoints within a
        group still reach each other; nothing crosses.
        """
        a, b = frozenset(group_a), frozenset(group_b)
        if not a or not b:
            raise ConfigurationError("split groups must be non-empty")
        if a & b:
            raise ConfigurationError(
                f"split groups overlap: {sorted(a & b)}"
            )
        return (
            self.add(LinkRule(srcs=a, dsts=b, start=start, end=end)),
            self.add(LinkRule(srcs=b, dsts=a, start=start, end=end)),
        )

    def one_way(
        self,
        srcs: Iterable[int] | None,
        dsts: Iterable[int] | None,
        *,
        start: int = 0,
        end: int | None = None,
    ) -> LinkRule:
        """Asymmetric gray link: ``srcs -> dsts`` is cut, the reverse
        direction still flows."""
        return self.add(
            LinkRule(srcs=_endpoints(srcs), dsts=_endpoints(dsts), start=start, end=end)
        )

    def flapping_link(
        self,
        srcs: Iterable[int] | None,
        dsts: Iterable[int] | None,
        *,
        period: int,
        duty: float = 0.5,
        start: int = 0,
        end: int | None = None,
    ) -> LinkRule:
        """A link that oscillates: cut for the first ``duty`` fraction of
        every ``period`` ticks, open for the rest."""
        return self.add(
            LinkRule(
                srcs=_endpoints(srcs),
                dsts=_endpoints(dsts),
                start=start,
                end=end,
                period=period,
                duty=duty,
            )
        )

    def heal(self, tick: int | None = None) -> int:
        """End every cut; returns how many rules were open.

        ``tick=None`` removes all rules outright; with a tick, open-ended
        rules are closed at that tick (the plan keeps its history, so
        ``blocked`` queries about the past still answer truthfully —
        what the history checker replays against).
        """
        open_rules = [
            r for r in self.rules if r.end is None or (tick is not None and r.end > tick)
        ]
        if tick is None:
            self.rules.clear()
        else:
            self.rules = [
                replace(r, end=max(tick, r.start)) if r in open_rules else r
                for r in self.rules
            ]
        return len(open_rules)


def link_blackout_windows(
    seed: int,
    horizon: int,
    *,
    n_windows: int = 2,
    min_len: int = 8,
    max_len: int = 40,
) -> tuple[tuple[int, int], ...]:
    """Seeded ``(start, end)`` blackout windows within ``[0, horizon)``.

    Pure construction-time draws (:func:`~repro.utils.rng.derive_rng`
    stream tagged with a stable hash of the helper's name).  Windows are
    sorted and non-overlapping; an infeasibly small horizon yields fewer
    windows rather than raising.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if not (1 <= min_len <= max_len):
        raise ConfigurationError("need 1 <= min_len <= max_len")
    rng = derive_rng(seed, stable_hash64("link-blackout") & 0x7FFFFFFF)
    windows: list[tuple[int, int]] = []
    cursor = 0
    for _ in range(n_windows):
        length = int(rng.integers(min_len, max_len + 1))
        latest_start = horizon - length
        if latest_start <= cursor:
            break
        start = int(rng.integers(cursor, latest_start + 1))
        windows.append((start, start + length))
        cursor = start + length + 1
    return tuple(windows)


#: notional tick axis :func:`blackout_spans` draws its windows on before
#: scaling them onto a harness's time span
_BLACKOUT_TICKS = 1000


def blackout_spans(
    seed: int, n_servers: int, duration: float
) -> list[tuple[float, float, int]]:
    """Seeded ``(start, end, server)`` link blackouts over ``[0, duration)``.

    Two :func:`link_blackout_windows`, scaled onto ``duration``, each
    cutting the link to one seeded victim server.  Both ``--nemesis``
    harnesses draw from here (``rnb run load_soak``'s DES oracle and
    ``rnb loadtest``'s connection gates), so one seed is one incident.
    """
    windows = link_blackout_windows(
        seed, _BLACKOUT_TICKS, n_windows=2, min_len=60, max_len=200
    )
    # the victim stream keeps the tag load_soak has always drawn under
    rng = derive_rng(seed, stable_hash64("load-soak-nemesis-targets") & 0x7FFFFFFF)
    scale = duration / _BLACKOUT_TICKS
    return [
        (start * scale, end * scale, int(rng.integers(0, n_servers)))
        for start, end in windows
    ]
