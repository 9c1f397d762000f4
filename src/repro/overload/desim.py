"""Event-driven overload simulator: the full serving loop under pressure.

Every server is a FIFO queue whose service time per transaction comes
from the calibrated :class:`CostModel`; a request's transactions enter
the queues at its arrival instant and it completes with the slowest.
With every policy off (the default :class:`OverloadConfig`) that is
all: the paper's §V-B queueing question, "where does the fleet
saturate?" (``rnb run queueing``), with every transaction stalling in
whatever queue its cover picked.  Each policy below makes the *client
react* instead:

* servers run bounded FIFO queues with optional token-bucket admission
  (:class:`repro.overload.load.AdmissionControl`); an overflowing
  dispatch gets an immediate BUSY verdict instead of queueing;
* a BUSY verdict triggers re-covering the shed items onto alternate
  replicas (replica freedom), walking the degradation ladder
  ``full -> LIMIT partial -> distinguished-copies-only`` when pressure
  leaves no alternative (:mod:`repro.overload.hedging`);
* circuit breakers (:class:`repro.overload.breaker.BreakerBoard`) trip
  on repeated sheds / straggling transactions and exclude the server
  from covers until a seeded half-open probe heals it;
* the greedy cover breaks gain ties toward the least-loaded server
  (:func:`repro.overload.tiebreak.least_loaded_tie_break`);
* hedging re-issues the slowest outstanding bundle after a quantile
  delay, first response wins (:class:`repro.overload.hedging.
  HedgePolicy`);
* per-request deadlines complete degraded (partial response) rather
  than fail.

Determinism is load-bearing (``tests/experiments/test_soaks.py`` diffs
soak runs byte for byte): arrivals draw from a caller-seeded generator, the event
heap breaks time ties by insertion sequence, breaker probe jitter is
hash-seeded, and nothing reads a wall clock.

A request is **never failed**: every item is either delivered, shed
under backpressure, dropped by the LIMIT rung, or cut off by the
deadline — all counted separately in :class:`OverloadResult`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.calibration import CostModel
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.overload.breaker import HALF_OPEN, BreakerBoard
from repro.overload.hedging import HedgePolicy, ladder_required, validate_partial_fraction
from repro.overload.load import AdmissionControl, LoadTracker, TokenBucket
from repro.overload.tiebreak import least_loaded_tie_break
from repro.types import ItemId, Request
from repro.utils.rng import ensure_rng

_ARRIVAL, _TXN_DONE, _HEDGE, _DEADLINE = 0, 1, 2, 3


@dataclass(frozen=True, slots=True)
class OverloadConfig:
    """Feature switches and knobs of the overload serving loop.

    Every feature defaults to *off*; the all-defaults config reproduces
    plain unbounded-FIFO serving (the baseline arm of the hotspot soak).

    ``queue_limit`` bounds per-server outstanding transactions;
    ``bucket_rate``/``bucket_burst`` add token-bucket admission (tokens
    are transactions, refilled per simulated second).  ``breaker`` turns
    on circuit breakers with ``trip_latency`` marking a completed
    transaction slower than this as a breaker failure.  ``hedge_quantile``
    enables hedging (None = off).  ``deadline`` is the per-request budget
    in seconds (None = wait forever); ``partial_fraction`` is the LIMIT
    rung's quota.  ``load_aware`` switches the cover tie-break to
    least-loaded.
    """

    queue_limit: int | None = None
    bucket_rate: float | None = None
    bucket_burst: float = 8.0
    breaker: bool = False
    trip_after: int = 3
    window: int = 8
    open_ticks: int = 50
    trip_latency: float | None = None
    hedge_quantile: float | None = None
    hedge_min_samples: int = 32
    max_hedges: int = 1
    deadline: float | None = None
    partial_fraction: float = 1.0
    load_aware: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1 (or None)")
        if self.bucket_rate is not None and self.bucket_rate <= 0:
            raise ConfigurationError("bucket_rate must be positive (or None)")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        if self.trip_latency is not None and self.trip_latency <= 0:
            raise ConfigurationError("trip_latency must be positive (or None)")
        validate_partial_fraction(self.partial_fraction)

    @property
    def admission_enabled(self) -> bool:
        return self.queue_limit is not None or self.bucket_rate is not None


@dataclass(slots=True)
class _Txn:
    server: int
    items: tuple[ItemId, ...]
    dispatched_at: float
    done_at: float
    req: "_Req"
    is_hedge: bool = False
    is_probe: bool = False
    #: completion time of the bundle this hedge raced (hedges only)
    rival_done: float = float("inf")
    #: shared per-issuance marker so a multi-txn hedge wins at most once
    hedge_won: list = field(default_factory=list)
    #: open tracing span for this round-trip (tracing runs only)
    span: object = None


@dataclass(slots=True)
class _Req:
    request: Request
    arrival: float
    idx: int = 0
    remaining: set = field(default_factory=set)
    outstanding: list = field(default_factory=list)
    last_delivery: float = 0.0
    completed: bool = False
    completed_at: float = 0.0
    level: str = "full"
    hedges_used: int = 0
    shed: int = 0
    dropped: int = 0
    deadline_cut: int = 0
    #: open tracing span for the whole request (tracing runs only)
    span: object = None


@dataclass(slots=True)
class OverloadResult:
    """Steady-state metrics of one overload run (all requests complete)."""

    n_requests: int
    mean_latency: float
    p50_latency: float
    p99_latency: float
    p999_latency: float
    max_utilization: float
    mean_utilization: float
    #: fraction of requested items delivered (1.0 = nothing degraded)
    served_fraction: float
    #: items refused by admission after the whole ladder (per item asked)
    shed_rate: float
    #: items given up by the LIMIT rung (per item asked)
    drop_rate: float
    #: items cut off by the per-request deadline (per item asked)
    deadline_cut_rate: float
    requests_degraded: int
    requests_failed: int
    hedges_issued: int
    hedge_wins: int
    busy_verdicts: int
    breaker_transitions: int
    breaker_open_final: int
    #: simulated time until the last server drained (goodput denominator)
    horizon: float = 0.0
    #: items asked for by the measured (post-warmup) requests
    items_measured: int = 0
    #: dispatches refused because the partition oracle cut the edge
    partition_blocked: int = 0
    ladder_counts: dict[str, int] = field(default_factory=dict)
    latencies: np.ndarray = field(repr=False, default=None)
    #: structured telemetry snapshot (repro.obs registry) of this run —
    #: experiments diff telemetry, not just headline outcomes
    metrics: dict = field(repr=False, default_factory=dict)
    #: 64-bit digest of ``metrics`` (same-seed runs match byte for byte)
    metrics_token: int = 0

    @property
    def hedge_win_rate(self) -> float:
        return self.hedge_wins / self.hedges_issued if self.hedges_issued else 0.0


def simulate_overload(
    requests: Iterable[Request],
    bundler: Bundler,
    *,
    n_servers: int,
    cost_model: CostModel,
    arrival_rate: float | None = None,
    arrival_times: Sequence[float] | None = None,
    rtt: float = 200e-6,
    latency_multipliers: Sequence[float] | None = None,
    config: OverloadConfig | None = None,
    warmup_fraction: float = 0.2,
    rng=None,
    metrics: MetricsRegistry | None = None,
    tracer=None,
    unreachable=None,
) -> OverloadResult:
    """Run an open-loop workload through the overload serving loop.

    Arrivals come either from ``arrival_rate`` (a homogeneous Poisson
    process drawn from ``rng``, the original behaviour) or from
    ``arrival_times`` — one pre-computed, non-decreasing timestamp per
    request, which is how :func:`repro.loadgen.schedule.arrival_times`
    drives diurnal and flash-crowd rate curves through the DES
    (the ``load_soak`` experiment).  Exactly one of the two must be set.

    ``bundler`` supplies covers (and, for the ladder's last rung, the
    distinguished routing); ``latency_multipliers`` inflates per-server
    service times (stragglers — 1.0 is healthy).  All client policies
    come from ``config``; the all-defaults config is the no-policy
    baseline.  Deterministic for a fixed ``(requests, config, rng)``.

    Telemetry: the run always feeds a :class:`repro.obs.MetricsRegistry`
    (the caller's ``metrics``, or a private one) with the shared metric
    catalog (docs/OBSERVABILITY.md) and attaches its snapshot and token
    to the result.  ``tracer`` (a :class:`repro.obs.Tracer`) records one
    ``request`` span per arrival with ``plan``/``txn`` children stamped
    in simulated time — same-seed runs trace byte-identically.

    ``unreachable`` (optional) is a link-level partition oracle
    ``(sid, now) -> bool``: a True verdict refuses the dispatch before
    admission, feeds the breaker a *soft* failure (so covers re-route
    around the cut exactly as around BUSY sheds) and is counted into
    ``rnb_partition_blocked_total`` / ``OverloadResult.
    partition_blocked``.  Drive it from a
    :class:`repro.faults.partition.PartitionPlan` with ticks derived
    from simulated time (the ``load_soak`` nemesis arm does this).
    """
    if (arrival_rate is None) == (arrival_times is None):
        raise ConfigurationError(
            "exactly one of arrival_rate / arrival_times must be given"
        )
    if arrival_rate is not None and arrival_rate <= 0:
        raise ConfigurationError("arrival_rate must be positive")
    if not (0.0 <= warmup_fraction < 1.0):
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    cfg = config or OverloadConfig()
    rng = ensure_rng(rng)
    requests = list(requests)
    if not requests:
        raise ConfigurationError("empty request stream")

    mult = (
        np.ones(n_servers, dtype=np.float64)
        if latency_multipliers is None
        else np.asarray(latency_multipliers, dtype=np.float64)
    )
    if mult.shape != (n_servers,):
        raise ConfigurationError("latency_multipliers must have one entry per server")

    server_free = np.zeros(n_servers, dtype=np.float64)
    busy_time = np.zeros(n_servers, dtype=np.float64)

    admissions: list[AdmissionControl] | None = None
    if cfg.admission_enabled:
        admissions = [
            AdmissionControl(
                queue_limit=cfg.queue_limit,
                bucket=(
                    TokenBucket(cfg.bucket_rate, cfg.bucket_burst)
                    if cfg.bucket_rate is not None
                    else None
                ),
            )
            for _ in range(n_servers)
        ]
    board = (
        BreakerBoard(
            n_servers,
            trip_after=cfg.trip_after,
            window=cfg.window,
            open_ticks=cfg.open_ticks,
            seed=cfg.seed,
        )
        if cfg.breaker
        else None
    )
    load = LoadTracker(n_servers) if cfg.load_aware else None
    hedge = (
        HedgePolicy(
            quantile=cfg.hedge_quantile,
            initial_delay=cost_model.txn_time(8) * 4,
            min_delay=cost_model.t_txn,
            min_samples=cfg.hedge_min_samples,
            max_hedges=cfg.max_hedges,
        )
        if cfg.hedge_quantile is not None
        else None
    )
    registry = metrics if metrics is not None else MetricsRegistry()
    m_busy = registry.counter(
        "rnb_busy_sheds_total", "dispatches shed by admission control", path="sim"
    )
    m_deadline = registry.counter(
        "rnb_deadline_hits_total", "requests cut off by their deadline", path="sim"
    )
    registry.counter("rnb_retries_total", "transport retries", path="sim")
    m_ladder = {
        level: registry.counter(
            "rnb_ladder_total", "degradation-ladder outcomes", path="sim", level=level
        )
        for level in ("full", "partial", "distinguished")
    }
    m_hedges = {
        result: registry.counter(
            "rnb_hedges_total", "hedged bundles", path="sim", result=result
        )
        for result in ("fired", "won")
    }
    if load is not None:
        load.bind_metrics(registry)
    if board is not None:
        board.bind_metrics(registry)
    if admissions is not None:
        for sid, gate in enumerate(admissions):
            gate.bind_metrics(registry, server=sid)
    # The planning bundler: same placer and enhancements as the caller's
    # (never mutated), rebuilt so plans feed the registry — and, when
    # load awareness is on, with the least-loaded tie-break.
    plan_bundler = Bundler(
        bundler.placer,
        hitchhiking=bundler.hitchhiking,
        single_item_rule=bundler.single_item_rule,
        tie_break=(
            least_loaded_tie_break(load) if load is not None else bundler.tie_break
        ),
        rng=bundler.rng,
        metrics=registry,
    )

    heap: list = []
    seq = 0

    def push(t: float, kind: int, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    stats = {
        "busy": 0,
        "hedges": 0,
        "hedge_wins": 0,
        "degraded": 0,
        "unreachable": 0,
        "ladder": {"full": 0, "partial": 0, "distinguished": 0},
    }
    m_unreachable = registry.counter(
        "rnb_partition_blocked_total",
        "cluster accesses blocked by a partition rule",
        edge="request",
        path="sim",
    )

    # -- dispatch machinery -------------------------------------------------

    def admit(sid: int, now: float) -> bool:
        if admissions is None:
            return True
        if admissions[sid].try_admit(now):
            return True
        stats["busy"] += 1
        m_busy.inc()
        if load is not None:
            load.busy(sid)
        if board is not None:
            board.record_failure(sid)  # soft: shedding servers are alive
        return False

    def dispatch(req: _Req, sid: int, items: tuple, now: float, *,
                 is_hedge: bool = False, rival_done: float = float("inf"),
                 hedge_won: list | None = None) -> "_Txn | None":
        if unreachable is not None and unreachable(sid, now):
            # link cut: refused before admission — a soft breaker
            # failure, so later covers route around the dark edge
            stats["unreachable"] += 1
            m_unreachable.inc()
            if board is not None:
                board.record_failure(sid)
            return None
        if not admit(sid, now):
            return None
        is_probe = board is not None and board.state(sid) == HALF_OPEN and board.allow_probe(sid)
        service = cost_model.txn_time(len(items)) * float(mult[sid])
        start = max(float(server_free[sid]), now)
        done = start + service
        server_free[sid] = done
        busy_time[sid] += service
        if load is not None:
            load.sent(sid, len(items))
        txn = _Txn(
            server=sid,
            items=items,
            dispatched_at=now,
            done_at=done,
            req=req,
            is_hedge=is_hedge,
            is_probe=is_probe,
            rival_done=rival_done,
            hedge_won=[] if hedge_won is None else hedge_won,
        )
        if tracer is not None:
            txn.span = tracer.start(
                "txn",
                parent=req.span,
                at=now,
                server=sid,
                n_items=len(items),
                **({"hedge": True} if is_hedge else {}),
            )
        req.outstanding.append(txn)
        push(done, _TXN_DONE, txn)
        return txn

    def cover_dispatch(req: _Req, items, exclude: set, now: float) -> list:
        """Dispatch a (re-)cover of ``items``, re-covering around BUSY
        verdicts; returns the items no admissible cover would take."""
        leftover = sorted(items)
        busy_seen: set[int] = set()
        while leftover:
            ex = exclude | busy_seen
            plan = plan_bundler.plan(
                Request(items=tuple(leftover)), exclude=ex if ex else None
            )
            if not plan.transactions:
                break
            next_left = set(leftover) - set(plan.planned_items())
            progressed = False
            busy_before = len(busy_seen)
            for txn in plan.transactions:
                if dispatch(req, txn.server, txn.primary, now) is not None:
                    progressed = True
                else:
                    busy_seen.add(txn.server)
                    next_left.update(txn.primary)
            if not progressed and len(busy_seen) == busy_before:
                break  # no dispatch and no new exclusions: stuck
            leftover = sorted(next_left)
        return leftover

    def dispatch_request(req: _Req, now: float) -> None:
        """The degradation ladder: full cover -> LIMIT partial ->
        distinguished-copies-only -> shed."""
        exclude = set(board.exclusions()) if board is not None else set()
        leftover = cover_dispatch(req, req.remaining, exclude, now)
        level = "full"
        if leftover:
            required = ladder_required(
                "partial", req.request.size, cfg.partial_fraction
            )
            delivered_or_inflight = req.request.size - len(leftover)
            if cfg.partial_fraction < 1.0 and delivered_or_inflight >= required:
                # LIMIT rung: quota already in flight; give the rest up
                level = "partial"
                req.dropped += len(leftover)
                req.remaining.difference_update(leftover)
                leftover = []
            else:
                # distinguished rung: route straight to the home copy,
                # ignoring breaker verdicts (stale trips must not strand
                # items) — admission still has the last word
                level = "distinguished"
                plan = plan_bundler.plan_distinguished(req.request, sorted(leftover))
                shed: list = []
                for txn in plan.transactions:
                    if dispatch(req, txn.server, txn.primary, now) is None:
                        shed.extend(txn.primary)
                req.shed += len(shed)
                req.remaining.difference_update(shed)
                leftover = []
        req.level = level
        stats["ladder"][level] += 1
        m_ladder[level].inc()
        if tracer is not None:
            tracer.finish(tracer.start("plan", parent=req.span, at=now, level=level), at=now)

    def complete(req: _Req, now: float) -> None:
        req.completed = True
        req.completed_at = now
        if req.shed or req.dropped or req.deadline_cut:
            stats["degraded"] += 1
        if tracer is not None and req.span is not None:
            tracer.finish(
                req.span,
                at=now,
                level=req.level,
                shed=req.shed,
                dropped=req.dropped,
                deadline_cut=req.deadline_cut,
            )

    # -- event loop ---------------------------------------------------------

    if arrival_times is not None:
        times = np.asarray(arrival_times, dtype=np.float64)
        if times.shape != (len(requests),):
            raise ConfigurationError(
                f"arrival_times must have one entry per request "
                f"({times.shape} vs {len(requests)} requests)"
            )
        if len(times) and (times[0] < 0 or np.any(np.diff(times) < 0)):
            raise ConfigurationError(
                "arrival_times must be non-negative and non-decreasing"
            )
    else:
        # scalar draws, exactly as before arrival_times existed: hotspot
        # soak output stays byte-identical across versions
        acc, ticks = 0.0, []
        for _ in requests:
            acc += rng.exponential(1.0 / arrival_rate)
            ticks.append(acc)
        times = np.asarray(ticks, dtype=np.float64)
    reqs: list[_Req] = []
    for idx, (request, t) in enumerate(zip(requests, times)):
        now = float(t)
        req = _Req(request=request, arrival=now, idx=idx, remaining=set(request.items))
        req.last_delivery = now
        reqs.append(req)
        push(now, _ARRIVAL, req)

    while heap:
        now, _, kind, payload = heapq.heappop(heap)

        if kind == _ARRIVAL:
            req = payload
            if board is not None:
                board.advance()
            if load is not None:
                load.tick()
            if tracer is not None:
                req.span = tracer.start(
                    "request", at=now, idx=req.idx, n_items=req.request.size
                )
            dispatch_request(req, now)
            if not req.remaining and not req.outstanding:
                complete(req, now)  # everything shed/dropped: degenerate
                continue
            if hedge is not None and hedge.enabled:
                push(now + hedge.delay(), _HEDGE, req)
            if cfg.deadline is not None:
                push(now + cfg.deadline, _DEADLINE, req)

        elif kind == _TXN_DONE:
            txn = payload
            req = txn.req
            sid = txn.server
            latency = now - txn.dispatched_at
            if admissions is not None:
                admissions[sid].finished()
            if load is not None:
                load.finished(sid)
            if hedge is not None:
                hedge.observe(latency)
            if board is not None:
                if cfg.trip_latency is not None and latency > cfg.trip_latency:
                    board.record_failure(sid, hard=False)
                else:
                    board.record_success(sid)
            if txn in req.outstanding:
                req.outstanding.remove(txn)
            if tracer is not None and txn.span is not None:
                tracer.finish(txn.span, at=now)
            if req.completed:
                continue
            delivered = req.remaining.intersection(txn.items)
            if delivered:
                req.remaining.difference_update(delivered)
                req.last_delivery = now
                if txn.is_hedge and now < txn.rival_done and not txn.hedge_won:
                    txn.hedge_won.append(True)
                    stats["hedge_wins"] += 1
                    m_hedges["won"].inc()
            if not req.remaining:
                complete(req, req.last_delivery)

        elif kind == _HEDGE:
            req = payload
            if req.completed or not req.remaining or req.hedges_used >= (
                hedge.max_hedges if hedge is not None else 0
            ):
                continue
            # slowest outstanding bundle still owing items
            candidates = [
                t for t in req.outstanding if req.remaining.intersection(t.items)
            ]
            if not candidates:
                continue
            slowest = max(candidates, key=lambda t: (t.done_at, t.server))
            if slowest.done_at <= now:
                continue
            items = tuple(sorted(req.remaining.intersection(slowest.items)))
            exclude = {slowest.server}
            if board is not None:
                exclude |= board.exclusions()
            req.hedges_used += 1
            stats["hedges"] += 1
            m_hedges["fired"].inc()
            plan = plan_bundler.plan(
                Request(items=items), exclude=exclude
            )
            won_marker: list = []
            for txn in plan.transactions:
                dispatch(
                    req, txn.server, txn.primary, now,
                    is_hedge=True, rival_done=slowest.done_at,
                    hedge_won=won_marker,
                )
            if req.hedges_used < (hedge.max_hedges if hedge is not None else 0):
                push(now + hedge.delay(), _HEDGE, req)

        else:  # _DEADLINE
            req = payload
            if req.completed:
                continue
            # degrade, don't fail: answer with what we have, at the budget
            m_deadline.inc()
            req.deadline_cut += len(req.remaining)
            req.remaining.clear()
            req.last_delivery = now
            complete(req, now)

    # -- metrics -------------------------------------------------------------

    n = len(reqs)
    skip = int(n * warmup_fraction)
    measured = reqs[skip:]
    latencies = np.asarray(
        [r.completed_at - r.arrival + rtt for r in measured], dtype=np.float64
    )
    # servers may still be draining hedge losers after the last request
    # completes; utilization is busy time over the full busy horizon
    horizon = max(
        max((r.completed_at for r in reqs), default=0.0), float(server_free.max())
    )
    span = horizon if horizon > 0 else 1.0
    utilizations = busy_time / span

    total_items = sum(r.request.size for r in measured)
    shed = sum(r.shed for r in measured)
    dropped = sum(r.dropped for r in measured)
    cut = sum(r.deadline_cut for r in measured)
    denom = max(total_items, 1)

    lat_hist = registry.histogram(
        "rnb_request_latency_seconds", "end-to-end request latency", path="sim"
    )
    lat_hist.observe_many(latencies)
    degraded_measured = sum(
        1 for r in measured if r.shed or r.dropped or r.deadline_cut
    )
    registry.counter(
        "rnb_requests_total", "measured requests by outcome", path="sim", outcome="ok"
    ).inc(len(measured) - degraded_measured)
    registry.counter(
        "rnb_requests_total", "measured requests by outcome",
        path="sim", outcome="degraded",
    ).inc(degraded_measured)
    registry.counter(
        "rnb_requests_total", "measured requests by outcome",
        path="sim", outcome="failed",
    )
    for outcome, count in (
        ("served", total_items - shed - dropped - cut),
        ("shed", shed),
        ("dropped", dropped),
        ("deadline_cut", cut),
    ):
        registry.counter(
            "rnb_items_total", "measured items by outcome", path="sim", outcome=outcome
        ).inc(count)
    metrics_snapshot = registry.snapshot()
    return OverloadResult(
        n_requests=len(measured),
        mean_latency=float(latencies.mean()),
        p50_latency=float(np.percentile(latencies, 50)),
        p99_latency=float(np.percentile(latencies, 99)),
        p999_latency=float(np.percentile(latencies, 99.9)),
        max_utilization=float(utilizations.max()),
        mean_utilization=float(utilizations.mean()),
        served_fraction=1.0 - (shed + dropped + cut) / denom,
        shed_rate=shed / denom,
        drop_rate=dropped / denom,
        deadline_cut_rate=cut / denom,
        requests_degraded=stats["degraded"],
        requests_failed=0,
        hedges_issued=stats["hedges"],
        hedge_wins=stats["hedge_wins"],
        busy_verdicts=stats["busy"],
        breaker_transitions=board.transitions_total() if board is not None else 0,
        breaker_open_final=(
            board.counts()["open"] if board is not None else 0
        ),
        horizon=horizon,
        items_measured=total_items,
        partition_blocked=stats["unreachable"],
        ladder_counts=dict(stats["ladder"]),
        latencies=latencies,
        metrics=metrics_snapshot,
        metrics_token=registry.token(),
    )
