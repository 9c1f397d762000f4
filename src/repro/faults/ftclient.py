"""The fault-tolerant RnB read path (simulator side).

:class:`FaultTolerantRnBClient` is :class:`repro.core.client.RnBClient`
hardened against the failure modes of :mod:`repro.faults.plan`:

1. **Plan around known failures** — the cover excludes servers the
   :class:`~repro.faults.health.HealthTracker` believes dead, re-covering
   items from surviving replicas (degraded-read covers, mirroring the
   paper's LIMIT-style partial covers).
2. **Retry with bounds** — a transaction that times out is retried up to
   ``max_retries`` times (transient faults draw independently per
   attempt); a crash-stop refusal is not retried at all.
3. **Failover re-dispatch** — items of a failed bundle are re-covered
   onto alternate replica holders, the distinguished copy first; every
   replica is tried before an item is given up.
4. **Degraded results** — items whose replicas are *all* unreachable are
   reported in ``DegradedFetchResult.unavailable`` instead of failing
   the whole request; items evicted everywhere reachable are repaired
   from the backing store (counted as ``db_fallbacks``).
5. **Overload awareness** (opt-in, docs/OVERLOAD.md) — with a
   :class:`repro.overload.breaker.BreakerBoard` attached, tripped
   servers are excluded from covers like dead ones, and BUSY sheds from
   admission control count as *soft* failures: they trip breakers but
   never advance the health tracker toward a dead verdict.

The guarantee (property-tested): a request whose every item has at least
one live replica is always fully served.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.errors import (
    ConfigurationError,
    ServerBusy,
    ServerDown,
    ServerFault,
    ServerTimeout,
)
from repro.faults.health import HealthTracker
from repro.types import ItemId, Request


@dataclass(slots=True)
class DegradedFetchResult:
    """Outcome of one fault-tolerant read (degraded-read semantics).

    ``unavailable`` lists items whose entire replica set was unreachable
    — the request still *completes*, partially, instead of erroring.
    """

    request: Request
    transactions: int
    items_fetched: int
    misses: int
    retries: int
    failovers: int
    db_fallbacks: int
    second_round_transactions: int
    unavailable: tuple[ItemId, ...] = ()
    servers_contacted: tuple[int, ...] = ()
    #: topology epoch the request finished under (None without an
    #: epoch-aware placer)
    epoch: int | None = None
    #: membership changes this request's dead-verdicts committed
    membership_commits: int = 0
    #: the client noticed the topology moved since its last request and
    #: refreshed its view before planning
    view_refreshed: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.unavailable)

    @property
    def unavailable_fraction(self) -> float:
        n = self.request.size
        return len(self.unavailable) / n if n else 0.0


class FaultTolerantRnBClient:
    """RnB reads that survive crash-stop, timeout, shedding and
    unreachable servers.

    Parameters
    ----------
    cluster:
        The fleet; if a fault injector is attached
        (:meth:`Cluster.attach_injector`), its logical clock is advanced
        once per request.
    bundler:
        Plan builder sharing the cluster's placer.
    health:
        Error-driven server state; a fresh all-alive tracker is built
        when omitted.
    max_retries:
        Bounded retries per transaction after the first attempt
        (timeouts only — crash-stop failures are not retried).
    write_back:
        Repair evicted replicas onto the first-picked server, as the
        paper's miss path does.
    membership:
        Optional :class:`repro.membership.service.MembershipService`.
        When given, a health-tracker "dead" verdict is promoted into a
        removal proposal (this client instance as the source); if the
        proposal commits, the shared epoched placer switches views and
        the request's remaining failover waves re-cover onto the
        promoted / surviving replicas — epoch handling happens *inside*
        the read, not between requests.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When given, every
        request feeds the ``path="ft"`` counters of the shared catalog
        (docs/OBSERVABILITY.md): retries, failovers, failover waves,
        database fallbacks, unavailable items, membership commits.
    breakers:
        Optional :class:`repro.overload.breaker.BreakerBoard`.  The
        client registers the board as a health observer (so every
        success / error it already reports feeds the breakers without a
        second call-site), advances the board's tick once per request,
        merges ``tripped()`` into the plan's exclusions, and reports
        BUSY sheds to it as *soft* failures — a shedding server is
        alive, and must not be walked toward a dead verdict.  Do not
        also register the board as an observer yourself.
    """

    def __init__(
        self,
        cluster: Cluster,
        bundler: Bundler,
        *,
        health: HealthTracker | None = None,
        max_retries: int = 2,
        timeout_strikes: int = 2,
        write_back: bool = True,
        membership=None,
        breakers=None,
        metrics=None,
    ) -> None:
        if bundler.placer is not cluster.placer:
            raise ConfigurationError(
                "bundler and cluster must share the same placer instance"
            )
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if timeout_strikes < 1:
            raise ConfigurationError("timeout_strikes must be >= 1")
        self.cluster = cluster
        self.bundler = bundler
        self.health = health or HealthTracker(cluster.n_servers)
        self.max_retries = max_retries
        #: how many times per request a server may exhaust its retries by
        #: *timeout* before being treated as down; crash-stop refusals are
        #: final immediately.  A timeout-exhausted server is merely flaky
        #: (it is alive!), so giving up on it would strand items whose
        #: only live replica it holds.
        self.timeout_strikes = timeout_strikes
        self.write_back = write_back
        self.membership = membership
        #: optional circuit-breaker board (repro.overload.breaker); fed
        #: through the health tracker's observer hook plus direct soft
        #: failures for BUSY sheds
        self.breakers = breakers
        if breakers is not None:
            breakers.ensure_capacity(cluster.n_servers)
            self.health.add_observer(breakers)
        #: last topology epoch this client planned under (stale-view
        #: detection; None when the placer is not epoch-aware)
        self.seen_epoch: int | None = getattr(bundler.placer, "epoch", None)
        self._metrics = None
        if metrics is not None:
            self._metrics = {
                "retries": metrics.counter(
                    "rnb_retries_total", "transport retries", path="ft"
                ),
                "failovers": metrics.counter(
                    "rnb_failovers_total",
                    "failed bundle dispatches rerouted to alternate replicas",
                    path="ft",
                ),
                "waves": metrics.counter(
                    "rnb_failover_waves_total",
                    "failover re-cover waves walked",
                    path="ft",
                ),
                "db_fallbacks": metrics.counter(
                    "rnb_db_fallbacks_total",
                    "items repaired from the backing store",
                    path="ft",
                ),
                "unavailable": metrics.counter(
                    "rnb_unavailable_items_total",
                    "items whose whole replica set was unreachable",
                    path="ft",
                ),
                "commits": metrics.counter(
                    "rnb_membership_commits_total",
                    "membership removals committed from dead verdicts",
                    path="ft",
                ),
                "degraded": metrics.counter(
                    "rnb_requests_total",
                    "requests by outcome",
                    path="ft",
                    outcome="degraded",
                ),
                "ok": metrics.counter(
                    "rnb_requests_total", "requests by outcome", path="ft", outcome="ok"
                ),
            }

    # -- public API -----------------------------------------------------------

    def execute(self, request: Request) -> DegradedFetchResult:
        """Serve one request, routing around whatever is down."""
        injector = self.cluster.injector
        if injector is not None:
            injector.advance()
        if self.breakers is not None:
            self.breakers.advance()

        counters = {"retries": 0, "transactions": 0, "commits": 0}
        servers_contacted: list[int] = []

        # stale-view check: another client (or the repair path) may have
        # moved the topology since our last request — refresh before
        # planning so the cover is computed over the current epoch
        epoch_now = getattr(self.bundler.placer, "epoch", None)
        view_refreshed = epoch_now is not None and epoch_now != self.seen_epoch
        self.seen_epoch = epoch_now

        exclude = self.health.exclusions()
        if self.breakers is not None:
            exclude = exclude | self.breakers.tripped()
        plan = self.bundler.plan(request, exclude=exclude)

        obtained: set[ItemId] = set()
        misses = 0
        failovers = 0
        db_fallbacks = 0
        second_round = 0
        # item -> servers *conclusively* tried for it: crashed, evicted the
        # item, or timed out ``timeout_strikes`` times this request.  A
        # merely-flaky server stays out of the set so later waves retry it
        # (fresh timeout draws) — otherwise an item whose only live replica
        # it holds would be stranded.
        tried: dict[ItemId, set[int]] = {}
        pending: set[ItemId] = set()
        strikes: dict[int, int] = defaultdict(int)  # server -> timeout exhaustions

        # ---- round one: the (possibly degraded) planned cover ----
        for txn in plan.transactions:
            status, result = self._attempt(
                txn.server, txn.primary, txn.hitchhikers, counters
            )
            if status != "ok":
                failovers += 1
                if status in ("timeout", "busy"):
                    strikes[txn.server] += 1
                final = (
                    status in ("down", "unreachable")
                    or strikes[txn.server] >= self.timeout_strikes
                )
                for item in txn.primary:
                    tried[item] = {txn.server} if final else set()
                    pending.add(item)
                continue
            servers_contacted.append(txn.server)
            hits, missed_items, hh_hits = result
            obtained.update(hits)
            obtained.update(hh_hits)
            for item in missed_items:
                # evicted replica: repair write-back, then refetch from the
                # distinguished copy (or survivors) in the failover waves
                misses += 1
                if self.write_back:
                    self.cluster.servers[txn.server].write_back(
                        item, stamp=self._authoritative_stamp(item)
                    )
                tried[item] = {txn.server}
                pending.add(item)

        # items planned nowhere (all replicas excluded by health) still get
        # a chance: health can be stale, so the waves try every replica
        planned = plan.planned_items()
        for item in request.items:
            if item not in planned and item not in obtained and item not in tried:
                tried[item] = set()
                pending.add(item)
        pending -= obtained

        # ---- failover waves: walk each item's surviving replicas ----
        required = request.required_items
        unavailable: list[ItemId] = []
        believed_dead = self.health.exclusions()
        if self.breakers is not None:
            believed_dead = believed_dead | self.breakers.tripped()
        waves = 0
        while pending and len(obtained) < required:
            waves += 1
            groups: dict[int, list[ItemId]] = defaultdict(list)
            for item in sorted(pending):
                candidates = [
                    s
                    for s in self.bundler.placer.servers_for(item)
                    if s not in tried[item]
                ]
                if not candidates:
                    pending.discard(item)
                    if self._reached_any(item, tried[item]):
                        # every reachable replica evicted the item: repair
                        # from the backing store (always possible — the
                        # simulator's DB never fails) onto a live replica
                        db_fallbacks += 1
                        obtained.add(item)
                        self._db_repair(item, tried[item])
                    else:
                        unavailable.append(item)
                    continue
                # believed-dead servers last: they usually cost a failed
                # attempt, but stale health must not strand the item
                candidates.sort(key=lambda s: s in believed_dead)
                groups[candidates[0]].append(item)
            if not groups:
                break
            wave_order = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
            for sid, group in wave_order:
                if len(obtained) >= required:
                    break
                if request.limit_fraction is not None:
                    group = group[: required - len(obtained)]
                status, result = self._attempt(sid, tuple(group), (), counters)
                if status != "ok":
                    failovers += 1
                    if status in ("timeout", "busy"):
                        strikes[sid] += 1
                    if (
                        status in ("down", "unreachable")
                        or strikes[sid] >= self.timeout_strikes
                    ):
                        for item in group:
                            tried[item].add(sid)
                    # else: leave the group pending — the next wave retries
                    # the same (alive, flaky) server with fresh draws
                    continue
                for item in group:
                    tried[item].add(sid)
                servers_contacted.append(sid)
                second_round += 1
                hits, missed_items, _ = result
                misses += len(missed_items)
                obtained.update(hits)
                pending.difference_update(hits)

        if self._metrics is not None:
            m = self._metrics
            m["retries"].inc(counters["retries"])
            m["failovers"].inc(failovers)
            m["waves"].inc(waves)
            m["db_fallbacks"].inc(db_fallbacks)
            m["unavailable"].inc(len(unavailable))
            m["commits"].inc(counters["commits"])
            m["degraded" if unavailable else "ok"].inc()

        # LIMIT satisfied early: whatever is still pending was simply not
        # needed — it is neither fetched nor unavailable
        return DegradedFetchResult(
            request=request,
            transactions=counters["transactions"],
            items_fetched=len(obtained),
            misses=misses,
            retries=counters["retries"],
            failovers=failovers,
            db_fallbacks=db_fallbacks,
            second_round_transactions=second_round,
            unavailable=tuple(sorted(unavailable)),
            servers_contacted=tuple(servers_contacted),
            epoch=self.seen_epoch,
            membership_commits=counters["commits"],
            view_refreshed=view_refreshed,
        )

    # -- helpers ---------------------------------------------------------------

    def _attempt(self, sid, primary, hitchhikers, counters):
        """One transaction with bounded retries.

        Returns ``(status, result)`` where status is ``"ok"``, ``"down"``
        (crash-stop refusal: final), ``"timeout"`` (retries exhausted —
        the server is alive but flaky; the caller may re-dispatch to it
        in a later wave, which rolls fresh timeout draws), ``"busy"``
        (backpressure shed — also alive, also retryable later; strikes
        accumulate exactly as for timeouts so a saturated server is
        eventually routed around instead of hammered) or
        ``"unreachable"`` (link-level cut: final for this request, like
        ``"down"``, but never promoted to a removal proposal — the
        server may be healthy on the far side of a partition, and a
        client-side dead verdict must not amputate the other half of a
        split; see docs/PARTITIONS.md).
        """
        attempt = 0
        while True:
            try:
                server = self.cluster.server(sid)
            except ServerDown:
                self.health.record_error(sid)
                self._propose_if_dead(sid, counters)
                return "down", None
            except ServerTimeout:
                self.health.record_error(sid)
                if attempt >= self.max_retries:
                    return "timeout", None
                attempt += 1
                counters["retries"] += 1
                continue
            except ServerBusy:
                # backpressure shed: the server is alive, just overloaded.
                # Feed the breaker (soft) but never the health tracker —
                # shedding must not walk a server toward a dead verdict.
                if self.breakers is not None:
                    self.breakers.record_failure(sid)
                return "busy", None
            except ServerFault:
                # partition cut (ServerUnreachable) or an unknown future
                # kind: strike health so covers route around the edge,
                # but no removal proposal — unreachable is not dead
                self.health.record_error(sid)
                return "unreachable", None
            result = server.multi_get(primary, hitchhikers)
            self.health.record_success(sid)
            counters["transactions"] += 1
            return "ok", result

    def _propose_if_dead(self, sid: int, counters: dict) -> None:
        """Promote a health-tracker dead verdict into a membership proposal.

        On commit the shared placer's epoch advances, so the remaining
        failover waves of the *current* request already re-cover over the
        new view (candidates are recomputed from the placer each wave).
        """
        if self.membership is None or self.health.state(sid) != "dead":
            return
        if self.membership.propose_removal(sid, source=self):
            counters["commits"] += 1
            self.seen_epoch = getattr(self.bundler.placer, "epoch", None)

    def _reached_any(self, item: ItemId, tried_servers: set[int]) -> bool:
        """Did any tried replica actually answer (i.e. the item was evicted,
        not unreachable)?  True iff some tried server is not crashed/erroring
        from this request's perspective: we approximate with the health
        tracker — a server with a recorded success since its last error
        answered us."""
        return any(self.health.state(s) == "alive" for s in tried_servers)

    def _authoritative_stamp(self, item: ItemId):
        """Version of the backing-store copy being written back — the
        distinguished copy's stamp when its home is reachable, ``None``
        (unversioned; the scrubber reconciles later) when it is not."""
        try:
            home = self.cluster.server(self.bundler.placer.distinguished_for(item))
        except (ConnectionError, OSError):
            return None
        return home.stamps.get(item)

    def _db_repair(self, item: ItemId, tried_servers: set[int]) -> None:
        """Re-materialise an everywhere-evicted item onto a live replica."""
        if not self.write_back:
            return
        for sid in self.bundler.placer.servers_for(item):
            if sid in tried_servers and self.health.state(sid) == "alive":
                self.cluster.servers[sid].write_back(
                    item, stamp=self._authoritative_stamp(item)
                )
                return
