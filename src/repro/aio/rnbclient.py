"""The async RnB client: multiplexed in-flight bundles (docs/SERVING.md).

:class:`AsyncRnBClient` is the high-concurrency twin of
:class:`repro.protocol.rnbclient.RnBProtocolClient`.  It reuses the same
machinery — the cover planner (:class:`repro.core.bundling.Bundler`),
:class:`repro.protocol.retry.RetryPolicy`,
:class:`repro.faults.health.HealthTracker`,
:class:`repro.overload.breaker.BreakerBoard`, and the retryable
``SERVER_ERROR busy`` admission verdict — but executes differently:

* the transactions of one bundle plan are dispatched **concurrently**,
  so a multi-get's latency is the *slowest* transaction, not the sum.
  Every fan-out goes through :meth:`AsyncRnBClient._scatter`: requests
  are written from the caller's own task and completed by a callback out
  of ``data_received`` — one future and one wakeup per wave; only a call
  that cannot go inline runs in a Task (docs/SERVING.md, "fan-out");
* many ``get_multi`` calls may be in flight at once on one client; the
  per-server :class:`repro.aio.transport.AsyncConnectionPool` pipelines
  them over a handful of sockets;
* an optional per-request ``deadline`` degrades instead of failing:
  when the budget expires mid-request, still-pending fetches are
  abandoned (late responses are dropped) and the outcome reports the
  keys obtained so far with ``deadline_hit=True`` — the async analogue
  of the overload ladder's "answer with what we have" rung
  (docs/OVERLOAD.md).

Failover semantics match the sync client: a dead server's primaries are
re-fetched from surviving replicas in bundled repair waves, BUSY sheds
trip breakers but never the health tracker's dead-server state machine,
and exhausted keys are reported missing, never raised.  Membership
(epoch re-planning) is not threaded through the async path yet — use
the sync client where live topology changes must commit proposals.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict
from heapq import heappop, heappush

from repro.cluster.placement import ReplicaPlacer
from repro.consistency.quorum import COMMITTED, FAILED, PARTIAL, WriteOutcome, resolve_w
from repro.consistency.readrepair import MISSING, STALE, ReadOutcome
from repro.consistency.version import (
    VersionClock,
    decode_versioned,
    encode_versioned,
    newer,
)
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError, ProtocolError, ServerBusy
from repro.faults.health import HealthTracker
from repro.protocol.codec import validate_keys
from repro.protocol.retry import RetryPolicy, async_call_with_retries
from repro.protocol.rnbclient import (
    FAILOVER_ERRORS,
    MultiGetOutcome,
    _record_outcome,
    _request_instruments,
)
from repro.types import Request


#: the result of a call its wave stopped waiting for (deadline)
_CUT = object()


class _Slot:
    """Completion sink of one inline call (``submit``'s ``sink``); ``done()``
    once its wave's caller has left, so a late response is consumed and dropped."""

    __slots__ = ("waiter", "arrived", "index")

    def __init__(self, waiter: asyncio.Future, arrived, index: int) -> None:
        self.waiter = waiter
        self.arrived = arrived
        self.index = index

    def done(self) -> bool:
        return self.waiter.done()

    def set_result(self, responses) -> None:
        self.arrived(self.index, responses, None)

    def set_exception(self, exc: BaseException) -> None:
        self.arrived(self.index, None, exc)


class AsyncRnBClient:
    """Replicate-and-Bundle over pooled, pipelined async connections.

    ``connections`` maps server id ->
    :class:`repro.aio.memclient.AsyncMemcachedClient`; everything else
    mirrors the sync client's constructor contract.
    """

    def __init__(
        self,
        connections: dict,
        placer: ReplicaPlacer,
        *,
        bundler: Bundler | None = None,
        write_back: bool = True,
        retry_policy: RetryPolicy | None = None,
        health: HealthTracker | None = None,
        rng=None,
        sleep=None,
        breakers=None,
        metrics=None,
        tracer=None,
        writer_id: int = 0,
    ) -> None:
        needed = set(range(placer.n_servers))
        if not needed <= set(connections):
            raise ConfigurationError(
                "connections must cover every server the placer can route to; "
                f"missing {sorted(needed - set(connections))}"
            )
        self.connections = dict(connections)
        self.placer = placer
        self.bundler = bundler or Bundler(placer, metrics=metrics)
        if self.bundler.placer is not placer:
            raise ConfigurationError("bundler must share the client's placer")
        self.write_back = write_back
        self.retry_policy = retry_policy
        self.health = health
        self.rng = rng
        self.sleep = sleep  # None -> asyncio.sleep
        self.breakers = breakers
        if breakers is not None:
            if self.health is None:
                self.health = HealthTracker(placer.n_servers)
            breakers.ensure_capacity(placer.n_servers)
            self.health.add_observer(breakers)
        #: lifetime BUSY sheds observed (the loadgen's shed counter)
        self.busy_sheds = 0
        #: optional repro.obs wiring: a MetricsRegistry feeds the
        #: ``path="aio"`` request families (docs/OBSERVABILITY.md) and a
        #: Tracer records request -> plan/txn spans on the wall clock
        self._tracer = tracer
        self.metrics = metrics
        self._metrics = _request_instruments(metrics, "aio")
        #: version clock for the async quorum write path (parity with
        #: the sync client's set_versioned/get_versioned)
        self.writer_id = writer_id
        self._vclock = VersionClock(
            writer_id, epoch_fn=lambda: getattr(self.placer, "epoch", 0)
        )
        self._quorum_counters = None
        self._div_counters = None
        #: ``(deadline_at, seq, waiter)`` of the waves that have a deadline, a heap,
        #: and the ONE loop timer that watches its head, with the loop that armed it
        self._deadlines: list[tuple[float, int, asyncio.Future]] = []
        self._deadline_seq = 0
        self._deadline_timer: asyncio.TimerHandle | None = None
        self._deadline_loop: asyncio.AbstractEventLoop | None = None

    # -- fault plumbing ------------------------------------------------------

    async def _fetch(self, sid: int, keys, counters: dict, first_error=None) -> dict:
        """The cold path of a read call: one server's multi-get under the retry
        policy.  A failed inline first attempt, ``first_error``, is re-raised as
        attempt 0, so the retry schedule and ``on_retry`` accounting are a fresh
        call's.  As in the sync client, a connection's own policy is not stacked on."""
        conn = self.connections[sid]

        failed_inline = [first_error] if first_error is not None else []

        async def attempt():
            if failed_inline:
                raise failed_inline.pop()
            return await conn.get_multi(keys)

        if self.retry_policy is None or getattr(conn, "policy", None) is not None:
            return await attempt()

        def _on_retry(attempt_no, exc):
            counters["retries"] = counters.get("retries", 0) + 1
            if self.health is not None:
                self.health.record_error(sid)

        return await async_call_with_retries(
            attempt, self.retry_policy, rng=self.rng, sleep=self.sleep, on_retry=_on_retry
        )

    def _account(self, sid: int, got, counters: dict) -> None:
        """Health / breaker / busy bookkeeping for one finished read call."""
        if isinstance(got, ServerBusy):
            # a shed server is alive: trip breakers, never the health tracker
            self.busy_sheds += 1
            counters["busy"] = counters.get("busy", 0) + 1
            if self.breakers is not None:
                self.breakers.record_failure(sid)
            if self._metrics is not None:
                self._metrics["busy"].inc()
        elif self.health is not None:
            if isinstance(got, BaseException):
                self.health.record_error(sid)
            else:
                self.health.record_success(sid)

    def _watch_deadline(self, loop, deadline_at: float, waiter: asyncio.Future) -> None:
        """Have ``waiter`` resolved at ``deadline_at`` unless its wave finishes first.
        ONE timer per client, re-armed lazily like ``AsyncConnection._watchdog``; finished
        waves leave from the head as new ones register, so the heap holds the live waves
        plus those that finished behind an unfinished head."""
        heap = self._deadlines
        if self._deadline_loop is not loop:  # a timer and waiters of a loop long gone
            heap.clear()
            self._deadline_loop, self._deadline_timer = loop, None
        while heap and heap[0][2].done():
            heappop(heap)
        self._deadline_seq += 1
        heappush(heap, (deadline_at, self._deadline_seq, waiter))
        timer = self._deadline_timer
        if timer is None or deadline_at < timer.when():
            if timer is not None:
                timer.cancel()
            self._deadline_timer = loop.call_at(deadline_at, self._on_deadline)

    def _on_deadline(self) -> None:
        heap, loop = self._deadlines, self._deadline_loop
        now = loop.time()
        while heap and (heap[0][0] <= now or heap[0][2].done()):
            waiter = heappop(heap)[2]
            if not waiter.done():
                waiter.set_result(None)  # its calls' results stay _CUT
        # may fire early for a later head: waves finish without touching the timer
        self._deadline_timer = loop.call_at(heap[0][0], self._on_deadline) if heap else None

    async def _scatter(self, calls, deadline_at=None, counters=None, parent=None) -> list:
        """The one fan-out primitive: run ``calls`` — ``(sid, op, args)``, ``op``
        naming a connection method — concurrently (docs/SERVING.md, "fan-out").

        Returns a result per call, in call order: the value, the
        :data:`FAILOVER_ERRORS` instance it failed with, or ``_CUT`` if
        ``deadline_at`` came first; any other exception is raised.  A call goes
        inline when its connection can (``begin`` here, ``settle`` in the
        completion callback), else as the coroutine ``op`` in a Task filling the
        same slot.  ``get_multi`` calls are the read path's: retried
        (:meth:`_fetch`), traced as ``txn`` spans, accounted in call order.
        """
        loop = asyncio.get_running_loop()
        results = [_CUT] * len(calls)
        if not calls or (deadline_at is not None and deadline_at <= loop.time()):
            return results
        connections, tracer = self.connections, self._tracer
        waiter = loop.create_future()
        left = len(calls)
        spans, tasks = {}, []  # txn spans by call index; cold Tasks

        def finish(index: int, result) -> None:
            nonlocal left
            if waiter.done():
                return
            results[index] = result
            if index in spans:
                bad = "busy" if isinstance(result, ServerBusy) else "error"
                outcome = bad if isinstance(result, BaseException) else "ok"
                tracer.finish(spans[index], outcome=outcome)
            left -= 1
            if not left:
                waiter.set_result(None)

        def cold(index: int, first_error=None) -> None:
            sid, op, args = calls[index]
            if op == "get_multi":
                coro = self._fetch(sid, args[0], counters, first_error)
            else:
                coro = getattr(connections[sid], op)(*args)
            task = asyncio.ensure_future(coro)
            tasks.append(task)
            task.add_done_callback(
                lambda t: t.cancelled() or finish(index, t.exception() or t.result())
            )

        def arrived(index: int, responses, exc) -> None:
            sid, op, args = calls[index]
            if exc is None:
                try:
                    result = connections[sid].settle(op, args, responses)
                except Exception as failure:  # the call's outcome, as a Future would hold it
                    exc = failure
                else:
                    return finish(index, result)
            if op == "get_multi" and self.retry_policy is not None:
                cold(index, exc)
            else:
                finish(index, exc)

        for index, (sid, op, args) in enumerate(calls):
            if tracer is not None and op == "get_multi":
                span = tracer.start("txn", parent=parent, server=sid, n_keys=len(args[0]))
                spans[index] = span
            conn = connections[sid]
            begin = getattr(type(conn), "begin", None)  # not through a wrapper's __getattr__
            try:
                if begin is None or not begin(conn, op, args, _Slot(waiter, arrived, index)):
                    cold(index)
            except FAILOVER_ERRORS as exc:  # e.g. an unencodable key: this call's failure
                arrived(index, None, exc)

        if deadline_at is not None and not waiter.done():
            self._watch_deadline(loop, deadline_at, waiter)
        try:
            await waiter
        finally:
            # deadline or cancellation: the waiter is done, and so is every slot
            for task in tasks:
                task.cancel()
        for (sid, op, _), got in zip(calls, results):
            if isinstance(got, BaseException) and not isinstance(got, FAILOVER_ERRORS):
                raise got
            if op == "get_multi" and got is not _CUT:
                self._account(sid, got, counters)
        return results

    # -- write path --------------------------------------------------------

    async def set(self, key: str, value: bytes, *, replicate: bool = True) -> None:
        """Store ``key`` on all replica servers (concurrently)."""
        validate_keys((key,))
        servers = self.placer.servers_for(key) if replicate else (
            self.placer.distinguished_for(key),
        )
        results = await self._scatter([(sid, "set", (key, value)) for sid in servers])
        for sid, stored in zip(servers, results):
            if isinstance(stored, BaseException):
                raise stored
            if not stored:
                raise ProtocolError(f"set of {key!r} failed on server {sid}")

    async def delete(self, key: str) -> None:
        """Remove every replica of ``key`` (missing replicas are fine)."""
        validate_keys((key,))
        calls = [(sid, "delete", (key,)) for sid in self.placer.servers_for(key)]
        for res in await self._scatter(calls):
            if isinstance(res, BaseException):
                raise res

    # -- versioned write path (repro.consistency parity) ---------------------

    def _quorum_instruments(self):
        if self._quorum_counters is None and self.metrics is not None:
            self._quorum_counters = {
                outcome: self.metrics.counter(
                    "rnb_quorum_writes_total",
                    "quorum writes by outcome",
                    outcome=outcome,
                    path="aio",
                )
                for outcome in (COMMITTED, PARTIAL, FAILED)
            }
        return self._quorum_counters

    async def set_versioned(self, key: str, value: bytes, *, w="majority") -> WriteOutcome:
        """Quorum write with **concurrent** replica dispatch.

        Same W policies and outcome semantics as the sync client's
        ``set_versioned`` (docs/CONSISTENCY.md).  All R replicas are written in
        parallel and all R replies awaited (``failed`` and PARTIAL-vs-COMMITTED
        need them): latency is the slowest replica's, and W decides the verdict only.
        """
        validate_keys((key,))
        replicas = tuple(self.placer.servers_for(key))
        need = resolve_w(w, len(replicas))
        stamp = self._vclock.next_stamp()
        data = encode_versioned(value, stamp)
        results = await self._scatter([(sid, "set", (key, data)) for sid in replicas])
        acked: list[int] = []
        failed: list[int] = []
        for sid, res in zip(replicas, results):
            if res is True:
                acked.append(sid)
                if self.health is not None:
                    self.health.record_success(sid)
            elif isinstance(res, ServerBusy):
                failed.append(sid)  # shed, not sick: no health strike
                if self.breakers is not None:
                    self.breakers.record_failure(sid)
            elif res is False or isinstance(res, FAILOVER_ERRORS):
                failed.append(sid)
                if isinstance(res, FAILOVER_ERRORS) and self.health is not None:
                    self.health.record_error(sid)
        committed = len(acked) >= need
        if w == "leader" and replicas and replicas[0] not in acked:
            committed = False
        outcome = FAILED if not committed else (PARTIAL if failed else COMMITTED)
        instruments = self._quorum_instruments()
        if instruments is not None:
            instruments[outcome].inc()
        return WriteOutcome(
            key=key,
            stamp=stamp,
            acked=tuple(acked),
            failed=tuple(failed),
            w=need,
            outcome=outcome,
        )

    async def get_versioned(self, key: str, *, repair: bool = True) -> ReadOutcome:
        """Versioned read across all replicas (concurrently) with inline
        newest-wins read-repair — async parity for the sync client."""
        validate_keys((key,))
        replicas = tuple(self.placer.servers_for(key))
        results = await self._scatter([(sid, "get", (key,)) for sid in replicas])
        seen: dict[int, tuple] = {}
        missing: list[int] = []
        dead: list[int] = []
        for sid, res in zip(replicas, results):
            if isinstance(res, FAILOVER_ERRORS):
                dead.append(sid)
                if self.health is not None:
                    self.health.record_error(sid)
                continue
            if self.health is not None:
                self.health.record_success(sid)
            if res is None:
                missing.append(sid)
            else:
                seen[sid] = decode_versioned(res)
        best = source = payload = None
        for sid in replicas:
            if sid not in seen:
                continue
            stamp, data = seen[sid]
            self._vclock.observe(stamp)
            if source is None or newer(stamp, best):
                best, source, payload = stamp, sid, data
        newest = tuple(
            sid for sid, (stamp, _) in seen.items() if not newer(best, stamp)
        )
        stale = tuple(sid for sid in seen if sid not in newest)
        if self.metrics is not None:
            if self._div_counters is None:
                self._div_counters = {
                    kind: self.metrics.counter(
                        "rnb_divergences_total",
                        "replica divergences detected by versioned reads",
                        kind=kind,
                        path="aio",
                    )
                    for kind in (STALE, MISSING)
                }
            if stale:
                self._div_counters[STALE].inc(len(stale))
            if missing and newest:
                self._div_counters[MISSING].inc(len(missing))
        repaired: list[int] = []
        targets = (stale + tuple(missing)) if newest else ()
        if repair and targets and best is not None:
            data = encode_versioned(payload or b"", best)
            fixes = await self._scatter([(sid, "set", (key, data)) for sid in targets])
            for sid, res in zip(targets, fixes):
                if res is True:
                    repaired.append(sid)
        return ReadOutcome(
            key=key,
            stamp=best,
            payload=payload,
            source=source,
            newest=newest,
            stale=stale,
            missing=tuple(missing),
            dead=tuple(dead),
            repaired=tuple(repaired),
            queued=0,
        )

    # -- read path -----------------------------------------------------------

    async def get_multi(
        self,
        keys,
        *,
        limit_fraction: float | None = None,
        deadline: float | None = None,
    ) -> MultiGetOutcome:
        """Bundled multi-get with concurrent dispatch and miss repair.

        ``deadline`` (seconds) bounds the whole request; on expiry the
        outcome carries whatever arrived (``deadline_hit=True``).
        """
        keys = tuple(dict.fromkeys(keys))  # dedupe, keep order
        validate_keys(keys)  # a malformed key is the caller's error, not a server's
        if not keys:
            return MultiGetOutcome()
        if deadline is not None and deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        started = time.perf_counter()
        req_span = (
            self._tracer.start("request", n_keys=len(keys))
            if self._tracer is not None
            else None
        )
        deadline_at = (
            asyncio.get_running_loop().time() + deadline if deadline is not None else None
        )
        request = Request(items=keys, limit_fraction=limit_fraction)
        exclude = self.health.exclusions() if self.health is not None else frozenset()
        if self.breakers is not None:
            self.breakers.advance()
            exclude = exclude | self.breakers.tripped()
        plan_span = (
            self._tracer.start("plan", parent=req_span) if req_span is not None else None
        )
        plan = self.bundler.plan(request, exclude=exclude or None)
        if plan_span is not None:
            self._tracer.finish(plan_span, n_txns=len(plan.transactions))

        counters: dict[str, int] = {}
        outcome = MultiGetOutcome()
        failed: set[int] = set()
        missed_primary: dict[str, int] = {}

        calls = [
            (txn.server, "get_multi", ((*txn.primary, *txn.hitchhikers),))
            for txn in plan.transactions
        ]
        # a call the deadline cut: its primaries stay missing, repair is skipped
        cut = False
        results = await self._scatter(calls, deadline_at, counters, req_span)
        for txn, got in zip(plan.transactions, results):
            if got is _CUT:
                cut = True
            elif isinstance(got, BaseException):
                failed.add(txn.server)
                for key in txn.primary:
                    missed_primary[key] = txn.server
            else:
                outcome.transactions += 1
                outcome.values.update(got)
                for key in txn.primary:
                    if key not in got:
                        missed_primary[key] = txn.server

        # Repair waves: same policy as the sync client (distinguished
        # copy first, then surviving replicas), but each wave's bundles
        # run concurrently.
        required = request.required_items
        pending = {k for k in missed_primary if k not in outcome.values}
        tried: dict[str, set[int]] = {k: {missed_primary[k]} for k in pending}
        unplanned = [
            k for k in keys if k not in outcome.values and k not in missed_primary
        ]
        while not cut and len(outcome.values) < required:
            groups: dict[int, list[str]] = defaultdict(list)
            for key in sorted(pending):
                candidates = [
                    s
                    for s in self.placer.servers_for(key)
                    if s not in failed and s not in tried[key]
                ]
                if not candidates:
                    pending.discard(key)  # exhausted: genuinely missing
                    continue
                groups[candidates[0]].append(key)
            if not groups:
                if unplanned:
                    for key in unplanned:
                        pending.add(key)
                        tried[key] = set()
                    unplanned = []
                    continue
                break
            wave = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
            calls = [(sid, "get_multi", (group,)) for sid, group in wave]
            results = await self._scatter(calls, deadline_at, counters, req_span)
            writebacks = []
            for (sid, group), got in zip(wave, results):
                if got is _CUT:
                    cut = True
                    continue
                if isinstance(got, BaseException):
                    failed.add(sid)
                    continue
                outcome.transactions += 1
                outcome.second_round_transactions += 1
                for key in group:
                    tried[key].add(sid)
                outcome.values.update(got)
                outcome.misses_repaired += len(got)
                for key in got:
                    pending.discard(key)
                if self.write_back:
                    for key, value in got.items():
                        target = missed_primary.get(key)
                        if target is not None and target not in failed:
                            writebacks.append((target, key, value))
            fixes = await self._scatter([(t, "set", (k, v)) for t, k, v in writebacks])
            for (target, _, _), res in zip(writebacks, fixes):
                if isinstance(res, BaseException):
                    failed.add(target)

        outcome.missing = tuple(k for k in keys if k not in outcome.values)
        outcome.failed_servers = tuple(sorted(failed))
        outcome.retries = counters.get("retries", 0)
        outcome.busy_sheds = counters.get("busy", 0)
        outcome.deadline_hit = cut
        _record_outcome(self._metrics, outcome, time.perf_counter() - started)
        if req_span is not None:
            self._tracer.finish(req_span, n_missing=len(outcome.missing), deadline_hit=cut)
        return outcome

    async def get(self, key: str) -> bytes | None:
        """Single-item get from the distinguished copy (paper III-C1),
        failing over to the other replicas only if its server is down."""
        validate_keys((key,))
        last_error: Exception | None = None
        reached_any = False
        for sid in self.placer.servers_for(key):
            try:
                value = await self.connections[sid].get(key)
            except FAILOVER_ERRORS as exc:
                last_error = exc
                continue
            reached_any = True
            if value is not None:
                return value
            if sid == self.placer.distinguished_for(key):
                return None  # the distinguished copy is authoritative
        if not reached_any and last_error is not None:
            raise ProtocolError(f"all replicas of {key!r} unreachable") from last_error
        return None
