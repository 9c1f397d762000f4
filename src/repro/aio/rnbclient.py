"""The async RnB client: multiplexed in-flight bundles (docs/SERVING.md).

:class:`AsyncRnBClient` is the high-concurrency twin of
:class:`repro.protocol.rnbclient.RnBProtocolClient`: both run the request
engine of :class:`repro.protocol.rnbclient.LiveRnBClient`, so planning,
repair waves, retries, health, breakers, BUSY sheds, the §IV atomic
update and the :mod:`repro.consistency` rules are the sync client's.  How a
wave runs differs:

* the calls of one wave are dispatched **concurrently**,
  so a multi-get's latency is the *slowest* transaction, not the sum.
  Every wave goes through :meth:`AsyncRnBClient._scatter`: requests
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

A topology epoch change re-plans still-missing keys over the new view (any
epoch-aware placer); removal *proposals* stay with the sync client, whose
constructor alone takes ``membership=``.
"""

from __future__ import annotations

import asyncio
from functools import partial
from heapq import heappop, heappush

from repro.cluster.placement import ReplicaPlacer
from repro.consistency.quorum import WriteOutcome
from repro.consistency.readrepair import ReadOutcome
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError
from repro.faults.health import HealthTracker
from repro.protocol.retry import RetryPolicy, async_call_with_retries
from repro.protocol.rnbclient import (
    CUT,
    FAILOVER_ERRORS,
    LiveRnBClient,
    MultiGetOutcome,
    _txn_outcome,
)


class _Slot(partial):
    """Completion sink of one inline call (``submit``'s ``sink``): its wave's
    ``arrived`` with the call's index bound.  ``set_result(responses)`` is the
    partial's own call, so a reply reaches ``arrived`` with no call in between;
    ``arrived`` drops what comes after the wave's caller has left."""

    __slots__ = ()

    set_result = partial.__call__

    def set_exception(self, exc: BaseException) -> None:
        self(None, exc)


class AsyncRnBClient(LiveRnBClient):
    """Replicate-and-Bundle over pooled, pipelined async connections.

    ``connections`` maps server id ->
    :class:`repro.aio.memclient.AsyncMemcachedClient`; everything else
    mirrors the sync client's constructor contract.
    """

    _path = "aio"

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
        super().__init__(
            connections,
            placer,
            bundler=bundler,
            write_back=write_back,
            retry_policy=retry_policy,
            health=health,
            rng=rng,
            sleep=sleep,  # None -> asyncio.sleep
            breakers=breakers,
            metrics=metrics,
            tracer=tracer,
            writer_id=writer_id,
        )
        #: ``(deadline_at, seq, waiter)`` of the waves that have a deadline, a heap,
        #: and the ONE loop timer that watches its head, with the loop that armed it
        self._deadlines: list[tuple[float, int, asyncio.Future]] = []
        self._deadline_seq = 0
        self._deadline_timer: asyncio.TimerHandle | None = None
        self._deadline_loop: asyncio.AbstractEventLoop | None = None

    # -- fan-out -------------------------------------------------------------

    async def _fetch(self, sid: int, keys, counters: dict, first_error=None) -> dict:
        """The cold path of a read call: one server's multi-get under the retry
        policy.  A failed inline first attempt, ``first_error``, is re-raised as
        attempt 0, so the retry schedule and ``on_retry`` accounting are a fresh
        call's."""
        conn = self.connections[sid]
        failed_inline = [first_error] if first_error is not None else []

        async def attempt():
            if failed_inline:
                raise failed_inline.pop()
            return await conn.get_multi(keys)

        return await self._retried(sid, attempt, counters, async_call_with_retries)

    def _cold(self, call, counters, finish, index: int, first_error=None) -> asyncio.Task:
        """Run ``call``, the ``index``-th of a wave, as its coroutine in a Task
        that hands the outcome to the wave's ``finish``; a read call retried
        (:meth:`_fetch`)."""
        sid, op, args = call
        if op == "get_multi":
            coro = self._fetch(sid, args[0], counters, first_error)
        else:
            coro = getattr(self.connections[sid], op)(*args)
        task = asyncio.ensure_future(coro)
        task.add_done_callback(
            lambda t: t.cancelled() or finish(index, t.exception() or t.result())
        )
        return task

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
                waiter.set_result(None)  # its calls' results stay CUT
        # may fire early for a later head: waves finish without touching the timer
        self._deadline_timer = loop.call_at(heap[0][0], self._on_deadline) if heap else None

    async def _scatter(self, calls, deadline_at=None, counters=None, parent=None) -> list:
        """The one fan-out primitive: run ``calls`` — ``(sid, op, args)``, ``op``
        naming a connection method — concurrently (docs/SERVING.md, "fan-out").

        Returns a result per call, in call order: the value, the
        :data:`FAILOVER_ERRORS` instance it failed with, or ``CUT`` if
        ``deadline_at`` came first; any other exception is raised.  A call goes
        inline when its connection can (``begin`` here, ``settle`` in the
        completion callback), else as the coroutine ``op`` in a Task filling the
        same slot.  ``get_multi`` calls are the read path's: retried
        (:meth:`_fetch`), traced as ``txn`` spans, accounted in call order.
        """
        loop = asyncio.get_running_loop()
        results = [CUT] * len(calls)
        if not calls or (deadline_at is not None and deadline_at <= loop.time()):
            return results
        connections, tracer = self.connections, self._tracer
        waiter = loop.create_future()
        left = len(calls)
        spans = {} if tracer is not None else None  # txn spans by call index
        tasks = []  # cold Tasks

        def finish(index: int, result) -> None:
            nonlocal left
            if waiter.done():
                return
            results[index] = result
            if spans and index in spans:
                tracer.finish(spans[index], outcome=_txn_outcome(result))
            left -= 1
            if not left:
                waiter.set_result(None)

        def arrived(index: int, responses, exc=None) -> None:
            if waiter.done():  # the caller has left: a late reply is dropped
                return
            sid, op, args = calls[index]
            if exc is None:
                try:
                    return finish(index, connections[sid].settle(op, args, responses))
                except Exception as failure:  # the call's outcome, as a Future would hold it
                    exc = failure
            if op == "get_multi" and self.retry_policy is not None:
                tasks.append(self._cold(calls[index], counters, finish, index, exc))
            else:
                finish(index, exc)

        for index, (sid, op, args) in enumerate(calls):
            if spans is not None and op == "get_multi":
                spans[index] = tracer.start(
                    "txn", parent=parent, server=sid, n_keys=len(args[0])
                )
            conn = connections[sid]
            begin = getattr(type(conn), "begin", None)  # not through a wrapper's __getattr__
            try:
                if begin is None or not begin(conn, op, args, _Slot(arrived, index)):
                    tasks.append(self._cold(calls[index], counters, finish, index))
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
        health = self.health
        for (sid, op, _), got in zip(calls, results):
            if isinstance(got, BaseException):
                if not isinstance(got, FAILOVER_ERRORS):
                    raise got
                if op == "get_multi":
                    self._account_failure(sid, got, counters)
            elif op == "get_multi" and got is not CUT and health is not None:
                health.record_success(sid)
        return results

    async def _drive(self, requests, counters: dict | None = None, deadline=None):
        """Run a request generator to its outcome, each wave through :meth:`_scatter`
        under one deadline for the whole request."""
        deadline_at = (
            asyncio.get_running_loop().time() + deadline if deadline is not None else None
        )
        try:
            calls, span = next(requests)
            while True:
                calls, span = requests.send(
                    await self._scatter(calls, deadline_at, counters, span)
                )
        except StopIteration as stop:
            return stop.value

    # -- requests ------------------------------------------------------------

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
        if deadline is not None and deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        counters: dict[str, int] = {}
        return await self._drive(
            self._multi_get(keys, limit_fraction, counters), counters, deadline
        )

    async def get(self, key: str) -> bytes | None:
        """Single-item get from the distinguished copy (paper III-C1),
        failing over to the other replicas only if its server is down."""
        return await self._drive(self._get(key))

    async def set(self, key: str, value: bytes, *, replicate: bool = True) -> None:
        """Store ``key`` on all replica servers (concurrently)."""
        return await self._drive(self._set(key, value, replicate))

    async def delete(self, key: str) -> None:
        """Remove every replica of ``key`` (missing replicas are fine)."""
        return await self._drive(self._delete(key))

    async def atomic_update(
        self, key: str, update, *, max_retries: int = 16, repopulate: bool = False
    ) -> bytes:
        """Paper §IV's atomic update (the sync client's
        :meth:`~repro.protocol.rnbclient.RnBProtocolClient.atomic_update`), each
        strip and repopulate wave sent to the replicas concurrently."""
        return await self._drive(self._atomic_update(key, update, max_retries, repopulate), {})

    async def set_versioned(self, key: str, value: bytes, *, w="majority") -> WriteOutcome:
        """Quorum write (docs/CONSISTENCY.md), all R replicas written in parallel
        and all R replies awaited: latency is the slowest replica's, W decides
        the verdict only."""
        return await self._drive(self._versioned_write(key, value, w))

    async def get_versioned(self, key: str, *, repair: bool = True) -> ReadOutcome:
        """Versioned read across all replicas (concurrently) with inline
        newest-wins read-repair."""
        return await self._drive(self._versioned_read(key, repair))
