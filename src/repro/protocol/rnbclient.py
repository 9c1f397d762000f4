"""RnB over the real protocol: the proof-of-concept client (paper §IV).

:class:`RnBProtocolClient` is the protocol-level twin of the simulator's
:class:`repro.core.client.RnBClient`:

* **writes** go to all R replica servers chosen by Ranged Consistent
  Hashing (or, in ``lazy`` mode, only to the distinguished copy, letting
  replicas materialise on demand — the paper's atomic-operation scheme);
* **multi-gets** are bundled by greedy set cover and executed one
  transaction per chosen server;
* **misses** (an evicted replica) are repaired from the distinguished
  copy in a bundled second round and written back to the first-picked
  replica server, exactly like the simulator's miss path;
* **server failures** degrade gracefully: a transaction to a dead server
  is treated as a full miss, and the affected items are re-fetched from
  their surviving replicas — the "replication already exists for
  reliability" dividend the paper points at (sections I-C, III-B);
* **retry/backoff/health** (docs/FAULTS.md): with a
  :class:`repro.protocol.retry.RetryPolicy`, transient transport errors
  are retried under bounded exponential backoff before failover kicks
  in, and a :class:`repro.faults.health.HealthTracker` learns which
  servers are dead so later plans exclude them up front;
* **overload** (docs/OVERLOAD.md): with a
  :class:`repro.overload.breaker.BreakerBoard`, tripped servers are
  excluded from covers like dead ones, and ``SERVER_ERROR busy`` sheds
  count as soft failures — after the retry budget they fail over to the
  item's other replicas like a dead server would, but they only trip
  breakers, never the health tracker's dead-server state machine.

The algorithm is written once, in :class:`LiveRnBClient`, as generators
that do no IO: they yield waves of connection calls and are sent the
results.  :class:`RnBProtocolClient` runs each wave one call after another;
:class:`repro.aio.rnbclient.AsyncRnBClient` runs it concurrently.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.cluster.placement import ReplicaPlacer
from repro.consistency.quorum import QuorumWriter
from repro.consistency.readrepair import VersionedReader
from repro.consistency.version import VersionClock, decode_versioned, encode_versioned
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError, ProtocolError, ServerBusy
from repro.faults.health import HealthTracker
from repro.protocol.codec import validate_keys
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.retry import RetryPolicy, call_with_retries
from repro.types import Request

#: transport/socket errors treated as a server being down (ServerDown and
#: ServerTimeout from repro.errors are ConnectionError/TimeoutError
#: subclasses, so injected and real failures are caught alike)
FAILOVER_ERRORS = (ProtocolError, ConnectionError, OSError)

#: the result of a call its wave stopped waiting for (the async client's
#: per-request deadline)
CUT = object()


def _request_instruments(metrics, path: str) -> dict | None:
    """The shared per-request instrument set of the metric catalog.

    Both live read paths (sync ``path="live"``, async ``path="aio"``)
    and the DES (``path="sim"``) register these same families, which is
    what lets ``rnb stats`` and the experiments diff telemetry across
    time domains (docs/OBSERVABILITY.md).
    """
    if metrics is None:
        return None
    return {
        "latency": metrics.histogram(
            "rnb_request_latency_seconds", "end-to-end request latency", path=path
        ),
        "ok": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="ok"
        ),
        "degraded": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="degraded"
        ),
        "failed": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="failed"
        ),
        "served": metrics.counter(
            "rnb_items_total", "items by outcome", path=path, outcome="served"
        ),
        "missing": metrics.counter(
            "rnb_items_total", "items by outcome", path=path, outcome="missing"
        ),
        "retries": metrics.counter(
            "rnb_retries_total", "transport retries", path=path
        ),
        "busy": metrics.counter(
            "rnb_busy_sheds_total", "dispatches shed by admission control", path=path
        ),
        "deadline": metrics.counter(
            "rnb_deadline_hits_total", "requests cut off by their deadline", path=path
        ),
    }


def _txn_outcome(got) -> str:
    """The ``outcome`` attribute of a finished read call's ``txn`` span."""
    if isinstance(got, ServerBusy):
        return "busy"
    return "error" if isinstance(got, BaseException) else "ok"


@dataclass(slots=True)
class MultiGetOutcome:
    """Result of one RnB multi-get."""

    values: dict[str, bytes] = field(default_factory=dict)
    transactions: int = 0
    second_round_transactions: int = 0
    misses_repaired: int = 0
    retries: int = 0
    missing: tuple[str, ...] = ()
    failed_servers: tuple[int, ...] = ()
    #: topology epoch the request finished under (None without an
    #: epoch-aware placer)
    epoch: int | None = None
    #: membership changes committed from this request's dead verdicts
    membership_commits: int = 0
    #: the per-request deadline expired before every key was fetched
    #: (async path only; the request degraded instead of failing)
    deadline_hit: bool = False
    #: BUSY sheds observed while serving this request
    busy_sheds: int = 0


class LiveRnBClient:
    """What both live clients share: the constructor contract, the failure
    accounting, and every request as a generator that does no IO.

    A request generator yields ``(calls, span)`` — a wave of connection
    calls ``(sid, op, args)``, ``op`` naming a connection method, and the
    request span their ``txn`` spans hang under — and is sent one result
    per call, in call order: the value, the :data:`FAILOVER_ERRORS`
    instance the call failed with, or :data:`CUT`.  It returns the
    request's outcome.  A subclass's ``_drive`` runs the waves.
    """

    #: the ``path`` label of this client's metric families
    _path = "live"

    def __init__(
        self,
        connections: dict[int, MemcachedConnection],
        placer: ReplicaPlacer,
        *,
        bundler: Bundler | None = None,
        write_back: bool = True,
        retry_policy: RetryPolicy | None = None,
        health: HealthTracker | None = None,
        rng=None,
        sleep=time.sleep,
        membership=None,
        breakers=None,
        metrics=None,
        tracer=None,
        writer_id: int = 0,
    ) -> None:
        # An epoch-aware placer only routes to servers alive in its view,
        # so connections must cover those; a static placer needs the full
        # id range.  Extra connections (e.g. for servers expected to join)
        # are allowed either way.
        view = getattr(placer, "view", None)
        needed = set(view.alive_servers if view is not None else range(placer.n_servers))
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
        #: one config object for every network knob (timeouts + retries);
        #: None preserves the legacy single-attempt behaviour
        self.retry_policy = retry_policy
        #: error-driven server state; dead servers are excluded from plans
        self.health = health
        self.rng = rng
        self.sleep = sleep
        #: optional MembershipService: dead verdicts become removal
        #: proposals, and a mid-request epoch change triggers one
        #: re-plan round over the new view for still-missing keys
        self.membership = membership
        #: optional circuit-breaker board (repro.overload.breaker):
        #: tripped servers are excluded from covers; outcomes feed it
        #: through the health tracker's observer hook, so a tracker is
        #: created when the caller supplied only a board.  BUSY sheds
        #: (``SERVER_ERROR busy``) are reported as *soft* failures —
        #: they trip breakers but never mark a server dead.
        self.breakers = breakers
        if breakers is not None:
            if self.health is None:
                self.health = HealthTracker(placer.n_servers)
            breakers.ensure_capacity(placer.n_servers)
            self.health.add_observer(breakers)
        self.seen_epoch: int | None = getattr(placer, "epoch", None)
        #: lifetime BUSY sheds observed (the loadgen's shed counter)
        self.busy_sheds = 0
        #: optional repro.obs wiring: a MetricsRegistry feeds this client's
        #: request families (docs/OBSERVABILITY.md) and a Tracer records
        #: request -> plan/txn spans on the wall clock
        self._tracer = tracer
        #: the registry itself stays public so satellite layers (the
        #: consistency stack, atomic_update/read_repair instrumentation)
        #: can register their own families on it
        self.metrics = metrics
        self._metrics = _request_instruments(metrics, self._path)
        #: id carried in this client's version stamps (tiebreak between
        #: concurrent writers; see repro.consistency.version)
        self.writer_id = writer_id
        self._clock = VersionClock(writer_id, epoch_fn=lambda: getattr(self.placer, "epoch", 0))
        self._reader: VersionedReader | None = None
        self._writers: dict = {}

    # -- failure accounting --------------------------------------------------

    def _retried(self, sid: int, attempt, counters: dict, call_with_retries):
        """``attempt()`` — one read call to ``sid`` — under the retry policy,
        each retry counted and a health strike; ``call_with_retries`` is the
        driver's flavour of :func:`repro.protocol.retry.call_with_retries`.

        If the connection itself already retries (it was built with its
        own policy), the client does not retry on top — attempts would
        compound to ``(max_retries+1)^2`` otherwise.
        """
        conn_policy = getattr(self.connections[sid], "policy", None)
        if self.retry_policy is None or conn_policy is not None:
            return attempt()

        def on_retry(attempt_no, exc):
            counters["retries"] = counters.get("retries", 0) + 1
            if self.health is not None:
                self.health.record_error(sid)

        return call_with_retries(
            attempt, self.retry_policy, rng=self.rng, sleep=self.sleep, on_retry=on_retry
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
                if self._propose_if_dead(sid):
                    counters["commits"] = counters.get("commits", 0) + 1
            else:
                self.health.record_success(sid)

    def _propose_if_dead(self, sid: int) -> bool:
        """Promote a health "dead" verdict into a membership proposal.

        Returns True iff the proposal committed a new epoch (the shared
        epoched placer now routes around ``sid``).
        """
        if self.membership is None or self.health is None or self.health.state(sid) != "dead":
            return False
        return self.membership.propose_removal(sid, source=self)

    # -- requests ------------------------------------------------------------

    def _multi_get(self, keys, limit_fraction, counters: dict):
        """Bundled multi-get with miss repair (see :meth:`LiveRnBClient`).

        ``limit_fraction`` turns this into a LIMIT-style fetch: at least
        ``ceil(fraction * len(keys))`` values are returned, any subset.
        ``counters`` is the dict the driver's calls count retries, BUSY
        sheds and membership commits into.
        """
        keys = tuple(dict.fromkeys(keys))  # dedupe, keep order
        validate_keys(keys)  # a malformed key is the caller's error, not a server's
        outcome = MultiGetOutcome()
        if not keys:
            return outcome
        started = time.perf_counter()
        tracer = self._tracer
        span = tracer.start("request", n_keys=len(keys)) if tracer is not None else None
        request = Request(items=keys, limit_fraction=limit_fraction)
        exclude = self.health.exclusions() if self.health is not None else frozenset()
        if self.breakers is not None:
            self.breakers.advance()
            exclude = exclude | self.breakers.tripped()
        plan_span = tracer.start("plan", parent=span) if span is not None else None
        plan = self.bundler.plan(request, exclude=exclude or None)
        if plan_span is not None:
            tracer.finish(plan_span, n_txns=len(plan.transactions))

        values = outcome.values
        failed: set[int] = set()
        missed_primary: dict[str, int] = {}
        # a call the deadline cut: its primaries stay missing, repair is skipped
        cut = False
        txns = plan.transactions
        results = yield [
            (txn.server, "get_multi", ((*txn.primary, *txn.hitchhikers),)) for txn in txns
        ], span
        for txn, got in zip(txns, results):
            if got is CUT:
                cut = True
            elif isinstance(got, BaseException):
                # dead server: every primary becomes a miss to repair from
                # the item's surviving replicas
                failed.add(txn.server)
                for key in txn.primary:
                    missed_primary[key] = txn.server
            else:
                outcome.transactions += 1
                values.update(got)
                for key in txn.primary:
                    if key not in got:
                        missed_primary[key] = txn.server

        # Repair waves: fetch still-missing items from their remaining
        # replicas — the distinguished copy first, then (only if servers
        # have failed or evicted) the other replicas.  Each wave bundles
        # by server; a key is given up only once every live replica has
        # been tried.
        required = request.required_items
        pending = {k for k in missed_primary if k not in values}
        tried: dict[str, set[int]] = {k: {missed_primary[k]} for k in pending}
        # LIMIT plans cover only `required` items; if failures leave the
        # quota unreachable from the planned set, recruit the unplanned
        # request keys as substitutes (any subset satisfies a LIMIT)
        unplanned = [k for k in keys if k not in values and k not in missed_primary]
        while not cut and len(values) < required:
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
                    pending.update(unplanned)
                    tried.update((key, set()) for key in unplanned)
                    unplanned = []
                    continue
                break
            # the wave asks for no more keys than the quota still needs
            wave, quota = [], required - len(values)
            for sid, group in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
                if quota <= 0:
                    break
                wave.append((sid, group[:quota]))
                quota -= len(group)
            results = yield [(sid, "get_multi", (group,)) for sid, group in wave], span
            writebacks = []
            for (sid, group), got in zip(wave, results):
                if got is CUT:
                    cut = True
                    continue
                if isinstance(got, BaseException):
                    failed.add(sid)
                    continue
                outcome.transactions += 1
                outcome.second_round_transactions += 1
                for key in group:
                    tried[key].add(sid)
                values.update(got)
                outcome.misses_repaired += len(got)
                pending.difference_update(got)
                if self.write_back:
                    for key, value in got.items():
                        target = missed_primary.get(key)
                        if target is not None and target not in failed:
                            writebacks.append((target, "set", (key, value)))
            if writebacks:
                results = yield writebacks, span
                for (target, _, _), res in zip(writebacks, results):
                    if isinstance(res, BaseException):
                        failed.add(target)

        # Epoch refresh: if this request's dead verdicts (or another
        # client's) moved the topology mid-flight, give still-missing
        # keys one re-plan round over the NEW view — promoted replicas
        # and repair copies may hold them even though every replica of
        # the old view was exhausted.
        epoch_now = getattr(self.placer, "epoch", None)
        if (
            not cut
            and epoch_now is not None
            and epoch_now != self.seen_epoch
            and len(values) < required
        ):
            replan = self.bundler.plan(Request(items=tuple(k for k in keys if k not in values)))
            txns = [txn for txn in replan.transactions if txn.server not in failed]
            results = yield [
                (txn.server, "get_multi", ((*txn.primary, *txn.hitchhikers),)) for txn in txns
            ], span
            for txn, got in zip(txns, results):
                if got is CUT:
                    cut = True
                elif isinstance(got, BaseException):
                    failed.add(txn.server)
                else:
                    outcome.transactions += 1
                    outcome.second_round_transactions += 1
                    values.update(got)
                    outcome.misses_repaired += len(got)
        self.seen_epoch = epoch_now

        outcome.missing = tuple(k for k in keys if k not in values)
        outcome.failed_servers = tuple(sorted(failed))
        outcome.retries = counters.get("retries", 0)
        outcome.busy_sheds = counters.get("busy", 0)
        outcome.epoch = epoch_now
        outcome.membership_commits = counters.get("commits", 0)
        outcome.deadline_hit = cut
        instruments = self._metrics
        if instruments is not None:
            instruments["latency"].observe(time.perf_counter() - started)
            instruments["degraded" if (outcome.missing or cut) else "ok"].inc()
            instruments["served"].inc(len(values))
            instruments["missing"].inc(len(outcome.missing))
            instruments["retries"].inc(outcome.retries)
            if cut:
                instruments["deadline"].inc()
        if span is not None:
            tracer.finish(span, n_missing=len(outcome.missing), deadline_hit=cut)
        return outcome

    def _get(self, key: str):
        """Single-item get — from the distinguished copy (paper section
        III-C1: unbundled accesses must not pollute replica LRUs), falling
        back to the other replicas only if its server is unreachable."""
        validate_keys((key,))
        last_error: Exception | None = None
        reached_any = False
        for sid in self.placer.servers_for(key):
            [value] = yield [(sid, "get", (key,))], None
            if isinstance(value, BaseException):
                last_error = value
                continue
            reached_any = True
            if value is not None:
                return value
            if sid == self.placer.distinguished_for(key):
                # the distinguished copy is authoritative: a clean miss
                # there is final; an evicted replica is not
                return None
        if not reached_any and last_error is not None:
            raise ProtocolError(f"all replicas of {key!r} unreachable") from last_error
        return None

    def _set(self, key: str, value: bytes, replicate: bool):
        """Store ``key`` on every replica server (or the distinguished one
        only); every replica is tried, then the first failure is raised."""
        validate_keys((key,))
        servers = self.placer.servers_for(key) if replicate else (
            self.placer.distinguished_for(key),
        )
        results = yield [(sid, "set", (key, value)) for sid in servers], None
        for sid, stored in zip(servers, results):
            if isinstance(stored, BaseException):
                raise stored
            if not stored:
                raise ProtocolError(f"set of {key!r} failed on server {sid}")

    def _delete(self, key: str):
        """Remove every replica of ``key`` (missing replicas are fine)."""
        validate_keys((key,))
        results = yield [(sid, "delete", (key,)) for sid in self.placer.servers_for(key)], None
        for res in results:
            if isinstance(res, BaseException):
                raise res

    # -- versioned requests (repro.consistency) ------------------------------

    def _versioned_write(self, key: str, value: bytes, w):
        """A :class:`~repro.consistency.quorum.QuorumWriter` write of ``key``
        as a request generator (docs/CONSISTENCY.md)."""
        validate_keys((key,))
        writer = self._writers.get(w)
        if writer is None:
            # steps only: this client's wire is the store (see _on_wire)
            writer = self._writers[w] = QuorumWriter(
                None, self.placer, clock=self._clock, w=w, health=self.health
            )
            if self.metrics is not None:
                writer.bind_metrics(self.metrics, path=self._path)
        return self._on_wire(writer.steps(key, value))

    def _versioned_read(self, key: str, repair: bool):
        """A :class:`~repro.consistency.readrepair.VersionedReader` read of
        ``key`` (inline repair) as a request generator."""
        validate_keys((key,))
        if self._reader is None:
            self._reader = VersionedReader(
                None, self.placer, clock=self._clock, health=self.health
            )
            if self.metrics is not None:
                self._reader.bind_metrics(self.metrics, path=self._path)
        return self._on_wire(self._reader.steps(key, repair=repair))

    def _on_wire(self, steps):
        """Run :mod:`repro.consistency` store steps as connection calls, the
        way :class:`~repro.consistency.store.WireStore` serves them: a write
        carries the version envelope and NOT_STORED comes back as
        :class:`ProtocolError`, a read comes back decoded.  A write the
        server shed (``SERVER_ERROR busy``) also trips its breaker."""
        breakers = self.breakers
        try:
            ops = next(steps)
            while True:
                calls = [
                    (sid, "get", args)
                    if op == "read"
                    else (sid, "set", (args[0], encode_versioned(args[1], args[2])))
                    for op, sid, args in ops
                ]
                results = yield calls, None
                answers = []
                for (sid, op, (key, *_)), res in zip(calls, results):
                    if isinstance(res, BaseException):
                        # a shed write is no health strike, so only this reaches
                        # the breaker; a failed read strikes health, which feeds it
                        if breakers is not None and op == "set" and isinstance(res, ServerBusy):
                            breakers.record_failure(sid)
                    elif op == "get":
                        res = None if res is None else decode_versioned(res)
                    elif res:
                        res = None  # STORED
                    else:
                        res = ProtocolError(f"versioned set of {key!r} failed on server {sid}")
                    answers.append(res)
                ops = steps.send(answers)
        except StopIteration as stop:
            return stop.value


class RnBProtocolClient(LiveRnBClient):
    """Replicate-and-Bundle client over live memcached connections: runs
    each wave's calls one after another on blocking connections."""

    def _drive(self, requests, counters: dict | None = None):
        """Run a request generator to its outcome."""
        try:
            calls, span = next(requests)
            while True:
                calls, span = requests.send(
                    [self._call(sid, op, args, counters, span) for sid, op, args in calls]
                )
        except StopIteration as stop:
            return stop.value

    def _call(self, sid: int, op: str, args: tuple, counters, parent):
        """One call: its value, or the :data:`FAILOVER_ERRORS` instance it
        failed with.  A read call (``get_multi``) is retried (:meth:`_retried`),
        traced as a ``txn`` span and accounted (:meth:`_account`)."""
        conn = self.connections[sid]
        if op != "get_multi":
            try:
                return getattr(conn, op)(*args)
            except FAILOVER_ERRORS as exc:
                return exc
        tracer = self._tracer
        span = (
            tracer.start("txn", parent=parent, server=sid, n_keys=len(args[0]))
            if tracer is not None
            else None
        )
        try:
            got = self._retried(sid, lambda: conn.get_multi(*args), counters, call_with_retries)
        except FAILOVER_ERRORS as exc:
            got = exc
        self._account(sid, got, counters)
        if span is not None:
            tracer.finish(span, outcome=_txn_outcome(got))
        return got

    def get_multi(self, keys, *, limit_fraction: float | None = None) -> MultiGetOutcome:
        """Bundled multi-get with miss repair (:meth:`LiveRnBClient._multi_get`)."""
        counters: dict[str, int] = {}
        return self._drive(self._multi_get(keys, limit_fraction, counters), counters)

    def get(self, key: str) -> bytes | None:
        """Single-item get from the distinguished copy (paper III-C1),
        failing over to the other replicas only if its server is down."""
        return self._drive(self._get(key))

    def set(self, key: str, value: bytes, *, replicate: bool = True) -> None:
        """Store ``key`` on all replica servers (or distinguished only)."""
        return self._drive(self._set(key, value, replicate))

    def delete(self, key: str) -> None:
        """Remove every replica of ``key`` (missing replicas are fine)."""
        return self._drive(self._delete(key))

    def set_versioned(self, key: str, value: bytes, *, w="majority"):
        """Quorum write: commit ``key`` at W of its R replicas.

        Returns the :class:`repro.consistency.quorum.WriteOutcome`; see
        docs/CONSISTENCY.md for the W policies and what each outcome
        guarantees.  The value is wrapped in the version envelope, so
        plain :meth:`get` returns envelope bytes — use
        :meth:`get_versioned` to read them back decoded.
        """
        return self._drive(self._versioned_write(key, value, w))

    def get_versioned(self, key: str, *, repair: bool = True):
        """Versioned read across all replicas with inline read-repair.

        Returns the :class:`repro.consistency.readrepair.ReadOutcome`
        (payload, winning stamp, and which replicas were stale, missing,
        dead, or repaired).
        """
        return self._drive(self._versioned_read(key, repair))
