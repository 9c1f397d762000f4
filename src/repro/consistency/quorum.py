"""Quorum writes: commit a write to W of the R replicas.

The seed write path was best-effort write-back — a server killed
mid-write left replicas silently divergent with no record that anything
went wrong.  :class:`QuorumWriter` makes the write outcome explicit:
every write gets a fresh :class:`~repro.consistency.version.VersionStamp`
and is attempted on **all** R replicas; the write *commits* when at
least W replicas acknowledge (plus, in leader mode, the distinguished
copy itself).  Replicas that refused or were down are reported in the
outcome so read-repair / anti-entropy know divergence was seeded, and
are counted into the shared :class:`~repro.faults.health.HealthTracker`
so the read path's cover avoids them too.

W policies (``w=``):

* ``"majority"`` — ``R // 2 + 1`` acks.  Classic quorum: any two
  committed writes of one key intersect in at least one replica.
* ``"leader"`` — the distinguished copy (paper §IV's CAS serialisation
  point) must ack; other replicas are best-effort.  Cheapest commit,
  matches the paper's single-copy-of-record scheme.
* ``"all"`` — every replica must ack (divergence-free when it commits).
* an ``int`` — explicit W, clamped to ``1..R``.

Soft refusals (:class:`~repro.errors.ServerBusy`) count as missing acks
but are **not** health strikes — the server is alive, it shed load;
striking it would amplify overload into spurious failover
(docs/OVERLOAD.md).

The rules are written once, free of IO: :meth:`QuorumWriter.steps` (and
:meth:`repro.consistency.readrepair.VersionedReader.steps`) yields waves
of store operations and is sent their results.  :func:`drive` runs the
steps against a replica store one operation at a time; the live clients
run the same steps over the wire (:mod:`repro.protocol.rnbclient`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consistency.version import VersionClock, VersionStamp
from repro.errors import ConfigurationError, ProtocolError, ServerBusy

#: errors that mean "this replica did not take the write"
WRITE_ERRORS = (ProtocolError, ConnectionError, OSError)

COMMITTED = "committed"  #: >= W acks and every replica took the write
PARTIAL = "partial"  #: committed, but some replica missed — divergence seeded
FAILED = "failed"  #: fewer than W acks (or leader down in leader mode)
REJECTED = "rejected"  #: refused before any replica was attempted (no quorum)


def resolve_w(w, r: int) -> int:
    """Number of acks policy ``w`` demands at replication level ``r``."""
    if r < 1:
        raise ConfigurationError("replication level must be >= 1")
    if w == "majority":
        return r // 2 + 1
    if w == "all":
        return r
    if w == "leader":
        return 1
    if isinstance(w, int) and not isinstance(w, bool):
        return max(1, min(w, r))
    raise ConfigurationError(
        f"w must be 'majority', 'all', 'leader' or an int; got {w!r}"
    )


def drive(steps, store):
    """Run a step generator against a replica store, one operation at a time.

    ``steps`` yields waves — lists of ``("read" | "write", sid, args)``, the
    store method, the server and the rest of its arguments — and is sent
    one result per operation, in order: what the store returned, or the
    :data:`WRITE_ERRORS` instance it raised.  Returns what ``steps`` returns.
    """
    try:
        ops = next(steps)
        while True:
            results = []
            for op, sid, args in ops:
                try:
                    results.append(getattr(store, op)(sid, *args))
                except WRITE_ERRORS as exc:
                    results.append(exc)
            ops = steps.send(results)
    except StopIteration as stop:
        return stop.value


@dataclass(frozen=True, slots=True)
class WriteOutcome:
    """What one quorum write achieved."""

    key: object
    stamp: VersionStamp | None  #: None iff the write was REJECTED at the gate
    #: replica servers that acknowledged the write, placement order
    acked: tuple[int, ...]
    #: replica servers that did not (dead, refused, or shedding)
    failed: tuple[int, ...]
    w: int  #: acks that were required
    outcome: str  #: COMMITTED / PARTIAL / FAILED / REJECTED

    @property
    def committed(self) -> bool:
        return self.outcome not in (FAILED, REJECTED)

    @property
    def retryable(self) -> bool:
        """Rejected writes touched no replica: safe to retry verbatim
        once the client regains quorum (failed writes may have seeded
        partial state and need read-repair first)."""
        return self.outcome == REJECTED

    @property
    def divergent(self) -> bool:
        """Did this write leave replicas disagreeing (committed but not
        everywhere)?  Failed writes seed divergence too when any ack
        landed."""
        return bool(self.failed) and bool(self.acked)


class QuorumWriter:
    """Versioned replicated writes over a replica store.

    Parameters
    ----------
    store:
        A replica store (:mod:`repro.consistency.store`).
    placer:
        Placement policy; ``servers_for(key)[0]`` is the distinguished
        copy (leader).
    clock:
        The writer's :class:`VersionClock`; defaults to a fresh writer-0
        clock at epoch 0.
    w:
        Commit policy — see module docstring.
    health:
        Optional :class:`~repro.faults.health.HealthTracker`; hard write
        errors strike it exactly like read errors do.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; writes are
        counted into ``rnb_quorum_writes_total{outcome=...}`` and acks
        into ``rnb_quorum_acks``.
    gate:
        Optional zero-arg callable consulted *before* any replica is
        attempted.  Falsy means "this writer must not write now" — the
        write returns a :data:`REJECTED` outcome (retryable, no stamp
        consumed, no replica touched).  Pass a membership service's
        ``has_quorum`` so clients on the minority side of a partition
        refuse cleanly instead of seeding divergence
        (docs/PARTITIONS.md).
    """

    def __init__(
        self,
        store,
        placer,
        *,
        clock: VersionClock | None = None,
        w="majority",
        health=None,
        metrics=None,
        gate=None,
    ) -> None:
        resolve_w(w, getattr(placer, "replication", 1))  # validate eagerly
        self.store = store
        self.placer = placer
        self.clock = clock if clock is not None else VersionClock()
        self.w = w
        self.health = health
        self.gate = gate
        self._counters = None
        self._ack_hist = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry, **labels) -> None:
        self._counters = {
            outcome: registry.counter(
                "rnb_quorum_writes_total",
                "quorum writes by outcome",
                outcome=outcome,
                **labels,
            )
            for outcome in (COMMITTED, PARTIAL, FAILED, REJECTED)
        }
        self._ack_hist = registry.histogram(
            "rnb_quorum_acks",
            "replica acks landed per quorum write",
            **labels,
        )

    def write(self, key, payload: bytes = b"") -> WriteOutcome:
        """Write ``key`` to its replica set; commit at W acks.

        Every replica is attempted regardless of how many acks have
        already landed — the goal is full replication; W only decides
        whether the caller may consider the write durable.
        """
        return drive(self.steps(key, payload), self.store)

    def steps(self, key, payload: bytes = b""):
        """:meth:`write` as store steps (see :func:`drive`): one wave, a
        write to every replica."""
        replicas = tuple(self.placer.servers_for(key))
        need = resolve_w(self.w, len(replicas))
        if self.gate is not None and not self.gate():
            # refused before any replica attempt: no stamp consumed, no
            # divergence seeded — the caller retries after regaining
            # quorum, with the verdict visible in the outcome
            if self._counters is not None:
                self._counters[REJECTED].inc()
            return WriteOutcome(
                key=key,
                stamp=None,
                acked=(),
                failed=(),
                w=need,
                outcome=REJECTED,
            )
        stamp = self.clock.next_stamp()
        results = yield [("write", sid, (key, payload, stamp)) for sid in replicas]
        acked: list[int] = []
        failed: list[int] = []
        for sid, res in zip(replicas, results):
            if isinstance(res, ServerBusy):
                failed.append(sid)  # shed, not sick: no health strike
            elif isinstance(res, BaseException):
                failed.append(sid)
                if self.health is not None:
                    self.health.record_error(sid)
            else:
                acked.append(sid)
                if self.health is not None:
                    self.health.record_success(sid)
        committed = len(acked) >= need
        if self.w == "leader" and replicas and replicas[0] not in acked:
            committed = False  # the copy of record itself missed the write
        if not committed:
            outcome = FAILED
        elif failed:
            outcome = PARTIAL
        else:
            outcome = COMMITTED
        if self._counters is not None:
            self._counters[outcome].inc()
            self._ack_hist.observe(float(len(acked)))
        return WriteOutcome(
            key=key,
            stamp=stamp,
            acked=tuple(acked),
            failed=tuple(failed),
            w=need,
            outcome=outcome,
        )

    def write_many(self, keys, payload: bytes = b"") -> list[WriteOutcome]:
        """Convenience burst write (the chaos experiment's inner loop)."""
        return [self.write(key, payload) for key in keys]
