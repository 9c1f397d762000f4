"""Versioned reads with divergence detection and read-repair.

A :class:`VersionedReader` reads **all** R replicas of a key, orders
what it saw by version stamp, and classifies each replica:

* *newest* — holds the winning stamp (ties are fine: same stamp means
  same write);
* *stale* — holds an older stamp (e.g. missed a later quorum write);
* *missing* — alive but has no copy (evicted, wiped, or never written);
* *dead* — unreachable; nothing can be said about its copy.

When divergence is seen and a newest copy exists, the reader repairs:
either **inline** (overwrite the stale/missing replicas with the newest
version before returning) or **throttled** through a
:class:`~repro.membership.repair.RepairExecutor` — repairs become
:class:`~repro.membership.repair.CopyOp` submissions drained at the
executor's budget, so a divergence storm after a fault cannot starve
foreground traffic (the PR-2 repair-rate trade-off applies unchanged).
Newest-wins is safe because stamps are totally ordered
(:mod:`repro.consistency.version`): repair is idempotent and
commutative, the fixed point is all replicas at the max stamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consistency.quorum import WRITE_ERRORS, drive
from repro.consistency.version import VersionStamp, newer
from repro.membership.repair import CopyOp, EpochDelta, RepairExecutor

STALE = "stale"
MISSING = "missing"


def _one_key_delta(copies: tuple[CopyOp, ...], r: int) -> EpochDelta:
    """Wrap read-repair copies as a minimal one-item delta for the
    executor (drops/demotions/pin bookkeeping do not apply here)."""
    return EpochDelta(
        copies=copies,
        drops=(),
        demotions=(),
        pin_flips=(),
        promotions=0,
        n_items=1,
        n_assignments=r,
        items_touched=1,
    )


@dataclass(frozen=True, slots=True)
class ReadOutcome:
    """Everything one versioned read learned about a key's replicas."""

    key: object
    stamp: VersionStamp | None  #: winning stamp; None if no copy found
    payload: bytes | None
    source: int | None  #: server the winning copy was read from
    newest: tuple[int, ...]  #: replicas already at the winning stamp
    stale: tuple[int, ...]
    missing: tuple[int, ...]
    dead: tuple[int, ...]
    repaired: tuple[int, ...]  #: replicas overwritten inline
    queued: int  #: repairs submitted to the executor instead
    #: the read was served distinguished-only because the reader's gate
    #: reported no quorum (partition minority) — weaker freshness, no repair
    degraded: bool = False

    @property
    def found(self) -> bool:
        return self.stamp is not None or self.payload is not None

    @property
    def divergent(self) -> bool:
        """Did alive replicas disagree about this key?"""
        return bool(self.stale or (self.missing and self.newest))


class VersionedReader:
    """Read-all / repair-divergent versioned reads over a replica store.

    ``executor`` switches repair from inline to throttled; pass the one
    built by :func:`make_repair_executor` (its ``copy_fn`` re-reads the
    source at drain time, so late repairs still install the newest
    version).  ``clock`` (a :class:`~repro.consistency.version.
    VersionClock`) is advanced past every stamp read, keeping this
    client's future writes causally after what it has seen.

    ``gate`` (a zero-arg callable, same contract as
    :class:`~repro.consistency.quorum.QuorumWriter`'s) switches the
    reader into **degraded distinguished-only mode** while falsy: only
    the key's distinguished home is read and no repair is attempted —
    on the minority side of a partition a read-all would classify every
    unreachable majority replica as dead and, worse, "repair" reachable
    replicas from a possibly-stale local copy.  Degraded reads are
    marked on the outcome and counted into ``rnb_reads_degraded_total``.
    """

    def __init__(
        self,
        store,
        placer,
        *,
        clock=None,
        health=None,
        metrics=None,
        executor: RepairExecutor | None = None,
        gate=None,
    ) -> None:
        self.store = store
        self.placer = placer
        self.clock = clock
        self.health = health
        self.executor = executor
        self.gate = gate
        self._div_counters = None
        self._repair_counters = None
        self._degraded_counter = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry, **labels) -> None:
        self._div_counters = {
            kind: registry.counter(
                "rnb_divergences_total",
                "replica divergences detected by versioned reads",
                kind=kind,
                **labels,
            )
            for kind in (STALE, MISSING)
        }
        self._repair_counters = {
            mode: registry.counter(
                "rnb_divergence_repairs_total",
                "read-repair actions by dispatch mode",
                mode=mode,
                **labels,
            )
            for mode in ("inline", "queued", "failed")
        }
        self._degraded_counter = registry.counter(
            "rnb_reads_degraded_total",
            "versioned reads served distinguished-only for lack of quorum",
            **labels,
        )

    def read(self, key, *, repair: bool = True) -> ReadOutcome:
        """Read every replica of ``key``; repair divergence if asked.

        Without quorum (``gate`` falsy) the read degrades to the
        distinguished home only — see the class docstring.
        """
        return drive(self.steps(key, repair=repair), self.store)

    def steps(self, key, *, repair: bool = True):
        """:meth:`read` as store steps (:func:`~repro.consistency.quorum.drive`):
        a wave of reads, then at most one wave of inline repair writes."""
        if self.gate is not None and not self.gate():
            return (yield from self._read_degraded(key))
        replicas = tuple(self.placer.servers_for(key))
        records = yield [("read", sid, (key,)) for sid in replicas]
        seen: dict[int, tuple[VersionStamp | None, bytes]] = {}
        missing: list[int] = []
        dead: list[int] = []
        for sid, record in zip(replicas, records):
            if isinstance(record, BaseException):
                dead.append(sid)
                if self.health is not None:
                    self.health.record_error(sid)
                continue
            if self.health is not None:
                self.health.record_success(sid)
            if record is None:
                missing.append(sid)
            else:
                seen[sid] = record
        best: VersionStamp | None = None
        source: int | None = None
        payload: bytes | None = None
        for sid in replicas:
            if sid not in seen:
                continue
            stamp, data = seen[sid]
            if self.clock is not None:
                self.clock.observe(stamp)
            if source is None or newer(stamp, best):
                best, source, payload = stamp, sid, data
        newest = tuple(
            sid for sid, (stamp, _) in seen.items() if not newer(best, stamp)
        )
        stale = tuple(sid for sid in seen if sid not in newest)
        if self._div_counters is not None:
            if stale:
                self._div_counters[STALE].inc(len(stale))
            if missing and newest:
                self._div_counters[MISSING].inc(len(missing))
        repaired: tuple[int, ...] = ()
        n_queued = 0
        targets = (stale + tuple(missing)) if newest else ()
        if repair and targets and source is not None:
            repaired, n_queued = yield from self._repair(key, source, best, payload, targets)
        return ReadOutcome(
            key=key,
            stamp=best,
            payload=payload,
            source=source,
            newest=newest,
            stale=stale,
            missing=tuple(missing),
            dead=tuple(dead),
            repaired=repaired,
            queued=n_queued,
        )

    def _read_degraded(self, key):
        """Distinguished-only read: one replica, no classification work,
        no repair — the weakest honest answer while quorum is lost."""
        home = self.placer.distinguished_for(key)
        if self._degraded_counter is not None:
            self._degraded_counter.inc()
        [record] = yield [("read", home, (key,))]
        if isinstance(record, BaseException):
            if self.health is not None:
                self.health.record_error(home)
            return ReadOutcome(
                key=key, stamp=None, payload=None, source=None,
                newest=(), stale=(), missing=(), dead=(home,),
                repaired=(), queued=0, degraded=True,
            )
        if self.health is not None:
            self.health.record_success(home)
        if record is None:
            return ReadOutcome(
                key=key, stamp=None, payload=None, source=None,
                newest=(), stale=(), missing=(home,), dead=(),
                repaired=(), queued=0, degraded=True,
            )
        stamp, payload = record
        if self.clock is not None:
            self.clock.observe(stamp)
        return ReadOutcome(
            key=key, stamp=stamp, payload=payload, source=home,
            newest=(home,), stale=(), missing=(), dead=(),
            repaired=(), queued=0, degraded=True,
        )

    def _repair(self, key, source, stamp, payload, targets):
        """Overwrite ``targets`` with the newest version — inline, or as
        a throttled executor submission."""
        if self.executor is not None:
            copies = tuple(
                CopyOp(
                    item=key,
                    target=sid,
                    source=source,
                    pin=self.placer.distinguished_for(key) == sid,
                )
                for sid in targets
            )
            self.executor.submit(
                _one_key_delta(copies, len(self.placer.servers_for(key))),
                tag=("read_repair", key),
            )
            if self._repair_counters is not None:
                self._repair_counters["queued"].inc(len(copies))
            return (), len(copies)
        results = yield [("write", sid, (key, payload or b"", stamp)) for sid in targets]
        repaired: list[int] = []
        for sid, res in zip(targets, results):
            if isinstance(res, BaseException):
                # the replica died between detection and repair; the
                # scrubber will converge it after recovery
                if self._repair_counters is not None:
                    self._repair_counters["failed"].inc()
                if self.health is not None:
                    self.health.record_error(sid)
            else:
                repaired.append(sid)
        if self._repair_counters is not None and repaired:
            self._repair_counters["inline"].inc(len(repaired))
        return tuple(repaired), 0


def make_repair_executor(store, *, metrics=None, **labels) -> RepairExecutor:
    """A :class:`RepairExecutor` whose copies replay the *current*
    newest version through a replica store.

    The source is re-read at drain time, not capture time — if further
    writes landed while the op sat in the queue, the repair installs the
    later version (still newest-wins).  A source that died in the
    meantime makes the op a no-op; the scrubber picks the key up later.
    """

    def copy(op: CopyOp) -> None:
        if op.source is None:
            return
        try:
            record = store.read(op.source, op.item)
            if record is None:
                return
            stamp, payload = record
            if stamp is None:
                return
            store.write(op.target, op.item, payload or b"", stamp)
        except WRITE_ERRORS:
            pass  # dead source or target: anti-entropy converges it later

    executor = RepairExecutor(copy)
    if metrics is not None:
        executor.bind_metrics(metrics, role="read_repair", **labels)
    return executor
