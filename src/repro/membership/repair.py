"""Re-replication repair: what must move between two topology epochs.

When membership changes, some (item, replica) assignments appear (they
must be **copied** onto their new server from a surviving source) and
some disappear (they may be **dropped** to reclaim memory).  The
functions here compute that delta as pure data — reusable both by the
online repair path and by analyses like ``experiments/growth.py`` — and
:class:`RepairExecutor` applies it at a bounded rate so repair traffic
can be traded off against foreground TPR, the replication-maintenance
concern of *Content Replication in Large Distributed Caches*.

The delta is computed between two *placement functions*, not two
placers, so any pair of ``servers_for`` callables works: two epochs of
one :class:`~repro.membership.epoched.EpochedPlacer`, or two independent
placers (the legacy growth-churn measurement).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ProtocolError


@dataclass(frozen=True, slots=True)
class CopyOp:
    """Copy ``item`` onto ``target`` reading from ``source``.

    ``pin`` marks the copy as the item's (new) distinguished copy, which
    the executor installs pinned.  ``source`` is ``None`` when no old
    replica survives anywhere (backing-store fetch).
    """

    item: object
    target: int
    source: int | None
    pin: bool = False


@dataclass(frozen=True, slots=True)
class DropOp:
    """Assignment removed by the new epoch: ``item`` leaves ``server``."""

    item: object
    server: int


@dataclass(frozen=True, slots=True)
class PinOp:
    """Promotion without traffic: ``server`` already replicates ``item``
    and becomes its distinguished home — the copy just gets pinned."""

    item: object
    server: int


@dataclass(slots=True)
class EpochDelta:
    """Everything that must move to go from one placement to another.

    ``copies``/``drops`` are the per-assignment work lists; the remaining
    fields are the aggregate accounting the experiments report.
    """

    copies: tuple[CopyOp, ...]
    drops: tuple[DropOp, ...]
    #: old distinguished homes that survive as plain replicas — their copy
    #: must be unpinned (demoted) so memory accounting stays truthful
    demotions: tuple[DropOp, ...]
    #: promoted servers that already replicate the item (pin flip, no copy)
    pin_flips: tuple[PinOp, ...]
    promotions: int  #: items whose distinguished server changed
    n_items: int  #: items examined
    n_assignments: int  #: total (item, replica) assignments in the OLD placement
    items_touched: int  #: items whose replica set changed at all
    per_server_incoming: dict[int, int] = field(default_factory=dict)
    per_server_outgoing: dict[int, int] = field(default_factory=dict)

    @property
    def repair_traffic_items(self) -> int:
        """Item-units that must cross the network (one per copy)."""
        return len(self.copies)

    @property
    def churn_fraction(self) -> float:
        """Moved assignments / total old assignments (the growth metric)."""
        if self.n_assignments == 0:
            return 0.0
        return len(self.copies) / self.n_assignments


def compute_epoch_delta(
    old_placement: Callable[[object], Sequence[int]],
    new_placement: Callable[[object], Sequence[int]],
    items: Iterable[object],
    *,
    alive: Iterable[int] | None = None,
) -> EpochDelta:
    """Delta between two placement functions over ``items``.

    ``alive`` (when given) names the servers that can *source* a copy —
    an old replica on a dead server cannot be read from.  Sources are
    chosen as the first old replica that survives into the alive set
    (distinguished first, matching the read path's preference).
    """
    alive_set = None if alive is None else frozenset(alive)
    copies: list[CopyOp] = []
    drops: list[DropOp] = []
    demotions: list[DropOp] = []
    pin_flips: list[PinOp] = []
    promotions = 0
    n_items = 0
    n_assignments = 0
    items_touched = 0
    incoming: Counter[int] = Counter()
    outgoing: Counter[int] = Counter()
    for item in items:
        n_items += 1
        old = tuple(old_placement(item))
        new = tuple(new_placement(item))
        n_assignments += len(old)
        if old == new:
            continue
        items_touched += 1
        old_set, new_set = set(old), set(new)
        if old and new and old[0] != new[0]:
            promotions += 1
            if old[0] in new_set:
                demotions.append(DropOp(item=item, server=old[0]))
            if new[0] in old_set:
                pin_flips.append(PinOp(item=item, server=new[0]))
        sources = [
            s for s in old if alive_set is None or s in alive_set
        ]
        source = sources[0] if sources else None
        for target in new:
            if target in old_set:
                continue
            pin = target == new[0]
            copies.append(CopyOp(item=item, target=target, source=source, pin=pin))
            incoming[target] += 1
            if source is not None:
                outgoing[source] += 1
        for server in old:
            if server not in new_set:
                drops.append(DropOp(item=item, server=server))
    return EpochDelta(
        copies=tuple(copies),
        drops=tuple(drops),
        demotions=tuple(demotions),
        pin_flips=tuple(pin_flips),
        promotions=promotions,
        n_items=n_items,
        n_assignments=n_assignments,
        items_touched=items_touched,
        per_server_incoming=dict(incoming),
        per_server_outgoing=dict(outgoing),
    )


class RepairExecutor:
    """Applies :class:`EpochDelta` work lists at a bounded rate.

    The executor is transport-agnostic: ``copy_fn(op)`` materialises one
    copy (simulator: insert into the target server's store; protocol:
    read from the source connection, ``set`` on the target) and
    ``drop_fn(op)`` reclaims one stale assignment.  Drops are applied
    immediately on submit (they free memory and cost no traffic); copies
    are queued FIFO and drained by :meth:`step`, ``budget`` items at a
    time — the repair-rate throttle.
    """

    def __init__(
        self,
        copy_fn: Callable[[CopyOp], None],
        drop_fn: Callable[[DropOp], None] | None = None,
        demote_fn: Callable[[DropOp], None] | None = None,
        pin_fn: Callable[[PinOp], None] | None = None,
    ) -> None:
        self.copy_fn = copy_fn
        self.drop_fn = drop_fn
        self.demote_fn = demote_fn
        self.pin_fn = pin_fn
        self._queue: list[CopyOp] = []
        self._enqueued = 0  # monotone: copies ever submitted
        self._applied = 0  # monotone: copies ever executed
        self.drops_applied = 0
        self.batches: list[dict] = []  #: one record per submitted delta

    @property
    def copies_applied(self) -> int:
        return self._applied

    def bind_metrics(self, registry, **labels) -> None:
        """Expose repair progress as callback gauges on an obs registry.

        ``rnb_repair_pending`` is the live copy backlog;
        ``rnb_repair_copies_enqueued`` / ``rnb_repair_copies_applied`` /
        ``rnb_repair_drops_applied`` are monotone totals, and
        ``rnb_repair_batches_open`` counts submitted deltas whose last
        copy has not landed yet.  This is the supported way to watch
        repair progress (docs/OBSERVABILITY.md); the underscore fields
        are private.
        """
        registry.gauge(
            "rnb_repair_pending",
            "repair copies queued but not yet applied",
            fn=lambda: float(self.pending()),
            **labels,
        )
        registry.gauge(
            "rnb_repair_copies_enqueued",
            "lifetime repair copies submitted",
            fn=lambda: float(self._enqueued),
            **labels,
        )
        registry.gauge(
            "rnb_repair_copies_applied",
            "lifetime repair copies executed",
            fn=lambda: float(self._applied),
            **labels,
        )
        registry.gauge(
            "rnb_repair_drops_applied",
            "lifetime stale assignments reclaimed",
            fn=lambda: float(self.drops_applied),
            **labels,
        )
        registry.gauge(
            "rnb_repair_batches_open",
            "submitted deltas still draining",
            fn=lambda: float(
                sum(1 for r in self.batches if r["completed_at"] is None)
            ),
            **labels,
        )

    def submit(self, delta: EpochDelta, *, tag: object = None) -> dict:
        """Queue a delta's copies; apply its drops immediately.

        Returns the batch record, which gains ``"completed_at"`` (the
        ``clock`` passed to :meth:`step`) when its last copy lands.
        """
        if self.drop_fn is not None:
            for op in delta.drops:
                self.drop_fn(op)
            self.drops_applied += len(delta.drops)
        if self.demote_fn is not None:
            for op in delta.demotions:
                self.demote_fn(op)
        if self.pin_fn is not None:
            for op in delta.pin_flips:
                self.pin_fn(op)
        self._enqueued += len(delta.copies)
        record = {
            "tag": tag,
            "n_copies": len(delta.copies),
            "end_seq": self._enqueued,  # fully applied once _applied >= this
            "completed_at": "immediate" if not delta.copies else None,
        }
        self._queue.extend(delta.copies)
        self.batches.append(record)
        return record

    def step(self, budget: int, *, clock: object = None) -> int:
        """Apply up to ``budget`` queued copies; returns how many ran.

        ``clock`` (any value — typically the current tick) is stamped
        onto batch records as they complete, giving time-to-full-R.
        """
        if budget < 0:
            raise ConfigurationError("budget must be >= 0")
        done = min(budget, len(self._queue))
        for op in self._queue[:done]:
            self.copy_fn(op)
        del self._queue[:done]
        self._applied += done
        if done:
            for record in self.batches:
                if record["completed_at"] is None and record["end_seq"] <= self._applied:
                    record["completed_at"] = clock
        return done

    def drain(self, *, clock: object = None) -> int:
        """Run the queue dry (no throttle); returns copies applied."""
        return self.step(self.pending(), clock=clock)

    def pending(self) -> int:
        return len(self._queue)


def cluster_repair_fns(cluster, placer):
    """``(copy_fn, drop_fn, demote_fn, pin_fn)`` applying repair through
    a simulated cluster.

    Copies land in the target server's two-class store — pinned when the
    copy is the item's new distinguished home (promotion installs the
    pin), plain replica insert otherwise, so ``memory_factor`` budgets
    keep applying to repair traffic exactly as to foreground traffic.
    Drops unpin/discard, releasing the memory to the LRU; demotions
    convert an old distinguished copy that survives as a plain replica.
    """

    def copy(op: CopyOp) -> None:
        store = cluster.servers[op.target].store
        if op.pin or placer.distinguished_for(op.item) == op.target:
            store.pin(op.item)
        else:
            store.put(op.item)

    def drop(op: DropOp) -> None:
        store = cluster.servers[op.server].store
        store.unpin(op.item)
        store.discard(op.item)

    def demote(op: DropOp) -> None:
        store = cluster.servers[op.server].store
        if store.unpin(op.item):
            store.put(op.item)

    def pin(op: PinOp) -> None:
        cluster.servers[op.server].store.pin(op.item)

    return copy, drop, demote, pin


def protocol_repair_fns(connections):
    """``(copy_fn, drop_fn)`` applying repair over live memcached
    connections (``{server_id: MemcachedConnection}``).

    A copy reads the value from the op's surviving source replica and
    writes it to the target; when no replica survived (``source is
    None``) the item is left to the backing store / next miss-repair.
    Drops swallow transport errors — a drop targeting a *dead* server
    (the usual case after a removal) has nothing to reclaim, and repair
    must never fail because an already-failed host is unreachable.
    Memcached has no pinning, so demotions and pin flips have no
    protocol-level action (pass these two as ``None`` to
    :class:`RepairExecutor`).
    """

    def copy(op: CopyOp) -> None:
        if op.source is None:
            return
        value = connections[op.source].get(op.item)
        if value is not None:
            connections[op.target].set(op.item, value)

    def drop(op: DropOp) -> None:
        try:
            connections[op.server].delete(op.item)
        except (ConnectionError, OSError, ProtocolError):
            pass  # dead/unreachable server: its memory is already gone

    return copy, drop
