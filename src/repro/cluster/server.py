"""A simulated memcached server.

The server model tracks exactly what the paper's metrics need: every
multi-get counts one *transaction*; per-transaction item counts feed the
throughput calibration; hits/misses come from a two-class LRU when memory
is limited (sections III-B to III-D).

Items are presence-only (all items are the same size, section III-B); a
server therefore stores keys, not values.  The live key-value protocol
implementation lives in :mod:`repro.protocol` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.lru import PinnedLRU
from repro.errors import ServerBusy
from repro.types import ItemId
from repro.utils.histogram import Histogram


@dataclass(slots=True)
class ServerCounters:
    """Work counters for one server (reset between warmup and measure)."""

    transactions: int = 0
    items_requested: int = 0
    items_returned: int = 0
    hits: int = 0
    misses: int = 0
    hitchhiker_hits: int = 0
    hitchhiker_misses: int = 0
    writes: int = 0
    txn_sizes: Histogram = field(default_factory=Histogram)

    def reset(self) -> None:
        self.transactions = 0
        self.items_requested = 0
        self.items_returned = 0
        self.hits = 0
        self.misses = 0
        self.hitchhiker_hits = 0
        self.hitchhiker_misses = 0
        self.writes = 0
        self.txn_sizes = Histogram()


class Server:
    """One storage node.

    Parameters
    ----------
    server_id:
        Id within the cluster.
    replica_capacity:
        LRU capacity (item units) for *replica* copies; distinguished
        copies are pinned separately and never evicted.  ``None`` means
        unlimited (the naive allocation of Fig 6, where physical memory
        equals replication level times the item count).
    """

    def __init__(
        self,
        server_id: int,
        replica_capacity: int | None = None,
        *,
        store=None,
    ) -> None:
        self.server_id = server_id
        # any PinnedLRU-compatible two-class store may be injected (e.g.
        # PriorityClassStore for the shared-budget policy ablation)
        self.store = store if store is not None else PinnedLRU(replica_capacity)
        self.counters = ServerCounters()
        #: per-key version stamps (repro.consistency); items are
        #: presence-only so the "value envelope" on the simulated path is
        #: (presence, stamp).  Keys written by unversioned paths simply
        #: have no entry here, which decodes as stamp None.
        self.stamps: dict[ItemId, object] = {}
        #: latency inflation for slow servers (set by the fault injector;
        #: consumed by latency models — 1.0 means healthy)
        self.latency_multiplier: float = 1.0
        #: optional backpressure gate (repro.overload.load.AdmissionControl);
        #: None — the default — admits everything, exactly as before
        self.admission = None
        self._admission_clock: float = 0.0

    # -- provisioning ---------------------------------------------------

    def pin_distinguished(self, items: Iterable[ItemId]) -> None:
        """Install the distinguished copies this server is home to."""
        self.store.pin_all(items)

    def preload_replicas(self, items: Iterable[ItemId]) -> None:
        """Load replica copies, in order, as one ``put`` per item would."""
        self.store.put_all(items)

    # -- the transaction ------------------------------------------------

    def multi_get(
        self,
        primary: Sequence[ItemId],
        hitchhikers: Sequence[ItemId] = (),
    ) -> tuple[list[ItemId], list[ItemId], list[ItemId]]:
        """Serve one multi-get transaction.

        Returns ``(hits, misses, hitchhiker_hits)`` over the primary and
        hitchhiker item lists.  Per the paper's policy (section III-C2)
        the LRU is updated for primary hits and for hitchhiker *hits*,
        never for hitchhiker misses.
        """
        if not primary and not hitchhikers:
            raise ValueError("a transaction must request at least one item")
        if self.admission is not None and not self.admission.try_admit(
            now=self._admission_clock
        ):
            raise ServerBusy(
                f"server {self.server_id} shed a {len(primary)}-item transaction"
            )
        hits, misses = self.store.touch_many(primary)
        hh_hits: list[ItemId] = []
        if hitchhikers:
            hh_hits, hh_misses = self.store.touch_many(hitchhikers)
            self.counters.hitchhiker_misses += len(hh_misses)
        c = self.counters
        c.transactions += 1
        n_req = len(primary) + len(hitchhikers)
        c.items_requested += n_req
        c.items_returned += len(hits) + len(hh_hits)
        c.hits += len(hits)
        c.misses += len(misses)
        c.hitchhiker_hits += len(hh_hits)
        c.txn_sizes.add(n_req)
        return hits, misses, hh_hits

    def attach_admission(self, admission) -> None:
        """Install a backpressure gate; ``multi_get`` raises
        :class:`repro.errors.ServerBusy` when it rejects."""
        self.admission = admission

    def advance_admission_clock(self, dt: float) -> None:
        """Move the admission token-bucket clock (logical time; the
        caller — a tick loop or test — owns the time domain)."""
        if dt > 0:
            self._admission_clock += dt

    def write_back(self, item: ItemId, *, stamp=None) -> None:
        """Insert a replica copy after a DB fetch (miss path).

        ``stamp`` (a :class:`repro.consistency.version.VersionStamp`)
        carries the version of the copy being installed — miss repair
        propagates the stamp it read from the source replica so
        write-backs never masquerade as fresh writes.  ``None`` installs
        the copy unversioned: a stamp left behind by an earlier, evicted
        copy must not describe this one, so it is dropped — as it is when
        the copy does not land.
        """
        self.store.put(item)
        if stamp is not None and item in self.store:
            self.stamps[item] = stamp
        else:
            self.stamps.pop(item, None)
        self.counters.writes += 1

    def record_write_backs(self, items: Sequence[ItemId], stamps: Sequence | None) -> None:
        """Finish :meth:`write_back` for copies the store has already put.

        ``PinnedLRU.replay`` puts a run of misses as it serves them; this
        sets or drops each copy's stamp and counts the writes, in the
        order one :meth:`write_back` per item would.  ``stamps=None``
        installs every copy unversioned.  Only a store with no replica
        space drops a copy it is given, and the copy's stamp with it.
        """
        own = self.stamps
        if stamps is not None and self.store.replica_capacity != 0:
            for item, stamp in zip(items, stamps):
                if stamp is None:
                    own.pop(item, None)
                else:
                    own[item] = stamp
        elif own:
            for item in items:
                own.pop(item, None)
        self.counters.writes += len(items)

    def wipe(self) -> None:
        """Lose all stored data (crash): capacity survives, contents do not."""
        self.store.wipe()
        self.stamps.clear()

    # -- introspection ----------------------------------------------------

    @property
    def resident_items(self) -> int:
        return len(self.store)

    @property
    def pinned_items(self) -> int:
        return self.store.n_pinned

    def resident_keys(self) -> list:
        """Every key this server currently holds (pinned + replicas),
        deterministically ordered — the scrubber's scan surface."""
        return self.store.pinned_keys() + self.store.replica_keys()

    def reset_counters(self) -> None:
        self.counters.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Server(id={self.server_id}, pinned={self.store.n_pinned}, "
            f"replicas={self.store.n_replicas}, txns={self.counters.transactions})"
        )
