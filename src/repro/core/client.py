"""The RnB client: executes fetch plans against a cluster.

Implements the full read path of paper sections III-A/C/D:

1. **Round one** — issue the plan's transactions (cover + hitchhikers).
2. **Miss handling** — items that missed (their replica was evicted under
   overbooking) and were not rescued by a hitchhiker hit elsewhere are
   fetched in a **second round** from their *distinguished copies*, which
   are pinned and never miss.  Second-round fetches are bundled by
   distinguished server, "so the penalty is not exactly a transaction per
   miss" (section III-D).
3. **Write-back** — a missed item is written "only to the replica that
   was the first to be picked by the greedy set cover algorithm"
   (section III-C2), i.e. the server where the planned fetch missed.

LIMIT requests (section III-F) stop the second round as soon as the
required item count has been reached, and skip it entirely when round one
already returned enough.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError
from repro.types import ClusterStats, FetchPlan, FetchResult, ItemId, Request, RequestBlock
from repro.utils.histogram import first_seen_counts


def _by_server(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """A stable ``argsort`` of keys below ``n_keys`` (server ids): grouped
    by key, each group in its original order.  Keys fit a byte up to 256,
    and NumPy sorts 8- and 16-bit keys by radix, several times faster than
    int64."""
    return np.argsort(keys.astype(np.min_scalar_type(n_keys - 1)), kind="stable")


def _require_homes(lost: np.ndarray, items: np.ndarray, homes: np.ndarray) -> None:
    """Raise unless every one of ``items`` is pinned on its home, the
    matching entry of ``homes``: ``lost`` flags, per item id, a home that
    does not pin it.  Distinguished copies never miss, so a lost one is a
    mis-provisioned cluster (a wiped or unpinned home).  Names the lowest
    such home and its lost items, in order."""
    bad = lost.take(items)
    if bad.any():
        home = int(homes[bad].min())
        absent = items[bad & (homes == home)].tolist()
        raise ConfigurationError(f"distinguished copies missing on server {home}: {absent}")


def fold_counters(
    fleet: list,
    txn_servers: np.ndarray,
    txn_sizes: np.ndarray,
    missed_on: list[int] | None = None,
) -> None:
    """Count a chunk's transactions, in execution order, on their servers.

    Hitchhiker-free transactions: ``missed_on[sid]`` of the items sent to
    server ``fleet[sid]`` missed, every other one hit.  One ``bincount``
    per counter and one pass per distinct ``(server, size)`` pair, in
    first-seen order — the key order ``Histogram.add`` per transaction
    would leave.
    """
    if not len(txn_servers):
        return
    counters = [server.counters for server in fleet]
    missed_on = missed_on or [0] * len(counters)
    transactions = np.bincount(txn_servers, minlength=len(counters)).tolist()
    # float64 weights: exact, item counts stay far below 2**53
    items = np.bincount(txn_servers, weights=txn_sizes, minlength=len(counters))
    for c, n, n_items, n_missed in zip(
        counters, transactions, items.astype(np.int64).tolist(), missed_on
    ):
        c.transactions += n
        c.items_requested += n_items
        c.items_returned += n_items - n_missed
        c.hits += n_items - n_missed
        c.misses += n_missed
    histograms = [c.txn_sizes.counts for c in counters]
    stride = int(txn_sizes.max()) + 1
    keys, ns = first_seen_counts(txn_servers * stride + txn_sizes)
    sids, sizes_seen = np.divmod(keys, stride)
    for sid, size, n in zip(sids.tolist(), sizes_seen.tolist(), ns.tolist()):
        sizes = histograms[sid]
        sizes[size] = sizes.get(size, 0) + n


class RnBClient:
    """Stateless front-end client executing RnB reads.

    Parameters
    ----------
    cluster:
        The simulated fleet to read from.
    bundler:
        Plan builder; its placer must be the cluster's placer, otherwise
        the client would look for replicas where none were provisioned.
    write_back:
        Write missed items back to the first-picked replica (paper
        policy).  Disable for ablation.
    """

    def __init__(
        self,
        cluster: Cluster,
        bundler: Bundler,
        *,
        write_back: bool = True,
    ) -> None:
        if bundler.placer is not cluster.placer:
            raise ConfigurationError(
                "bundler and cluster must share the same placer instance"
            )
        self.cluster = cluster
        self.bundler = bundler
        self.write_back = write_back
        # per item of the table, "its home does not pin it", as of each
        # store's pin_version in _pin_versions; _lost_on: the homes with a
        # flag set (see _lost_homes)
        self._lost: np.ndarray | None = None
        self._lost_on: set[int] = set()
        self._pin_versions: list[int] = []

    # -- public API -----------------------------------------------------------

    def execute(self, request: Request) -> FetchResult:
        """Serve one end-user request; returns per-request metrics."""
        plan = self.bundler.plan(request)
        return self.execute_plan(plan)

    def execute_plan(self, plan: FetchPlan) -> FetchResult:
        """Run one plan's round one, write-backs and round two.

        The per-request specification of the read path:
        :meth:`execute_chunk` is tested against it, and it serves every
        chunk that method cannot take.
        """
        request = plan.request
        obtained: set[ItemId] = set()
        missed: dict[ItemId, int] = {}  # item -> planned (first-picked) server
        servers_contacted: list[int] = []
        txn_sizes: list[int] = []
        items_transferred = 0

        # ---- round one ----
        for txn in plan.transactions:
            server = self.cluster.server(txn.server)
            hits, misses, hh_hits = server.multi_get(txn.primary, txn.hitchhikers)
            obtained.update(hits)
            obtained.update(hh_hits)
            for item in misses:
                missed[item] = txn.server
            servers_contacted.append(txn.server)
            txn_sizes.append(txn.n_items)
            items_transferred += len(hits) + len(hh_hits)

        # hitchhikers elsewhere may have rescued a miss
        still_missing = [i for i in missed if i not in obtained]
        distinguished_for = self.bundler.placer.distinguished_for
        homes = [distinguished_for(item) for item in still_missing]

        # ---- write-back of missed items (DB fetch side effect) ----
        if self.write_back:
            for item, home in zip(still_missing, homes):
                self.cluster.server(missed[item]).write_back(
                    item, stamp=self._authoritative_stamp(item, home)
                )

        # ---- round two: distinguished copies ----
        second_round = 0
        required = request.required_items
        if still_missing and len(obtained) < required:
            groups: dict[int, list[ItemId]] = defaultdict(list)
            for item, home in zip(still_missing, homes):
                groups[home].append(item)
            for server_id, group in self._second_round_order(groups):
                need = required - len(obtained)
                if need <= 0:
                    break
                fetch = group[:need] if request.limit_fraction is not None else group
                server = self.cluster.server(server_id)
                hits, misses2, _ = server.multi_get(fetch)
                # distinguished copies are pinned; a miss here means the
                # cluster was mis-provisioned
                if misses2:  # pragma: no cover - invariant guard
                    raise ConfigurationError(
                        f"distinguished copies missing on server {server_id}: {misses2}"
                    )
                obtained.update(hits)
                servers_contacted.append(server_id)
                txn_sizes.append(len(fetch))
                items_transferred += len(hits)
                second_round += 1

        return FetchResult(
            request=request,
            transactions=len(plan.transactions) + second_round,
            items_fetched=len(obtained),
            items_transferred=items_transferred,
            misses=len(missed),
            second_round_transactions=second_round,
            servers_contacted=tuple(servers_contacted),
            txn_sizes=tuple(txn_sizes),
        )

    def tally_footprint(
        self, request: Request, footprint: tuple[tuple[int, int], ...]
    ) -> FetchResult:
        """Account a plan that cannot miss, without walking the stores.

        ``footprint`` is the plan's ``(server, n_primary)`` pairs, as
        ``Bundler.plan_footprints`` returns them, so the fast path never
        materialises plan objects at all.

        Precondition (the caller's to guarantee — the simulation engine
        checks it once per run): every planned primary item is resident on
        its transaction's server and *stays* resident, i.e. unlimited
        memory (``memory_factor=None``, either LRU policy), no
        hitchhikers, and no fault injection.  Under naive allocation every
        logical replica is preloaded and nothing is ever evicted, so each
        ``multi_get`` would return all-hits and the recency reordering it
        performs can never influence anything observable.  This method
        applies exactly the counter updates those all-hit transactions
        would and returns the identical :class:`FetchResult` that
        ``execute_plan(plan(request))`` would (tested in
        ``tests/perf/test_plan_batch.py``).
        """
        servers = self.cluster.servers
        for sid, n in footprint:
            c = servers[sid].counters
            c.transactions += 1
            c.items_requested += n
            c.items_returned += n
            c.hits += n
            sizes = c.txn_sizes.counts  # Histogram.add(n), without the call
            sizes[n] = sizes.get(n, 0) + 1
        servers_contacted, txn_sizes = zip(*footprint) if footprint else ((), ())
        items_total = sum(txn_sizes)
        # positional: eight keywords cost a quarter of this method
        return FetchResult(
            request,
            len(footprint),  # transactions
            items_total,  # items_fetched
            items_total,  # items_transferred
            0,  # misses
            0,  # second_round_transactions
            servers_contacted,
            txn_sizes,
        )

    def tally_chunk(
        self, chunk: RequestBlock | Iterable[Request], stats: ClusterStats | None = None
    ) -> None:
        """Plan a chunk that cannot miss and account it, all at once.

        Under :meth:`tally_footprint`'s precondition this leaves every
        server's counters, and ``stats``, as planning each request of the
        chunk, tallying its footprint and recording the result in turn
        would (property-tested against exactly that, down to the key
        order of the histograms) — from the planner's arrays, with one
        ``bincount`` per counter and one pass per distinct
        ``(server, size)`` pair instead of one per transaction, and no
        :class:`FetchResult`.
        """
        txn_servers, txn_sizes, n_txns = self.bundler.plan_transactions(chunk)
        if stats is not None:
            stats.record_transactions(len(n_txns), txn_servers, txn_sizes)
        fold_counters(self.cluster.servers, txn_servers, txn_sizes)

    def execute_chunk(
        self, chunk: RequestBlock | Iterable[Request], stats: ClusterStats | None = None
    ) -> None:
        """Execute a chunk from the planner's arrays, a server at a time.

        The executor regime's :meth:`tally_chunk`: it leaves every store
        (LRU order, evictions, stamps), every server's counters and
        ``stats`` as planning the chunk, running :meth:`execute_plan` on
        each plan and recording each result would (property-tested
        against exactly that, down to the key order of the histograms).

        Within a chunk every server's LRU evolves on its own, because

        * a request's first round sends a server at most one transaction;
        * a miss is written back to the server it missed on;
        * the stamp a write-back copies lives on the item's home, where
          the item is pinned, so it never misses or is written back there;
        * a second-round touch on a :class:`PinnedLRU` reads only its
          pinned set.

        So each server replays its transactions in request order in one
        :meth:`PinnedLRU.replay` (touch a transaction, put its misses),
        and :meth:`Server.record_write_backs` stamps the copies.  A read
        of an item on its home never enters the replay: it finds the
        pinned copy, and :meth:`PinnedLRU.touch` of a pinned key moves no
        LRU (a pinned key is never in the replica LRU), so the replay gets
        only the replica reads, and only the transactions that have any.
        Round two is arrays: one transaction per (request, home) of the
        misses, in :meth:`_second_round_order`, merged behind its
        request's first round.  The counters and stats are folded once
        per chunk.  The replay's keys are gathered from the table's
        ``item_objects``, the int objects the cluster pinned and loaded, so
        a probe of a store succeeds on identity and the chunk allocates no
        ints; the per-request fallback builds its requests from them too.

        Pins are checked once per pin change, not once per read: the
        client flags each item whose home does not pin it, and re-derives
        a server's flags only when its store's ``pin_version`` moved.
        With no item flagged, a chunk does no per-read pin work.  A
        flagged item raises :class:`ConfigurationError`, as in
        :meth:`execute_plan`: before the replay when the chunk reads it on
        its home, after the replay when round two fetches it.

        All of that needs one store invariant: pins never enter the
        replica LRU.  Both stores keep it, so a shared-budget
        :class:`PriorityClassStore` (a :class:`PinnedLRU` whose replica
        capacity is what its pins leave) takes this path too.  A chunk
        off the vectorised envelope (see :meth:`Bundler.plan_cells`), or
        a cluster with a fault injector attached, runs through
        :meth:`execute_plan`.
        """
        if not isinstance(chunk, RequestBlock):
            chunk = list(chunk)
        planned = None
        if self.cluster.injector is None:
            planned = self.bundler.plan_cells(chunk)
        if planned is None:
            requests = chunk
            if isinstance(chunk, RequestBlock):
                items = chunk.items
                objects = getattr(self.bundler.placer, "item_objects", None)
                if objects is not None and len(items) and items.min() >= 0:
                    if items.max() < len(objects):
                        # requests over the table's own item objects, the
                        # ones the stores hold
                        chunk = RequestBlock(objects.take(items), chunk.offsets)
                requests = chunk.requests()
            for plan in self.bundler.plan_batch(requests):
                result = self.execute_plan(plan)
                if stats is not None:
                    stats.record(result)
            return

        block, home, cell, txn_servers, txn_sizes, n_txns = planned
        fleet = self.cluster.servers
        lost = self._lost_homes()
        n = len(fleet)
        # every item server-major: a server's transactions in request
        # order (the block is request-major), each in request-local order.
        # Reads of an item on its home touch only its pinned copy: keyed
        # n above their server, they sort behind every replica read.
        sid = cell % n
        on_home = home == sid
        flat = _by_server(sid + on_home * n, 2 * n)
        cut = len(flat) - np.count_nonzero(on_home)
        flat, homes_read = flat[:cut], flat[cut:]
        if lost is not None:
            _require_homes(lost, block.items.take(homes_read), sid.take(homes_read))
        # the replica reads, cut where the cell changes: one run per
        # transaction that has any
        starts = np.flatnonzero(np.diff(cell[flat], prepend=-1))
        objects = self.bundler.placer.item_objects
        keys = objects.take(block.items.take(flat)).tolist()
        edges = [*starts.tolist(), len(keys)]
        missed: list[int] = []
        first, put = 0, self.write_back
        for server, k in zip(fleet, np.bincount(sid[flat[starts]], minlength=n).tolist()):
            missed += server.store.replay(keys, edges[first : first + k + 1], put=put)
            first += k
        at = flat[np.array(missed, dtype=np.int64)]
        missed_on = np.bincount(sid[at], minlength=n).tolist()

        n_second = 0
        if len(at):
            items, homes = block.items[at], home[at]
            if self.write_back and any(s.stamps for s in fleet):
                # _authoritative_stamp, with no injector to pass
                item_list, stamps_of = objects.take(items).tolist(), [s.stamps for s in fleet]
                stamps = [stamps_of[h].get(i) for i, h in zip(item_list, homes.tolist())]
                lo = 0
                for server, k in zip(fleet, missed_on):
                    server.record_write_backs(item_list[lo : lo + k], stamps[lo : lo + k])
                    lo += k
            elif self.write_back:
                # nothing is versioned: every copy goes in unversioned, and
                # record_write_backs would only count them
                for server, k in zip(fleet, missed_on):
                    server.counters.writes += k
            if lost is not None:
                _require_homes(lost, items, homes)
            # round two: one transaction per (request, home), each request's
            # largest first, ties to the lowest home, right after its round one
            cells, sizes = np.unique(cell[at] // n * n + homes, return_counts=True)
            rows, sids = np.divmod(cells, n)
            order = np.lexsort((sids, -sizes, rows))
            n_second = len(order)
            first_rows = np.repeat(np.arange(len(n_txns)), n_txns)
            merged = np.argsort(
                np.concatenate((2 * first_rows, 2 * rows[order] + 1)), kind="stable"
            )
            txn_servers = np.concatenate((txn_servers, sids[order]))[merged]
            txn_sizes = np.concatenate((txn_sizes, sizes[order]))[merged]
        if stats is not None:
            stats.record_transactions(len(block), txn_servers, txn_sizes, len(at), n_second)
        fold_counters(fleet, txn_servers, txn_sizes, missed_on)

    # -- helpers ---------------------------------------------------------------

    def _lost_homes(self) -> np.ndarray | None:
        """Per item id of the compiled table, whether its home fails to pin
        it; ``None`` when every home pins all of its items.

        The flags of a server's homes (``PlacementTable.provisioning``) are
        re-derived only when its store's ``pin_version`` moved since the
        last call, so a chunk under unchanged pins does no per-read check.
        An item outside ``cluster.items`` was never pinned: it is lost.
        """
        fleet = self.cluster.servers
        versions = [server.store.pin_version for server in fleet]
        seen = self._pin_versions
        if versions != seen:
            table = self.bundler.placer
            if self._lost is None:
                self._lost = np.zeros(table.n_items, dtype=bool)
            lost, lost_on = self._lost, self._lost_on
            for sid, group in table.provisioning[0].items():
                if sid < len(seen) and seen[sid] == versions[sid]:
                    continue
                store = fleet[sid].store
                if not store.pins_all(group):
                    lost[group] = [not store.is_pinned(i) for i in group]
                    lost_on.add(sid)
                elif sid in lost_on:
                    lost[group] = False
                    lost_on.discard(sid)
            self._pin_versions = versions
        return self._lost if self._lost_on else None

    def _authoritative_stamp(self, item: ItemId, home: int):
        """Version stamp a DB-fetched copy of ``item`` should carry.

        The backing store serves the committed version, which the pinned
        distinguished copy (on server ``home``) mirrors — so write-backs
        inherit the distinguished server's stamp instead of installing an
        unversioned copy that anti-entropy would flag as divergent.  An
        unreachable home (chaos) yields ``None``: the copy is installed
        unversioned and reconciled by the scrubber later.
        """
        try:
            return self.cluster.server(home).stamps.get(item)
        except (ConnectionError, OSError):
            return None

    @staticmethod
    def _second_round_order(groups: dict[int, list[ItemId]]):
        """Largest groups first so LIMIT second rounds use fewest transactions;
        ties break on lowest server id for determinism."""
        return sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
