"""The Bundler: request + placement → fetch plan.

Bundling is the "B" of RnB (paper section III-A): compute the replica
locations of every requested item, pick a small group of servers that
jointly possess (enough of) the request set via greedy set cover, and
bundle all items assigned to a server into one transaction.

Two refinements from the paper are applied after the cover:

* **Single-item rule** (section III-C1): "whenever an item is not
  bundled, we access its distinguished copy in order not to pollute other
  server caches with its copies."  Any transaction left with exactly one
  item is redirected to that item's distinguished server; redirected
  items headed for the same distinguished server are re-bundled together,
  and items whose plan already includes a transaction to their
  distinguished server simply join it.
* **Hitchhiking** (section III-C2): every transaction additionally
  carries, as redundant *hitchhikers*, all other requested items that
  have a logical replica on that server.  Hitchhikers cost traffic but no
  transactions, and rescue first-round misses under overbooking.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain, compress
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from repro.cluster.placement import ReplicaPlacer
from repro.core.setcover import greedy_partial_cover
from repro.perf.batchcover import batch_cover
from repro.types import FetchPlan, ItemId, Request, RequestBlock, Transaction, runs
from repro.utils.bitset import iter_bits
from repro.utils.histogram import first_seen_counts

#: items the packed-row memo holds before it is cleared wholesale, the
#: bound the placers put on their own memos
_MEMO_LIMIT = 1 << 20


def _packed_masks(n_items: int, width: int) -> tuple[int, list[tuple[int, int]]]:
    """The masks :meth:`Bundler._plan_packed` needs for ``n_items`` rows of
    ``width`` bytes: the base mask (bit 0 of each of ``n_items`` bytes)
    and the ``(shift, low mask)`` steps that fold the OR of all the rows
    into the lowest one."""
    stride = 8 * width
    base = int.from_bytes(b"\x01" * n_items, "little")
    folds = []
    while n_items > 1:
        n_items = (n_items + 1) // 2
        folds.append((n_items * stride, (1 << n_items * stride) - 1))
    return base, folds


def _chunk_transactions(
    row: np.ndarray,
    servers: np.ndarray,
    assigned: np.ndarray,
    n_requests: int,
    n_servers: int,
    single_item_rule: bool,
):
    """A covered chunk's transactions: its non-empty (request, server) cells.

    ``row``, ``servers`` and ``assigned`` are per flattened item, as
    :meth:`Bundler._cover_chunk` returns them.  Under the single-item
    rule an item alone in its cell first moves to its distinguished
    server — column 0 of its replica row — where it merges with the
    request's other redirected singles and with any transaction already
    headed there, exactly as :meth:`Bundler.plan` does.

    Returns every item's cell number (a stable sort by it groups items
    into transactions, request-local order kept) and, in request-then-
    server order — the order plans list their transactions — each
    transaction's server and item count, then the number of transactions
    of each request: four int64 arrays.
    """
    first_cell = row * n_servers
    cell = first_cell + assigned
    if single_item_rule:
        alone = np.bincount(cell)[cell] == 1
        cell = np.where(alone, first_cell + servers[:, 0], cell)
    counts = np.bincount(cell, minlength=n_requests * n_servers)
    taken = np.flatnonzero(counts)
    return (
        cell,
        taken % n_servers,
        counts[taken],
        np.bincount(taken // n_servers, minlength=n_requests),
    )


class Bundler:
    """Builds :class:`FetchPlan` objects for requests.

    Parameters
    ----------
    placer:
        The replica placement in force.
    hitchhiking:
        Enable the hitchhiker enhancement.
    single_item_rule:
        Apply the single-item → distinguished-copy redirection.
    tie_break:
        Greedy tie-breaking policy (see :mod:`repro.core.setcover`).
    rng:
        Required when ``tie_break="random"``.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When set, every
        finished plan increments ``rnb_plans_total`` (labelled by the
        tie-break policy in force) and records its transaction count in
        the ``rnb_cover_size`` histogram — the distribution-level
        evidence the paper's cover-size argument rests on.  ``None``
        (the default) costs one predictable branch per plan.

    A bundler memoises, per topology epoch of its placer, every planned
    item's replica set as a packed row of bits (:meth:`_plan_packed`), so
    a warm :meth:`plan` makes no placer call per item.  Clients that share
    a placer share the memo by sharing one bundler (their ``bundler=``).
    It also keeps a row table of the graph its ego blocks come from: the
    cover and the transactions of every row a chunk has planned
    (:meth:`_plan_rows`).  Like the metrics they feed, the memos are not
    guarded for use from several threads at once.
    """

    def __init__(
        self,
        placer: ReplicaPlacer,
        *,
        hitchhiking: bool = False,
        single_item_rule: bool = True,
        tie_break="lowest",
        rng: np.random.Generator | None = None,
        metrics=None,
    ) -> None:
        self.placer = placer
        self.hitchhiking = hitchhiking
        self.single_item_rule = single_item_rule
        self.tie_break = tie_break
        self.rng = rng
        self.metrics = metrics
        if metrics is not None:
            policy = tie_break if isinstance(tie_break, str) else "callable"
            self._m_plans = metrics.counter(
                "rnb_plans_total", "cover plans computed", tie_break=policy
            )
            self._m_cover = metrics.histogram(
                "rnb_cover_size", "transactions per fetch plan"
            )
        else:
            self._m_plans = None
            self._m_cover = None
        # no placer's epoch: the first packed plan builds the memo, so a
        # bundler that only plans chunks (the simulator) never holds one
        self._epoch = -1
        # (source, epoch, table) of the rows _plan_rows planned
        self._row_table: tuple | None = None

    def _record_plan(self, n_transactions: int) -> None:
        if self._m_plans is not None:
            self._m_plans.inc()
            self._m_cover.observe(n_transactions)

    def _record_plan_sizes(self, sizes: np.ndarray) -> None:
        """Bulk :meth:`_record_plan` for the vectorised chunk path.

        Cover sizes are small integers that repeat heavily across a
        chunk, so grouping them first turns ~N hook calls into one
        counter add plus one histogram upsert per distinct size — the
        difference between the telemetry layer costing a few percent of
        the fast path and costing nothing measurable.
        """
        if self._m_plans is None or not len(sizes):
            return
        self._m_plans.inc(len(sizes))
        distinct, ns = first_seen_counts(sizes)
        for size, n in zip(distinct.tolist(), ns.tolist()):
            self._m_cover.observe_n(size, n)

    # -- plan construction -------------------------------------------------

    def plan(
        self, request: Request, *, exclude: AbstractSet[int] | None = None
    ) -> FetchPlan:
        """Compute the first-round transactions for ``request``.

        ``exclude`` names servers currently believed unavailable (from a
        :class:`repro.faults.health.HealthTracker` or a failed first
        attempt): they are never chosen, residual items are covered from
        surviving replicas, and items with no surviving replica are left
        out of the plan entirely — the caller reports them as a partial
        (degraded) result.

        A full cover with the ``lowest`` tie-break, no exclusions and no
        hitchhikers — every live read of a healthy fleet — runs the packed
        kernel (:meth:`_plan_packed`); anything else goes through
        :func:`greedy_partial_cover` and :meth:`_finish`.  Both give the
        same plan (property-tested).
        """
        items: Sequence[ItemId] = request.items
        n = len(items)
        if n == 0:
            self._record_plan(0)
            return FetchPlan(request=request, transactions=())
        if not (
            exclude
            or self.hitchhiking
            or self.tie_break != "lowest"
            or (request.limit_fraction is not None and request.required_items < n)
        ):
            plan = self._plan_packed(request, items)
            if plan is not None:
                return plan

        replica_sets = [self.placer.servers_for(item) for item in items]

        # Build per-server bitmasks over request-local item indices.
        subsets: dict[int, int] = {}
        for idx, servers in enumerate(replica_sets):
            bit = 1 << idx
            for s in servers:
                subsets[s] = subsets.get(s, 0) | bit

        cover = greedy_partial_cover(
            subsets,
            n,
            request.required_items,
            tie_break=self.tie_break,
            rng=self.rng,
            exclude=exclude,
            allow_partial=bool(exclude),
        )

        # server -> list of request-local indices assigned to it
        assigned: dict[int, list[int]] = {
            server: list(iter_bits(mask)) for server, mask in cover.assignment.items()
        }
        return self._finish(request, items, replica_sets, assigned, exclude)

    def plan_distinguished(
        self, request: Request, items: Sequence[ItemId] | None = None
    ) -> FetchPlan:
        """Plan ``request`` (or a subset of its items) on distinguished
        copies only — no cover, no replica freedom.

        The bottom rung of the overload degradation ladder
        (:mod:`repro.overload.hedging`): every item routes straight to
        its pinned home copy, grouping items that share one.  Gives up
        bundling quality, never coverage — a distinguished copy always
        exists and never misses — so it is the cheapest plan that still
        touches only pinned copies.  Hitchhiking is deliberately skipped:
        a client degrading under overload must not inflate payloads.
        """
        wanted: Sequence[ItemId] = request.items if items is None else items
        by_home: dict[int, list[ItemId]] = defaultdict(list)
        for item in wanted:
            by_home[self.placer.distinguished_for(item)].append(item)
        transactions = tuple(
            Transaction(server=server, primary=tuple(by_home[server]))
            for server in sorted(by_home)
        )
        self._record_plan(len(transactions))
        return FetchPlan(request=request, transactions=transactions)

    def plan_batch(
        self, requests: Iterable[Request], *, exclude: AbstractSet[int] | None = None
    ) -> list[FetchPlan]:
        """Plan a chunk of requests at once; same plans as :meth:`plan`.

        When the placer is a compiled :class:`repro.perf.table.PlacementTable`
        and the chunk is on the default path (no exclusions, ``lowest``
        tie-break), placement lookups run as one batch array index, the
        greedy covers run lock-step in NumPy (:meth:`_cover_chunk`) and
        every transaction's items are a slice of one sorted array.
        Requests the vectorised cover cannot express — empty, LIMIT, or
        with items outside the compiled universe — fall back to
        :meth:`plan` individually, so ``plan_batch(reqs)[i]`` equals
        ``plan(reqs[i])`` for *every* request (property-tested).
        """
        requests = list(requests)
        plans: list[FetchPlan | None] = [None] * len(requests)
        chunk = None if exclude is not None else self._cover_requests(requests)
        if chunk is not None:
            eligible, items, row, servers, assigned = chunk
            members = items
            if self.hitchhiking:
                # _finish takes {server: [request-local index]} as the
                # cover left it and applies the single-item rule itself
                first = np.flatnonzero(np.diff(row, prepend=-1))
                members = np.arange(row.shape[0]) - first[row]
            cell, txn_servers, txn_sizes, n_txns = _chunk_transactions(
                row,
                servers,
                assigned,
                len(eligible),
                self.placer.n_servers,
                self.single_item_rule and not self.hitchhiking,
            )
            members = members[np.argsort(cell, kind="stable")].tolist()
            ends = np.cumsum(txn_sizes).tolist()
            groups = [members[lo:hi] for lo, hi in zip([0] + ends, ends)]
            txn_servers = txn_servers.tolist()
            txn = 0
            if self.hitchhiking:
                replica_rows = servers.tolist()  # where to look for hitchhikers
                lo = 0
                for i, k in zip(eligible, n_txns.tolist()):
                    request = requests[i]
                    hi = lo + len(request.items)
                    by_server = dict(zip(txn_servers[txn : txn + k], groups[txn : txn + k]))
                    plans[i] = self._finish(
                        request, request.items, replica_rows[lo:hi], by_server, None
                    )
                    lo, txn = hi, txn + k
            else:
                transactions = [
                    Transaction(server, tuple(primary))
                    for server, primary in zip(txn_servers, groups)
                ]
                for i, k in zip(eligible, n_txns.tolist()):
                    plans[i] = FetchPlan(requests[i], tuple(transactions[txn : txn + k]))
                    txn += k
                self._record_plan_sizes(n_txns)
        for i, plan in enumerate(plans):
            if plan is None:
                plans[i] = self.plan(requests[i], exclude=exclude)
        return plans

    def plan_footprints(
        self, requests: Iterable[Request]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Per request, the ``(server, n_primary)`` pairs of its plan.

        Exactly ``tuple((t.server, len(t.primary)) for t in
        plan(r).transactions)`` for every request, but computed without
        materialising :class:`FetchPlan` / :class:`Transaction` objects:
        in the no-miss regime (see ``RnBClient.tally_footprint``) the
        executor only ever reads transaction servers and sizes, so
        sorting items into transactions is pure overhead.
        Falls back to :meth:`plan` per request off the vectorised
        envelope.  Hitchhiking bundlers always fall back (hitchhikers
        change transaction payloads, which a footprint does not carry).

        This is the list-of-:class:`Request` form: a tuple of pairs per
        request, for callers that hold requests and want to walk their
        footprints (``hotspot``, ``load_soak``, ``bench/layers.py``, the
        tests' per-request specification).  The simulator's tally regime
        reads the same transactions as arrays, with nothing built per
        request: :meth:`plan_transactions`.
        """
        requests = list(requests)
        footprints: list[tuple[tuple[int, int], ...] | None] = [None] * len(requests)
        chunk = None if self.hitchhiking else self._cover_requests(requests)
        if chunk is not None:
            eligible, _, row, servers, assigned = chunk
            _, txn_servers, txn_sizes, n_txns = _chunk_transactions(
                row,
                servers,
                assigned,
                len(eligible),
                self.placer.n_servers,
                self.single_item_rule,
            )
            pairs = list(zip(txn_servers.tolist(), txn_sizes.tolist()))
            txn = 0
            for i, k in zip(eligible, n_txns.tolist()):
                footprints[i] = tuple(pairs[txn : txn + k])
                txn += k
            self._record_plan_sizes(n_txns)
        for i, footprint in enumerate(footprints):
            if footprint is None:
                footprints[i] = tuple(
                    (t.server, len(t.primary))
                    for t in self.plan(requests[i]).transactions
                )
        return footprints

    def plan_transactions(
        self, chunk: RequestBlock | Iterable[Request]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A chunk's footprints as three int64 arrays.

        ``(txn_servers, txn_sizes, n_txns)``: the ``(server, n_primary)``
        pairs of :meth:`plan_footprints`, every request's end to end in
        request order, and how many of them each request has.  A
        :class:`~repro.types.RequestBlock` on the vectorised envelope
        gets there without a Python object per request or per
        transaction: an ego block reads its rows' pairs from the row
        table (:meth:`_plan_rows`) and never gathers its items, any other
        block takes :func:`_chunk_transactions`' arrays, and so does a
        list of requests the adapter can turn into one block.
        Anything else (a LIMIT or empty request in the chunk, ids outside
        the table, no table, hitchhiking) is :meth:`plan_footprints`
        flattened, so the arrays are the same either way (property-tested).
        """
        if not isinstance(chunk, RequestBlock):
            chunk = list(chunk)
        elif chunk.source is not None:
            planned = self._plan_rows(chunk)
            if planned is not None:
                return planned[1:]
        planned = self.plan_cells(chunk)
        if planned is not None:
            return planned[3:]
        requests = chunk.requests() if isinstance(chunk, RequestBlock) else chunk
        footprints = self.plan_footprints(requests)
        pairs = np.array(list(chain.from_iterable(footprints)), dtype=np.int64).reshape(-1, 2)
        n_txns = np.fromiter(map(len, footprints), dtype=np.int64, count=len(footprints))
        return pairs[:, 0], pairs[:, 1], n_txns

    def plan_cells(self, chunk: RequestBlock | Sequence[Request]):
        """A chunk's plans as :func:`_chunk_transactions` arrays, or ``None``.

        Returns ``(block, home, cell, txn_servers, txn_sizes, n_txns)``:
        the chunk as a block, each of its items' home (distinguished
        server) and transaction cell, then the footprints of
        :meth:`plan_transactions`.  An ego block's cells and footprints
        come from the row table (:meth:`_plan_rows`) and its homes from
        the table's home column, so it gathers no replica rows.  ``None``
        when the chunk is off the vectorised envelope: hitchhiking, or
        any request :meth:`_cover_chunk` or the adapter cannot take.
        """
        if isinstance(chunk, RequestBlock) and chunk.source is not None:
            planned = self._plan_rows(chunk)
            if planned is None:
                return None
            row = np.repeat(np.arange(len(chunk)), chunk.offsets[1:] - chunk.offsets[:-1])
            cell = row * self.placer.n_servers + planned[0][3].take(chunk.slots)
            return chunk, self.placer.distinguished.take(chunk.items), cell, *planned[1:]
        if isinstance(chunk, RequestBlock):
            block = chunk
        else:
            adapted = self._block_of(chunk)
            block = adapted[1] if adapted and len(adapted[1]) == len(chunk) else None
        covered = None if block is None or self.hitchhiking else self._cover_chunk(block)
        if covered is None:
            return None
        row, servers, assigned = covered
        planned = _chunk_transactions(
            row, servers, assigned, len(block), self.placer.n_servers, self.single_item_rule
        )
        self._record_plan_sizes(planned[3])
        return block, servers[:, 0], *planned

    def _block_of(self, requests: Sequence[Request]):
        """The chunk's vectorisable requests as one block — the adapter.

        Returns ``(eligible, block)``: the indexes of the non-empty
        full-cover requests (LIMIT at 100 % is one) and their items as a
        :class:`~repro.types.RequestBlock`; ``None`` when there is none,
        or an item id is not an integer.
        """
        eligible = [
            i
            for i, r in enumerate(requests)
            if r.items
            and (r.limit_fraction is None or r.required_items == len(r.items))
        ]
        if not eligible:
            return None
        item_sets = [requests[i].items for i in eligible]
        offsets = np.fromiter(
            accumulate(map(len, item_sets), initial=0), dtype=np.int64, count=len(eligible) + 1
        )
        try:
            items = np.fromiter(
                chain.from_iterable(item_sets), dtype=np.int64, count=offsets[-1]
            )
        except (TypeError, ValueError, OverflowError):
            return None  # non-integer item ids: scalar path
        return eligible, RequestBlock(items, offsets)

    def _cover_requests(self, requests: Sequence[Request]):
        """:meth:`_cover_chunk` of a list of requests, through the adapter.

        Returns ``(eligible, items, row, servers, assigned)`` — the
        indexes of the requests covered, their flattened item ids and
        what :meth:`_cover_chunk` says of each — or ``None``.
        """
        adapted = self._block_of(requests)
        covered = None if adapted is None else self._cover_chunk(adapted[1])
        if covered is None:
            return None
        return adapted[0], adapted[1].items, *covered

    def _cover_chunk(self, block: RequestBlock):
        """Greedy covers of a block's requests, item-major.

        Returns ``(row, servers, assigned)`` — per flattened item, its
        request's row in the block, its ``(R,)`` replica servers and the
        server the cover assigns it to — or ``None`` when the block is
        not on the vectorised envelope: no compiled table, another
        tie-break, an empty request, or item ids outside the table.
        """
        lookup = getattr(self.placer, "lookup", None)
        items, sizes = block.items, block.offsets[1:] - block.offsets[:-1]
        if (
            lookup is None
            or self.tie_break != "lowest"
            or not len(items)
            or sizes.min() < 1
            or items.min() < 0
            or items.max() >= self.placer.n_items
        ):
            return None
        row = np.repeat(np.arange(len(block)), sizes)
        servers = lookup(items)
        return row, servers, batch_cover(row, servers, len(block), self.placer.n_servers)

    def _plan_rows(self, block: RequestBlock):
        """An ego block's plans, read from the per-run row table.

        Returns ``(table, txn_servers, txn_sizes, n_txns)``, the table and
        the block's footprints as :meth:`plan_transactions` gives them, or
        ``None`` off the vectorised envelope of :meth:`_cover_chunk`.  A
        row's plan depends on the row alone for a fixed placement, so the
        table keeps every planned row until the source or the placer's
        epoch changes: four int32 arrays over the source's slots, where a
        row with head ``h``, ``d`` slots and ``k`` transactions holds ``k``
        at ``table[0, h]`` (0: not planned), its transactions' servers and
        sizes at ``table[1:3, h:h + k]`` and each item's transaction server
        at ``table[3, h:h + d]``.  The rows the table lacks go through
        :func:`batch_cover` once each, on arrays that may be empty.
        """
        sizes = block.offsets[1:] - block.offsets[:-1]
        lookup = None if self.hitchhiking else getattr(self.placer, "lookup", None)
        if lookup is None or self.tie_break != "lowest" or not len(sizes) or sizes.min() < 1:
            return None
        source, epoch = block.source, getattr(self.placer, "epoch", None)
        memo = self._row_table
        if memo is None or memo[0] is not source or memo[1] != epoch:
            table = np.zeros((4, source.indices.size), dtype=np.int32)
            memo = self._row_table = (source, epoch, table)
        table, heads = memo[2], block.heads
        at = np.flatnonzero(table[0].take(heads) == 0)
        # one request of each row not planned yet: the one whose index its
        # head slot keeps when every such request has written it there
        table[3][heads[at]] = at
        at = at[table[3].take(heads[at]) == at]
        fresh, sizes = heads[at], sizes[at]
        n_fresh, n_servers = len(fresh), self.placer.n_servers
        slots = runs(fresh, sizes)
        items = source.indices.take(slots)
        if len(items) and (items.min() < 0 or items.max() >= self.placer.n_items):
            return None  # the marks above sit in unplanned rows, which nothing reads
        row = np.repeat(np.arange(n_fresh), sizes)
        servers = lookup(items)
        cell, txn_servers, txn_sizes, n_txns = _chunk_transactions(
            row, servers, batch_cover(row, servers, n_fresh, n_servers), n_fresh, n_servers,
            self.single_item_rule,
        )
        table[3][slots] = cell % n_servers
        planned = runs(fresh, n_txns)
        table[1][planned], table[2][planned], table[0][fresh] = txn_servers, txn_sizes, n_txns

        n_txns = table[0].take(heads).astype(np.int64)
        txn_servers, txn_sizes = table[1:3].take(runs(heads, n_txns), axis=1).astype(np.int64)
        self._record_plan_sizes(n_txns)
        return table, txn_servers, txn_sizes, n_txns

    # -- the packed kernel ----------------------------------------------------

    def _plan_packed(self, request: Request, items: Sequence[ItemId]) -> FetchPlan | None:
        """:meth:`plan` of a full cover, ``lowest`` tie-break, no exclusions
        and no hitchhikers, from the per-epoch memo of packed replica rows.

        The request is one integer: item *i*'s row — a bit per server id,
        ``width`` bytes — sits at byte ``i * width``, and folding the rows
        together names the servers the request touches.  Only for those, a
        server's items are one shift and one AND of its byte column against
        the request size's base mask (bit ``8 * i`` for every *i*).  The
        greedy picks the lowest server id among the largest gains, as
        :func:`greedy_partial_cover` does.  Gains only shrink, so under the
        single-item rule the first pick with gain 1 ends it: every item
        still uncovered would be a singleton, and the rule sends each to its
        home.  Returns ``None`` when an item has no replica, for
        :meth:`plan` to raise on.
        """
        if getattr(self.placer, "epoch", None) != self._epoch:
            self._forget()
        try:
            joined = b"".join(map(self._rows.__getitem__, items))
        except KeyError:
            if not self._learn(items):
                return None
            joined = b"".join(map(self._rows.__getitem__, items))
        n, width = len(items), self._width
        masks = self._masks.get(n)
        if masks is None:
            masks = self._masks[n] = _packed_masks(n, width)
        base, folds = masks
        named = int.from_bytes(joined, "little")
        for shift, low in folds:  # OR every row into the lowest one
            named = (named & low) | (named >> shift)

        # a server's items: the column of its byte across the rows, shifted
        # so that bit 8i is set when item i is on it.  Under the single-item
        # rule a pick must cover two items, and gains only shrink, so a
        # server holding one item of the request is never a candidate.
        floor = 1 if self.single_item_rule else 0
        servers, sets, gains = [], [], []
        column = -1
        while named:
            low = named & -named
            server = low.bit_length() - 1
            if server >> 3 != column:
                column = server >> 3
                rows = int.from_bytes(joined[column::width], "little")
            held = (rows >> (server & 7)) & base
            gain = held.bit_count()
            if gain > floor:
                servers.append(server)
                sets.append(held)
                gains.append(gain)
            named ^= low

        # a recorded gain bounds the true one: a server whose bound does not
        # beat the best so far cannot win, and ties go to the lower id
        uncovered = base
        picks: dict[int, int] = {}
        while uncovered:
            best = floor
            for j, gain in enumerate(gains):
                if gain > best:
                    gain = gains[j] = (sets[j] & uncovered).bit_count()
                    if gain > best:
                        best, pick = gain, j
            if best == floor:
                break
            newly = sets[pick] & uncovered
            picks[servers[pick]] = newly
            uncovered ^= newly
            gains[pick] = 0

        if uncovered:
            homes = self._homes
            for idx in compress(range(n), uncovered.to_bytes(n, "little")):
                home = homes[items[idx]]
                picks[home] = picks.get(home, 0) | 1 << 8 * idx
        transactions = []
        for server in sorted(picks):
            selected = picks[server].to_bytes(n, "little")
            transactions.append(Transaction(server, tuple(compress(items, selected))))
        self._record_plan(len(transactions))
        return FetchPlan(request, tuple(transactions))

    def _forget(self) -> None:
        """Start the memo over for the placer's current epoch: each item's
        packed row and home (distinguished server), the row width in bytes
        and the masks of :func:`_packed_masks` per request size."""
        self._epoch = getattr(self.placer, "epoch", None)
        self._rows: dict[ItemId, bytes] = {}
        self._homes: dict[ItemId, int] = {}
        self._width = 1
        self._masks: dict[int, tuple] = {}

    def _learn(self, items: Sequence[ItemId]) -> bool:
        """Memoise the packed rows of ``items`` not yet in the memo.

        Bounded like the placers' own memos: cleared wholesale once it
        would pass ``_MEMO_LIMIT`` items.  A server id past the row width
        re-packs every row wider.  False (nothing memoised for that item)
        when an item has no replica.
        """
        if len(self._rows) + len(items) > _MEMO_LIMIT:
            self._forget()
        rows = self._rows
        fresh = [(item, self.placer.servers_for(item)) for item in items if item not in rows]
        if not all(servers for _, servers in fresh):
            return False
        width = max(max(servers) for _, servers in fresh) // 8 + 1
        if width > self._width:
            pad = bytes(width - self._width)
            rows = self._rows = {item: row + pad for item, row in rows.items()}
            self._width = width
            self._masks = {}
        width = self._width
        for item, servers in fresh:
            bits = 0
            for server in servers:
                bits |= 1 << server
            rows[item] = bits.to_bytes(width, "little")
            self._homes[item] = servers[0]
        return True

    def _finish(
        self,
        request: Request,
        items: Sequence[ItemId],
        replica_sets: Sequence[Sequence[int]],
        assigned: dict[int, list[int]],
        exclude: AbstractSet[int] | None,
    ) -> FetchPlan:
        """Shared tail of planning: enhancements + transaction assembly."""
        if self.single_item_rule:
            assigned = self._apply_single_item_rule(
                assigned, replica_sets, exclude=exclude
            )

        primaries = {server: idxs for server, idxs in assigned.items() if idxs}
        # hitchhikers, in one walk over the request: per transaction server,
        # the requested items with a replica there that are not its
        # primaries (an item is the primary of one server at most)
        riders: dict[int, list[ItemId]] = {}
        if self.hitchhiking:
            owner: list[int | None] = [None] * len(items)
            for server, idxs in primaries.items():
                for idx in idxs:
                    owner[idx] = server
            riders = {server: [] for server in primaries}
            rides_on = riders.get
            for item, own, servers in zip(items, owner, replica_sets):
                for server in servers:
                    if server != own:
                        out = rides_on(server)
                        if out is not None:
                            out.append(item)
        transactions = [
            Transaction(
                server=server,
                primary=tuple(items[i] for i in primaries[server]),
                hitchhikers=tuple(riders.get(server, ())),
            )
            for server in sorted(primaries)
        ]
        self._record_plan(len(transactions))
        return FetchPlan(request=request, transactions=tuple(transactions))

    # -- enhancements --------------------------------------------------------

    def _apply_single_item_rule(
        self,
        assigned: dict[int, list[int]],
        replica_sets: Sequence[Sequence[int]],
        *,
        exclude: AbstractSet[int] | None = None,
    ) -> dict[int, list[int]]:
        """Redirect un-bundled (single-item) transactions to distinguished copies.

        Done as a single pass: first collect all singletons, then place
        each on its item's distinguished server.  Collecting first means
        two singletons that share a distinguished server merge into one
        two-item transaction rather than being processed order-dependently.
        A redirected item never *misses* (distinguished copies are pinned),
        so the redirection can only reduce LRU pollution.

        Under failures the redirection target is the item's first *live*
        replica: a singleton is never sent to an excluded server (its
        current assignment is live by construction, so staying put is
        always a valid fallback).
        """
        singles: list[int] = []
        kept: dict[int, list[int]] = {}
        for server, idxs in assigned.items():
            if len(idxs) == 1:
                singles.append(idxs[0])
            else:
                kept[server] = list(idxs)
        if not singles:
            return assigned
        moved = defaultdict(list, kept)
        for idx in singles:
            if exclude:
                home = next(s for s in replica_sets[idx] if s not in exclude)
            else:
                home = replica_sets[idx][0]
            moved[home].append(idx)
        # keep item order stable within each transaction
        return {s: sorted(v) for s, v in moved.items()}
