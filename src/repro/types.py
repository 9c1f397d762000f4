"""Core value types shared across the library.

The simulator identifies items by small integers (``ItemId``) for speed;
the protocol layer uses string keys.  ``Request`` carries the item set of
one end-user request, plus an optional LIMIT clause (paper section III-F).

Terminology follows the paper (section I-B):

* an end user sends a *request* for a set of *items* to the web service;
* the web server (the memcached *client*) translates it into
  *transactions*, one per storage server contacted;
* *TPR* is the mean number of transactions per request and *TPRPS* is TPR
  divided by the number of servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.histogram import add_counts

ItemId = int
ServerId = int


@dataclass(frozen=True, slots=True)
class Request:
    """One end-user request.

    Parameters
    ----------
    items:
        The request set — distinct item ids that the user needs.
    limit_fraction:
        If not ``None``, the request is a LIMIT-style request ("fetch me at
        least X items out of the following list"): the client must return
        at least ``ceil(limit_fraction * len(items))`` items, any subset.
    """

    items: tuple[ItemId, ...]
    limit_fraction: float | None = None

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("request items must be distinct")
        if self.limit_fraction is not None and not (0.0 < self.limit_fraction <= 1.0):
            raise ValueError("limit_fraction must be in (0, 1]")

    @classmethod
    def distinct(cls, items: tuple, limit_fraction: float | None = None) -> "Request":
        """A request over ``items`` its caller has already made distinct (as
        ``tuple(dict.fromkeys(keys))`` does): the set ``__post_init__`` would
        build to check them is not built again.  ``limit_fraction`` is checked."""
        if limit_fraction is not None:
            return cls(items, limit_fraction)
        request = object.__new__(cls)
        object.__setattr__(request, "items", items)
        object.__setattr__(request, "limit_fraction", None)
        return request

    @property
    def size(self) -> int:
        """Number of items in the request set (the *request size*)."""
        return len(self.items)

    @property
    def required_items(self) -> int:
        """How many items must actually be returned.

        Equals the request size for ordinary requests; for LIMIT requests
        it is ``ceil(limit_fraction * size)``.
        """
        if self.limit_fraction is None:
            return len(self.items)
        n = len(self.items)
        # the 1e-9 guard keeps exact fractions (0.5 * 4 = 2.0) from being
        # rounded up by floating-point noise
        return max(1, min(n, math.ceil(self.limit_fraction * n - 1e-9)))


def runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] + j`` for every ``j < lengths[i]``, the runs end to end."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


class RequestBlock:
    """A chunk of plain (no LIMIT) requests as arrays.

    Request ``i`` asks for ``items[offsets[i]:offsets[i + 1]]``, distinct
    within the slice.  This is the form a chunk keeps from the graph to
    the counters in the simulator's tally regime
    (:meth:`repro.workloads.requests.EgoRequestGenerator.block`,
    :meth:`repro.core.bundling.Bundler.plan_transactions`), where
    nothing reads a request but its planner; :meth:`requests` is the way
    out for everything that wants :class:`Request` objects.

    A block drawn from a graph (``source``) is whole adjacency rows:
    request ``i`` is the row that starts at slot ``heads[i]`` of
    ``source.indices``, so ``items == source.indices[slots]``.  Built
    from its heads (an ego draw) or its slots, it gathers ``slots`` and
    ``items`` only when they are first read.  Two requests with the same
    head are the same request: the planner plans each row once per run
    and tallies a known row without its items
    (:meth:`repro.core.bundling.Bundler._plan_rows`).
    """

    __slots__ = ("_items", "offsets", "_slots", "source", "heads")

    def __init__(self, items, offsets, slots=None, source=None, heads=None) -> None:
        # int64 arrays: items[T] end to end, offsets[n + 1] with offsets[n] == T,
        # each item's slot and each request's first slot in source.indices
        self._items, self.offsets, self._slots, self.source = items, offsets, slots, source
        self.heads = slots[offsets[:-1]] if heads is None and slots is not None else heads

    @property
    def items(self) -> np.ndarray:
        if self._items is None:
            self._items = self.source.indices.take(self.slots)
        return self._items

    @property
    def slots(self) -> np.ndarray | None:
        if self._slots is None and self.heads is not None:
            self._slots = runs(self.heads, self.offsets[1:] - self.offsets[:-1])
        return self._slots

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def requests(self) -> list[Request]:
        flat, bounds = self.items.tolist(), self.offsets.tolist()
        return [Request(tuple(flat[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(slots=True)
class Transaction:
    """One multi-get sent to a single server.

    ``primary`` holds the items this transaction is *responsible* for
    (chosen by the set cover); ``hitchhikers`` holds redundant items
    piggybacked onto it (paper section III-C2).  The server-side cost of
    the transaction depends on ``len(primary) + len(hitchhikers)`` items
    plus a fixed per-transaction cost.  Not frozen: a plan builds several a
    request, and a frozen dataclass's ``__init__`` costs about three times as
    much; nothing changes one after its plan is made.
    """

    server: ServerId
    primary: tuple[ItemId, ...]
    hitchhikers: tuple[ItemId, ...] = ()

    @property
    def n_items(self) -> int:
        return len(self.primary) + len(self.hitchhikers)


@dataclass(frozen=True, slots=True)
class FetchPlan:
    """The client's plan for one request: the transactions of round one.

    The plan is produced by :class:`repro.core.bundling.Bundler` before any
    server is contacted; misses may later force a second round (handled by
    :class:`repro.core.client.RnBClient`).
    """

    request: Request
    transactions: tuple[Transaction, ...]

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    @property
    def servers(self) -> tuple[ServerId, ...]:
        return tuple(t.server for t in self.transactions)

    def planned_items(self) -> set[ItemId]:
        """All items covered by primary assignments."""
        out: set[ItemId] = set()
        for t in self.transactions:
            out.update(t.primary)
        return out


@dataclass(slots=True)
class FetchResult:
    """Outcome of executing one request against a cluster.

    ``transactions`` counts *all* rounds (the paper's TPR numerator).
    ``items_fetched`` counts items actually returned to the user;
    ``items_transferred`` additionally counts hitchhiker payloads, i.e. the
    network traffic in item units.
    """

    request: Request
    transactions: int
    items_fetched: int
    items_transferred: int
    misses: int
    second_round_transactions: int
    servers_contacted: tuple[ServerId, ...] = ()
    txn_sizes: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class ReplicaSet:
    """The ordered replica locations of one item.

    Index 0 is the *distinguished copy* (paper section III-C1): the replica
    that is pinned in memory and used for single-item transactions and for
    second-round fetches after misses.
    """

    item: ItemId
    servers: tuple[ServerId, ...]

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("replica set must name at least one server")
        if len(set(self.servers)) != len(self.servers):
            raise ValueError("replica servers must be distinct")

    @property
    def distinguished(self) -> ServerId:
        return self.servers[0]

    @property
    def replication(self) -> int:
        return len(self.servers)


@dataclass(slots=True)
class ClusterStats:
    """Aggregated counters over a simulation run."""

    requests: int = 0
    transactions: int = 0
    items_fetched: int = 0
    items_transferred: int = 0
    misses: int = 0
    second_round_transactions: int = 0
    txn_size_histogram: dict[int, int] = field(default_factory=dict)
    per_server_transactions: dict[ServerId, int] = field(default_factory=dict)

    def record(self, result: FetchResult) -> None:
        self.requests += 1
        self.transactions += result.transactions
        self.items_fetched += result.items_fetched
        self.items_transferred += result.items_transferred
        self.misses += result.misses
        self.second_round_transactions += result.second_round_transactions
        for size in result.txn_sizes:
            self.txn_size_histogram[size] = self.txn_size_histogram.get(size, 0) + 1
        for s in result.servers_contacted:
            self.per_server_transactions[s] = self.per_server_transactions.get(s, 0) + 1

    def record_transactions(
        self,
        n_requests: int,
        txn_servers: np.ndarray,
        txn_sizes: np.ndarray,
        misses: int = 0,
        second_round: int = 0,
    ) -> None:
        """:meth:`record` for a chunk of full-cover requests without hitchhikers.

        ``txn_servers`` / ``txn_sizes`` are the chunk's transactions of
        both rounds in execution order
        (:meth:`repro.core.bundling.Bundler.plan_transactions`, then
        ``RnBClient.execute_chunk``'s second rounds); ``misses`` counts
        the first-round misses, every one of which the ``second_round``
        transactions fetched again.  The result is field for field, and
        key order for key order, what recording each request's
        ``FetchResult`` would leave.
        """
        n_items = int(txn_sizes.sum()) - misses
        self.requests += n_requests
        self.transactions += len(txn_servers)
        self.items_fetched += n_items
        self.items_transferred += n_items
        self.misses += misses
        self.second_round_transactions += second_round
        add_counts(self.txn_size_histogram, txn_sizes)
        add_counts(self.per_server_transactions, txn_servers)

    @property
    def tpr(self) -> float:
        """Mean transactions per request."""
        if self.requests == 0:
            return 0.0
        return self.transactions / self.requests

    def tprps(self, n_servers: int) -> float:
        """Transactions per request per server."""
        if n_servers <= 0:
            raise ValueError("n_servers must be positive")
        return self.tpr / n_servers

    @property
    def miss_rate(self) -> float:
        if self.items_fetched == 0:
            return 0.0
        return self.misses / (self.misses + self.items_fetched)
