"""Request-stream generators.

* :class:`EgoRequestGenerator` — the paper's workload (section III-B):
  pick a user uniformly at random, request the items of all the user's
  friends.  Users with no friends generate no work, so roots are drawn
  from the non-isolated nodes (documented deviation: the paper does not
  say how zero-degree users were handled; skipping them only removes
  empty requests, which contribute zero transactions either way).
* :class:`RandomRequestGenerator` — M independent uniformly random items
  per request, the model of the simplified Monte-Carlo simulator
  (section III-F).
* :func:`with_limit` — decorate a stream with a LIMIT clause.
* merging lives in :mod:`repro.core.merge` and composes with any stream.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.types import Request, RequestBlock, runs
from repro.utils.rng import ensure_rng
from repro.workloads.graphs import SocialGraph


#: requests per block of :meth:`EgoRequestGenerator.blocks` (one RNG call each)
_STREAM_BLOCK = 1024


class EgoRequestGenerator:
    """Ego-network requests over a social graph.

    Each request fetches the "status" items of one uniformly chosen
    user's friends (out-neighbours).

    There is one draw path, :meth:`block`: ``k`` roots from one
    ``rng.integers(len(roots), size=k)`` call — the values of ``k``
    scalar draws in order, however the ``k`` are split over calls
    (tested) — and their adjacency rows, named by where each starts in
    the graph, as a :class:`~repro.types.RequestBlock`.  :meth:`stream` and
    :meth:`generate` are that block turned into :class:`Request` objects,
    so every consumer sees the same requests and leaves the rng in the
    same place; the simulator's tally regime plans the blocks directly
    and never builds a ``Request`` (docs/PERFORMANCE.md, section 3).
    """

    def __init__(self, graph: SocialGraph, *, rng=None, include_self: bool = False):
        self.graph = graph
        self.rng = ensure_rng(rng)
        self.include_self = include_self
        self._roots = graph.nonisolated_nodes()
        if len(self._roots) == 0:
            raise WorkloadError("graph has no nodes with out-neighbours")

    def block(self, k: int) -> RequestBlock:
        """The next ``k`` requests as one block: their rows' heads (each
        root's first slot in ``graph.indices``), whose items the block
        gathers only when read — or, with ``include_self``, their items."""
        roots = self._roots[self.rng.integers(len(self._roots), size=k)]
        indptr = self.graph.indptr
        heads = indptr[roots]
        sizes = indptr[roots + 1] - heads
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if not self.include_self:
            return RequestBlock(None, offsets, source=self.graph, heads=heads)
        items = self.graph.indices[runs(heads, sizes)]
        # the root first, then its friends without the root itself: the
        # roots lead the concatenation, so a stable sort by request does it
        keep = items != np.repeat(roots, sizes)
        row = np.concatenate((np.arange(k), np.repeat(np.arange(k), sizes)[keep]))
        items = np.concatenate((roots, items[keep]))[np.argsort(row, kind="stable")]
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=k), out=offsets[1:])
        return RequestBlock(items, offsets)

    def blocks(self, n: int | None = None) -> Iterator[RequestBlock]:
        """``n`` requests (endless if ``n`` is None), ``_STREAM_BLOCK`` a block."""
        while n is None or n > 0:
            k = _STREAM_BLOCK if n is None else min(_STREAM_BLOCK, n)
            yield self.block(k)
            if n is not None:
                n -= k

    def generate(self) -> Request:
        return self.block(1).requests()[0]

    def stream(self, n: int | None = None) -> Iterator[Request]:
        """Yield ``n`` requests (infinite if ``n`` is None).

        The requests of :meth:`blocks`; the infinite stream runs ahead of
        its consumer by less than one block of draws.
        """
        for block in self.blocks(n):
            yield from block.requests()

    def mean_request_size(self) -> float:
        """Expected request size = mean degree over non-isolated roots."""
        degrees = self.graph.out_degrees()
        nz = degrees[degrees > 0]
        return float(nz.mean()) + (1.0 if self.include_self else 0.0)


class RandomRequestGenerator:
    """Requests of ``request_size`` distinct uniformly random items."""

    def __init__(self, n_items: int, request_size: int, *, rng=None):
        if request_size > n_items:
            raise WorkloadError("request_size cannot exceed the item universe")
        if request_size < 1:
            raise WorkloadError("request_size must be positive")
        self.n_items = n_items
        self.request_size = request_size
        self.rng = ensure_rng(rng)

    def generate(self) -> Request:
        items = self.rng.choice(self.n_items, size=self.request_size, replace=False)
        return Request(items=tuple(items.tolist()))

    def stream(self, n: int | None = None) -> Iterator[Request]:
        if n is None:
            while True:
                yield self.generate()
        else:
            for _ in range(n):
                yield self.generate()


class ZipfRequestGenerator:
    """Requests of ``request_size`` distinct items drawn by Zipf popularity.

    Models hot-item skew without a graph: a few items appear in most
    requests (like celebrity statuses), the tail rarely.  This is the
    cross-request-locality counterpart of the ego workload — under
    overbooking, the hot items' chosen replicas stay warm in the LRUs
    while cold-tail replicas age out.

    Popularity rank is a fixed random permutation of the item ids so
    that popular items are spread across servers.
    """

    def __init__(
        self,
        n_items: int,
        request_size: int,
        *,
        exponent: float = 1.0,
        rng=None,
    ):
        if request_size > n_items:
            raise WorkloadError("request_size cannot exceed the item universe")
        if request_size < 1:
            raise WorkloadError("request_size must be positive")
        if exponent < 0:
            raise WorkloadError("exponent must be non-negative")
        from repro.workloads.zipf import zipf_weights

        self.n_items = n_items
        self.request_size = request_size
        self.exponent = exponent
        self.rng = ensure_rng(rng)
        weights = zipf_weights(n_items, exponent)
        perm = self.rng.permutation(n_items)
        self._item_weights = np.empty(n_items, dtype=np.float64)
        self._item_weights[perm] = weights

    def generate(self) -> Request:
        items = self.rng.choice(
            self.n_items, size=self.request_size, replace=False, p=self._item_weights
        )
        return Request(items=tuple(items.tolist()))

    def stream(self, n: int | None = None) -> Iterator[Request]:
        if n is None:
            while True:
                yield self.generate()
        else:
            for _ in range(n):
                yield self.generate()


def with_limit(requests, fraction: float) -> Iterator[Request]:
    """Decorate a request stream with a LIMIT clause.

    ``fraction=1.0`` still marks the request as LIMIT-style (the client
    may exploit flexibility in *which* copy it fetches but must return
    everything), matching the paper's 100% curves in Fig 11.
    """
    for r in requests:
        yield Request(items=r.items, limit_fraction=fraction)
