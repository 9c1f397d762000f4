"""Cross-request merging (paper section III-E).

Real memcached front-ends (moxi, spymemcached — paper refs [12], [13])
collect several nearby end-user requests and issue them as one, halving
or better the per-original-request transaction count.  RnB composes with
merging, but the paper warns it can dilute *request locality*: items from
unrelated requests have no intrinsic affinity, so a merged cover may pick
different replicas than the per-request covers would, enlarging the
memory footprint under overbooking.

``merge_requests`` combines a window of requests into one; the union is
deduplicated because a multi-get for the same key twice costs the server
once.  TPR figures for merged workloads are reported **per original
request** (the paper normalises Fig 9/10 the same way), which callers get
by dividing by the window size — see
:func:`repro.sim.engine.run_simulation`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.types import Request


def merge_requests(requests: Sequence[Request]) -> Request:
    """Merge a batch of requests into a single deduplicated request.

    LIMIT clauses do not compose across users (each user needs *their*
    fraction), so merging requires plain requests.
    """
    if not requests:
        raise ValueError("cannot merge an empty batch")
    for r in requests:
        if r.limit_fraction is not None:
            raise ValueError("cannot merge LIMIT-style requests")
    # dict keys: the union in order of first appearance
    return Request(items=tuple(dict.fromkeys(chain.from_iterable(r.items for r in requests))))


def merge_stream(requests: Iterable[Request], window: int) -> Iterator[Request]:
    """Merge every ``window`` consecutive requests of a stream.

    ``window=1`` is the identity; the paper evaluates ``window=2``
    (Figs 9–10).  A trailing partial batch is merged as-is.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    batch: list[Request] = []
    for r in requests:
        batch.append(r)
        if len(batch) == window:
            yield merge_requests(batch)
            batch = []
    if batch:
        yield merge_requests(batch)
