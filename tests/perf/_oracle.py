"""Reference implementations: the chunk planner as it was while it was
mask-major (docs/PERFORMANCE.md, "PR 21").

Copied from the parent commit, kept only under ``tests/``: bit *i* of a
uint64 is item *i* of a request, so requests of at most 63 items go
through a single-lane kernel, wider ones through a multi-lane kernel
padded to the chunk's widest request, and a per-request loop decodes
the pick masks again.  ``test_batchcover.py`` holds the item-major
kernel and ``Bundler``'s array finishing to them.  They need
``np.bitwise_count`` (NumPy >= 2.0), which is why they left ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverError

#: Largest request size (elements per cover) one uint64 lane supports.
MAX_BATCH_ELEMENTS = 63

HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def batch_masks(req_of_item, bit_of_item, servers, n_requests, n_servers):
    """Scatter per-replica rows into the ``(C, N)`` uint64 mask matrix."""
    replication = servers.shape[1]
    masks = np.zeros((n_requests, n_servers), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (np.repeat(req_of_item, replication), servers.ravel()),
        np.repeat(bit_of_item, replication),
    )
    return masks


def batch_greedy_cover(masks, full):
    """Per request, ``[(server, newly_mask), ...]`` in selection order."""
    n_requests = masks.shape[0]
    picks = [[] for _ in range(n_requests)]
    uncovered = full.astype(np.uint64, copy=True)
    active = np.flatnonzero(uncovered)
    while active.size:
        unc = uncovered[active]
        sub = masks[active]
        gains = np.bitwise_count(sub & unc[:, None])
        best = gains.argmax(axis=1)
        rows = np.arange(active.size)
        if not gains[rows, best].all():
            raise CoverError("batched greedy stalled")
        newly = sub[rows, best] & unc
        unc ^= newly  # newly is a subset of unc
        uncovered[active] = unc
        for req, server, mask in zip(active.tolist(), best.tolist(), newly.tolist()):
            picks[req].append((server, mask))
        active = active[unc != np.uint64(0)]
    return picks


def batch_greedy_cover_wide(masks, full):
    """Multi-lane :func:`batch_greedy_cover`: ``masks`` is ``(C, N, L)``,
    request bit ``i`` lives in lane ``i // 63``, bit ``i % 63``."""
    n_requests, _, n_lanes = masks.shape
    picks = [[] for _ in range(n_requests)]
    uncovered = full.astype(np.uint64, copy=True)
    active = np.flatnonzero(uncovered.any(axis=1))
    lane_shifts = [63 * lane for lane in range(n_lanes)]
    while active.size:
        sub = masks[active]
        unc = uncovered[active]
        newly_all = sub & unc[:, None, :]
        gains = np.bitwise_count(newly_all).sum(axis=2, dtype=np.int64)
        best = gains.argmax(axis=1)
        rows = np.arange(active.size)
        if not gains[rows, best].all():
            raise CoverError("batched greedy stalled")
        newly = newly_all[rows, best]
        unc ^= newly
        uncovered[active] = unc
        for req, server, lanes in zip(active.tolist(), best.tolist(), newly.tolist()):
            mask = 0
            for shift, lane_mask in zip(lane_shifts, lanes):
                mask |= lane_mask << shift
            picks[req].append((server, mask))
        active = active[unc.any(axis=1)]
    return picks


def batch_covers(counts, servers, n_servers):
    """The parent's ``Bundler._batch_covers``: the flattened chunk split
    into a narrow and a wide sub-chunk, one kernel each."""
    n_requests = counts.shape[0]
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    req_of_item = np.repeat(np.arange(n_requests), counts)
    local = np.arange(servers.shape[0]) - offsets[req_of_item]
    picks = [[] for _ in range(n_requests)]

    narrow = (counts > 0) & (counts <= MAX_BATCH_ELEMENTS)
    narrow_rows = np.flatnonzero(narrow)
    if narrow_rows.size:
        sel = narrow[req_of_item]
        row_of = np.cumsum(narrow) - 1  # chunk row -> narrow row
        masks = batch_masks(
            row_of[req_of_item[sel]],
            np.uint64(1) << local[sel].astype(np.uint64),
            servers[sel],
            narrow_rows.size,
            n_servers,
        )
        full = (np.uint64(1) << counts[narrow_rows].astype(np.uint64)) - np.uint64(1)
        for row, row_picks in zip(narrow_rows.tolist(), batch_greedy_cover(masks, full)):
            picks[row] = row_picks

    wide = counts > MAX_BATCH_ELEMENTS
    wide_rows = np.flatnonzero(wide)
    if wide_rows.size:
        sel = wide[req_of_item]
        row_of = np.cumsum(wide) - 1
        n_lanes = int(counts[wide_rows].max() + MAX_BATCH_ELEMENTS - 1) // MAX_BATCH_ELEMENTS
        lane = local[sel] // MAX_BATCH_ELEMENTS
        bit = np.uint64(1) << (local[sel] % MAX_BATCH_ELEMENTS).astype(np.uint64)
        replication = servers.shape[1]
        masks = np.zeros((wide_rows.size, n_servers, n_lanes), dtype=np.uint64)
        np.bitwise_or.at(
            masks,
            (
                np.repeat(row_of[req_of_item[sel]], replication),
                servers[sel].ravel(),
                np.repeat(lane, replication),
            ),
            np.repeat(bit, replication),
        )
        lane_bits = counts[wide_rows, None] - MAX_BATCH_ELEMENTS * np.arange(n_lanes)
        lane_bits = np.clip(lane_bits, 0, MAX_BATCH_ELEMENTS)
        full = (np.uint64(1) << lane_bits.astype(np.uint64)) - np.uint64(1)
        for row, row_picks in zip(wide_rows.tolist(), batch_greedy_cover_wide(masks, full)):
            picks[row] = row_picks
    return picks


def footprint(picks, homes, single_item_rule):
    """The parent's mask finishing in ``plan_footprints`` for one request:
    ``picks`` from :func:`batch_covers`, ``homes[i]`` the distinguished
    server of the request's item *i*."""
    merged: dict[int, int] = {}
    if single_item_rule:
        singles = []
        for server, mask in picks:
            if mask & (mask - 1):
                merged[server] = mask
            else:
                singles.append(mask)
        for mask in singles:
            home = homes[mask.bit_length() - 1]
            merged[home] = merged.get(home, 0) | mask
    else:
        merged.update(picks)
    return tuple((server, merged[server].bit_count()) for server in sorted(merged))
