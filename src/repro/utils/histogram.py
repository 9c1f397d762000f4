"""Integer-valued histogram with summary statistics.

Used for transaction-size histograms (the input to throughput
calibration, paper section III-B) and node-degree histograms (Figs 4–5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


def first_seen_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` and how often each occurs, in order of first occurrence.

    The order a ``dict`` would list its keys in after counting
    ``values`` — small non-negative integers — one by one.  It is kept
    because downstream sums over those dicts run in key order with float
    weights (:func:`repro.analysis.throughput.work_per_request`), so a
    chunk counted at once must insert new keys where a per-value loop
    would.
    """
    counts = np.bincount(values)
    keys = np.flatnonzero(counts)
    first = np.empty(len(counts), dtype=np.intp)
    # of the writes to one slot the last wins: reversed, the first occurrence
    first[values[::-1]] = np.arange(len(values) - 1, -1, -1)
    keys = keys[first[keys].argsort()]
    return keys, counts[keys]


def add_counts(counts: dict[int, int], values: np.ndarray) -> None:
    """``for v in values: counts[v] = counts.get(v, 0) + 1``, one pass per distinct value."""
    keys, ns = first_seen_counts(values)
    for value, n in zip(keys.tolist(), ns.tolist()):
        counts[value] = counts.get(value, 0) + n


@dataclass(slots=True)
class Histogram:
    """Counts of non-negative integer observations."""

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Histogram":
        h = cls()
        h.update(values)
        return h

    def add(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        if count <= 0:
            raise ValueError("count must be positive")
        self.counts[value] = self.counts.get(value, 0) + count

    def update(self, values: Iterable[int]) -> None:
        for v in values:
            self.add(v)

    def merge(self, other: "Histogram") -> None:
        for v, c in other.counts.items():
            self.add(v, c)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.counts.items()))

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        """Total number of observations."""
        return sum(self.counts.values())

    @property
    def mean(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / total

    @property
    def max(self) -> int:
        if not self.counts:
            raise ValueError("empty histogram has no max")
        return max(self.counts)

    @property
    def min(self) -> int:
        if not self.counts:
            raise ValueError("empty histogram has no min")
        return min(self.counts)

    def quantile(self, q: float) -> int:
        """Smallest value v such that P(X <= v) >= q."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if not self.counts:
            raise ValueError("empty histogram has no quantiles")
        target = q * self.total
        seen = 0
        for v, c in sorted(self.counts.items()):
            seen += c
            if seen >= target:
                return v
        return max(self.counts)

    def binned(self, bin_edges: Iterable[int]) -> list[tuple[str, int]]:
        """Aggregate counts into labelled half-open bins ``[lo, hi)``.

        ``bin_edges`` are ascending; a final open bin ``[last, inf)`` is
        appended.  Used to print degree histograms compactly.
        """
        edges = list(bin_edges)
        if edges != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bin edges must be strictly ascending")
        labels: list[str] = []
        totals: list[int] = []
        for lo, hi in zip(edges, edges[1:]):
            labels.append(f"[{lo},{hi})")
            totals.append(0)
        labels.append(f"[{edges[-1]},inf)")
        totals.append(0)
        for v, c in self.counts.items():
            idx = int(np.searchsorted(edges, v, side="right")) - 1
            if idx < 0:
                raise ValueError(f"value {v} below first bin edge {edges[0]}")
            idx = min(idx, len(totals) - 1)
            totals[idx] += c
        return list(zip(labels, totals))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, counts) as sorted numpy arrays."""
        if not self.counts:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        items = sorted(self.counts.items())
        vals = np.array([v for v, _ in items], dtype=np.int64)
        cnts = np.array([c for _, c in items], dtype=np.int64)
        return vals, cnts
