"""Dependency-free metrics core: counters, gauges, histograms, registry.

The repo measured its distributions ad-hoc — ``loadgen`` ran inline
numpy percentiles, ``overload`` kept private counters, the DES and the
live protocol path reported different numbers with no shared vocabulary.
This module is the one substrate both clocks feed (docs/OBSERVABILITY.md
has the catalog):

* :class:`Counter` — monotone float total (``_total`` families);
* :class:`Gauge` — instantaneous value, settable or *callback-backed*
  (``fn=``), which is how :class:`repro.overload.load.LoadTracker` and
  :class:`repro.overload.breaker.BreakerBoard` expose internal state
  without callers reaching into private attributes;
* :class:`Histogram` — log-bucketed (log-linear, ``subbuckets`` linear
  buckets per power of two, HdrHistogram-style) so two histograms with
  the same geometry **merge exactly**: bucket counts add, and every
  quantile of the merge is the quantile of the union — no reservoir
  sampling, no merge-order dependence.  With ``track_values=True`` it
  additionally retains raw observations for exact percentiles (the load
  generator uses this to keep its printed report byte-identical with
  the pre-obs numpy math).
* :class:`MetricsRegistry` — named, labelled families with
  **deterministic snapshot ordering** (families sorted by name, series
  sorted by label string), so a same-seed simulated run snapshots to
  identical bytes and :meth:`MetricsRegistry.token` is a regression
  token in the established determinism-token pattern.

Everything here is pure stdlib; instruments are plain attribute
arithmetic on the hot path (one dict upsert per histogram observation);
``bench/``'s ``obs.overhead_frac`` measures their cost on the live path.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.hashing.hashfns import stable_hash64

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: default linear sub-buckets per power of two (~9% relative bucket width)
DEFAULT_SUBBUCKETS = 8


def format_value(value: float) -> str:
    """Canonical number rendering: integers bare, floats via ``repr``."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def label_string(labels: Mapping[str, object]) -> str:
    """Canonical ``key="value"`` label rendering, sorted by key.

    The empty mapping renders to ``""`` — an unlabelled series.  This
    string is the series' identity inside a family and the sort key of
    deterministic snapshots, and doubles as the Prometheus label block.
    """
    if not labels:
        return ""
    return ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge")
        self.value += amount

    def get(self) -> float:
        return self.value


class Gauge:
    """An instantaneous value; settable, or backed by a callback.

    With ``fn`` the gauge reads live state at snapshot time — the
    pattern :meth:`repro.overload.load.LoadTracker.bind_metrics` uses so
    internal counters are readable without private-attribute access.
    """

    __slots__ = ("value", "fn")

    def __init__(self, fn: Callable[[], float] | None = None) -> None:
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ConfigurationError("callback-backed gauges cannot be set")
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.fn is not None:
            raise ConfigurationError("callback-backed gauges cannot be set")
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def get(self) -> float:
        return float(self.fn()) if self.fn is not None else self.value


class Histogram:
    """Log-linear bucketed histogram with exact merge semantics.

    Positive observations land in bucket ``e * subbuckets + k`` where
    ``value = m * 2**e`` (``frexp``, ``m`` in [0.5, 1)) and ``k`` is the
    linear sub-bucket of the mantissa — so bucket boundaries are a pure
    function of ``subbuckets``, and histograms with equal geometry merge
    by adding counts with no quantile error beyond the bucket width.
    Zero and negative observations are legal (latencies are never
    negative, but deltas can be) and land in a dedicated underflow
    bucket below every positive index.

    ``quantile(q)`` returns the midpoint of the bucket holding the
    q-th observation — deterministic, within ~``1/subbuckets`` relative
    error.  With ``track_values=True`` the raw observations are also
    retained and :meth:`percentile` computes exact linear-interpolation
    percentiles (numpy-compatible), which the load generator's printed
    report depends on byte for byte.
    """

    __slots__ = ("subbuckets", "count", "sum", "min", "max", "buckets", "values")

    #: bucket index for observations <= 0 (below any positive index,
    #: which is at least ``(frexp exponent ~ -1073) * subbuckets``)
    UNDERFLOW = -(1 << 24)

    def __init__(self, *, subbuckets: int = DEFAULT_SUBBUCKETS, track_values: bool = False):
        if subbuckets < 1:
            raise ConfigurationError("subbuckets must be >= 1")
        self.subbuckets = subbuckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}
        self.values: list[float] | None = [] if track_values else None

    # -- recording --------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return self.UNDERFLOW
        m, e = math.frexp(value)
        return e * self.subbuckets + int((m * 2.0 - 1.0) * self.subbuckets)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        if self.values is not None:
            self.values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    def observe_n(self, value: float, n: int) -> None:
        """Record ``value`` ``n`` times in one update.

        Equivalent to ``n`` calls to :meth:`observe` whenever
        ``value * n`` is exact in float arithmetic (always true for the
        integer-valued series batch planners feed through here) — the
        bulk form exists so a vectorised path can fold a whole batch's
        worth of identical observations into one bucket upsert instead
        of paying the per-observation hook on its hot loop.
        """
        if n < 0:
            raise ConfigurationError("observation weight must be >= 0")
        if n == 0:
            return
        value = float(value)
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + n
        if self.values is not None:
            self.values.extend([value] * n)

    # -- bucket geometry --------------------------------------------------

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """The ``[lower, upper)`` value range of bucket ``index``."""
        if index == self.UNDERFLOW:
            return (-math.inf, 0.0)
        e, k = divmod(index, self.subbuckets)
        base = math.ldexp(1.0, e - 1)  # 2**(e-1)
        return (base * (1 + k / self.subbuckets), base * (1 + (k + 1) / self.subbuckets))

    # -- queries ----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-midpoint quantile estimate (deterministic, bounded error)."""
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                lo, hi = self.bucket_bounds(idx)
                if not math.isfinite(lo):
                    return min(self.max, 0.0)
                return min(max((lo + hi) / 2.0, self.min), self.max)
        return self.max  # pragma: no cover - unreachable

    def percentile(self, p: float) -> float:
        """Exact linear-interpolation percentile over tracked raw values.

        Requires ``track_values=True``; matches ``numpy.percentile``'s
        default (linear) method bit for bit, which keeps reports that
        migrated from inline numpy math byte-identical.
        """
        if self.values is None:
            raise ConfigurationError(
                "percentile() needs track_values=True; use quantile() on buckets"
            )
        if not (0.0 <= p <= 100.0):
            raise ConfigurationError("percentile must be in [0, 100]")
        if not self.values:
            return 0.0
        data = sorted(self.values)
        virtual = (len(data) - 1) * (p / 100.0)
        lo = math.floor(virtual)
        hi = math.ceil(virtual)
        if lo == hi:
            return data[lo]
        return data[lo] * (hi - virtual) + data[hi] * (virtual - lo)

    # -- merge ------------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in exactly; geometries must match."""
        if other.subbuckets != self.subbuckets:
            raise ConfigurationError(
                "cannot merge histograms with different subbucket geometry "
                f"({self.subbuckets} vs {other.subbuckets})"
            )
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for idx, c in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + c
        if self.values is not None and other.values is not None:
            self.values.extend(other.values)

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view: counts, sum, bounds, sorted buckets.

        Raw tracked values deliberately stay out of the snapshot — the
        snapshot is the exported/persisted artifact and must stay small
        and mergeable.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "subbuckets": self.subbuckets,
            "buckets": [
                [idx, self.bucket_bounds(idx)[1], self.buckets[idx]]
                for idx in sorted(self.buckets)
            ],
        }


class _Family:
    """One named metric family: a type, help text, and labelled series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: dict[str, Counter | Gauge | Histogram] = {}


_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


class MetricsRegistry:
    """Named, labelled metric families with deterministic snapshots.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the family's type (and help text); later calls with the
    same name and labels return the *same* instrument, so independent
    subsystems share series without coordination.  Asking for an
    existing name with a different type raises
    :class:`repro.errors.ConfigurationError` — silent type punning is
    how ad-hoc telemetry rots.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- instrument factories --------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        if not name or not set(name) <= _NAME_OK or name[0].isdigit():
            raise ConfigurationError(f"invalid metric name {name!r}")
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, help)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        return fam

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        fam = self._family(name, COUNTER, help)
        key = label_string(labels)
        inst = fam.series.get(key)
        if inst is None:
            inst = fam.series[key] = Counter()
        return inst

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
        **labels: object,
    ) -> Gauge:
        fam = self._family(name, GAUGE, help)
        key = label_string(labels)
        inst = fam.series.get(key)
        if inst is None:
            inst = fam.series[key] = Gauge(fn)
        elif fn is not None:
            inst.fn = fn  # re-binding a callback gauge points it at new state
        return inst

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        subbuckets: int = DEFAULT_SUBBUCKETS,
        track_values: bool = False,
        **labels: object,
    ) -> Histogram:
        fam = self._family(name, HISTOGRAM, help)
        key = label_string(labels)
        inst = fam.series.get(key)
        if inst is None:
            inst = fam.series[key] = Histogram(
                subbuckets=subbuckets, track_values=track_values
            )
        return inst

    # -- introspection ----------------------------------------------------

    def families(self) -> list[str]:
        """Sorted family names (the metric catalog of this registry)."""
        return sorted(self._families)

    def kind(self, name: str) -> str:
        return self._families[name].kind

    def get(self, name: str, **labels: object):
        """The instrument for ``(name, labels)``, or None if absent."""
        fam = self._families.get(name)
        if fam is None:
            return None
        return fam.series.get(label_string(labels))

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministically ordered plain-data view of every series.

        Families sort by name, series by canonical label string, so two
        runs that made identical observations in identical order render
        to identical bytes (``json.dumps(..., sort_keys=True)`` of this
        is the determinism surface; :meth:`token` hashes it).
        """
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            fam = self._families[name]
            series: dict[str, object] = {}
            for key in sorted(fam.series):
                inst = fam.series[key]
                if isinstance(inst, Histogram):
                    series[key] = inst.snapshot()
                else:
                    series[key] = inst.get()
            out[name] = {"type": fam.kind, "help": fam.help, "series": series}
        return out

    def token(self, seed: int = 0) -> int:
        """64-bit digest of the snapshot (determinism-token pattern)."""
        return stable_hash64(
            json.dumps(self.snapshot(), sort_keys=True, default=repr), seed=seed
        )
