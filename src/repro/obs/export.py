"""Telemetry export: Prometheus text exposition and stats-verb samples.

Three consumers share this module (docs/OBSERVABILITY.md):

* :func:`render_prometheus` — the full text exposition
  (``# HELP`` / ``# TYPE`` + samples) for humans, files, and scrapers;
* :func:`samples` — the flat ``(sample_name, value)`` list the extended
  memcached ``stats metrics`` verb ships as ``STAT`` lines
  (:meth:`repro.protocol.memserver.MemcachedServer.metrics_samples`):
  sample names are Prometheus-grammar (``family{label="v"}`` plus the
  ``_bucket``/``_sum``/``_count`` histogram expansion) and contain no
  spaces, so they fit the memcached ``STAT <key> <value>`` line format
  unescaped;
* :func:`parse_sample_name` / :func:`merge_samples` — the scrape side:
  ``rnb stats`` pulls ``STAT`` lines from every server in a fleet and
  merges them into per-family totals (counters and histogram components
  add; gauges keep per-server values apart).

Histograms export the classic cumulative-``le`` form: bucket upper
bounds come from the log-linear geometry (:class:`repro.obs.metrics.
Histogram`), rendered cumulatively with a terminal ``+Inf`` bucket.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
    format_value,
)


#: the per-request metric families every RnB read path emits — the DES
#: (``path="sim"``), the sync protocol client (``"live"``) and the async
#: client (``"aio"``) all register exactly these, which is what lets the
#: loadtest and the load_soak experiment diff telemetry across time
#: domains and what ``rnb stats --require`` checks by default
CORE_REQUEST_FAMILIES = (
    "rnb_requests_total",
    "rnb_request_latency_seconds",
    "rnb_items_total",
    "rnb_busy_sheds_total",
    "rnb_deadline_hits_total",
    "rnb_retries_total",
    "rnb_plans_total",
    "rnb_cover_size",
)

#: the write-path / consistency metric families (docs/CONSISTENCY.md):
#: quorum writes by outcome and acks landed (repro.consistency.quorum),
#: divergences seen and repairs dispatched by versioned reads
#: (repro.consistency.readrepair), scrub progress gauges
#: (repro.consistency.scrub), and the paper-§IV atomic update's
#: counters (LiveRnBClient._atomic_update in repro.protocol.rnbclient)
CONSISTENCY_FAMILIES = (
    "rnb_quorum_writes_total",
    "rnb_quorum_acks",
    "rnb_divergences_total",
    "rnb_divergence_repairs_total",
    "rnb_scrub_cycles",
    "rnb_scrub_repairs",
    "rnb_scrub_divergent_last",
    "rnb_scrub_prune_ratio",
    "rnb_consistency_ops_total",
    "rnb_consistency_strip_skips_total",
    "rnb_cas_retries",
)

#: the partition-tolerance metric families (docs/PARTITIONS.md): link
#: cuts observed at the cluster gate / DES dispatcher
#: (repro.faults.partition), nemesis timeline events
#: (repro.faults.nemesis), distinguished-only degraded reads
#: (repro.consistency.readrepair), and the history checker's op /
#: violation counters (repro.consistency.history).  Quorum-gate write
#: rejections ride the existing rnb_quorum_writes_total{outcome=
#: "rejected"} series of CONSISTENCY_FAMILIES.
PARTITION_FAMILIES = (
    "rnb_partition_blocked_total",
    "rnb_partition_links_active",
    "rnb_nemesis_events_total",
    "rnb_reads_degraded_total",
    "rnb_history_ops_total",
    "rnb_history_violations_total",
)


def _histogram_samples(name: str, key: str, snap: dict) -> list[tuple[str, float]]:
    """Cumulative ``_bucket``/``_sum``/``_count`` expansion of one series."""
    sep = "," if key else ""
    out: list[tuple[str, float]] = []
    cum = 0
    for _idx, upper, count in snap["buckets"]:
        cum += count
        le = format_value(upper)
        out.append((f'{name}_bucket{{{key}{sep}le="{le}"}}', float(cum)))
    out.append((f'{name}_bucket{{{key}{sep}le="+Inf"}}', float(snap["count"])))
    suffix = f"{{{key}}}" if key else ""
    out.append((f"{name}_sum{suffix}", snap["sum"]))
    out.append((f"{name}_count{suffix}", float(snap["count"])))
    return out


def samples(registry: MetricsRegistry) -> list[tuple[str, float]]:
    """Flat, deterministically ordered ``(sample_name, value)`` pairs."""
    out: list[tuple[str, float]] = []
    for name, family in registry.snapshot().items():
        for key, value in family["series"].items():
            if family["type"] == HISTOGRAM:
                out.extend(_histogram_samples(name, key, value))
            else:
                suffix = f"{{{key}}}" if key else ""
                out.append((f"{name}{suffix}", float(value)))
    return out


def render_prometheus(registry: MetricsRegistry) -> str:
    """The standard text exposition of every family in ``registry``."""
    lines: list[str] = []
    for name, family in registry.snapshot().items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for key, value in family["series"].items():
            if family["type"] == HISTOGRAM:
                for sample_name, sample_value in _histogram_samples(name, key, value):
                    lines.append(f"{sample_name} {format_value(sample_value)}")
            else:
                suffix = f"{{{key}}}" if key else ""
                lines.append(f"{name}{suffix} {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_sample_name(sample: str) -> tuple[str, dict[str, str]]:
    """Split ``family{k="v",...}`` into ``(family, labels)``.

    The inverse of the sample naming above for the label grammar this
    repo emits (no escaped quotes or commas inside label values — the
    catalog uses identifiers and numbers only).
    """
    if "{" not in sample:
        return sample, {}
    if not sample.endswith("}"):
        raise ProtocolError(f"malformed sample name {sample!r}")
    family, _, blob = sample[:-1].partition("{")
    labels: dict[str, str] = {}
    if blob:
        for part in blob.split(","):
            k, sep, v = part.partition("=")
            if not sep or len(v) < 2 or v[0] != '"' or v[-1] != '"':
                raise ProtocolError(f"malformed label {part!r} in {sample!r}")
            labels[k] = v[1:-1]
    return family, labels


def family_of(sample: str) -> str:
    """The family a sample belongs to, folding histogram suffixes back."""
    name, _ = parse_sample_name(sample)
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def merge_samples(per_source: dict[str, dict[str, float]]) -> dict[str, float]:
    """Merge scraped sample maps from several servers into fleet totals.

    Counter-like samples (``_total``/``_bucket``/``_sum``/``_count``
    suffixes) add across sources — exact for counters and for
    histograms, whose equal-geometry buckets merge by addition.  Other
    samples (gauges) are point-in-time per-server readings, so they are
    re-keyed with a ``source`` label instead of being summed.
    """
    merged: dict[str, float] = {}
    for source in sorted(per_source):
        for sample, value in per_source[source].items():
            name, _ = parse_sample_name(sample)
            additive = name.endswith(("_total", "_bucket", "_sum", "_count"))
            if additive:
                merged[sample] = merged.get(sample, 0.0) + value
            else:
                family, labels = parse_sample_name(sample)
                labels["source"] = source
                key = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
                merged[f"{family}{{{key}}}"] = value
    return merged
