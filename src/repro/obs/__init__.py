"""``repro.obs`` — the unified observability layer (docs/OBSERVABILITY.md).

One dependency-free telemetry substrate for every subsystem and both
time domains: a :class:`MetricsRegistry` of counters, gauges and
log-bucketed histograms with deterministic snapshots, a :class:`Tracer`
for parent/child request spans on an injectable clock, and Prometheus
text export reachable through the extended memcached ``stats metrics``
verb and the ``rnb stats`` CLI.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CONSISTENCY_FAMILIES": "repro.obs.export",
        "CORE_REQUEST_FAMILIES": "repro.obs.export",
        "family_of": "repro.obs.export",
        "merge_samples": "repro.obs.export",
        "parse_sample_name": "repro.obs.export",
        "PARTITION_FAMILIES": "repro.obs.export",
        "render_prometheus": "repro.obs.export",
        "samples": "repro.obs.export",
        "COUNTER": "repro.obs.metrics",
        "Counter": "repro.obs.metrics",
        "format_value": "repro.obs.metrics",
        "GAUGE": "repro.obs.metrics",
        "Gauge": "repro.obs.metrics",
        "HISTOGRAM": "repro.obs.metrics",
        "Histogram": "repro.obs.metrics",
        "label_string": "repro.obs.metrics",
        "MetricsRegistry": "repro.obs.metrics",
        "Span": "repro.obs.tracing",
        "Tracer": "repro.obs.tracing",
    },
)
