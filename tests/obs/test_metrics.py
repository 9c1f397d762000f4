"""Metrics core: instruments, bucket geometry, registry determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
    label_string,
)


class TestCounter:
    def test_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)


class TestGauge:
    def test_settable(self):
        g = Gauge()
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.get() == 3.0

    def test_callback_backed(self):
        state = {"v": 7}
        g = Gauge(fn=lambda: state["v"])
        assert g.get() == 7.0
        state["v"] = 9
        assert g.get() == 9.0
        with pytest.raises(ConfigurationError):
            g.set(1.0)
        with pytest.raises(ConfigurationError):
            g.inc()


class TestHistogramGeometry:
    def test_bucket_bounds_contain_observation(self):
        h = Histogram()
        for value in (1e-9, 0.001, 0.5, 1.0, 1.49, 7.2, 1e6):
            idx = h.bucket_index(value)
            lo, hi = h.bucket_bounds(idx)
            assert lo <= value < hi

    def test_nonpositive_goes_to_underflow(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-3.0)
        assert h.buckets == {Histogram.UNDERFLOW: 2}
        assert h.bucket_bounds(Histogram.UNDERFLOW) == (-math.inf, 0.0)

    def test_subbuckets_bound_relative_error(self):
        h = Histogram(subbuckets=8)
        for value in (0.0013, 0.87, 3.14, 42.0):
            lo, hi = h.bucket_bounds(h.bucket_index(value))
            assert (hi - lo) / lo <= 1.0 / 8 + 1e-12

    def test_quantile_within_bucket_width(self):
        h = Histogram()
        rng = np.random.default_rng(5)
        data = rng.gamma(2.0, 3.0, size=2000)
        h.observe_many(float(v) for v in data)
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(data, q))
            assert h.quantile(q) == pytest.approx(exact, rel=0.15)

    def test_quantile_edge_cases(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        h.observe(3.0)
        assert h.quantile(0.0) == pytest.approx(3.0, rel=0.15)
        with pytest.raises(ConfigurationError):
            h.quantile(1.5)


class TestHistogramExactPercentiles:
    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        data = rng.exponential(3.0, size=501)
        h = Histogram(track_values=True)
        h.observe_many(float(v) for v in data)
        for p in (0.0, 12.5, 50.0, 99.0, 99.9, 100.0):
            assert h.percentile(p) == float(np.percentile(data, p))

    def test_requires_tracked_values(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ConfigurationError):
            h.percentile(50)

    def test_empty_is_zero(self):
        assert Histogram(track_values=True).percentile(99) == 0.0


class TestHistogramMerge:
    def test_merge_is_exact(self):
        a, b, union = Histogram(), Histogram(), Histogram()
        rng = np.random.default_rng(2)
        xs = [float(v) for v in rng.gamma(2.0, 1.0, size=300)]
        ys = [float(v) for v in rng.gamma(5.0, 0.2, size=500)]
        a.observe_many(xs)
        b.observe_many(ys)
        union.observe_many(xs + ys)
        a.merge(b)
        assert a.buckets == union.buckets
        assert a.count == union.count
        assert a.sum == pytest.approx(union.sum)
        assert a.min == union.min and a.max == union.max

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(subbuckets=8).merge(Histogram(subbuckets=16))


class TestHistogramObserveN:
    def test_equivalent_to_repeated_observe(self):
        # integer-valued series (the batch planners' case): observe_n is
        # snapshot-identical to n scalar observes
        bulk, scalar = Histogram(track_values=True), Histogram(track_values=True)
        for value, n in [(3, 4), (1, 2), (7, 1), (3, 5)]:
            bulk.observe_n(value, n)
            for _ in range(n):
                scalar.observe(value)
        assert bulk.snapshot() == scalar.snapshot()
        assert sorted(bulk.values) == sorted(scalar.values)

    def test_zero_weight_is_a_noop_and_negative_rejected(self):
        h = Histogram()
        h.observe_n(5.0, 0)
        assert h.count == 0 and h.buckets == {}
        with pytest.raises(ConfigurationError):
            h.observe_n(5.0, -1)


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("rnb_x_total", "x", path="sim")
        b = reg.counter("rnb_x_total", path="sim")
        assert a is b
        a.inc()
        assert reg.get("rnb_x_total", path="sim").get() == 1.0
        assert reg.get("rnb_x_total", path="nope") is None
        assert reg.get("rnb_missing") is None

    def test_type_conflicts_and_bad_names_rejected(self):
        reg = MetricsRegistry()
        reg.counter("rnb_x_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("rnb_x_total")
        with pytest.raises(ConfigurationError):
            reg.counter("bad name")
        with pytest.raises(ConfigurationError):
            reg.counter("9starts_with_digit")

    def test_snapshot_is_deterministically_ordered(self):
        def build(order: bool) -> dict:
            reg = MetricsRegistry()
            labels = [{"s": "b"}, {"s": "a"}]
            for lab in labels if order else reversed(labels):
                reg.counter("rnb_z_total", **lab).inc()
            reg.gauge("rnb_a_gauge").set(2)
            h = reg.histogram("rnb_m_hist")
            h.observe_many([0.1, 0.2, 4.0])
            return reg.snapshot()

        a, b = build(True), build(False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert list(a) == sorted(a)

    def test_token_moves_with_observations_and_seed(self):
        reg = MetricsRegistry()
        reg.counter("rnb_x_total").inc()
        t = reg.token()
        assert t == reg.token()
        assert t != reg.token(seed=1)
        reg.counter("rnb_x_total").inc()
        assert reg.token() != t

    def test_gauge_callback_rebinds(self):
        reg = MetricsRegistry()
        reg.gauge("rnb_live", fn=lambda: 1.0)
        reg.gauge("rnb_live", fn=lambda: 5.0)
        assert reg.get("rnb_live").get() == 5.0


class TestRendering:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"
        assert format_value(2.5) == "2.5"
        assert format_value(1e300) == "1e+300"

    def test_label_string_sorted(self):
        assert label_string({}) == ""
        assert label_string({"b": 2, "a": "x"}) == 'a="x",b="2"'
