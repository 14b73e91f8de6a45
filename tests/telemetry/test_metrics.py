"""Counters, gauges, log-bucketed histograms, and the registry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class _EagerHistogram:
    """Reference: update every statistic on each observation."""

    def __init__(self, lo=1e-6, hi=1e5, growth=1.1):
        self.lo, self.hi = lo, hi
        self.log_growth = math.log(growth)
        self.nb = int(math.ceil(math.log(hi / lo) / self.log_growth))
        self.counts = [0] * (self.nb + 2)
        self.count, self.sum = 0, 0.0
        self.min, self.max = math.inf, -math.inf

    def observe(self, value):
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v < self.lo:
            idx = 0
        elif v >= self.hi:
            idx = self.nb + 1
        else:
            idx = min(1 + int(math.log(v / self.lo) / self.log_growth),
                      self.nb)
        self.counts[idx] += 1


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_kind(self):
        assert Counter("x").kind == "counter"


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value == 7.0

    def test_can_go_negative(self):
        g = Gauge("delta")
        g.dec(3.0)
        assert g.value == -3.0


class TestHistogram:
    def test_empty_histogram_is_all_zero(self):
        h = Histogram("lat_s")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0

    def test_count_sum_min_max(self):
        h = Histogram("lat_s")
        for v in (0.01, 0.02, 0.04):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.07)
        assert h.min == pytest.approx(0.01)
        assert h.max == pytest.approx(0.04)
        assert h.mean == pytest.approx(0.07 / 3)

    def test_quantiles_within_bucket_relative_error(self):
        """Streaming quantiles are exact to one bucket's width (~10%)."""
        h = Histogram("lat_s", growth=1.1)
        values = [0.001 * (1 + i) for i in range(1000)]  # 1ms .. 1s
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert h.quantile(q) == pytest.approx(exact, rel=0.12)

    def test_quantile_clamped_by_exact_min_max(self):
        h = Histogram("lat_s")
        h.observe(0.5)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(0.5)

    def test_underflow_reads_back_zero(self):
        """Zero observations (idle queue waits) must not blow up."""
        h = Histogram("queue_s", lo=1e-6)
        h.observe(0.0)
        h.observe(1e-9)
        assert h.count == 2
        assert h.quantile(0.5) == 0.0

    def test_overflow_reads_back_observed_max(self):
        h = Histogram("lat_s", hi=1.0)
        h.observe(0.5)
        h.observe(123.0)
        assert h.quantile(1.0) == pytest.approx(123.0)

    def test_fixed_memory(self):
        """Bucket storage does not grow with observation count."""
        h = Histogram("lat_s")
        nb = len(h._counts)
        for i in range(10000):
            h.observe(1e-5 * (1 + i))
        assert len(h._counts) == nb

    def test_queued_observations_stay_bounded(self):
        h = Histogram("lat_s")
        for i in range(1000):
            h.observe(1e-3 * i)
            assert len(h._pending) < 64

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e-6, 1e5, math.inf, -math.inf]),
        st.floats(min_value=1e-7, max_value=2e5)), max_size=300),
        reads=st.sets(st.integers(0, 300), max_size=4),
        bounds=st.sampled_from([(1e-6, 1e5, 1.1), (1e-3, 10.0, 1.5)]))
    def test_queued_folds_are_bit_identical_to_eager_updates(
            self, values, reads, bounds):
        """Folding queued values (at any read points) gives exactly the
        statistics of updating on every observation."""
        lo, hi, growth = bounds
        h = Histogram("x", lo=lo, hi=hi, growth=growth)
        ref = _EagerHistogram(lo, hi, growth)
        for i, v in enumerate(values):
            h.observe(v)
            ref.observe(v)
            if i in reads:
                assert h.count == ref.count
        assert h.count == ref.count
        assert h._counts == ref.counts
        for got, want in ((h.sum, ref.sum), (h.min, ref.min),
                          (h.max, ref.max)):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_nan_is_rejected_without_touching_the_statistics(self):
        h = Histogram("x")
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.observe(math.nan)
        assert (h.count, h.sum) == (1, 0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("x", lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram("x", growth=1.0)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)


class TestMetricsRegistry:
    def test_same_name_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes_total", link="0-1")
        b = reg.counter("bytes_total", link="0-1")
        assert a is b

    def test_label_sets_are_separate_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes_total", link="0-1")
        b = reg.counter("bytes_total", link="0-2")
        assert a is not b
        a.inc(10)
        assert b.value == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_child_scope_prefixes_but_shares_store(self):
        root = MetricsRegistry()
        child = root.child("server")
        c = child.counter("requests_total")
        assert c.name == "server_requests_total"
        assert root.get("server_requests_total") is c
        assert len(root) == 1

    def test_nested_child_scopes(self):
        reg = MetricsRegistry().child("a").child("b")
        assert reg.counter("x").name == "a_b_x"

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().child("")

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_collect_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        reg.counter("c", link="1")
        names = [m.name for m in reg.collect()]
        assert names == sorted(names)
        assert len(names) == 3

    def test_collect_hooks_run_at_collect_time(self):
        """Snapshot gauges sync via hooks, not in the hot path."""
        root = MetricsRegistry()
        child = root.child("cache")
        g = child.gauge("entries")
        state = {"entries": 0}
        child.add_collect_hook(lambda: g.set(state["entries"]))
        state["entries"] = 7
        assert g.value == 0.0          # hot path never touched the gauge
        root.collect()                 # hooks shared with the root
        assert g.value == 7.0
