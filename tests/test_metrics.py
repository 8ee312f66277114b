"""Unit tests for counters, histograms, time series, and result tables."""

import pytest

from repro.metrics import Counters, Histogram, ResultTable, TimeSeries


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("bytes", 10)
        c.add("bytes", 5)
        assert c.get("bytes") == 15
        assert c["bytes"] == 15

    def test_missing_is_zero(self):
        assert Counters().get("nope") == 0.0

    def test_default_increment(self):
        c = Counters()
        c.add("events")
        c.add("events")
        assert c.get("events") == 2

    def test_as_dict_snapshot(self):
        c = Counters()
        c.add("x", 1)
        snapshot = c.as_dict()
        c.add("x", 1)
        assert snapshot == {"x": 1}

    def test_iteration(self):
        c = Counters()
        c.add("a")
        c.add("b")
        assert sorted(c) == ["a", "b"]

    def test_snapshot_is_a_copy(self):
        c = Counters()
        c.add("x", 2)
        snap = c.snapshot()
        c.add("x", 3)
        assert snap == {"x": 2}
        assert c.get("x") == 5

    def test_reset_returns_and_zeroes(self):
        c = Counters()
        c.add("x", 7)
        c.add("y", 1)
        before = c.reset()
        assert before == {"x": 7, "y": 1}
        assert c.get("x") == 0.0
        assert c.snapshot() == {}

    def test_snapshot_reset_interval_pattern(self):
        c = Counters()
        c.add("ops", 3)
        c.reset()
        c.add("ops", 4)
        assert c.reset() == {"ops": 4}


class TestHistogram:
    def test_empty_histogram_is_zeroed(self):
        h = Histogram("empty")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.p50 == 0.0
        assert h.min == 0.0 and h.max == 0.0
        assert len(h) == 0

    def test_single_value(self):
        h = Histogram()
        h.record(42.0)
        for q in (0, 50, 95, 99, 100):
            assert h.percentile(q) == 42.0
        assert h.mean == 42.0

    def test_extend_equals_recording_each_value(self):
        values = [0.5, 3, 1.25, 3, -2.0, 7.75]
        one, many = Histogram(), Histogram()
        for value in values:
            one.record(value)
        many.extend(values[:2])
        assert many.p50 == 1.75  # a read caches the sorted view ...
        many.extend(iter(values[2:]))  # ... which extend invalidates
        assert many.count == one.count == len(values)
        assert many.total == one.total and many.snapshot() == one.snapshot()
        for q in (0, 10, 50, 90, 100):
            assert many.percentile(q) == one.percentile(q)

    def test_exact_percentiles_interpolate(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.record(v)
        assert h.p50 == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.p95 == pytest.approx(95.05)
        assert h.p99 == pytest.approx(99.01)
        assert h.p999 == pytest.approx(99.901)

    def test_p999_separates_the_tail(self):
        """p999 must resolve a 1-in-1000 outlier that p99 smooths over."""
        h = Histogram()
        for _ in range(999):
            h.record(1.0)
        h.record(1000.0)
        assert h.p99 == pytest.approx(1.0)
        assert h.p999 > 1.0
        assert h.percentile(100) == 1000.0
        # Matches numpy's linear-interpolation definition exactly.
        import numpy as np

        values = [1.0] * 999 + [1000.0]
        assert h.p999 == pytest.approx(
            float(np.percentile(values, 99.9)), rel=1e-12
        )

    def test_record_order_irrelevant(self):
        a, b = Histogram(), Histogram()
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for v in values:
            a.record(v)
        for v in sorted(values):
            b.record(v)
        assert a.snapshot() == b.snapshot()

    def test_percentile_out_of_range_rejected(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_snapshot_keys(self):
        h = Histogram()
        h.record(1.0)
        h.record(3.0)
        snap = h.snapshot()
        assert snap["count"] == 2.0
        assert snap["mean"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0
        assert set(snap) == {
            "count", "mean", "min", "max", "p50", "p95", "p99", "p999",
        }

    def test_merge_folds_samples(self):
        a, b = Histogram(), Histogram()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == 2.0

    def test_records_after_percentile_read(self):
        h = Histogram()
        h.record(10.0)
        assert h.p50 == 10.0  # caches the sorted view
        h.record(20.0)
        assert h.p50 == 15.0  # cache invalidated by the new sample


class TestTimeSeries:
    def test_record_and_lookup(self):
        ts = TimeSeries("progress")
        ts.record(0.0, 0.0)
        ts.record(5.0, 0.5)
        ts.record(10.0, 1.0)
        assert ts.value_at(7.0) == 0.5
        assert ts.value_at(10.0) == 1.0

    def test_rejects_time_going_backwards(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 2.0)

    def test_lookup_before_first_sample_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.value_at(1.0)

    def test_first_time_reaching(self):
        ts = TimeSeries()
        ts.record(1.0, 0.2)
        ts.record(2.0, 0.6)
        ts.record(3.0, 0.9)
        assert ts.first_time_reaching(0.5) == 2.0
        assert ts.first_time_reaching(0.95) == float("inf")

    def test_accessors(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        assert ts.times == [1.0]
        assert ts.values == [10.0]
        assert len(ts) == 1


class TestResultTable:
    def test_add_and_find(self):
        t = ResultTable("demo", ["a", "b"])
        t.add_row(a=1, b="x")
        t.add_row(a=2, b="y")
        assert t.find(a=2)["b"] == "y"
        assert t.find(a=3) is None
        assert len(t) == 2

    def test_unknown_column_rejected(self):
        t = ResultTable("demo", ["a"])
        with pytest.raises(ValueError):
            t.add_row(zzz=1)
        with pytest.raises(ValueError):
            t.column("zzz")

    def test_column_extraction_with_missing(self):
        t = ResultTable("demo", ["a", "b"])
        t.add_row(a=1)
        assert t.column("b") == [None]

    def test_render_contains_everything(self):
        t = ResultTable("My Title", ["name", "value"])
        t.add_row(name="alpha", value=3.14159)
        text = t.render()
        assert "My Title" in text
        assert "alpha" in text
        assert "3.14" in text

    def test_render_empty_table(self):
        t = ResultTable("Empty", ["col"])
        assert "Empty" in t.render()
