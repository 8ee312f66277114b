"""Text chart rendering."""

import pytest

from repro.metrics.ascii_charts import (
    SPARK_BLOCKS,
    bar_chart,
    gauge,
    grouped_bar_chart,
    line_chart,
    sparkline,
)


class TestBarChart:
    def test_bars_scale_with_values(self):
        text = bar_chart("JCT", ["a", "b"], [10.0, 20.0], width=20)
        lines = text.splitlines()
        bar_a = lines[2].count("#")
        bar_b = lines[3].count("#")
        assert bar_b == 20 and bar_a == 10
        assert "10.0s" in lines[2] and "20.0s" in lines[3]

    def test_zero_values_render(self):
        text = bar_chart("t", ["x"], [0.0])
        assert "0.0" in text

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0, 2.0])

    def test_empty_chart_is_title(self):
        assert bar_chart("just title", [], []) == "just title"

    def test_mixed_width_labels_align_into_columns(self):
        text = bar_chart(
            "t", ["a", "tenant-long", "b"], [1.0, 2.0, 300.0], width=10
        )
        lines = text.splitlines()[2:]
        # Labels right-align into one column: every bar starts at the
        # same offset, and every value ends at the same offset.
        assert len({line.index("|") for line in lines}) == 1
        assert len({len(line) for line in lines}) == 1

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0], width=0)
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0], width=-3)


class TestSparkline:
    def test_maps_range_onto_the_block_ramp(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(text) == 4
        assert text[0] == SPARK_BLOCKS[0] and text[-1] == SPARK_BLOCKS[-1]

    def test_explicit_bounds_clamp(self):
        # With a shared hi, a saturated sample renders full regardless
        # of the series' own max; overshoot clamps instead of wrapping.
        assert sparkline([4.0, 8.0], lo=0.0, hi=4.0) == (
            SPARK_BLOCKS[-1] * 2
        )

    def test_flat_series_renders_lowest_block(self):
        assert sparkline([2.0, 2.0, 2.0]) == SPARK_BLOCKS[0] * 3

    def test_empty_is_empty(self):
        assert sparkline([]) == ""


class TestGauge:
    def test_fill_fraction_and_percent(self):
        text = gauge(1.0, 4.0, width=8)
        assert text == "[##......]  25%"

    def test_overfull_clamps_at_100(self):
        assert gauge(10.0, 4.0, width=4) == "[####] 100%"

    def test_zero_maximum_is_empty_not_division_error(self):
        assert gauge(3.0, 0.0, width=4) == "[....]   0%"

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            gauge(1.0, 2.0, width=0)


class TestGroupedBarChart:
    def test_groups_by_x_value(self):
        text = grouped_bar_chart(
            "fig",
            {"simple": {100: 10.0, 200: 20.0}, "push": {100: 8.0}},
        )
        assert "[100]" in text and "[200]" in text
        assert text.index("[100]") < text.index("[200]")
        # push appears once (missing at 200)
        assert text.count("push") == 1

    def test_unit_suffix(self):
        text = grouped_bar_chart("f", {"s": {1: 5.0}}, unit="GB")
        assert "5.0GB" in text


class TestLineChart:
    def test_plots_every_series_with_distinct_markers(self):
        text = line_chart(
            "errors",
            {
                "stream": [(0.0, 1.0), (5.0, 0.5), (10.0, 0.1)],
                "batch": [(10.0, 0.05)],
            },
        )
        assert "*" in text and "+" in text
        assert "legend" in text
        assert "stream" in text and "batch" in text

    def test_empty_series_is_title(self):
        assert line_chart("empty", {}) == "empty"

    def test_single_point_does_not_crash(self):
        text = line_chart("p", {"only": [(1.0, 1.0)]})
        assert "only" in text
