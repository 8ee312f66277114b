"""Text chart rendering."""

from repro.metrics.ascii_charts import grouped_bar_chart, line_chart


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
