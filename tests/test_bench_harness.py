"""The benchmark harness's own helpers (scaling, table utilities,
profiling teardown)."""

import textwrap

import pytest

from benchmarks._harness import (
    SCALED_TB,
    SORT_SCALE,
    column_by_variant,
    hdd_node,
    run_es_sort,
    scaled_node,
    ssd_node,
)
from repro.cluster import D3_2XLARGE, I3_2XLARGE
from repro.metrics import ResultTable

from tests.test_self_profile import _hooked_attributes

pytest_plugins = ("pytester",)


class TestScaling:
    def test_scaled_node_shrinks_store_only(self):
        node = scaled_node(D3_2XLARGE)
        assert node.object_store_bytes == D3_2XLARGE.object_store_bytes // SORT_SCALE
        assert node.disk == D3_2XLARGE.disk
        assert node.cores == D3_2XLARGE.cores

    def test_presets_wired(self):
        assert hdd_node().disk == D3_2XLARGE.disk
        assert ssd_node().disk == I3_2XLARGE.disk

    def test_data_to_memory_ratio_preserved(self):
        """The scaled 1 TB keeps the paper's ~5.3x data:store ratio."""
        node = hdd_node()
        ratio = SCALED_TB / (node.object_store_bytes * 10)
        paper_ratio = 10**12 / (D3_2XLARGE.object_store_bytes * 10)
        assert ratio == pytest.approx(paper_ratio, rel=0.01)


class TestTableHelpers:
    def test_column_by_variant(self):
        table = ResultTable("t", ["variant", "partitions", "seconds"])
        table.add_row(variant="simple", partitions=100, seconds=10.0)
        table.add_row(variant="push*", partitions=100, seconds=8.0)
        table.add_row(variant="simple", partitions=200, seconds=12.0)
        simple = column_by_variant(table, "simple")
        assert simple == {100: 10.0, 200: 12.0}


class TestRunHelper:
    def test_run_es_sort_validates_and_returns_runtime(self):
        node = ssd_node()
        result, rt = run_es_sort(
            node, 2, "push*", 4, 32 * 10**6, output_to_disk=False
        )
        assert result.validated
        assert rt.counters.get("tasks_finished") > 0


class TestProfiling:
    def test_bench_that_raises_leaves_no_class_patched(self, pytester):
        """A ``--profile`` bench body that raises before ``finish_bench``
        still has its profiler uninstalled by the fixture's teardown."""
        pristine = _hooked_attributes()
        pytester.makeconftest(
            "from benchmarks.conftest import _trace_dir, pytest_addoption\n"
        )
        pytester.makepyfile(
            test_raising_bench=textwrap.dedent(
                """
                from benchmarks import _harness
                from benchmarks._harness import make_runtime, ssd_node

                def test_bench():
                    assert _harness._PROFILER is not None
                    rt = make_runtime(ssd_node(), 2)
                    rt.env.call_later(1.0, lambda: None)
                    rt.env.run()
                    assert _harness._PROFILER.counts["events_processed"] == 1
                    raise RuntimeError("bench body failed")
                """
            )
        )
        result = pytester.runpytest_inprocess("--profile", "-p", "no:cacheprovider")
        result.assert_outcomes(failed=1)
        result.stdout.fnmatch_lines(["*RuntimeError: bench body failed*"])
        assert _hooked_attributes() == pristine
