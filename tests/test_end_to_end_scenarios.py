"""Cross-package end-to-end scenarios: the workflows a real adopter runs."""

import numpy as np
import pytest

from repro.common.rng import seeded_rng
from repro.common.units import MB
from repro.dataframe import DistributedFrame
from repro.futures import RuntimeConfig
from repro.obs import RunReport
from repro.shuffle import simple_shuffle
from repro.sort import SortJobConfig, cloudsort_cost, run_sort

from tests.conftest import make_runtime


class TestSortThenReport:
    def test_sort_produces_cost_report_and_timeline(self):
        """The CloudSort workflow: run, cost out, inspect the timeline."""
        rt = make_runtime(num_nodes=4)
        result = run_sort(
            rt,
            SortJobConfig(
                variant="push*", num_partitions=8, partition_bytes=8 * MB,
                virtual=True,
            ),
        )
        assert result.validated
        cost = cloudsort_cost(
            "d3.2xlarge", 4, result.sort_seconds, result.total_bytes
        )
        assert cost.total_dollars > 0
        report = RunReport(rt.bus.events)
        summary = report.phase_table()
        assert {"gen_virtual", "reduce"} <= set(summary.column("phase"))
        # The timeline's spans cover the job duration.
        spans = report.task_spans()
        assert max(s.end for s in spans) <= rt.now + 1e-9


class TestEtlPipeline:
    def test_frame_etl_feeds_custom_shuffle(self):
        """DataFrame preprocessing feeding a hand-written aggregation
        shuffle on the same runtime -- interop through plain refs."""
        rt = make_runtime(num_nodes=3)
        rng = seeded_rng(5, "etl")
        data = {
            "user": rng.integers(0, 40, size=2000),
            "spend": rng.gamma(2.0, 10.0, size=2000),
        }

        def driver():
            frame = DistributedFrame.from_arrays(rt, data, 6)
            big = frame.filter("spend", lambda s: s > 5.0)
            totals = big.groupby_agg("user", {"spend": "sum"})
            blocks = rt.get(totals.partitions)

            # Hand off the aggregated blocks to a custom top-k shuffle.
            def map_fn(block):
                order = np.argsort(block["spend_sum"])[::-1]
                top = block.take(order[:5])
                return [top, block]

            def reduce_fn(*blocks_in):
                from repro.dataframe import FrameBlock

                merged = FrameBlock.concat(list(blocks_in))
                return float(merged["spend_sum"].max())

            refs = simple_shuffle(rt, blocks, map_fn, reduce_fn, 2)
            return max(rt.get(refs))

        top_spend = rt.run(driver)
        mask = data["spend"] > 5.0
        expected = max(
            data["spend"][mask & (data["user"] == u)].sum()
            for u in np.unique(data["user"][mask])
        )
        assert top_spend == pytest.approx(expected)


class TestGraphDrivenApplication:
    def test_graph_wrapping_frame_blocks(self):
        rt = make_runtime(num_nodes=2)
        rng = seeded_rng(9, "g")
        arrays = [rng.normal(size=200) for _ in range(4)]
        normalize = rt.remote(lambda a: (a - a.mean()) / a.std())
        score = rt.remote(lambda a: float(np.abs(a).max()))
        worst_of = rt.remote(lambda *scores: max(scores))

        def driver():
            scores = [score.remote(normalize.remote(a)) for a in arrays]
            return rt.get(worst_of.remote(*scores))

        worst = rt.run(driver)
        expected = max(
            float(np.abs((a - a.mean()) / a.std()).max()) for a in arrays
        )
        assert worst == pytest.approx(expected)


class TestRecoveryUnderLoad:
    def test_failure_during_mixed_workload(self):
        """A node dies while a sort and a DataFrame job share the
        cluster; both finish correctly."""
        config = RuntimeConfig(failure_detection_s=2.0)
        rt = make_runtime(num_nodes=4, config=config)
        rng = seeded_rng(3, "mix")
        data = {"k": rng.integers(0, 10, size=800), "v": rng.normal(size=800)}

        def driver():
            frame = DistributedFrame.from_arrays(rt, data, 8)
            grouped = frame.groupby_agg("k", {"v": "sum"})
            rt.cluster.node(rt.cluster.node_ids[2]).fail()
            out = grouped.collect().sort_by("k")
            return out

        out = rt.run(driver)
        for i, key in enumerate(out["k"]):
            expected = data["v"][data["k"] == key].sum()
            assert out["v_sum"][i] == pytest.approx(expected)
        # And the cluster still sorts afterwards (node restarts not needed).
        result = run_sort(
            rt,
            SortJobConfig(
                variant="simple", num_partitions=4, partition_bytes=2 * MB,
                virtual=True,
            ),
        )
        assert result.validated
