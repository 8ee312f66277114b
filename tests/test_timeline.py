"""The task timeline, phase table and Chrome trace, all from the bus."""

import json

from repro.common.units import MB
from repro.obs import RunReport, derive_spans, span_chrome_events
from repro.obs.trace import Span, _pack_lanes, write_chrome_trace
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime


def _sorted_runtime():
    rt = make_runtime(num_nodes=2)
    result = run_sort(
        rt,
        SortJobConfig(
            variant="push*", num_partitions=6, partition_bytes=4 * MB,
            virtual=True,
        ),
    )
    assert result.validated
    return rt


class TestTaskSpans:
    def test_spans_cover_all_finished_tasks(self):
        rt = _sorted_runtime()
        spans = RunReport(rt.bus.events).task_spans()
        finished = [s for s in spans if s.attrs["status"] == "ok"]
        assert len(finished) == rt.counters.get("tasks_finished")
        assert len({s.task for s in finished}) == len(finished)
        for span in spans:
            assert span.end >= span.start >= 0
            assert span.attrs["queue_delay"] >= 0

    def test_spans_sorted_by_start(self):
        spans = derive_spans(_sorted_runtime().bus.events)
        starts = [s.start for s in spans]
        assert starts == sorted(starts)


class TestPhaseSummary:
    def test_summary_has_one_row_per_function(self):
        report = RunReport(_sorted_runtime().bus.events)
        table = report.phase_table()
        phases = table.column("phase")
        assert len(phases) == len(set(phases))
        assert set(phases) == {s.name for s in report.task_spans()}
        assert "gen_virtual" in phases
        assert any("push_map" in p for p in phases)
        for row in table.rows:
            assert row["busy_core_s"] > 0
            assert row["last_end"] >= row["first_start"]


def _span(start, end):
    return Span(name="t", cat="task", start=start, end=end)


class TestLaneAssignment:
    def test_non_overlapping_spans_share_a_lane(self):
        spans = [_span(0.0, 1.0), _span(1.0, 2.0), _span(2.5, 3.0)]
        assert _pack_lanes(spans) == [0, 0, 0]

    def test_overlapping_spans_split_lanes(self):
        spans = [_span(0.0, 2.0), _span(1.0, 3.0), _span(1.5, 1.8)]
        lanes = _pack_lanes(spans)
        assert lanes[0] != lanes[1]
        assert len(set(lanes)) == 3


class TestChromeTrace:
    def test_events_are_valid_trace_format(self):
        rt = _sorted_runtime()
        events = span_chrome_events(rt.bus.events)
        tasks = [
            e for e in events
            if e.get("ph") == "X" and e.get("cat") == "task"
        ]
        metas = [e for e in events if e.get("ph") == "M"]
        assert len(metas) == 2  # one per node
        assert len(tasks) == rt.counters.get("tasks_finished")
        for event in tasks:
            assert "task" in event["args"]
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert isinstance(event["pid"], int)

    def test_export_writes_parseable_json(self, tmp_path):
        rt = _sorted_runtime()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(rt.bus.events, str(path))
        payload = json.loads(path.read_text())
        assert len([e for e in payload["traceEvents"] if e["ph"] == "X"]) == count
        assert count > 0
