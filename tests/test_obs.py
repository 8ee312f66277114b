"""The observability plane: event bus, causal tracing, dimensioned metrics.

Covers the ISSUE-3 acceptance surface:

- event ordering under the simulated clock (``seq`` total order,
  non-decreasing ``ts``) and taxonomy enforcement;
- causal parent links in the derived trace match the runtime's lineage
  (and, under chaos, a killed task's retry chains back to the fault);
- per-node/per-job metric dimensions sum exactly to globals (the new
  :class:`~repro.chaos.InvariantChecker` family);
- Chrome-trace schema validation (complete/metadata/instant/flow events);
- JSONL round-trips, metric snapshot/delta, Counters merge/snapshot, and
  the run reporter's sections.
"""

import hashlib
import json

import pytest

from repro.chaos import FaultKind, InvariantChecker, matrix_plan
from repro.chaos.harness import expected_output, make_inputs, submit_variant
from repro.chaos.injector import ChaosInjector
from repro.common.ids import NodeId, ObjectId, TaskId
from repro.common.units import MIB
from repro.futures import RetryPolicy, RuntimeConfig
from repro.metrics import Counters, Histogram
from repro.obs import (
    EVENT_KINDS,
    EventBus,
    GLOBAL_DIM,
    MetricRegistry,
    ObsEvent,
    RunReport,
    derive_spans,
    record_run,
    span_chrome_events,
    write_chrome_trace,
)
from repro.obs.trace import lineage_parents

from tests.conftest import make_runtime

#: sha256 of the ``record_run`` JSONL of the small 3-node simple sort in
#: ``test_recorded_run_jsonl_is_byte_stable``, captured when the bus still
#: built every ``ObsEvent`` at emission.
GOLDEN_RECORD_RUN_DIGEST = (
    "ea26347c75ab0fd483f4b82a4c5afc46433c761bc0e8e477b9653092b6997c8d"
)


def _chain_runtime():
    """A two-stage pipeline (map -> combine) on a fresh runtime."""
    rt = make_runtime(num_nodes=2)

    @rt.remote(compute=0.05)
    def produce(i):
        return [i, i + 1]

    @rt.remote(compute=0.05)
    def combine(*parts):
        return sorted(x for part in parts for x in part)

    def driver():
        parts = [produce.remote(i) for i in range(4)]
        return rt.get(combine.remote(*parts))

    result = rt.run(driver)
    assert result == [0, 1, 1, 2, 2, 3, 3, 4]
    return rt


def _chaos_runtime(seed=0):
    """The acceptance scenario: push shuffle with a node crash mid-run."""
    rt = make_runtime(
        num_nodes=4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=seed))
    inputs = make_inputs(seed, 8, 24)
    values = rt.run(lambda: rt.get(submit_variant("push", rt, inputs, 4)))
    rt.env.run()  # drain the scheduled node restart
    assert tuple(tuple(v) for v in values) == expected_output(seed)
    return rt


class TestEventBus:
    def test_seq_is_a_total_order_and_ts_non_decreasing(self):
        rt = _chain_runtime()
        events = rt.bus.events
        assert len(events) > 20
        assert [e.seq for e in events] == list(range(len(events)))
        for before, after in zip(events, events[1:]):
            assert after.ts >= before.ts  # simulated clock is monotonic

    def test_unknown_kind_is_rejected_until_registered(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("made.up")
        assert len(bus) == 0 and bus.next_seq == 0
        bus.register_kind("made.up", "test kind")
        seq = bus.emit("made.up")
        assert seq == 0
        assert [(e.seq, e.kind) for e in bus.events] == [(seq, "made.up")]

    def test_disabled_bus_emits_nothing(self):
        bus = EventBus(enabled=False)
        assert bus.emit("task.submit") is None
        assert len(bus) == 0

    def test_subscribers_stream_events(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        first = bus.emit("chaos.fault", node="N0")
        unsubscribe()
        bus.emit("node.death", node="N0", cause=first)
        assert [e.kind for e in seen] == ["chaos.fault"]
        assert seen[0].seq == first == 0
        assert [(e.kind, e.cause) for e in bus.events] == [
            ("chaos.fault", None), ("node.death", first),
        ]

    def test_emit_returns_consecutive_seqs(self):
        bus = EventBus()
        seqs = [bus.emit("task.submit") for _ in range(4)]
        assert seqs == [0, 1, 2, 3]
        assert all(type(seq) is int for seq in seqs)
        assert len(bus) == 4 and bus.next_seq == 4
        bus.enabled = False
        assert bus.emit("task.submit") is None
        assert len(bus) == 4 and bus.next_seq == 4

    def test_subscriber_event_equals_the_recorded_one(self):
        bus = EventBus(clock=lambda: 2)
        bus.emit("task.submit", task=TaskId(1))  # recorded before subscribing
        seen = []
        bus.subscribe(seen.append)
        seq = bus.emit(
            "transfer.begin", node=NodeId(1), obj=ObjectId(9), cause=0, src="N002"
        )
        assert [e.seq for e in seen] == [seq]
        recorded = bus.by_seq()[seq]
        assert recorded == seen[0] and recorded is seen[0]
        assert (recorded.ts, recorded.node, recorded.obj) == (2.0, "N001", "O00009")
        assert type(recorded.ts) is float
        assert [e.seq for e in bus.events] == [0, 1]

    def test_reading_events_twice_gives_one_growing_list(self):
        bus = EventBus()
        bus.emit("task.submit", task=TaskId(0))
        first = bus.events
        snapshot = list(first)
        assert [e.kind for e in first] == ["task.submit"]
        bus.emit("task.run", task=TaskId(0))
        unsubscribe = bus.subscribe(lambda _event: None)
        bus.emit("task.finish", task=TaskId(0))
        unsubscribe()
        bus.emit("object.evict", obj=ObjectId(3))
        assert len(bus) == 4
        second = bus.events
        assert second is first
        assert second[:1] == snapshot and second[0] is snapshot[0]
        assert [e.seq for e in second] == [0, 1, 2, 3]
        assert all(isinstance(e, ObsEvent) for e in second)
        assert [e.kind for e in second] == [
            "task.submit", "task.run", "task.finish", "object.evict",
        ]
        bus.clear()
        assert len(bus) == 0 and bus.events == [] and bus.next_seq == 4

    def test_typed_id_axes_read_back_as_strings(self):
        bus = EventBus()
        bus.emit("object.create", node=NodeId(3), obj=ObjectId(317), task=TaskId(42))
        (event,) = bus.events
        assert (event.node, event.obj, event.task) == ("N003", "O00317", "T00042")
        assert all(type(axis) is str for axis in (event.node, event.obj, event.task))

    @staticmethod
    def _emit_mix(bus, cause=None):
        """One event of each record shape: no attrs and every axis
        ``None``, a cause, id and tuple-of-ids attrs, a float tuple."""
        bus.emit("task.submit")
        bus.emit("transfer.end", node=NodeId(1), obj=ObjectId(7), cause=cause)
        bus.emit(
            "task.submit", task=TaskId(4), job="j", fn="f",
            returns=(ObjectId(7), ObjectId(8)), deps=(),
        )
        bus.emit(
            "transfer.begin", node=NodeId(1), obj=ObjectId(7), src=NodeId(2),
            bytes=64,
        )
        bus.emit("policy.decision", policy="p", shares=(0.25, 0.75))

    def test_compact_records_read_back_every_field(self):
        bus = EventBus(clock=lambda: 3)
        self._emit_mix(bus, cause=0)
        bare, end, submit, begin, decision = bus.events
        assert bare == ObsEvent(0, 3.0, "task.submit")
        assert type(bare.ts) is float and bare.attrs == {}
        assert (end.node, end.obj, end.cause, end.attrs) == ("N001", "O00007", 0, {})
        assert (submit.task, submit.job) == ("T00004", "j")
        assert submit.attrs == {"fn": "f", "returns": ["O00007", "O00008"], "deps": []}
        assert list(submit.attrs) == ["fn", "returns", "deps"]
        assert begin.attrs == {"src": "N002", "bytes": 64}
        assert type(begin.attrs["src"]) is str
        assert decision.attrs == {"policy": "p", "shares": (0.25, 0.75)}
        assert type(decision.attrs["shares"]) is tuple
        assert [e.seq for e in bus.events] == [0, 1, 2, 3, 4]

    def test_subscriber_path_builds_the_compact_path_events(self):
        compact, streamed = EventBus(clock=lambda: 1.0), EventBus(clock=lambda: 1.0)
        seen = []
        streamed.subscribe(seen.append)
        self._emit_mix(compact, cause=0)
        self._emit_mix(streamed, cause=0)
        assert streamed.events == compact.events
        assert all(a is b for a, b in zip(seen, streamed.events))
        assert len(seen) == len(streamed) == 5

    def test_clear_mid_stream_keeps_seqs_and_len(self):
        bus = EventBus()
        self._emit_mix(bus)
        assert [e.seq for e in bus.events] == [0, 1, 2, 3, 4]
        bus.emit("task.run", task=TaskId(0))
        bus.clear()
        assert len(bus) == 0 and bus.events == []
        assert bus.emit("task.finish", task=TaskId(0)) == 6
        self._emit_mix(bus)
        assert len(bus) == 6 and bus.next_seq == 12
        assert [e.seq for e in bus.events] == list(range(6, 12))
        assert bus.events[3].attrs["returns"] == ["O00007", "O00008"]

    def test_reads_interleaved_with_emits(self):
        bus = EventBus()
        reference = EventBus()
        for round_ in range(4):
            self._emit_mix(bus, cause=round_)
            self._emit_mix(reference, cause=round_)
            if round_ % 2:
                assert len(bus.events) == 6 * round_ + 5
            bus.emit("object.evict", obj=ObjectId(round_))
            reference.emit("object.evict", obj=ObjectId(round_))
            assert len(bus) == 6 * (round_ + 1)
        assert bus.events == reference.events
        assert [e.seq for e in bus.events] == list(range(24))

    def test_retained_records_stay_compact(self):
        """A retained record is no Python object of its own: 20,000 of
        the transfer/object mix retain at most 128 B each (a record that
        keeps its own attrs dict costs about 240 B)."""
        import tracemalloc

        bus = EventBus(clock=lambda: 1.0)
        node, src, obj, size = NodeId(1), NodeId(2), ObjectId(3), 1 << 20

        def emit_mix(records):
            for _ in range(records // 4):
                begin = bus.emit(
                    "transfer.begin", node=node, obj=obj, src=src, bytes=size
                )
                bus.emit("transfer.end", node=node, obj=obj, cause=begin)
                bus.emit("object.create", node=node, obj=obj, bytes=size)
                bus.emit("object.evict", obj=obj)

        emit_mix(400)  # the key tuples are interned on first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emit_mix(20_000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(bus) == 20_400
        assert retained / 20_000 <= 128
        # One key tuple per signature, shared by every record that has it.
        key_tuples = {id(item) for item in bus._pending if type(item) is tuple and item}
        assert len(key_tuples) == 2

    def test_recorded_run_jsonl_is_byte_stable(self, tmp_path):
        """The ``record_run`` JSONL of a small 3-node sort is pinned
        byte-for-byte: how the bus stores and builds events must not
        change a single recorded byte."""
        from repro.sort import SortJobConfig, run_sort

        rt = make_runtime(num_nodes=3, store_mib=256)
        result = run_sort(
            rt,
            SortJobConfig(
                variant="simple",
                num_partitions=6,
                partition_bytes=8 * MIB,
                virtual=True,
            ),
        )
        assert result.validated
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        data = path.read_bytes()
        assert len(data.splitlines()) == 247
        assert hashlib.sha256(data).hexdigest() == GOLDEN_RECORD_RUN_DIGEST

    def test_events_of_matches_prefix_and_exact_kind(self):
        rt = _chain_runtime()
        tasks = rt.bus.events_of("task")
        assert tasks and all(e.kind.startswith("task.") for e in tasks)
        assert all(
            e.kind == "task.submit" for e in rt.bus.events_of("task.submit")
        )

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        rt = _chain_runtime()
        path = tmp_path / "events.jsonl"
        written = rt.bus.to_jsonl(str(path))
        loaded = EventBus.load_jsonl(str(path))
        assert written == len(rt.bus.events) == len(loaded)
        assert loaded == rt.bus.events

    def test_recorded_ids_are_prefixed_strings(self, tmp_path):
        """Ids are ``int`` subclasses, so ``json.dumps`` would write a raw
        one as a bare integer; every recorded id must be its ``N003`` /
        ``T00042`` / ``O00317`` string instead."""
        import re

        from repro.sort import SortJobConfig, run_sort

        rt = make_runtime(num_nodes=3, store_mib=256)
        result = run_sort(
            rt,
            SortJobConfig(
                variant="simple",
                num_partitions=6,
                partition_bytes=8 * MIB,
                virtual=True,
            ),
        )
        assert result.validated
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        pattern = {
            "node": re.compile(r"N\d{3,}"),
            "task": re.compile(r"T\d{5,}"),
            "obj": re.compile(r"O\d{5,}"),
        }
        seen = {axis: 0 for axis in pattern}
        transfers = 0
        for record in records:
            for axis, regex in pattern.items():
                if axis in record:
                    assert isinstance(record[axis], str), record
                    assert regex.fullmatch(record[axis]), record
                    seen[axis] += 1
            attrs = record.get("attrs", {})
            if record["kind"] == "transfer.begin":
                assert isinstance(attrs["src"], str)
                assert pattern["node"].fullmatch(attrs["src"]), record
                transfers += 1
            if record["kind"] == "task.submit":
                for oid in attrs["returns"] + attrs["deps"]:
                    assert pattern["obj"].fullmatch(oid), record
        assert all(seen.values()) and transfers > 0
        summary = records[-1]["attrs"]
        assert all(pattern["node"].fullmatch(n) for n in summary["cluster"])

    def test_every_emitted_kind_is_in_the_taxonomy(self):
        rt = _chaos_runtime()
        assert {e.kind for e in rt.bus.events} <= set(EVENT_KINDS)

    def test_reader_kind_tables_name_registered_kinds(self):
        """A typo in a reader's kind table would silently drop events."""
        from repro.obs.trace import _INSTANT_KINDS, _PAIRED_KINDS, FAULT_KINDS

        ends = {end for end, _category in _PAIRED_KINDS.values()}
        named = {*FAULT_KINDS, *_INSTANT_KINDS, *_PAIRED_KINDS, *ends}
        assert named - set(EVENT_KINDS) == set()


class TestCausality:
    def test_lineage_parents_match_runtime_truth(self):
        rt = _chain_runtime()
        derived = lineage_parents(rt.bus.events)
        for task_id, record in rt.tasks.items():
            truth = set()
            for dep in record.spec.dependency_ids:
                creator = rt.directory.creator_of(dep)
                if creator is not None:
                    truth.add(str(creator))
            assert set(derived.get(str(task_id), [])) == truth

    def test_retry_chains_back_to_the_injected_fault(self):
        rt = _chaos_runtime()
        retries = rt.bus.events_of("task.retry")
        assert retries
        for retry in retries:
            kinds = [e.kind for e in rt.bus.causal_chain(retry)]
            assert "node.death" in kinds and "chaos.fault" in kinds

    def test_reexecuted_attempt_span_parents_the_retry(self):
        rt = _chaos_runtime()
        retry_seqs = {e.seq for e in rt.bus.events_of("task.retry")}
        spans = derive_spans(rt.bus.events)
        retried = [
            s for s in spans if s.cat == "task" and s.parent in retry_seqs
        ]
        assert retried
        for span in retried:
            assert span.attrs["attempt"] >= 2

    def test_paired_spans_link_end_to_begin(self):
        rt = make_runtime(num_nodes=2, store_mib=4)

        @rt.remote(compute=0.01)
        def blob():
            return bytes(MIB)

        rt.run(lambda: rt.get([blob.remote() for _ in range(10)]))
        rt.env.run()
        spans = derive_spans(rt.bus.events)
        spill_spans = [s for s in spans if s.cat == "spill"]
        assert spill_spans
        index = rt.bus.by_seq()
        for span in spill_spans:
            begin = index[span.parent]
            assert begin.kind.endswith(".begin")
            assert begin.ts == span.start


class TestMetricDimensions:
    def test_per_job_counter_axes_sum_to_globals(self):
        rt = make_runtime(num_nodes=2)

        @rt.remote(compute=0.01)
        def unit():
            return 1

        def job_body():
            return sum(rt.get([unit.remote() for _ in range(5)]))

        def driver():
            handles = [
                rt.spawn_driver(job_body, name=label, label=label)
                for label in ("alpha", "beta")
            ]
            return [rt.join_driver(h) for h in handles]

        assert rt.run(driver) == [5, 5]
        by_job = rt.metrics.counter_by("tasks_finished", "job")
        assert sum(by_job.values()) == rt.metrics.counter_total(
            "tasks_finished"
        )
        assert by_job["alpha"] == by_job["beta"] == 5
        violations = [
            v for v in InvariantChecker(rt).check() if v.startswith("metric")
        ]
        assert violations == []

    def test_invariant_family_catches_lockstep_drift(self):
        rt = _chain_runtime()
        # A global-only add on a job-attributed counter bypasses the
        # charge path: the job axis no longer sums to the global series.
        rt.counters.add("tasks_finished", 1)
        violations = [
            v for v in InvariantChecker(rt).check() if v.startswith("metric")
        ]
        assert len(violations) == 1 and "'tasks_finished'" in violations[0]

    def test_registry_snapshot_and_delta(self):
        reg = MetricRegistry()
        reg.counter("bytes", 10, node="N0", job="j1")
        before = reg.snapshot()
        reg.counter("bytes", 5, node="N1", job="j1")
        reg.gauge_set("occupancy", 7.0, node="N0")
        reg.observe("latency", 0.25, job="j1")
        snap = reg.snapshot()
        assert snap["counters"]["bytes"][GLOBAL_DIM][GLOBAL_DIM] == 15
        assert snap["counters"]["bytes"]["node"] == {"N0": 10.0, "N1": 5.0}
        assert snap["gauges"]["occupancy"][GLOBAL_DIM][GLOBAL_DIM] == 7.0
        assert snap["histograms"]["latency[job=j1]"]["count"] == 1.0
        moved = reg.delta(before)
        assert moved["counters"]["bytes"][GLOBAL_DIM][GLOBAL_DIM] == 5
        assert moved["counters"]["bytes"]["node"] == {"N1": 5.0}
        assert "job" not in moved["counters"]["bytes"] or moved["counters"][
            "bytes"
        ]["job"] == {"j1": 5.0}

    def test_observe_many_matches_per_sample_observe(self):
        import random

        rng = random.Random(7)
        visible_at = [3.0 + 0.1 * w for w in range(5)]
        windows = [
            [rng.uniform(0.0, 3.0) for _ in range(rng.randrange(0, 40))]
            for _ in visible_at
        ]
        one, many = MetricRegistry(), MetricRegistry()
        reference = Histogram()  # every series holds the same samples
        for now, event_times in zip(visible_at, windows):
            latencies = [now - t for t in event_times]
            for latency in latencies:
                one.observe("lat", latency, job="j1")
                one.observe("lat_t", latency, node="N1", job="tenant")
                reference.record(latency)
            many.observe_many("lat", latencies, job="j1")
            many.observe_many("lat_t", iter(latencies), node="N1", job="tenant")
        assert many.snapshot() == one.snapshot()
        assert list(many.snapshot()["histograms"]) == list(
            one.snapshot()["histograms"]
        )
        for name, dims in [
            ("lat", {}), ("lat", {"job": "j1"}),
            ("lat_t", {"node": "N1"}), ("lat_t", {"job": "tenant"}),
        ]:
            hist = many.histogram(name, **dims)
            assert hist.count == reference.count > 0
            assert hist.total == reference.total
            for q in (0, 1, 25, 50, 90, 99, 99.9, 100):
                assert hist.percentile(q) == reference.percentile(q)
        # No values is a no-op: no empty series appears.
        many.observe_many("never", [], job="j1")
        assert "never" not in str(many.snapshot()["histograms"])

    def test_runtime_counters_are_the_registry_global_series(self):
        rt = _chain_runtime()
        assert rt.counters is rt.metrics.counters
        assert rt.metrics.counter_total("tasks_finished") == rt.stats()[
            "tasks_finished"
        ]
        assert rt.job_stats() == rt.metrics.counters_by("job")
        # A bare add charges the global series only: it shows up in the
        # snapshot with no dimension axes.
        rt.counters.add("global_only", 2)
        series = rt.metrics.snapshot()["counters"]["global_only"]
        assert series == {GLOBAL_DIM: {GLOBAL_DIM: 2.0}}
        assert rt.metrics.counter_by("global_only", "job") == {}
        with pytest.raises(ValueError):
            rt.metrics.counters_by("tenant")

    def test_counters_snapshot_and_merge(self):
        a = Counters()
        a.add("x", 2)
        assert a.snapshot() == a.as_dict() == {"x": 2.0}
        b = Counters()
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a.as_dict() == {"x": 5.0, "y": 1.0}


class TestChromeTraceSchema:
    REQUIRED = {
        "X": {"name", "cat", "pid", "tid", "ts", "dur"},
        "M": {"name", "pid", "args"},
        "i": {"name", "ph", "pid", "tid", "ts", "s"},
        "s": {"name", "id", "pid", "tid", "ts"},
        "f": {"name", "id", "pid", "tid", "ts"},
    }

    def test_all_events_carry_their_required_keys(self):
        rt = _chaos_runtime()
        trace = span_chrome_events(rt.bus.events)
        assert trace
        for event in trace:
            ph = event["ph"]
            assert ph in self.REQUIRED, f"unexpected phase {ph!r}"
            missing = self.REQUIRED[ph] - set(event)
            assert not missing, f"{ph} event missing {missing}"
            if ph in ("X", "i", "s", "f"):
                assert isinstance(event["pid"], int)
                assert isinstance(event["tid"], int)
                assert event["ts"] >= 0
            if ph == "X":
                assert event["dur"] >= 0

    def test_flow_arrows_pair_start_and_finish_by_id(self):
        rt = _chaos_runtime()
        trace = span_chrome_events(rt.bus.events)
        starts = {e["id"] for e in trace if e["ph"] == "s"}
        finishes = {e["id"] for e in trace if e["ph"] == "f"}
        assert finishes and finishes <= starts

    def test_timeline_export_includes_io_spans_and_job_ids(self, tmp_path):
        rt = make_runtime(num_nodes=2, store_mib=4)

        @rt.remote(compute=0.01)
        def blob():
            return bytes(MIB)

        def driver():
            handle = rt.spawn_driver(
                lambda: rt.get([blob.remote() for _ in range(10)]),
                name="spiller",
                label="spiller",
            )
            return rt.join_driver(handle)

        rt.run(driver)
        rt.env.run()
        task_spans = RunReport(rt.bus.events).task_spans()
        assert task_spans and all(s.job == "spiller" for s in task_spans)
        path = tmp_path / "trace.json"
        write_chrome_trace(rt.bus.events, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        cats = {e.get("cat") for e in events}
        assert "spill" in cats  # I/O spans ride along with tasks
        assert all(
            e["args"]["job"] == "spiller"
            for e in events
            if e.get("cat") == "task"
        )


class TestRunReport:
    def test_report_round_trips_and_renders_all_sections(self, tmp_path):
        rt = _chaos_runtime()
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        report = RunReport.load(str(path))
        rendered = report.render()
        for section in ("Phase breakdown", "Slowest tasks",
                        "Fault / retry timeline"):
            assert section in rendered
        assert "chaos.fault" in rendered

    def test_per_job_spill_bytes_sum_to_global(self, tmp_path):
        rt = make_runtime(num_nodes=2, store_mib=4)

        @rt.remote(compute=0.01)
        def blob():
            return bytes(MIB)

        def driver():
            handles = [
                rt.spawn_driver(
                    lambda: rt.get([blob.remote() for _ in range(6)]),
                    name=label,
                    label=label,
                )
                for label in ("tenant-a", "tenant-b")
            ]
            return [rt.join_driver(h) for h in handles]

        rt.run(driver)
        rt.env.run()
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        report = RunReport.load(str(path))
        per_job = report.per_job_spill_bytes()
        total = report.summary["stats"]["spill_bytes_written"]
        assert total > 0
        assert sum(per_job.values()) == total

    def test_policy_decisions_reconstruct_affinity_offline(self, tmp_path):
        from repro.obs.__main__ import _chaos_workload

        rt, driver = _chaos_workload(0)
        rt.run(driver)
        rt.env.run()  # drain the node restart
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        report = RunReport.load(str(path))
        places = [
            e for e in report.events
            if e.kind == "policy.decision" and e.attrs.get("decision") == "place"
        ]
        affinity = report.affinity_summary()
        assert places
        assert affinity["honoured"] > 0
        assert (
            affinity["honoured"] + affinity["fell_through"] + affinity["no_hint"]
            == len(places)
        )
        assert "Policy decisions" in report.render()


#: sha256 of ``json.dumps(..., sort_keys=True, default=str)`` of each
#: post-hoc reader's output over a recorded run (the two runs behind
#: ``tests/test_perf.py::USAGE_GOLDEN``; the chaos run has five fault
#: lines).  Pins the fault timeline, the critical-path segments, the
#: Chrome events and the fault feed, which no other test pins.  A
#: reader change that moves one of them must update the pin on purpose.
READER_GOLDEN = {
    "chaos": {
        "report": "3f6091ebb011aa722d347be59f86cdc7bb204bb77165d33f2fb6be42f45be82a",
        "critpath": "84d4822492a458d9eb73bfd3908aab693072fc0bb1ed471dc44786dc2e2ab793",
        "chrome": "771411cd388c585f4ed49a7e64935e1a2ff1c221f47424a5088f84a126821e30",
        "feed": "26af91ffa84257d648cbc921aa39cb28349bc78ee8bda97491ef0bbdf579eb54",
    },
    "sort": {
        "report": "7192f110d26b89007824f4aa821c474498ff9897dd3fbab8193dd6b0b9557ff8",
        "critpath": "a87cf25c85044dbf0c3553ede424a09bb5693a63c2add8803d5ce68a37bf507e",
        "chrome": "d7e0fde567e27e7b3d82f332b11c4d8ad2eadc53b6c740a9a7790954be83430e",
        "feed": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
}


def _reader_outputs(events):
    from repro.obs.live import TimeSeriesSampler
    from repro.obs.perf import critical_path, usage_chrome_events

    return {
        "report": RunReport(events).to_dict(),
        "critpath": [s.to_dict() for s in critical_path(events).segments],
        "chrome": span_chrome_events(events) + usage_chrome_events(events),
        "feed": [e.to_dict() for e in TimeSeriesSampler.replay(events).feed],
    }


@pytest.mark.parametrize("name", sorted(READER_GOLDEN))
def test_reader_outputs_match_golden_digests(name, tmp_path):
    from tests.test_perf import _recorded_run

    path = tmp_path / "run.events.jsonl"
    record_run(_recorded_run(name), str(path))
    outputs = _reader_outputs(EventBus.load_jsonl(str(path)))
    digests = {
        key: hashlib.sha256(
            json.dumps(value, sort_keys=True, default=str).encode()
        ).hexdigest()
        for key, value in outputs.items()
    }
    assert digests == READER_GOLDEN[name]
