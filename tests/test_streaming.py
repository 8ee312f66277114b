"""The streaming shuffle tier: sources, rounds, backpressure, load gen.

Covers the tier's contracts:

- open-loop sources are deterministic, in-order, and horizon-bounded;
- the round-based shuffle (:func:`repro.shuffle.streaming_shuffle`
  over :class:`RoundDriver`) reproduces pinned results, hook calls and
  event digest, incremental rounds match known-ahead ones, and the
  aggregation app reproduces its pinned Fig-5 error-vs-time curve and
  event digest;
- backpressure invariants hold under *any* Poisson seed / window size /
  bound (hypothesis): in-flight windows never exceed the bound and runs
  always terminate once sources close;
- hundreds-of-tenants open-loop fleets run through admission + fair
  share with every record latency-accounted, and the obs report's
  streaming section renders exact global + per-tenant percentiles;
- a smoke-sized fleet's simulated results are pinned by a golden digest,
  and the control plane's per-job state stays bounded by the live jobs;
- batch-only runs emit zero ``stream.*`` events (the tier is unused
  unless asked for).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation import run_online_aggregation
from repro.common.errors import JobControlError
from repro.futures import Runtime
from repro.jobs import JobSpec, StreamSpec, TenantQuota, TenantSpec, job_runner
from repro.obs.report import RunReport, record_run
from repro.obs.trace import derive_spans
from repro.shuffle import RoundDriver, streaming_shuffle
from repro.streaming import (
    BackpressureController,
    PoissonSource,
    make_sources,
    open_loop_workload,
    run_open_loop,
    run_streaming_job,
    streaming_node_spec,
)
from repro.workloads import PageviewDataset

from tests.conftest import make_runtime


def _stream_spec(**overrides) -> StreamSpec:
    base = dict(
        rate_hz=3.0, duration_s=12.0, window_s=4.0, keys=8,
        bytes_per_record=64, max_inflight_windows=2, backpressure=True,
    )
    base.update(overrides)
    return StreamSpec(**base)


def _job_spec(name="s", seed=0, **stream_overrides) -> JobSpec:
    return JobSpec(
        name=name, tenant="t0", num_maps=2, num_reduces=2, seed=seed,
        stream=_stream_spec(**stream_overrides),
    )


class TestSources:
    def test_deterministic_and_in_order(self):
        a, b = (
            PoissonSource(
                seed=5, index=1, rate_hz=2.0, duration_s=20.0, keys=8,
                bytes_per_record=64,
            )
            for _ in range(2)
        )
        assert (a.arrival_times == b.arrival_times).all()
        assert (a.keys == b.keys).all()
        assert (np.diff(a.arrival_times) >= 0).all()

    def test_open_loop_horizon(self):
        src = PoissonSource(
            seed=1, index=0, rate_hz=5.0, duration_s=10.0, keys=4,
            bytes_per_record=32,
        )
        assert (src.arrival_times < 10.0).all()
        assert src.closed(10.0) and not src.closed(9.99)
        assert src.watermark(10.0) == 10.0

    def test_watermark_is_latest_emitted(self):
        src = PoissonSource(
            seed=2, index=0, rate_hz=1.0, duration_s=30.0, keys=4,
            bytes_per_record=32,
        )
        mid = float(src.arrival_times[3])
        assert src.watermark(mid) == mid
        assert src.watermark(mid + 1e-6) == mid
        assert src.watermark(0.0) <= src.watermark(15.0) <= src.watermark(30.0)

    def test_windows_partition_every_record(self):
        src = PoissonSource(
            seed=3, index=0, rate_hz=4.0, duration_s=17.0, keys=8,
            bytes_per_record=64,
        )
        window_s = 5.0
        total = sum(
            len(src.batch_for(w, window_s))
            for w in range(src.num_windows(window_s))
        )
        assert total == src.num_records

    def test_independent_sources(self):
        a, b = make_sources(
            seed=0, num_sources=2, rate_hz=3.0, duration_s=20.0, keys=8,
            bytes_per_record=64,
        )
        assert a.num_records > 0 and b.num_records > 0
        assert not np.array_equal(
            a.arrival_times[: min(len(a.arrival_times), len(b.arrival_times))],
            b.arrival_times[: min(len(a.arrival_times), len(b.arrival_times))],
        )


def _digest(events) -> str:
    """A full-stream digest (every event, all attrs) for parity checks."""
    lines = [
        f"{e.ts!r}|{e.kind}|{e.node}|{e.job}|{e.task}|{e.obj}|{e.cause}"
        f"|{sorted(e.attrs.items())!r}"
        for e in events
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pin(value) -> str:
    """sha256 of a value's repr; callers cast numpy scalars to ``float``
    first, so no numpy repr enters a pin."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: ``streaming_shuffle`` over four 3-map rounds into two stateful
#: reducers on two nodes: the final values and ``on_round`` hook log
#: ``(round, refs, time)``, and the full event stream.  Captured while
#: ``streaming_shuffle`` and the round driver were separate loops.
GOLDEN_ROUNDS_DIGEST = "c50a790cf42b1653e43cd6ac8355abbe4360897d6a4300eda473870036044d8e"
GOLDEN_ROUNDS_EVENTS_DIGEST = "f1f127bb19ba22311edf43d21e97dfb2716507d49922bbb1f26e4eb279d5b82c"

#: The Fig-5 streaming app (12 hours, 4 per round, 4 reducers): its
#: error-vs-time curve with the final error, and its event stream,
#: captured at the same point.
GOLDEN_AGGREGATION_CURVE_DIGEST = "ea43701d0b570abe56e5f65ff4c1e49bfb4bd3952d7b7506d9304049039c5594"
GOLDEN_AGGREGATION_EVENTS_DIGEST = "80f777e3dc057b2fc6d4b34e23be7795f7dc79e2ce77098fabc43efa6b9cacd3"


class TestRoundDriverParity:
    """The round-based shuffle reproduces the pinned results, hook calls
    and event stream."""

    @staticmethod
    def _operators():
        def map_fn(part):
            return [[v * 2 for v in part], [v * 3 for v in part]]

        def reduce_fn(state, *blocks):
            merged = list(state or [])
            for block in blocks:
                merged.extend(block)
            return sorted(merged)

        return map_fn, reduce_fn

    def test_identical_events_and_results(self):
        map_fn, reduce_fn = self._operators()
        rounds = [[[r, r + c] for c in range(3)] for r in range(4)]
        rt = make_runtime(num_nodes=2)
        hook_log = []
        values = rt.run(
            lambda: rt.get(
                streaming_shuffle(
                    rt, rounds, map_fn, reduce_fn, 2,
                    on_round=lambda rnd, refs: hook_log.append(
                        (rnd, len(refs), rt.now)
                    ),
                )
            )
        )
        assert _pin((values, hook_log)) == GOLDEN_ROUNDS_DIGEST
        assert _digest(rt.bus.events) == GOLDEN_ROUNDS_EVENTS_DIGEST

    def test_single_reducer_unwrap(self):
        def map_fn(part):
            return [sum(part)]

        def reduce_fn(state, *blocks):
            return (state or 0) + sum(blocks)

        rt = make_runtime(num_nodes=2)
        [total] = rt.run(
            lambda: rt.get(
                streaming_shuffle(rt, [[[1, 2]], [[3, 4]]], map_fn, reduce_fn, 1)
            )
        )
        assert total == 10

    def test_incremental_matches_known_ahead(self):
        map_fn, reduce_fn = self._operators()
        rounds = [[[r]] for r in range(3)]
        rt1 = make_runtime(num_nodes=2)
        known = rt1.run(
            lambda: rt1.get(streaming_shuffle(rt1, rounds, map_fn, reduce_fn, 2))
        )
        rt2 = make_runtime(num_nodes=2)

        def incremental():
            driver = RoundDriver(rt2, map_fn, reduce_fn, 2)
            for round_inputs in rounds:
                driver.submit_round(round_inputs)
            return rt2.get(driver.finish())

        assert rt2.run(incremental) == known

    def test_empty_rounds_rejected(self):
        rt = make_runtime(num_nodes=1)
        with pytest.raises(ValueError):
            rt.run(
                lambda: streaming_shuffle(rt, [], lambda p: [p], lambda s, *b: b, 1)
            )

    def test_finish_before_any_round_rejected(self):
        rt = make_runtime(num_nodes=1)
        driver = RoundDriver(rt, lambda p: [p], lambda s, *b: b, 1)
        with pytest.raises(ValueError):
            driver.finish()


class TestAggregationGoldenParity:
    """The Fig-5 streaming app reproduces its pinned curve and events."""

    def test_error_curve_and_events_bit_for_bit(self):
        dataset = PageviewDataset(
            num_hours=12,
            languages=3,
            pages_per_language=50,
            block_bytes=8 * 10**6,
            views_per_hour=50_000,
            seed=11,
        )
        rt = make_runtime(num_nodes=2, store_mib=2048)
        result = run_online_aggregation(
            rt, dataset, num_reduces=4, mode="streaming", hours_per_round=4,
        )
        curve = [(float(t), float(v)) for t, v in result.error_series.samples]
        assert _pin((curve, float(result.final_error))) == (
            GOLDEN_AGGREGATION_CURVE_DIGEST
        )
        assert _digest(rt.bus.events) == GOLDEN_AGGREGATION_EVENTS_DIGEST


class TestBackpressure:
    def test_bound_validated(self):
        rt = make_runtime(num_nodes=1)
        with pytest.raises(ValueError):
            BackpressureController(rt, max_inflight_windows=0)

    def test_overload_throttles_and_bounds(self):
        spec = _job_spec(
            rate_hz=4.0, duration_s=16.0, window_s=2.0,
            max_inflight_windows=2,
        )
        rt = make_runtime(num_nodes=2)
        result = rt.run(
            run_streaming_job, rt, spec, job_id="bp",
            reduce_options={"compute": 4.0},
        )
        assert result.backpressure_stalls > 0
        assert result.peak_inflight_windows <= 2
        events = [e for e in rt.bus.events if e.kind == "stream.backpressure"]
        assert events and all(
            e.attrs["reason"] in ("inflight_windows", "allocation_backlog")
            for e in events
        )

    def test_disabled_grows_past_bound(self):
        spec = _job_spec(
            rate_hz=4.0, duration_s=16.0, window_s=2.0,
            max_inflight_windows=1, backpressure=False,
        )
        rt = make_runtime(num_nodes=2)
        result = rt.run(
            run_streaming_job, rt, spec, job_id="nobp",
            reduce_options={"compute": 4.0},
        )
        assert result.backpressure_stalls == 0
        assert result.peak_inflight_windows > 1

    def test_backpressure_caps_peak_store_bytes(self):
        """The acceptance contrast: same overload, bounded vs unbounded."""
        peaks = {}
        for on in (True, False):
            spec = JobSpec(
                name="contrast", tenant="t0", num_maps=4, num_reduces=2,
                seed=7,
                stream=StreamSpec(
                    rate_hz=40.0, duration_s=24.0, window_s=2.0,
                    bytes_per_record=65536, max_inflight_windows=1,
                    backpressure=on,
                ),
            )
            rt = make_runtime(num_nodes=2)
            rt.run(
                run_streaming_job, rt, spec, job_id="c",
                reduce_options={"compute": 6.0},
            )
            peaks[on] = rt.stats()["store_peak_bytes"]
        assert peaks[True] < peaks[False]

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        window_s=st.sampled_from([1.0, 2.5, 4.0, 7.0]),
        max_inflight=st.integers(min_value=1, max_value=3),
        reduce_cost=st.sampled_from([0.0, 1.5, 5.0]),
    )
    def test_invariants_any_seed_and_window(
        self, seed, window_s, max_inflight, reduce_cost
    ):
        """Under any Poisson seed and window size: in-flight windows
        never exceed the bound, and the run terminates once sources
        close -- with every emitted record accounted for."""
        spec = JobSpec(
            name="hyp", tenant="t0", num_maps=1, num_reduces=2, seed=seed,
            stream=StreamSpec(
                rate_hz=3.0, duration_s=10.0, window_s=window_s,
                max_inflight_windows=max_inflight,
            ),
        )
        rt = make_runtime(num_nodes=2)
        result = rt.run(
            run_streaming_job, rt, spec, job_id="hyp",
            reduce_options={"compute": reduce_cost},
        )
        # Termination: rt.run returned (a hang would time the suite out),
        # sources are closed, and every record was latency-accounted.
        assert result.peak_inflight_windows <= max_inflight
        assert result.watermark == spec.stream.duration_s
        expected = sum(
            src.num_records
            for src in make_sources(
                seed=seed, num_sources=1, rate_hz=3.0, duration_s=10.0,
                keys=spec.stream.keys,
                bytes_per_record=spec.stream.bytes_per_record,
            )
        )
        assert result.records == expected
        hist = rt.metrics.histogram("stream.record_latency_s", job="hyp")
        assert hist.count == expected


class TestStreamingEvents:
    def test_window_spans_pair(self):
        spec = _job_spec()
        rt = make_runtime(num_nodes=2)
        rt.run(run_streaming_job, rt, spec, job_id="ev")
        spans = derive_spans(rt.bus.events)
        window_spans = [s for s in spans if s.cat == "stream.window"]
        agg_spans = [s for s in spans if s.cat == "stream.agg"]
        assert window_spans and agg_spans
        assert all(s.duration >= 0 for s in window_spans + agg_spans)
        closes = [e for e in rt.bus.events if e.kind == "stream.window.close"]
        assert len(window_spans) == len(closes)

    def test_causal_chain_close_to_agg_end(self):
        spec = _job_spec()
        rt = make_runtime(num_nodes=2)
        rt.run(run_streaming_job, rt, spec, job_id="ch")
        ends = [e for e in rt.bus.events if e.kind == "stream.agg.end"]
        assert ends
        chain = rt.bus.causal_chain(ends[0])
        kinds = [e.kind for e in chain]
        assert kinds[:4] == [
            "stream.agg.end", "stream.agg.begin", "stream.window.close",
            "stream.window.open",
        ]

    def test_batch_runs_emit_no_stream_events(self):
        from repro.shuffle import simple_shuffle

        rt = make_runtime(num_nodes=2)
        rt.run(
            lambda: rt.get(
                simple_shuffle(
                    rt, [[1, 2], [3, 4]], lambda p: [p, p], lambda *b: sum(
                        (list(x) for x in b), []
                    ), 2,
                )
            )
        )
        assert not rt.bus.events_of("stream")


#: The smoke-sized fleet below (20 tenants at 3 Hz for 20 s, 4 nodes,
#: seed 0), captured before the control plane's hand-off and fair-share
#: picks moved from linear scans to heaps.
GOLDEN_OPEN_LOOP_DIGEST = (
    "063bab1a3211eec639d2cfb6600d42d6e586a7989129a391fb615bfd7408f4d0"
)


def _fleet_digest(report) -> str:
    payload = {
        "duration": report.duration,
        "latency": {q: report.latency[q] for q in ("p50", "p99", "p999")},
        "tenant_records": {
            tenant: int(summary["count"])
            for tenant, summary in report.tenant_latency.items()
        },
        "stats": report.stats,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestOpenLoopFleet:
    def test_smoke_fleet_is_bit_for_bit_pinned(self):
        tenants, specs = open_loop_workload(
            0, 20, rate_hz=3.0, duration_s=20.0, window_s=6.0
        )
        rt = Runtime.create(streaming_node_spec(), 4)
        report = run_open_loop(specs, tenants, runtime=rt)
        assert report.all_done and report.records == 1194
        assert _fleet_digest(report) == GOLDEN_OPEN_LOOP_DIGEST

    def test_control_plane_state_holds_only_live_jobs(self):
        """200 jobs through 25 tenants (2 running, 8 queued each, with
        tenant slot caps): whenever a job's driver spawns, the driver
        registry holds no finished driver and the fair-share policy no
        in-flight count of a finished job; afterwards both are empty."""
        _, specs = open_loop_workload(0, 200, rate_hz=1.0, duration_s=3.0, window_s=3.0)
        tenants = [
            TenantSpec(
                name=f"tenant-{i:02d}", weight=1.0 + i % 3,
                quota=TenantQuota(max_task_slots=2),
            )
            for i in range(25)
        ]
        specs = [
            dataclasses.replace(spec, tenant=tenants[i % 25].name)
            for i, spec in enumerate(specs)
        ]
        rt = Runtime.create(streaming_node_spec(), 2)
        host = rt._driver
        seen = []

        def check(event):
            if event.kind != "driver.spawn":
                return
            policy = rt.scheduler.policy
            seen.append((
                len(host._channels),
                [c.name for c in host._channels.values() if c.finished],
                [
                    job for job, count in policy._inflight_by_job.items()
                    if not count and job not in policy._queues
                ],
            ))

        rt.bus.subscribe(check)
        report = run_open_loop(specs, tenants, runtime=rt)
        assert report.all_done and len(seen) == 200
        assert all(finished == [] and idle == [] for _, finished, idle in seen)
        # The primary plus at most two running jobs per tenant.
        assert max(live for live, _, _ in seen) <= 1 + 2 * 25
        assert host._channels == {}
        assert rt.scheduler.policy._inflight_by_job == {}

    def test_fleet_runs_under_admission_and_fair_share(self):
        tenants, specs = open_loop_workload(
            seed=1, num_tenants=8, duration_s=16.0, window_s=4.0
        )
        report = run_open_loop(specs, tenants, num_nodes=2)
        assert report.all_done
        assert report.records > 0
        assert len(report.tenant_latency) == len(tenants)
        global_count = int(report.latency["count"])
        assert global_count == report.records
        assert global_count == sum(
            int(s["count"]) for s in report.tenant_latency.values()
        )
        assert (
            report.latency["p50"]
            <= report.latency["p99"]
            <= report.latency["p999"]
            <= report.latency["max"]
        )

    def test_workload_deterministic(self):
        a = open_loop_workload(seed=3, num_tenants=5)
        b = open_loop_workload(seed=3, num_tenants=5)
        assert [s.stream.rate_hz for s in a[1]] == [
            s.stream.rate_hz for s in b[1]
        ]
        c = open_loop_workload(seed=4, num_tenants=5)
        assert [s.stream.rate_hz for s in a[1]] != [
            s.stream.rate_hz for s in c[1]
        ]

    def test_streaming_spec_dispatches_via_runner(self):
        assert job_runner("streaming") is not None
        with pytest.raises(JobControlError):
            job_runner("no-such-mode")

    def test_report_streaming_section(self, tmp_path):
        tenants, specs = open_loop_workload(
            seed=2, num_tenants=3, duration_s=12.0, window_s=4.0
        )
        from repro.streaming.loadgen import streaming_node_spec
        from repro.futures import Runtime

        rt = Runtime.create(streaming_node_spec(), 2)
        run_open_loop(specs, tenants, runtime=rt)
        path = tmp_path / "run.jsonl"
        record_run(rt, str(path))
        report = RunReport.load(str(path))
        summary = report.streaming_summary()
        assert summary["sources"] == len(specs)
        assert summary["records"] > 0
        table = report.streaming_latency_table()
        scopes = [row["scope"] for row in table.rows]
        assert "<global>" in scopes
        for tenant in tenants:
            assert tenant.name in scopes
        rendered = report.render()
        assert "Streaming record latency" in rendered
        assert "streaming:" in rendered

    def test_batch_report_has_no_streaming_section(self):
        rt = make_runtime(num_nodes=1)
        rt.run(lambda: rt.get(rt.remote(lambda: 1).remote()))
        report = RunReport(rt.bus.events)
        assert report.streaming_summary() == {}


class TestSpecValidation:
    def test_stream_spec_bounds(self):
        with pytest.raises(ValueError):
            StreamSpec(rate_hz=0)
        with pytest.raises(ValueError):
            StreamSpec(window_s=-1)
        with pytest.raises(ValueError):
            StreamSpec(max_inflight_windows=0)

    def test_streaming_footprint_estimate_scales_with_bound(self):
        small = _job_spec(max_inflight_windows=1)
        large = _job_spec(max_inflight_windows=8)
        assert large.estimated_store_bytes > small.estimated_store_bytes
