"""The live ops plane: sampler replay parity, the golden series digest,
the offline HTML run explorer, and the obs CLI's report and html modes.

The load-bearing contract is *exact last-sample semantics*: a sampler
subscribed to the live bus and a sampler replaying the recorded JSONL
must produce bit-for-bit identical series.  The Hypothesis property
checks it for arbitrary sampling intervals over a chaos run, and the
golden digest pins the Fig 4c sort recipe so a semantics change cannot
slip through as "both sides drifted the same way".
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.harness import (
    default_node_spec,
    make_inputs,
    submit_variant,
)
from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.common.units import MB
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.obs.events import EventBus
from repro.obs.__main__ import main
from repro.obs.live import TimeSeriesSampler, explorer_data, render_html
from repro.obs.report import RunReport, record_run
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime

#: Live series digest of the Fig 4c sort recipe below (deterministic
#: simulated run, default 0.25s interval).  Captured once from the
#: initial implementation; replay of the recorded JSONL must reproduce
#: it exactly, and any change to the sampling semantics must re-bless it
#: knowingly.
GOLDEN_FIG4C_SERIES_DIGEST = (
    "8fad05a414176afde7707c9e8214a84d24bfe15fdce96f6b4394f2ebc3e9e355"
)


def _chaos_run(sampler=None, record_path=None):
    """The smoke workload: a push shuffle under an injected node crash.

    Subscribes ``sampler`` to the bus (before any work runs) when given,
    and records the run to ``record_path`` when given.  Deterministic for a
    fixed seed, so two invocations see identical event streams.
    """
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    if sampler is not None:
        rt.bus.subscribe(sampler.on_event)
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=0))
    inputs = make_inputs(0, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    rt.run(driver)
    rt.env.run()  # drain the node restart
    if record_path is not None:
        record_run(rt, str(record_path))
    if sampler is not None:
        sampler.finish(rt.env.now)
    return rt


class TestSamplerSemantics:
    def _bus(self):
        state = {"now": 0.0}
        bus = EventBus(clock=lambda: state["now"])
        return bus, state

    def test_boundaries_are_t0_plus_k_intervals(self):
        bus, state = self._bus()
        sampler = TimeSeriesSampler(interval_s=1.0)
        bus.subscribe(sampler.on_event)
        state["now"] = 0.5
        bus.emit("task.submit", task="t1", job="j")
        state["now"] = 2.7
        bus.emit("task.run", task="t1", node="n0")
        sampler.finish(end=3.5)
        # Boundaries at 1.5, 2.5, 3.5: inflight=1 throughout.
        assert sampler.t0 == 0.5
        assert sampler.samples_taken == 3
        assert sampler.get("cluster:inflight") == [1.0, 1.0, 1.0]
        assert sampler.sample_times() == [1.5, 2.5, 3.5]

    def test_event_on_boundary_belongs_to_that_sample(self):
        bus, state = self._bus()
        sampler = TimeSeriesSampler(interval_s=1.0)
        bus.subscribe(sampler.on_event)
        bus.emit("task.submit", task="t1", job="j")
        state["now"] = 1.0  # exactly on the t0+1*interval boundary
        bus.emit("task.submit", task="t2", job="j")
        sampler.finish(end=1.0)
        # The boundary-coincident submit counts in the boundary's sample.
        assert sampler.get("cluster:inflight") == [2.0]

    def test_finish_flushes_trailing_boundaries(self):
        bus, state = self._bus()
        sampler = TimeSeriesSampler(interval_s=0.5)
        bus.subscribe(sampler.on_event)
        bus.emit("task.submit", task="t1", job="j")
        sampler.finish(end=2.0)
        assert sampler.samples_taken == 4  # 0.5, 1.0, 1.5, 2.0
        assert sampler.t_end == 2.0

    def test_finish_is_idempotent_and_closes_the_sampler(self):
        bus, _state = self._bus()
        sampler = TimeSeriesSampler(interval_s=1.0)
        bus.subscribe(sampler.on_event)
        bus.emit("task.submit", task="t1", job="j")
        (event,) = bus.events
        assert sampler.finish(end=5.0) == sampler.finish(end=99.0) == 5.0
        with pytest.raises(RuntimeError):
            sampler.on_event(event)

    def test_late_born_series_backfills_zeros(self):
        bus, state = self._bus()
        sampler = TimeSeriesSampler(interval_s=1.0)
        bus.subscribe(sampler.on_event)
        bus.emit("task.submit", task="t1", job="j")
        state["now"] = 3.2
        bus.emit("chaos.fault", node="n0", fault="node_crash")
        sampler.finish(end=4.0)
        faults = sampler.get("cluster:faults")
        # Born at the 4th boundary; zero-aligned with the older series.
        assert faults == [0.0, 0.0, 0.0, 1.0]
        assert len(faults) == len(sampler.get("cluster:inflight"))

    def test_stall_rate_resets_every_interval(self):
        bus, state = self._bus()
        sampler = TimeSeriesSampler(interval_s=1.0)
        bus.subscribe(sampler.on_event)
        bus.emit("job.submit", job="j", tenant="a")
        bus.emit("stream.backpressure", job="j", reason="window")
        bus.emit("stream.backpressure", job="j", reason="window")
        state["now"] = 2.5
        bus.emit("stream.backpressure", job="j", reason="window")
        sampler.finish(end=3.0)
        # Interval 1: two stalls; interval 2: none; interval 3: one.
        assert sampler.get("cluster:stall_rate") == [2.0, 0.0, 1.0]
        assert sampler.get("cluster:stalls")[-1] == 3.0
        assert sampler.get("tenant:a:stalls")[-1] == 3.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_s=0.0)


class TestLiveReplayParity:
    def test_live_and_replay_digests_match(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        live = TimeSeriesSampler()
        _chaos_run(sampler=live, record_path=path)
        replayed = TimeSeriesSampler.replay(EventBus.load_jsonl(str(path)))
        assert live.series_digest() == replayed.series_digest()
        assert live.samples_taken == replayed.samples_taken
        assert live.samples_taken > 0 and len(live.series) > 0
        # Full structural equality, not just the digest.  Two fields
        # legitimately differ: capacities arrive only via the trailing
        # run.summary on replay, and that synthetic summary record itself
        # is never published on the live bus, so the replay side sees
        # one more event.
        live_d, replay_d = live.to_dict(), replayed.to_dict()
        for volatile in ("capacities", "events_seen"):
            live_d.pop(volatile)
            replay_d.pop(volatile)
        assert live_d == replay_d

    @settings(max_examples=6, deadline=None)
    @given(
        interval_s=st.floats(
            min_value=0.05,
            max_value=3.0,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_parity_holds_for_arbitrary_intervals(self, interval_s):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.events.jsonl"
            live = TimeSeriesSampler(interval_s=interval_s)
            _chaos_run(sampler=live, record_path=path)
            replayed = TimeSeriesSampler.replay(
                EventBus.load_jsonl(str(path)), interval_s=interval_s
            )
        assert live.series_digest() == replayed.series_digest()

    def test_feed_chains_fault_to_retry(self, tmp_path):
        """The explorer's fault list is the report's timeline."""
        path = tmp_path / "run.events.jsonl"
        _chaos_run(record_path=path)
        events = EventBus.load_jsonl(str(path))
        timeline = explorer_data(events)["report"]["fault_timeline"]
        assert timeline == RunReport(events).fault_timeline()
        retries = [line for line in timeline if " task.retry " in line]
        assert retries, "the injected crash must surface retries"
        assert any("node.death" in line for line in retries), (
            "retry lines must chain back to the killing event"
        )


def _fig4c_sort_events():
    """The golden-digest recipe: the Fig 4c-style fixed-seed in-memory
    sort with store pressure (same shape as ``test_policy_golden``)."""
    rt = make_runtime(num_nodes=3, store_mib=256)
    sampler = TimeSeriesSampler()
    rt.bus.subscribe(sampler.on_event)
    result = run_sort(
        rt,
        SortJobConfig(
            variant="push*",
            num_partitions=12,
            partition_bytes=30 * MB,
            virtual=True,
        ),
    )
    assert result.validated
    sampler.finish(rt.env.now)
    return sampler


def test_fig4c_series_digest_is_golden():
    assert _fig4c_sort_events().series_digest() == GOLDEN_FIG4C_SERIES_DIGEST


def test_replayed_long_run_keeps_every_sample(tmp_path):
    """A replayed 200 s run keeps all 800 of its samples: every series
    starts at the first boundary and spans the whole run."""
    rt = make_runtime(num_nodes=2)
    step = rt.remote(lambda x: x + 1).options(compute=50.0)

    def driver():
        ref = 0
        for _ in range(4):
            ref = step.remote(ref)
        return rt.get(ref)

    assert rt.run(driver) == 4
    assert rt.env.now >= 200.0
    path = tmp_path / "long.events.jsonl"
    record_run(rt, str(path))
    sampler = TimeSeriesSampler.replay(EventBus.load_jsonl(str(path)))
    assert sampler.samples_taken >= 800
    cpu = [sampler.get(f"node:{node}:cpu") for node in sampler.nodes()]
    assert all(len(series) == sampler.samples_taken for series in cpu)
    # The first task runs from the start: its busy core is the first
    # sample, at t0 + one interval.
    assert max(series[0] for series in cpu) == 1.0
    times = sampler.sample_times()
    assert times[0] == sampler.t0 + sampler.interval_s
    assert times[-1] > sampler.t_end - sampler.interval_s


class TestHtmlExplorer:
    def test_explorer_is_one_offline_file(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        _chaos_run(sampler=TimeSeriesSampler(), record_path=path)
        events = EventBus.load_jsonl(str(path))
        html = render_html(events, title="chaos run")
        # Self-contained: inline script/style only, nothing fetched.
        assert html.count("<script") == 1 and "<script src=" not in html
        assert html.count("<style") == 1 and "<link" not in html
        stripped = html.replace("http://www.w3.org/2000/svg", "")
        assert "http://" not in stripped and "https://" not in stripped
        for section in (
            "Per-node utilization",
            "Tenant fair share",
            "Spill pressure",
            "backpressure",
            "Critical path",
            "Phase table",
        ):
            assert section.lower() in html.lower(), section

    def test_embedded_data_round_trips_as_json(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        _chaos_run(sampler=TimeSeriesSampler(), record_path=path)
        events = EventBus.load_jsonl(str(path))
        html = render_html(events, title="chaos run")
        blob = html.split("const DATA = ", 1)[1].split(";\n", 1)[0]
        data = json.loads(blob.replace("<\\/", "</"))
        assert data["title"] == "chaos run"
        assert data["sampler"]["series"], "sampled series must be embedded"
        assert data["report"]["events"] == len(events)
        assert data["critpath"]["categories"]


def test_cli_report_and_html_modes(tmp_path, capsys):
    trace = tmp_path / "run.events.jsonl"
    _chaos_run(record_path=trace)
    assert main([str(trace)]) == 0
    report = capsys.readouterr().out
    assert "Phase breakdown" in report and "Critical path:" in report
    assert main([str(trace), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["events"] > 0
    out = tmp_path / "explorer.html"
    assert main(["html", str(trace), "-o", str(out)]) == 0
    html = out.read_text()
    assert html.count("<script") == 1 and "<script src=" not in html
    assert [p.name for p in tmp_path.glob("*.html")] == ["explorer.html"]
    # The removed ``live`` subcommand now reads as a missing trace.
    for argv in (["live"], [str(tmp_path / "missing.jsonl")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "missing.jsonl" in capsys.readouterr().err


class TestRunReportDict:
    def test_to_dict_matches_the_rendered_report(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        _chaos_run(sampler=TimeSeriesSampler(), record_path=path)
        report = RunReport(EventBus.load_jsonl(str(path)))
        data = report.to_dict()
        assert data["events"] == len(report.events)
        assert data["phase_table"]["rows"], "phase rows must be present"
        assert json.dumps(data)  # JSON-serializable end to end
        # The fault timeline survives the dict conversion with chains.
        assert any(
            "chaos.fault" in line for line in data["fault_timeline"]
        )
