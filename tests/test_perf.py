"""The performance analysis layer: critical path, usage, bench diffing.

Hand-built event streams with *known* longest paths pin down the
critical-path walk exactly (including a fault -> retry chain); a real
spill-heavy external sort checks the fig 4a-style claim that the
majority of the path is disk I/O; synthetic benchmark pairs exercise
the diff tolerance bands, regression attribution, and the
config-fingerprint refusal; and the CLI gate's exit codes are checked
end to end.
"""

import hashlib
import json

import pytest

from repro.common.units import GB, MB
from repro.obs.events import EventBus, ObsEvent
from repro.obs.perf import (
    CATEGORIES,
    DISK_CATEGORIES,
    critical_path,
    derive_usage,
    usage_chrome_events,
)
from repro.obs.perf.diff import (
    BenchMismatchError,
    compare_benches,
    strip_volatile,
)
from repro.obs.report import RunReport, record_run
from repro.obs.trace import write_chrome_trace

from tests.conftest import make_runtime


def _events(*specs):
    """Build an ObsEvent list from (ts, kind, axes/attrs) tuples."""
    out = []
    for seq, (ts, kind, fields) in enumerate(specs):
        axes = {
            k: fields.pop(k, None) for k in ("node", "job", "task", "obj",
                                             "cause")
        }
        out.append(
            ObsEvent(seq=seq, ts=float(ts), kind=kind, attrs=fields, **axes)
        )
    return out


# -- critical path on hand-built DAGs ----------------------------------------


def test_critpath_known_longest_path():
    """A -> transfer -> C is the path; B is short and off-path."""
    events = _events(
        (0.0, "task.submit", dict(task="A", fn="a", returns=["O1"], deps=[])),
        (0.0, "task.submit", dict(task="B", fn="b", returns=["O2"], deps=[])),
        (0.0, "task.submit",
         dict(task="C", fn="c", returns=["O3"], deps=["O1", "O2"])),
        (0.0, "task.run", dict(task="A", node="N0", attempt=1)),
        (0.0, "task.run", dict(task="B", node="N1", attempt=1)),
        (2.0, "task.finish", dict(task="B", node="N1")),
        (2.0, "object.create", dict(obj="O2", node="N1", task="B", bytes=10)),
        (5.0, "task.finish", dict(task="A", node="N0")),
        (5.0, "object.create", dict(obj="O1", node="N0", task="A", bytes=10)),
        (5.0, "transfer.begin", dict(obj="O1", node="N1", src="N0", bytes=10)),
        (7.0, "transfer.end", dict(obj="O1", node="N1", cause=9, ok=True)),
        (7.0, "task.run", dict(task="C", node="N1", attempt=1)),
        (10.0, "task.finish", dict(task="C", node="N1")),
    )
    path = critical_path(events)
    assert path.makespan == pytest.approx(10.0)
    assert path.coverage_error() < 1e-9
    times = path.category_times()
    # A computes [0,5], the transfer covers [5,7], C computes [7,10]:
    # the short task B never contributes.
    assert times["compute"] == pytest.approx(8.0)
    assert times["transfer"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(path.makespan)
    details = " ".join(s.detail for s in path.segments)
    assert "b" not in details.split()


def test_critpath_fault_retry_chain():
    """Dead time between a killed attempt and its retry is recovery."""
    events = _events(
        (0.0, "task.submit", dict(task="T", fn="t", returns=["O1"], deps=[])),
        (0.0, "task.run", dict(task="T", node="N0", attempt=1)),
        (2.0, "chaos.fault", dict(node="N0", fault="node_crash")),
        (2.0, "node.death", dict(node="N0", cause=2)),
        (2.0, "task.retry", dict(task="T", cause=3, attempt=2)),
        (4.0, "task.run", dict(task="T", node="N1", attempt=2)),
        (9.0, "task.finish", dict(task="T", node="N1")),
    )
    path = critical_path(events)
    assert path.makespan == pytest.approx(9.0)
    assert path.coverage_error() < 1e-9
    times = path.category_times()
    # attempt 1 ran [0,2], attempt 2 ran [4,9]; the [2,4] hole is the
    # failure-detection + rescheduling time.
    assert times["fault_recovery"] == pytest.approx(2.0)
    assert times["compute"] == pytest.approx(7.0)


def test_critpath_queue_and_spill_restore():
    """Submit-to-run waits are queue time; restores get their category."""
    events = _events(
        (0.0, "task.submit", dict(task="P", fn="p", returns=["O1"], deps=[])),
        (0.0, "task.run", dict(task="P", node="N0", attempt=1)),
        (3.0, "task.finish", dict(task="P", node="N0")),
        (3.0, "object.create", dict(obj="O1", node="N0", task="P", bytes=10)),
        (3.0, "task.submit",
         dict(task="Q", fn="q", returns=["O2"], deps=["O1"])),
        # O1 was spilled meanwhile; Q's start waits on the restore.
        (3.0, "spill.restore.begin",
         dict(obj="O1", node="N0", bytes=10, sequential=True)),
        (5.0, "spill.restore.end", dict(obj="O1", node="N0", cause=5)),
        (6.0, "task.run", dict(task="Q", node="N0", attempt=1)),
        (8.0, "task.finish", dict(task="Q", node="N0")),
    )
    path = critical_path(events)
    assert path.coverage_error() < 1e-9
    times = path.category_times()
    assert times["spill_restore"] == pytest.approx(2.0)
    # [5,6] is Q submitted-but-not-running: queue time.
    assert times["queue"] == pytest.approx(1.0)
    assert times["compute"] == pytest.approx(5.0)


def test_critpath_empty_and_categories_stable():
    path = critical_path([])
    assert path.makespan == 0.0
    assert path.segments == []
    assert set(path.category_times()) == set(CATEGORIES)
    assert set(DISK_CATEGORIES) <= set(CATEGORIES)


def test_critpath_external_sort_is_disk_bound():
    """Fig 4a regime: an out-of-core sort's path is mostly disk I/O."""
    from repro.sort import SortJobConfig, run_sort

    rt = make_runtime(num_nodes=2, store_mib=192)
    config = SortJobConfig(
        variant="push",
        num_partitions=8,
        partition_bytes=(2 * GB) // 8,
        virtual=True,
        output_to_disk=True,
    )
    result = run_sort(rt, config)
    assert result.validated
    path = critical_path(rt.bus.events)
    assert path.makespan > 0
    assert path.coverage_error() < 0.01
    disk_share = path.disk_seconds() / path.makespan
    assert disk_share > 0.5, f"expected disk-bound path, got {disk_share:.0%}"
    # The what-if ranking agrees: eliminating all disk I/O shrinks the
    # run more than eliminating compute would.
    whatif = path.what_if()
    disk_shrink = sum(whatif[c]["shrink_pct"] for c in DISK_CATEGORIES)
    assert disk_shrink > whatif["compute"]["shrink_pct"]


# -- usage timelines ----------------------------------------------------------


def test_usage_tracks_and_binding():
    events = _events(
        (0.0, "task.submit", dict(task="A", fn="a", returns=["O1"], deps=[])),
        (0.0, "task.run", dict(task="A", node="N0", attempt=1)),
        (4.0, "task.finish", dict(task="A", node="N0")),
        (4.0, "object.create", dict(obj="O1", node="N0", task="A", bytes=50)),
        (6.0, "object.evict", dict(obj="O1")),
        (0.0, "run.summary",
         dict(cluster={"N0": {"cores": 1, "object_store_bytes": 100}})),
    )
    # run.summary is synthetic/trailing in real exports; rebuild in order.
    events = sorted(events, key=lambda e: (e.ts, e.seq))
    timeline = derive_usage(events)
    assert timeline.nodes == ["N0"]
    # One core busy for 4 of 6 seconds.
    assert timeline.busy_fraction("cpu", "N0") == pytest.approx(4.0 / 6.0)
    track = timeline.track("store", "N0")
    assert track.value_at(5.0) == pytest.approx(50.0)
    assert track.value_at(6.5) == pytest.approx(0.0)
    intervals = timeline.intervals(bins=6)
    assert intervals, "expected labeled intervals"
    assert intervals[0].binding == "cpu"
    assert intervals[0].saturated  # 1 busy core of 1 total
    assert intervals[-1].binding == "idle"
    assert sum(i.duration for i in intervals) == pytest.approx(
        timeline.makespan
    )


def test_usage_spill_queue_depth():
    events = _events(
        (0.0, "store.pressure", dict(node="N0", obj="O1", bytes=10,
                                     backlog=1)),
        (1.0, "store.pressure", dict(node="N0", obj="O2", bytes=10,
                                     backlog=2)),
        (2.0, "object.create", dict(obj="O1", node="N0", task="T", bytes=10)),
        (3.0, "spill.fallback", dict(node="N0", obj="O2", bytes=10)),
    )
    track = derive_usage(events).track("spill_queue", "N0")
    assert track.value_at(0.5) == 1.0
    assert track.value_at(1.5) == 2.0
    assert track.value_at(2.5) == 1.0
    assert track.value_at(3.5) == 0.0


def test_usage_store_clamped_to_capacity():
    events = _events(
        (0.0, "object.create", dict(obj="O1", node="N0", task="T",
                                    bytes=500)),
        (0.0, "run.summary",
         dict(cluster={"N0": {"cores": 1, "object_store_bytes": 100}})),
    )
    timeline = derive_usage(sorted(events, key=lambda e: (e.ts, e.seq)))
    assert timeline.track("store", "N0").max_value() <= 100.0


#: sha256 of ``json.dumps({node: track.points})`` per usage track on
#: two recorded runs.  A change to the fold that moves one of these
#: tracks must update the pin deliberately.  (The chaos run does no
#: disk I/O and parks nothing: both tracks are ``{}``.)
_EMPTY = "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
USAGE_GOLDEN = {
    "chaos": {
        "cpu": "81f36e01033dbdb31e916891abad5fdb9063603191ed5819d54d09bf63f5f3f1",
        "disk": _EMPTY,
        "nic": "07ddd6cc0f5fe071d20c8278eaa7aad2f79c88dd983fd7191809d465f62621e2",
        "spill_queue": _EMPTY,
    },
    "sort": {
        "cpu": "0f146c26f521515b14d9974db0c3b0c8981085030d0c0986d1755e1f834735ca",
        "disk": "6c4c36a5f3ca4c5607cabed14d34977a142ff213534a15e5e30c11acad1b8fbf",
        "nic": "4052b839824ecb2d7493e971133353cc2fc4b85e16409c1fd861f1ea59624d07",
        "spill_queue": "992507d1eac5831d219ce3194e9b5a9c59c2c7e46910c924972cc95f4734b244",
    },
}


def _recorded_run(name):
    """Run one pinned workload; returns its runtime."""
    if name == "chaos":
        from tests.conftest import _chaos_workload

        rt, driver = _chaos_workload(0)
        rt.run(driver)
        rt.env.run()
        return rt
    from repro.sort import SortJobConfig, run_sort

    rt = make_runtime(num_nodes=2, store_mib=192)
    config = SortJobConfig(
        variant="push",
        num_partitions=8,
        partition_bytes=(2 * GB) // 8,
        virtual=True,
        output_to_disk=True,
    )
    assert run_sort(rt, config).validated
    return rt


@pytest.mark.parametrize("name", sorted(USAGE_GOLDEN))
def test_usage_tracks_match_golden_digests(name, tmp_path):
    path = tmp_path / "run.events.jsonl"
    record_run(_recorded_run(name), str(path))
    timeline = derive_usage(EventBus.load_jsonl(str(path)))
    digests = {}
    for track in USAGE_GOLDEN[name]:
        per_node = timeline.tracks[track]
        points = {node: per_node[node].points for node in sorted(per_node)}
        digests[track] = hashlib.sha256(
            json.dumps(points).encode()
        ).hexdigest()
    assert digests == USAGE_GOLDEN[name]


def test_usage_store_track_is_clamped_point_by_point():
    """Occupancy past capacity reads as full, and a removal lands on
    the fold's running total rather than on the clamped value."""
    events = _events(
        (0.0, "object.create", dict(obj="O1", node="N0", task="T",
                                    bytes=80)),
        (1.0, "object.create", dict(obj="O2", node="N0", task="T",
                                    bytes=80)),
        (2.0, "object.evict", dict(obj="O1")),
        (3.0, "run.summary",
         dict(cluster={"N0": {"cores": 1, "object_store_bytes": 100}})),
    )
    track = derive_usage(events).track("store", "N0")
    assert track.points == [(0.0, 80.0), (1.0, 100.0), (2.0, 80.0)]


def test_chrome_trace_has_counter_tracks(tmp_path):
    """write_chrome_trace rides the usage counters along by default."""
    rt = make_runtime(num_nodes=2, store_mib=8)
    produce = rt.remote(lambda: bytes(4 * MB), compute=0.01)

    def driver():
        return rt.get([produce.remote() for _ in range(8)])

    rt.run(driver)
    trace_path = tmp_path / "trace.json"
    write_chrome_trace(rt.bus.events, str(trace_path))
    trace = json.loads(trace_path.read_text())
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counters
    names = {e["name"] for e in counters}
    assert "object store bytes" in names
    assert {e["pid"] for e in counters} <= {
        e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"
    }
    events = usage_chrome_events(rt.bus.events)
    assert all(e["ph"] == "C" for e in events)


# -- bench diffing ------------------------------------------------------------


def _bench(name="fig_test", seconds=10.0, sim=10.0, fingerprint=None,
           critpath=None, counters=None):
    payload = {
        "name": name,
        "rows": [
            {"variant": "push", "partitions": 100, "seconds": seconds},
            {"variant": "simple", "partitions": 100, "seconds": seconds * 2},
        ],
        "sim_time_s": sim,
        "counters": counters or {"disk_bytes_written": 1000.0},
        "fingerprint": fingerprint
        if fingerprint is not None
        else {"bench": name, "sort_scale": 10, "cluster": {"N0": {"cores": 4}}},
    }
    if critpath is not None:
        payload["critpath"] = {"makespan": sim, "categories": critpath}
    return payload


def test_diff_within_tolerance_passes():
    report = compare_benches(_bench(seconds=10.0), _bench(seconds=10.5))
    assert report.ok
    assert not report.regressions


def test_diff_flags_regression_with_attribution():
    base = _bench(seconds=10.0, sim=10.0,
                  critpath={"compute": 2.0, "spill_write": 8.0})
    slow = _bench(seconds=14.0, sim=14.0,
                  critpath={"compute": 2.0, "spill_write": 12.0})
    report = compare_benches(base, slow)
    assert not report.ok
    regressed = {m.metric for m in report.regressions}
    assert any(m.startswith("seconds[") for m in regressed)
    assert "sim_time_s" in regressed
    attribution = report.attribution()
    assert attribution and "spill_write" in attribution[0]
    assert "+4.000s" in attribution[0]


def test_diff_improvement_passes_with_note():
    report = compare_benches(_bench(seconds=10.0), _bench(seconds=5.0))
    assert report.ok
    assert report.improvements
    assert "bless" in report.render()


def test_diff_missing_metric_fails():
    base = _bench()
    cand = _bench()
    cand["rows"] = cand["rows"][:1]  # the simple row disappeared
    report = compare_benches(base, cand)
    assert not report.ok
    assert any(m.status == "missing" for m in report.regressions)


def test_diff_refuses_mismatched_fingerprint():
    base = _bench()
    other_scale = _bench(
        fingerprint={"bench": "fig_test", "sort_scale": 20,
                     "cluster": {"N0": {"cores": 4}}}
    )
    with pytest.raises(BenchMismatchError, match="sort_scale"):
        compare_benches(base, other_scale)
    other_cluster = _bench(
        fingerprint={"bench": "fig_test", "sort_scale": 10,
                     "cluster": {"N0": {"cores": 8}}}
    )
    with pytest.raises(BenchMismatchError, match="cluster"):
        compare_benches(base, other_cluster)


def test_diff_tolerance_override():
    base, cand = _bench(seconds=10.0), _bench(seconds=10.8)
    assert not compare_benches(base, cand, rel_tolerance=0.05).ok
    assert compare_benches(base, cand, rel_tolerance=0.20).ok
    # Prefix overrides: loosen only the row metrics.
    assert compare_benches(
        base, cand, rel_tolerance=0.05, tolerances={"seconds[": 0.25}
    ).ok


def test_strip_volatile_drops_host_fields():
    payload = dict(_bench(), wall_time_s=1.23, written_at=999.0,
                   events_jsonl="/tmp/x", chrome_trace="/tmp/y",
                   live_html="/tmp/z")
    stripped = strip_volatile(payload)
    # wall_time_s is *tracked* now (the trajectory baseline), only the
    # write stamp and export paths are stripped.
    assert stripped["wall_time_s"] == 1.23
    assert "written_at" not in stripped
    assert "events_jsonl" not in stripped
    assert "chrome_trace" not in stripped
    assert "live_html" not in stripped
    assert stripped["rows"] == payload["rows"]


# -- CLI gate -----------------------------------------------------------------


def test_cli_gate_exit_codes(tmp_path, capsys):
    from repro.obs.__main__ import main

    baselines = tmp_path / "baselines"
    results = tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    base = _bench(seconds=10.0, critpath={"spill_write": 8.0})
    (baselines / "BENCH_fig_test.json").write_text(json.dumps(base))
    (results / "BENCH_fig_test.json").write_text(json.dumps(base))
    args = ["diff", "--gate", "--baselines", str(baselines),
            "--results", str(results)]
    assert main(args) == 0
    slow = _bench(seconds=14.0, critpath={"spill_write": 12.0})
    (results / "BENCH_fig_test.json").write_text(json.dumps(slow))
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "GATE: FAIL" in out
    assert "spill_write" in out
    # A missing candidate result also fails the gate.
    (results / "BENCH_fig_test.json").unlink()
    assert main(args) == 1


def test_cli_bless_then_gate_roundtrip(tmp_path):
    from repro.obs.__main__ import main

    result = _bench(seconds=10.0)
    result["wall_time_s"] = 42.0
    result_path = tmp_path / "BENCH_fig_test.json"
    result_path.write_text(json.dumps(result))
    baselines = tmp_path / "baselines"
    assert main(["bless", str(result_path), "--baselines",
                 str(baselines)]) == 0
    blessed = json.loads((baselines / "BENCH_fig_test.json").read_text())
    # Blessed baselines keep wall_time_s: it feeds the non-gating
    # trajectory track but never the behavior gate itself.
    assert blessed["wall_time_s"] == 42.0
    assert main(["diff", "--gate", "--baselines", str(baselines),
                 "--results", str(tmp_path)]) == 0


def test_cli_critpath_and_usage_subcommands(tmp_path, capsys):
    from repro.obs.__main__ import main

    rt = make_runtime(num_nodes=2)
    double = rt.remote(lambda x: 2 * x, compute=0.05)

    def driver():
        return rt.get([double.remote(i) for i in range(6)])

    rt.run(driver)
    trace = tmp_path / "run.events.jsonl"
    record_run(rt, str(trace))
    assert main(["critpath", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "Critical-path attribution" in out
    assert main(["critpath", str(trace), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["makespan"] > 0
    assert sum(summary["categories"].values()) == pytest.approx(
        summary["makespan"]
    )
    assert main(["usage", str(trace), "--bins", "4"]) == 0
    assert "Binding resource over time" in capsys.readouterr().out


# -- stamps and report integration -------------------------------------------


def test_finish_bench_stamps(tmp_path, monkeypatch):
    import benchmarks._harness as harness
    from repro.metrics import ResultTable

    monkeypatch.chdir(tmp_path)
    rt = make_runtime(num_nodes=2)
    noop = rt.remote(lambda: 1, compute=0.01)
    rt.run(lambda: rt.get(noop.remote()))
    table = ResultTable("t", ["variant", "seconds"])
    table.add_row(variant="x", seconds=1.0)
    path = harness.finish_bench("stamped", table, runtime=rt)
    payload = json.loads(path.read_text())
    fp = payload["fingerprint"]
    assert fp["bench"] == "stamped"
    assert fp["sort_scale"] == harness.SORT_SCALE
    assert len(fp["cluster"]) == 2
    assert all(spec["cores"] == 4 for spec in fp["cluster"].values())
    assert payload["critpath"]["categories"]
    assert payload["critpath"]["makespan"] == pytest.approx(
        payload["sim_time_s"]
    )
    # The stamp makes self-comparison pass and cross-config refuse.
    assert compare_benches(payload, payload).ok


def test_phase_table_has_admission_column():
    events = _events(
        (0.0, "job.submit", dict(job="J", tenant="t", name="j")),
        (2.0, "job.admit", dict(job="J")),
        (2.0, "task.submit", dict(task="A", fn="work", returns=["O1"],
                                  deps=[], job="J")),
        (2.5, "task.run", dict(task="A", node="N0", job="J", attempt=1,
                               fn="work")),
        (4.0, "task.finish", dict(task="A", node="N0", job="J")),
    )
    table = RunReport(events).phase_table()
    assert "admission_s" in table.columns
    row = table.find(phase="work")
    assert row["admission_s"] == pytest.approx(2.0)
    assert row["mean_queue_s"] == pytest.approx(0.5)
