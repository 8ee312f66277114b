"""Checks of the end-to-end benchmark itself (``pytest benchmarks/e2e``)."""

import json

import pytest

from benchmarks.e2e import run, worker
from benchmarks.e2e.tracer import LAYERS, LayerTracer
from benchmarks.e2e.workloads import WORKLOADS


def _traced(name):
    tracer = LayerTracer()
    tracer.install()
    try:
        go = WORKLOADS[name](7, True)
        tracer.start()
        outcome = go()
        wall = tracer.stop()
    finally:
        tracer.uninstall()
    return outcome, tracer, wall


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_simulates_exactly_what_the_untraced_run_does(name):
    plain = WORKLOADS[name](7, True)()
    traced, tracer, wall = _traced(name)
    assert plain.problems == [] and traced.problems == []
    assert worker.sim_results(traced) == worker.sim_results(plain)
    assert traced.runtime.stats() == plain.runtime.stats()
    ledger = worker.ledger(tracer, wall)
    assert ledger["coverage_error"] < 1e-6
    assert ledger["switch_misses"] == 0
    assert tracer.untracked_s / wall < 0.05


def test_uninstall_restores_every_original_attribute():
    tracer = LayerTracer()
    tracer.install()
    patches = tracer.patches
    tracer.uninstall()
    assert len(patches) > 50
    names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in patches}
    assert {"Environment.step", "DriverHost.block_on", "Runtime.remote"} <= names
    for owner, attr, had, original in patches:
        if had:
            assert vars(owner)[attr] is original, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)


class _Clock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_partition_the_window_on_a_nested_call_tree():
    clock = _Clock()
    tracer = LayerTracer(clock=clock)

    def spend(seconds):
        clock.now += seconds

    @lambda fn: tracer.wrap(fn, "leaf", "L")
    def leaf():
        spend(1.0)

    @lambda fn: tracer.wrap(fn, "mid", "M")
    def mid():
        spend(2.0)
        leaf()
        spend(3.0)
        leaf()

    @lambda fn: tracer.wrap(fn, "top", "T")
    def top():
        spend(4.0)
        mid()
        leaf()

    tracer.start()
    spend(0.5)
    top()
    spend(0.25)
    wall = tracer.stop()

    totals = tracer.layer_totals()
    assert totals["T"] == (1, 4.0)
    assert totals["M"] == (1, 5.0)
    assert totals["L"] == (3, 3.0)
    assert tracer.untracked_s == 0.75
    self_sum = sum(self_s for _, self_s in totals.values())
    assert abs(self_sum + tracer.untracked_s - wall) <= 0.01 * wall
    paths = {row["path"]: row["self_s"] for row in tracer.paths()}
    assert paths == {"top": 4.0, "top;mid": 5.0, "top;mid;leaf": 2.0, "top;leaf": 1.0}
    assert [span[2] for span in tracer.spans] == ["leaf", "leaf", "mid", "leaf", "top"]


def test_a_parked_driver_accrues_no_time():
    from repro.futures.driver import DriverHost
    from repro.simcore import Environment

    clock = _Clock()
    tracer = LayerTracer(clock=clock)

    def spend(seconds):
        clock.now += seconds

    tracer.install()
    try:
        env = Environment()
        host = DriverHost(env)
        env.call_later(1.0, lambda: spend(4.0))

        def driver():
            spend(2.0)
            host.block_on(env.timeout(2.0))  # the engine runs meanwhile
            spend(0.5)

        tracer.start()
        host.run(driver)
        tracer.stop()
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["app"] == (1, 2.5)
    assert totals["simcore.engine"][1] == 4.0
    assert totals["futures.driver"] == (1, 0.0)
    assert tracer.untracked_s == 0.0
    assert tracer.switch_misses == 0


def _contract_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_printed_metric_names_equal_benchmark_json(capsys, tmp_path):
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "sort-recover", "--smoke", "--trace", str(trace),
                         "--out", str(tmp_path)])
        line = _contract_line(capsys)
        assert code == 0 and line["correct"] is True
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
    layer_metrics = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_share"} <= layer_metrics


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_a_workload_that_raises_is_a_record_not_a_crash(monkeypatch, capsys, trace):
    def raises_in_job(seed, smoke):
        def go():
            raise RuntimeError("boom at t=0")
        return go

    def raises_in_build(seed, smoke):
        raise ValueError("no such cluster")

    monkeypatch.setitem(WORKLOADS, "in-job", raises_in_job)
    monkeypatch.setitem(WORKLOADS, "in-build", raises_in_build)
    for name, error in (("in-job", "RuntimeError: boom at t=0"),
                        ("in-build", "ValueError: no such cluster")):
        assert worker.main(["--workload", name] + trace) == 0
        record = _contract_line(capsys)
        assert (record["ok"], record["error"]) == (False, error)


def test_a_worker_that_exits_without_a_record_is_a_failed_run(tmp_path):
    # The worker's argument parser rejects the seed and exits 2.
    record = run.spawn_worker("sort-recover", "not-a-seed", True, False, tmp_path)
    assert record["ok"] is False and record["crashed"] is True
    assert record["error"].startswith("worker exited 2: ")


def _with_workloads(monkeypatch, names, failed_record):
    real_spawn = run.spawn_worker

    def spawn(name, *args):
        return dict(failed_record) if name == "boom" else real_spawn(name, *args)

    spec = run.load_spec()
    by_name = {w["name"]: w for w in spec["workloads"]}
    spec["workloads"] = [by_name.get(n, {"name": n, "why": "fails"}) for n in names]
    monkeypatch.setattr(run, "spawn_worker", spawn)
    monkeypatch.setattr(run, "load_spec", lambda: spec)


@pytest.mark.parametrize("failed_record", [
    {"ok": False, "error": "RuntimeError: boom at t=0"},
    {"ok": False, "crashed": True, "error": "worker exited -9: RuntimeError: boom at t=0"},
])
def test_a_failed_workload_is_counted_and_the_others_still_run(
    monkeypatch, capsys, tmp_path, failed_record
):
    _with_workloads(monkeypatch, ["sort-recover", "boom"], failed_record)
    assert run.main(["--smoke", "--out", str(tmp_path)]) == 1
    line = _contract_line(capsys)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (3, 1)
    result = json.loads((tmp_path / "e2e.json").read_text())["workloads"]
    assert result["boom"]["metrics"]["error_rate"]["value"] == 1.0
    assert any("RuntimeError: boom at t=0" in p for p in result["boom"]["problems"])
    assert result["sort-recover"]["metrics"]["error_rate"]["value"] == 0.0
    assert result["sort-recover"]["metrics"]["lineage.resubmits"]["value"] > 0


def test_only_a_crash_of_the_first_worker_stops_the_benchmark(monkeypatch, capsys, tmp_path):
    crashed = {"ok": False, "crashed": True, "error": "worker exited 1: no repro"}
    _with_workloads(monkeypatch, ["boom", "sort-recover"], crashed)
    assert run.main(["--smoke", "--out", str(tmp_path)]) == 2
    assert not capsys.readouterr().out.strip().endswith("}")
