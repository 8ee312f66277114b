"""The self-profiling plane: wall-clock attribution for the simulator
itself.

Four contracts pin the tier:

- **Full coverage** -- the category breakdown plus the untracked
  residue sums to total wall time (property-tested over random scope
  trees with a deterministic clock, and asserted on real runs);
- **Zero cost when off** -- a profiled run produces the *bit-identical*
  behaviour-defining event stream (the golden sort digest from
  ``test_policy_golden``), and uninstalling puts back every patched
  class attribute by identity;
- **Bounded cost when on** -- <5% wall-time overhead on a realistic
  byte-moving sort (the budget scales with per-event simulation cost:
  instrumentation adds a near-constant handful of microseconds per
  event, so virtual microbenchmarks that do almost no Python work per
  event will show more -- ``docs/profiling.md`` spells this out);
- **Non-gating trajectory** -- wall-clock numbers ride along in bench
  diffs as a perf-trajectory track but never flip the regression gate.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MB
from repro.obs.perf.diff import (
    TRAJECTORY_FIELDS,
    compare_benches,
    trajectory_rows,
)
from repro.obs.profile import (
    SelfProfiler,
    folded_from_profiler,
    render_flamegraph_svg,
    render_profile,
    write_flamegraph,
)
from repro.obs.profile.core import CALLBACK_CATEGORY, HOOKS, _dispatch_category
from repro.obs.profile.flame import folded_lines
from repro.obs.report import RunReport, record_run
from repro.baselines.spark import SparkConfig, SparkSortJob
from repro.cluster import Cluster
from repro.simcore import Environment
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_node_spec, make_runtime
from tests.test_policy_golden import GOLDEN_SORT_DIGEST, digest_events


class FakeClock:
    """A deterministic clock: every read advances by a fixed tick, so
    wall-time identities become exact arithmetic."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _profiled_sort(**sort_kwargs):
    """Run the golden fig4c-style sort with a profiler installed."""
    config = dict(
        variant="push*",
        num_partitions=12,
        partition_bytes=30 * MB,
        virtual=True,
    )
    config.update(sort_kwargs)
    rt = make_runtime(num_nodes=3, store_mib=256)
    prof = SelfProfiler()
    prof.install()
    try:
        result = run_sort(rt, SortJobConfig(**config))
    finally:
        prof.finish()
    return rt, prof, result


# -- full coverage: sum(categories) + untracked == total -------------------


@st.composite
def scope_programs(draw):
    """Random well-nested scope programs over a small category alphabet:
    a sequence of enter/exit ops that never underflows and fully closes."""
    categories = ("engine.dispatch.job", "engine.dispatch.task", "bus.publish",
                  "metrics.charge", "driver.exec")
    ops = []
    depth = 0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        if depth > 0 and draw(st.booleans()):
            ops.append(None)  # exit
            depth -= 1
        else:
            ops.append(draw(st.sampled_from(categories)))
            depth += 1
    ops.extend([None] * depth)
    return ops


@settings(max_examples=60, deadline=None)
@given(program=scope_programs())
def test_breakdown_sums_to_total_over_random_scope_trees(program):
    """The exclusive-accounting identity holds for *every* well-nested
    scope sequence, exactly, under a deterministic clock."""
    clock = FakeClock()
    prof = SelfProfiler(clock=clock)
    prof.start()
    for op in program:
        if op is None:
            prof._exit()
        else:
            prof._enter(op)
    prof.finish()
    breakdown = prof.breakdown()
    assert sum(breakdown.values()) == pytest.approx(
        prof.total_wall_s, rel=1e-12
    )
    assert prof.coverage_error() < 1e-9
    # The folded stacks are the same exclusive seconds, re-keyed by path.
    assert sum(prof.folded.values()) == pytest.approx(
        prof.tracked_s(), rel=1e-12
    )
    assert all(secs >= 0 for secs in breakdown.values())


def test_breakdown_sums_to_total_on_a_real_run():
    """The acceptance criterion, on a live workload: breakdown sums to
    total wall time within 1%."""
    _rt, prof, result = _profiled_sort()
    assert result.validated
    breakdown = prof.breakdown()
    assert prof.total_wall_s > 0
    assert sum(breakdown.values()) == pytest.approx(
        prof.total_wall_s, rel=0.01
    )
    assert prof.coverage_error() < 0.01
    # Engine categories dominate a headless run of the engine loop.
    assert any(c.startswith("engine.dispatch.") for c in breakdown)


def test_scope_nesting_is_exclusive():
    """A child's seconds subtract out of its parent: with a fixed-tick
    clock the arithmetic is exact and hand-checkable."""
    clock = FakeClock(tick=1.0)
    prof = SelfProfiler(clock=clock)
    with prof.scope("outer"):      # start()+enter read 2 ticks
        with prof.scope("inner"):  # enter+exit read 2 ticks
            pass
    prof.finish()
    # inner: exit-enter = 1 tick of elapsed, all exclusive.
    assert prof.seconds["inner"] == pytest.approx(1.0)
    # outer elapsed spans 3 ticks, minus inner's full 1-tick interval...
    # but child-time rolls up the *elapsed* inner interval (1 tick), so
    # outer keeps 3 - 1 = 2 exclusive ticks.
    assert prof.seconds["outer"] == pytest.approx(2.0)
    assert prof.folded[("outer", "inner")] == pytest.approx(1.0)
    assert prof.folded[("outer",)] == pytest.approx(2.0)


# -- zero cost when off ----------------------------------------------------


def test_profiled_run_reproduces_the_golden_sort_digest():
    """Profiling must change *no* simulated behaviour: the profiled
    golden sort reproduces the pre-profiler digest bit-for-bit."""
    rt, _prof, result = _profiled_sort()
    assert result.validated
    assert digest_events(rt.bus.events) == GOLDEN_SORT_DIGEST


def _hooked_attributes():
    """``{(class, attribute): object}`` for every hook point, read from
    the classes' own namespaces."""
    import importlib

    out = {(Environment, "step"): vars(Environment)["step"]}
    for module, class_name, methods, _category, _counter in HOOKS:
        cls = getattr(importlib.import_module(module), class_name)
        for name in methods:
            out[(cls, name)] = vars(cls)[name]
    return out


def test_uninstall_restores_every_class_attribute_by_identity():
    pristine = _hooked_attributes()
    prof = SelfProfiler()
    prof.install()
    try:
        # Every hook point is patched on its class while installed...
        patched = _hooked_attributes()
        assert all(patched[key] is not pristine[key] for key in pristine)
    finally:
        prof.uninstall()
    # ...and the exact original objects are back afterwards.
    assert all(
        obj is pristine[key] for key, obj in _hooked_attributes().items()
    )
    prof.uninstall()  # idempotent


def test_detach_restores_pristine_methods():
    """Detaching a runtime from the profiler is uninstalling it: the
    runtime's own namespaces never gain a shadow, and afterwards its
    methods resolve to the pristine class functions again."""
    pristine = _hooked_attributes()
    rt = make_runtime(num_nodes=2)
    owners = (rt.env, rt.bus, rt, rt.metrics, rt._driver)
    before = [dict(vars(obj)) for obj in owners]
    prof = SelfProfiler()
    prof.install()
    try:
        run_sort(rt, SortJobConfig(
            variant="push", num_partitions=4, partition_bytes=MB,
            virtual=True,
        ))
        # Instance namespaces hold no hook while installed...
        for obj in owners:
            assert not {"step", "emit", "charge_task", "charge_object",
                        "counter", "gauge_set", "observe",
                        "_hand_off"} & set(vars(obj))
        assert rt.env.step.__func__ is not pristine[(Environment, "step")]
    finally:
        prof.uninstall()
    # ...and the bound methods are the original functions afterwards.
    assert prof.counts["events_processed"] > 0
    assert rt.env.step.__func__ is pristine[(Environment, "step")]
    assert type(rt).charge_task is pristine[(type(rt), "charge_task")]
    assert rt.bus.emit.__func__ is pristine[(type(rt.bus), "emit")]
    assert set(vars(rt.env)) == set(before[0])
    prof.uninstall()  # idempotent


def test_attached_context_manager_detaches_and_finishes():
    pristine = _hooked_attributes()
    with SelfProfiler() as prof:
        assert _hooked_attributes() != pristine
        rt = make_runtime(num_nodes=2)
        rt.env.call_later(1.0, lambda: None)
        rt.env.run()
    assert _hooked_attributes() == pristine
    assert prof.counts["events_processed"] >= 1
    assert prof.total_wall_s > 0
    assert prof._finished_at is not None
    # An exception inside the block still uninstalls and finishes.
    with pytest.raises(ValueError):
        with SelfProfiler() as failing:
            raise ValueError("boom")
    assert _hooked_attributes() == pristine
    assert failing._finished_at is not None
    # finish() alone uninstalls too, and stops the wall clock.
    prof = SelfProfiler()
    prof.install()
    prof.finish()
    assert _hooked_attributes() == pristine
    assert prof.total_wall_s > 0
    assert prof._finished_at is not None


def test_second_install_raises_and_leaves_the_first_intact():
    pristine = _hooked_attributes()
    prof = SelfProfiler()
    prof.install()
    try:
        installed = _hooked_attributes()
        with pytest.raises(RuntimeError, match="already installed"):
            prof.install()
        second = SelfProfiler()
        with pytest.raises(RuntimeError, match="already installed"):
            second.install()
        assert _hooked_attributes() == installed
        # The first profiler still sees the engine; the refused one not.
        env = Environment()
        env.call_later(1.0, lambda: None)
        env.run()
        assert prof.counts["events_processed"] == 1
        assert second.counts == {}
    finally:
        prof.finish()
    assert _hooked_attributes() == pristine
    with pytest.raises(RuntimeError, match="already finished"):
        prof.install()
    # Once the first is gone, another profiler may install.
    second.install()
    second.uninstall()
    assert _hooked_attributes() == pristine


def test_one_profiler_accumulates_across_runtimes():
    """A figure benchmark builds one runtime per variant and runs its
    baselines on bare engines; one install covers them all, and the
    simulated seconds are the sum of every engine's clock."""
    prof = SelfProfiler()
    prof.install()
    try:
        engines = []
        for _ in range(2):
            rt = make_runtime(num_nodes=2)
            run_sort(rt, SortJobConfig(
                variant="push", num_partitions=4, partition_bytes=MB,
                virtual=True,
            ))
            engines.append(rt.env)
        env = Environment()
        SparkSortJob(
            Cluster.homogeneous(env, make_node_spec(), 2),
            config=SparkConfig(),
            num_partitions=4,
            partition_bytes=MB,
        ).run()
        engines.append(env)
    finally:
        prof.finish()
    assert prof.counts["events_processed"] > 0
    assert prof.seconds.get("engine.dispatch.spark", 0.0) > 0
    assert all(e.now > 0 for e in engines)
    assert prof.sim_time_s == pytest.approx(sum(e.now for e in engines))


# -- bounded cost when on --------------------------------------------------


def _budget_sort_once(profiled: bool) -> float:
    """One non-virtual (real byte-moving) sort; returns wall seconds.

    Non-virtual partitions make the per-event simulation cost realistic
    (~hundreds of microseconds); the profiler's near-constant few
    microseconds per event must disappear into that.
    """
    rt = make_runtime(num_nodes=3, store_mib=256)
    prof = SelfProfiler() if profiled else None
    if prof is not None:
        prof.install()
    start = time.perf_counter()
    try:
        result = run_sort(rt, SortJobConfig(
            variant="push*", num_partitions=12, partition_bytes=16 * MB,
            virtual=False,
        ))
        elapsed = time.perf_counter() - start
    finally:
        if prof is not None:
            prof.finish()
    assert result.validated
    if prof is not None:
        assert prof.counts["events_processed"] > 0
    return elapsed


def _measure_overhead(repeats: int = 5) -> float:
    """Min-of-N overhead, interleaved so background noise hits both
    sides alike."""
    plain, profiled = [], []
    for _ in range(repeats):
        plain.append(_budget_sort_once(profiled=False))
        profiled.append(_budget_sort_once(profiled=True))
    return (min(profiled) - min(plain)) / min(plain)


def test_profiler_overhead_is_under_budget():
    """<5% wall-time overhead on a realistic run.  True overhead on this
    workload measures well under 1%; one re-measure absorbs a noisy
    first pass on a loaded CI host without loosening the budget."""
    overhead = _measure_overhead()
    if overhead >= 0.05:
        overhead = _measure_overhead()
    assert overhead < 0.05, (
        f"profiler overhead {100 * overhead:.2f}% exceeds the 5% budget"
    )


# -- throughput and counters ------------------------------------------------


def test_throughput_and_counters():
    _rt, prof, _result = _profiled_sort()
    thr = prof.throughput()
    assert thr["events_processed"] > 0
    assert thr["events_per_wall_s"] > 0
    assert thr["sim_s_per_wall_s"] > 0
    assert thr["sim_time_s"] == pytest.approx(prof.sim_time_s)
    counts = prof.counts
    assert counts["events_processed"] > 0
    assert counts["bus_publications"] > 0
    assert counts["metric_charges"] > 0
    payload = prof.to_dict()
    assert payload["coverage_error"] < 0.01
    assert sum(payload["categories"].values()) == pytest.approx(
        payload["wall_time_s"], rel=0.01
    )
    assert set(payload["categories"]) == set(payload["fractions"])
    assert sum(payload["fractions"].values()) == pytest.approx(1.0, abs=0.02)


def test_dispatch_category_classification():
    class _Named:
        def __init__(self, name, callbacks=()):
            self.name = name
            self.callbacks = list(callbacks)

    class _Proc:
        name = "task-3-map"

        def _resume(self, event):
            pass

    class _Timeout:
        name = None
        callbacks = ()

    assert _dispatch_category(_Named("driver-get")) == "engine.dispatch.driver"
    assert _dispatch_category(_Named("job:admit")) == "engine.dispatch.job"
    unnamed = _Named(None, callbacks=[_Proc()._resume])
    assert _dispatch_category(unnamed) == "engine.dispatch.task"
    assert _dispatch_category(_Timeout()) == "engine.dispatch.timeout"


def test_dispatch_category_of_real_heap_heads():
    """The engine's heap holds callables.  A bare callback keeps the
    category the retired ``_CallbackEvent`` wrapper had, so committed
    baseline profiles stay comparable; an event's entry keeps the
    category of the process it resumes or completes."""
    env = Environment()

    def head():
        return _dispatch_category(env.next_entry())

    env.call_later(1.0, lambda: None)
    assert head() == CALLBACK_CATEGORY == "engine.dispatch.callbackevent"
    env.run()

    def body():
        yield env.timeout(1.0)

    proc = env.process(body(), name="task-7-map")
    assert head() == CALLBACK_CATEGORY  # the process start
    env.step()
    assert head() == "engine.dispatch.task"  # its timeout resumes it
    env.step()
    assert proc.triggered
    assert head() == "engine.dispatch.task"  # its own completion
    env.run()

    def wait(event):
        yield event

    gate = env.event()
    env.process(wait(gate), name="driver-get")
    env.step()
    gate.succeed()
    assert head() == "engine.dispatch.driver"
    env.run()
    proc.interrupt()  # finished: a no-op, nothing scheduled
    assert env.next_entry() is None


def test_profiled_run_reports_bare_callbacks_as_callbackevent():
    _rt, prof, _result = _profiled_sort()
    assert prof.seconds.get(CALLBACK_CATEGORY, 0.0) > 0
    assert prof.seconds.get("engine.dispatch.task", 0.0) > 0


# -- flamegraph export -----------------------------------------------------


def test_flamegraph_svg_is_standalone(tmp_path):
    _rt, prof, _result = _profiled_sort()
    folded = folded_from_profiler(prof)
    assert folded, "profiled run must yield folded stacks"
    assert ("untracked",) in folded
    assert sum(folded.values()) == pytest.approx(prof.total_wall_s, rel=0.01)
    svg = render_flamegraph_svg(folded, title="unit test")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<title>" in svg and "unit test" in svg
    assert "<script" not in svg
    # The only URL anywhere is the SVG XML namespace itself.
    stripped = svg.replace("http://www.w3.org/2000/svg", "")
    assert "http://" not in stripped and "https://" not in stripped
    # A real run's stacks written out: the SVG plus the folded text.
    svg_path, folded_path = tmp_path / "run.svg", tmp_path / "run.folded"
    write_flamegraph(folded, svg_path, folded_path=folded_path)
    assert svg_path.read_text().startswith("<svg")
    assert folded_path.read_text().splitlines() == folded_lines(folded)


def test_write_flamegraph_and_folded_lines(tmp_path):
    folded = {
        ("engine.dispatch.task",): 0.25,
        ("engine.dispatch.task", "bus.publish"): 0.05,
        ("untracked",): 0.7,
        ("dropped",): 0.0,
    }
    svg_path = tmp_path / "flame.svg"
    folded_path = tmp_path / "flame.folded"
    out = write_flamegraph(folded, svg_path, folded_path=folded_path)
    assert out == svg_path and svg_path.read_text().startswith("<svg")
    lines = folded_path.read_text().splitlines()
    assert "engine.dispatch.task;bus.publish 50000" in lines
    assert "untracked 700000" in lines
    # Zero-value stacks are dropped from the canonical text.
    assert not any(line.startswith("dropped") for line in lines)
    assert lines == folded_lines(folded)


# -- report integration -----------------------------------------------------


def test_record_run_stamps_profile_and_report_renders_engine(tmp_path):
    rt, prof, _result = _profiled_sort()
    path = tmp_path / "run.events.jsonl"
    record_run(rt, str(path), profile=prof.to_dict())
    report = RunReport.load(str(path))
    recorded = report.to_dict()["engine_summary"]
    assert recorded == prof.to_dict()
    assert recorded["events_processed"] == prof.counts["events_processed"]
    assert recorded["events_per_wall_s"] > 0
    assert recorded["coverage_error"] < 0.01
    # One rendering: the report prints what the live profiler prints.
    engine = render_profile(recorded)
    assert engine == prof.render()
    assert engine in report.render()
    assert engine.startswith("Engine self-profile") and "events/s" in engine
    # Category lines come costliest first, each with its share of wall.
    lines = [line for line in engine.splitlines()[1:] if line.endswith("%")]
    categories = recorded["categories"]
    assert lines[0].split()[0] == max(categories, key=categories.get)
    shares = [float(line.split()[-1].rstrip("%")) for line in lines]
    assert all(0.0 <= share <= 100.0 for share in shares)


def test_report_without_profiler_has_no_engine_section(tmp_path):
    rt = make_runtime(num_nodes=2)
    run_sort(rt, SortJobConfig(
        variant="push", num_partitions=4, partition_bytes=MB, virtual=True,
    ))
    path = tmp_path / "plain.events.jsonl"
    record_run(rt, str(path))
    report = RunReport.load(str(path))
    assert report.to_dict()["engine_summary"] == {}
    assert render_profile(report.summary.get("profile", {})) == ""
    assert "Engine self-profile" not in report.render()


# -- the non-gating perf trajectory ----------------------------------------


def _bench_payload(wall_s: float, events_per_s: float):
    return {
        "name": "traj",
        "rows": [{"variant": "push", "seconds": 12.0}],
        "sim_time_s": 12.0,
        "counters": {"spill_bytes": 1000.0},
        "wall_time_s": wall_s,
        "profile": {
            "events_per_wall_s": events_per_s,
            "sim_s_per_wall_s": 12.0 / wall_s,
            "events_processed": 60_000,
        },
        "fingerprint": {"bench": "traj", "scale": 1},
    }


def test_trajectory_rows_track_host_speed_without_gating():
    baseline = _bench_payload(wall_s=1.0, events_per_s=60_000.0)
    candidate = _bench_payload(wall_s=2.5, events_per_s=24_000.0)
    report = compare_benches(baseline, candidate)
    # A 2.5x host slowdown: visible on the trajectory, invisible to the
    # gate (simulated metrics are identical).
    assert report.ok
    assert {m.metric for m in report.metrics}.isdisjoint(
        {name for name, _path in TRAJECTORY_FIELDS}
    )
    rows = {row["metric"]: row for row in report.trajectory}
    assert rows["wall_time_s"]["delta_pct"] == pytest.approx(150.0)
    assert rows["events_per_wall_s"]["delta_pct"] == pytest.approx(-60.0)
    assert "Perf trajectory (non-gating)" in report.render()
    assert "never gate" in report.render()
    assert report.to_dict()["trajectory"] == report.trajectory


def test_trajectory_rows_survive_missing_profile_sections():
    baseline = _bench_payload(wall_s=1.0, events_per_s=60_000.0)
    bare = {k: v for k, v in baseline.items() if k != "profile"}
    rows = {row["metric"]: row for row in trajectory_rows(bare, baseline)}
    assert "wall_time_s" in rows
    # A profile on one side only still rides along -- with a None
    # baseline and no delta (nothing to compare against).
    assert rows["events_per_wall_s"]["baseline"] is None
    assert rows["events_per_wall_s"]["delta_pct"] is None
    assert rows["events_per_wall_s"]["candidate"] == pytest.approx(60_000.0)
    # Two profile-free payloads still track wall time.
    assert {r["metric"] for r in trajectory_rows(bare, bare)} == {
        "wall_time_s"
    }
