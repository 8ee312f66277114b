"""CLI entry point: ``python -m repro.obs [TRACE] [--smoke]`` plus the
performance-analysis subcommands:

- ``python -m repro.obs critpath TRACE`` -- critical-path extraction
  and bottleneck attribution (category breakdown, what-if estimates);
- ``python -m repro.obs usage TRACE`` -- per-node busy fractions and
  the binding-resource timeline;
- ``python -m repro.obs diff BASELINE CANDIDATE`` / ``diff --gate`` --
  benchmark regression checking against ``benchmarks/baselines/``
  (the CI perf gate; nonzero exit on regression or config mismatch);
- ``python -m repro.obs bless RESULT...`` -- refresh committed
  baselines from fresh ``BENCH_*.json`` files (volatile fields
  stripped);
- ``python -m repro.obs live TRACE`` -- terminal ops dashboard frames
  over a recorded run (``--follow`` samples the built-in chaos
  workload live; ``--smoke`` is the headless CI gate checking
  live-vs-replay determinism and panel invariants);
- ``python -m repro.obs html TRACE`` -- export the single-file offline
  HTML run explorer;
- ``python -m repro.obs profile [TRACE | --workload chaos]`` -- the
  simulator profiles *itself*: wall-clock attribution by category
  (engine pop/dispatch, bus publish, metrics charging, span
  derivation), hot-loop counters, events-per-wall-second throughput,
  and standalone-SVG flamegraph export (``--flame``; ``--cprofile``
  for function-level detail).

Report mode loads a :func:`repro.obs.report.record_run` JSONL file and
prints the full run story (phase breakdown, slowest tasks, jobs and
fairness, spill amplification, fault/retry timeline), followed by the
critical-path and usage summaries; ``--json`` prints
:meth:`RunReport.to_dict` instead.

Smoke mode (``--smoke``) exercises the observability plane end to end
and is the CI gate for this package:

1. a push shuffle under a node-crash chaos plan must yield ``task.retry``
   events whose causal chains walk back through ``node.death`` to the
   ``chaos.fault`` that killed the node, a Chrome trace whose retried
   attempt spans carry the causal flow arrows, and a JSONL export that
   round-trips losslessly into an identical report;
2. two labeled jobs on a spill-heavy cluster must charge spill bytes
   to per-job series that sum *exactly* to the global spill counter,
   with the metric-dimension invariant family clean;
3. the reporter must render every section from the recorded file alone;
4. the perf layer must attribute the chaos run's critical path with the
   categories summing to the makespan, derive a usage timeline, export
   counter tracks, and the bench differ must flag a synthetic slowdown
   while refusing mismatched configs;
5. the recorded ``policy.decision`` stream must reconstruct placement
   affinity accounting (honoured vs fell-through partitioning every
   placement) and render as the report's policy section;
6. the self-profiler must attach to the chaos workload without changing
   its simulated behavior (event streams identical with and without),
   produce a category breakdown summing to total wall time within 1%,
   detach cleanly, render the report's Engine section, export a
   standalone flamegraph SVG, and surface wall-time movement on the
   differ's non-gating trajectory track.

Exit code 0 means all checks held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.chaos.harness import (
    default_node_spec,
    expected_output,
    make_inputs,
    submit_variant,
)
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.spec import FaultKind, matrix_plan
from repro.common.units import MIB
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.obs.report import RunReport, record_run
from repro.obs.trace import derive_spans, write_chrome_trace


def _check(ok: bool, message: str) -> int:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    return 0 if ok else 1


def _smoke_causality(seed: int, out_dir: Path) -> int:
    """A chaos run must leave a causally linked fault -> retry trace."""
    failures = 0
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=seed))
    inputs = make_inputs(seed, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    values = rt.run(driver)
    rt.env.run()  # drain the node restart
    failures += _check(
        tuple(tuple(v) for v in values) == expected_output(seed),
        "push shuffle under node crash is oracle-correct",
    )
    violations = InvariantChecker(rt).check()
    failures += _check(
        not violations, f"invariants clean ({len(violations)} violations)"
    )
    for violation in violations[:5]:
        print(f"       ! {violation}")

    retries = rt.bus.events_of("task.retry")
    chains = [
        [e.kind for e in rt.bus.causal_chain(retry)] for retry in retries
    ]
    linked = [c for c in chains if "chaos.fault" in c and "node.death" in c]
    failures += _check(
        bool(linked),
        f"{len(linked)}/{len(retries)} retries causally linked "
        f"retry <- node.death <- chaos.fault",
    )
    retry_seqs = {r.seq for r in retries}
    retried_spans = [
        s
        for s in derive_spans(rt.bus.events)
        if s.cat == "task" and s.parent in retry_seqs
    ]
    failures += _check(
        bool(retried_spans),
        f"{len(retried_spans)} re-executed attempt spans carry their "
        f"task.retry as parent",
    )

    trace_path = out_dir / "chaos.trace.json"
    write_chrome_trace(rt.bus.events, str(trace_path))
    trace = json.loads(trace_path.read_text())
    phases = {e.get("ph") for e in trace["traceEvents"]}
    failures += _check(
        {"X", "M", "i", "s", "f"} <= phases,
        f"Chrome trace has spans, metadata, instants, and flow arrows "
        f"({len(trace['traceEvents'])} events)",
    )

    jsonl_path = out_dir / "chaos.events.jsonl"
    written = record_run(rt, str(jsonl_path))
    report = RunReport.load(str(jsonl_path))
    failures += _check(
        written == len(rt.bus.events) + 1
        and len(report.events) == written
        and report.summary.get("stats", {}).get("node_failures") == 1,
        f"JSONL round-trip lossless ({written} events incl. run.summary)",
    )
    return failures


def _spill_job(rt: Runtime, chunks: int):
    """One labeled job body: produce and fetch spill-sized outputs."""
    produce = rt.remote(lambda: bytes(MIB), compute=0.01)
    refs = [produce.remote() for _ in range(chunks)]
    rt.get(refs)
    return chunks


def _smoke_spill_accounting(seed: int, out_dir: Path) -> int:
    """Per-job spill bytes must sum exactly to the global spill counter."""
    failures = 0
    spec = default_node_spec().with_object_store(4 * MIB)
    rt = Runtime.create(spec, 2)

    def driver():
        handles = [
            rt.spawn_driver(_spill_job, rt, 10, name=f"job:{label}", label=label)
            for label in ("tenant-a/sort", "tenant-b/sort")
        ]
        return [rt.join_driver(h) for h in handles]

    rt.run(driver)
    rt.env.run()
    global_spill = rt.counters.get("spill_bytes_written")
    per_job = rt.metrics.counter_by("spill_bytes_written", "job")
    failures += _check(
        global_spill > 0, f"spilling occurred ({global_spill / MIB:.1f} MiB)"
    )
    failures += _check(
        sum(per_job.values()) == global_spill,
        f"per-job spill bytes sum exactly to the global counter "
        f"({ {k: int(v) for k, v in per_job.items() if v} })",
    )
    violations = [
        v for v in InvariantChecker(rt).check() if v.startswith("metric")
    ]
    failures += _check(
        not violations,
        f"metric-dimension invariant family clean "
        f"({len(violations)} violations)",
    )

    jsonl_path = out_dir / "spill.events.jsonl"
    record_run(rt, str(jsonl_path))
    report = RunReport.load(str(jsonl_path))
    failures += _check(
        sum(report.per_job_spill_bytes().values())
        == report.summary["stats"]["spill_bytes_written"],
        "reporter reproduces the spill attribution from the file alone",
    )
    return failures


def _smoke_perf(seed: int, out_dir: Path) -> int:
    """The perf layer must attribute the recorded chaos run exactly."""
    from repro.obs.events import EventBus
    from repro.obs.perf import critical_path, derive_usage
    from repro.obs.perf.diff import BenchMismatchError, compare_benches

    failures = 0
    events = EventBus.load_jsonl(str(out_dir / "chaos.events.jsonl"))
    path = critical_path(events)
    failures += _check(
        path.makespan > 0 and path.coverage_error() < 0.01,
        f"critical-path categories sum to the makespan "
        f"({path.makespan:.3f}s, error {100 * path.coverage_error():.3f}%)",
    )
    failures += _check(
        path.category_times()["compute"] > 0,
        "critical path contains compute time",
    )

    timeline = derive_usage(events)
    failures += _check(
        bool(timeline.nodes)
        and any(
            timeline.busy_fraction("cpu", node) > 0
            for node in timeline.nodes
        ),
        f"usage timeline shows CPU activity on {len(timeline.nodes)} nodes",
    )
    trace = json.loads((out_dir / "chaos.trace.json").read_text())
    counter_rows = [
        e for e in trace["traceEvents"] if e.get("ph") == "C"
    ]
    failures += _check(
        bool(counter_rows),
        f"Chrome trace carries {len(counter_rows)} counter samples",
    )

    base = {
        "name": "smoke",
        "rows": [{"variant": "push", "seconds": 10.0}],
        "sim_time_s": 10.0,
        "counters": {},
        "fingerprint": {"bench": "smoke", "sort_scale": 1},
    }
    slowed = dict(base, rows=[{"variant": "push", "seconds": 13.0}],
                  sim_time_s=13.0)
    report = compare_benches(base, slowed)
    try:
        compare_benches(
            base,
            dict(base, fingerprint={"bench": "smoke", "sort_scale": 2}),
        )
        refused = False
    except BenchMismatchError:
        refused = True
    failures += _check(
        not report.ok and refused,
        "diff flags a 30% slowdown and refuses mismatched configs",
    )
    return failures


def _smoke_reporter(seed: int, out_dir: Path) -> int:
    """The reporter must render every section from a recorded run."""
    rendered = RunReport.load(str(out_dir / "chaos.events.jsonl")).render()
    wanted = ("Phase breakdown", "Slowest tasks", "Fault / retry timeline")
    missing = [w for w in wanted if w not in rendered]
    print(rendered)
    return _check(
        not missing, f"report renders all sections (missing: {missing or '-'})"
    )


def _smoke_policy(seed: int, out_dir: Path) -> int:
    """The policy plane's decisions must be reconstructable offline."""
    failures = 0
    report = RunReport.load(str(out_dir / "chaos.events.jsonl"))
    places = [
        e
        for e in report.events
        if e.kind == "policy.decision" and e.attrs.get("decision") == "place"
    ]
    affinity = report.affinity_summary()
    failures += _check(
        bool(places),
        f"{len(places)} placement policy decisions recorded",
    )
    failures += _check(
        affinity["honoured"] > 0,
        f"affinity honoured on {affinity['honoured']} placements "
        f"({affinity['fell_through']} fell through, "
        f"{affinity['no_hint']} unhinted)",
    )
    failures += _check(
        sum(affinity.values()) == len(places),
        "affinity accounting partitions every placement decision",
    )
    failures += _check(
        "Policy decisions" in report.render(),
        "report renders the policy-decision section",
    )
    return failures


def _load_events(path: str):
    from repro.obs.events import EventBus

    return EventBus.load_jsonl(path)


def _cmd_critpath(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs critpath",
        description="Critical-path extraction and bottleneck attribution.",
    )
    parser.add_argument("trace", help="a record_run() JSONL file")
    parser.add_argument(
        "--top", type=int, default=8, help="longest segments to print"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    args = parser.parse_args(argv)
    from repro.obs.perf import critical_path

    path = critical_path(_load_events(args.trace))
    if args.json:
        print(json.dumps(path.to_dict(), indent=2))
    else:
        print(path.render(top_k=args.top))
    return 0


def _cmd_usage(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs usage",
        description="Per-node utilization and binding-resource timeline.",
    )
    parser.add_argument("trace", help="a record_run() JSONL file")
    parser.add_argument(
        "--bins", type=int, default=24, help="timeline slices to label"
    )
    args = parser.parse_args(argv)
    from repro.obs.perf import derive_usage

    print(derive_usage(_load_events(args.trace)).render(bins=args.bins))
    return 0


def _default_baseline_dir() -> Path:
    return Path("benchmarks") / "baselines"


def _gate_pairs(baselines: Path, results: Path):
    """(baseline, candidate) path pairs for every committed baseline."""
    for base_path in sorted(baselines.glob("BENCH_*.json")):
        yield base_path, results / base_path.name


def _cmd_diff(argv) -> int:
    from repro.obs.perf.diff import (
        DEFAULT_REL_TOLERANCE,
        BenchMismatchError,
        compare_files,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Compare benchmark results within tolerance bands; "
        "refuses mismatched configs, attributes regressions to "
        "critical-path categories.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="BASELINE CANDIDATE result files (omit with --gate)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="CI mode: check every committed baseline against the "
        "matching fresh result; nonzero exit on any regression",
    )
    parser.add_argument(
        "--baselines",
        default=str(_default_baseline_dir()),
        help="committed baseline directory (gate mode)",
    )
    parser.add_argument(
        "--results",
        default=".",
        help="directory holding fresh BENCH_*.json files (gate mode)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"relative tolerance band (default {DEFAULT_REL_TOLERANCE:.2f})",
    )
    parser.add_argument(
        "--json", action="store_true", help="print reports as JSON"
    )
    args = parser.parse_args(argv)
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_REL_TOLERANCE
    )
    if args.gate:
        pairs = list(_gate_pairs(Path(args.baselines), Path(args.results)))
        if not pairs:
            print(f"no baselines found under {args.baselines}")
            return 2
    elif len(args.files) == 2:
        pairs = [(Path(args.files[0]), Path(args.files[1]))]
    else:
        parser.error("expected BASELINE CANDIDATE files, or --gate")
        return 2

    failures = 0
    for base_path, cand_path in pairs:
        print(f"== {base_path} vs {cand_path}")
        if not cand_path.exists():
            print(f"FAIL candidate result missing: {cand_path}")
            failures += 1
            continue
        try:
            report = compare_files(
                str(base_path), str(cand_path), rel_tolerance=tolerance
            )
        except BenchMismatchError as exc:
            print(f"FAIL {exc}")
            failures += 1
            continue
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        if not report.ok:
            failures += 1
    print(
        "perf gate passed"
        if not failures
        else f"perf gate: {failures} comparison(s) failed"
    )
    return 1 if failures else 0


def _cmd_bless(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs bless",
        description="Refresh committed baselines from fresh BENCH_*.json "
        "results (volatile host-dependent fields stripped).",
    )
    parser.add_argument("results", nargs="+", help="BENCH_*.json files")
    parser.add_argument(
        "--baselines",
        default=str(_default_baseline_dir()),
        help="baseline directory to write into",
    )
    args = parser.parse_args(argv)
    from repro.obs.perf.diff import load_bench, strip_volatile

    out_dir = Path(args.baselines)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in args.results:
        payload = strip_volatile(load_bench(result))
        target = out_dir / f"BENCH_{payload['name']}.json"
        target.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"blessed {result} -> {target}")
    return 0


def _chaos_workload(seed: int):
    """The shared chaos demo workload: a push shuffle under a node
    crash.  Returns ``(runtime, driver)``; the caller decides whether a
    sampler attaches before ``rt.run(driver)``."""
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=seed))
    inputs = make_inputs(seed, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    return rt, driver


def _smoke_live(seed: int, out_dir: Path, frames: int = 4) -> int:
    """Live ops plane checks: live == replay, panel invariants, and a
    self-contained offline HTML explorer for a chaos run."""
    from repro.obs.live import (
        TimeSeriesSampler,
        render_html,
        replay_frames,
    )

    failures = 0
    rt, driver = _chaos_workload(seed)
    live = TimeSeriesSampler(interval_s=0.25)
    rt.attach_sampler(live)
    rt.run(driver)
    rt.env.run()  # drain the node restart
    jsonl_path = out_dir / "live.events.jsonl"
    record_run(rt, str(jsonl_path))
    live.finish()
    replayed = TimeSeriesSampler.replay_file(str(jsonl_path))
    failures += _check(
        live.series_digest() == replayed.series_digest(),
        f"live and replayed series identical "
        f"({len(live.series)} series, digest "
        f"{live.series_digest()[:12]})",
    )
    failures += _check(
        len(replayed.series) > 0 and replayed.samples_taken > 0,
        f"sampler produced {replayed.samples_taken} samples over "
        f"{len(replayed.series)} series",
    )
    failures += _check(
        bool(replayed.feed)
        and any(e.kind == "task.retry" and e.chain for e in replayed.feed),
        f"fault feed carries {len(replayed.feed)} entries with causal "
        f"retry chains",
    )

    events = _load_events(str(jsonl_path))
    rendered = replay_frames(events, frames=frames)
    panel_marks = (
        "== repro live ops ==",
        "-- node utilization ",
        "tenant fair share",
        "-- pressure ",
        "-- fault feed ",
    )
    bad = [
        (i, mark)
        for i, frame in enumerate(rendered)
        for mark in panel_marks
        if mark not in frame
    ]
    failures += _check(
        len(rendered) == frames and not bad,
        f"{len(rendered)} deterministic frames render all panels "
        f"(missing: {bad or '-'})",
    )
    node_lines = [
        line for line in rendered[-1].splitlines() if "  cpu " in line
    ]
    failures += _check(
        len(node_lines) == len(replayed.nodes()) > 0,
        f"final frame tracks all {len(replayed.nodes())} nodes",
    )
    again = replay_frames(_load_events(str(jsonl_path)), frames=frames)
    failures += _check(
        rendered == again, "frame sequence is reproducible bit-for-bit"
    )

    html = render_html(events, title="live smoke chaos run")
    # The only URL allowed is the SVG namespace (an identifier, never
    # fetched); everything else must be inline for offline viewing.
    stripped = html.replace("http://www.w3.org/2000/svg", "")
    offline = (
        "<script src=" not in stripped
        and "<link" not in stripped
        and "http://" not in stripped
        and "https://" not in stripped
    )
    wanted = (
        "Per-node utilization",
        "Tenant fair share",
        "Spill pressure",
        "backpressure",
        "Fault",
        "Critical path",
        "Phase table",
    )
    missing = [w for w in wanted if w.lower() not in html.lower()]
    failures += _check(
        offline and not missing,
        f"HTML explorer is one offline file with every section "
        f"({len(html)} bytes, missing: {missing or '-'})",
    )
    return failures


def _cmd_live(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs live",
        description="Terminal ops dashboard over a recorded run "
        "(or --follow: the built-in chaos workload, sampled live).",
    )
    parser.add_argument(
        "trace", nargs="?", help="a record_run() JSONL file to replay"
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="run the built-in chaos workload in-process and render "
        "frames live as it progresses",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="headless determinism checks: live==replay digest, N "
        "deterministic frames, panel invariants, offline HTML",
    )
    parser.add_argument(
        "--frames", type=int, default=4, help="frames to render"
    )
    parser.add_argument(
        "--interval", type=float, default=0.25, help="sample interval (s)"
    )
    parser.add_argument(
        "--window", type=int, default=48, help="sparkline window (samples)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--clear",
        action="store_true",
        help="emit ANSI clear codes between frames (interactive replay)",
    )
    args = parser.parse_args(argv)
    from repro.obs.live import follow_runtime, replay_frames

    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
            failures = _smoke_live(args.seed, Path(tmp), frames=args.frames)
        print(
            "live smoke passed"
            if not failures
            else f"live smoke: {failures} check(s) failed"
        )
        return 1 if failures else 0
    separator = "\x1b[2J\x1b[H" if args.clear else "\n" + "=" * 72 + "\n"
    if args.follow:
        rt, driver = _chaos_workload(args.seed)

        def show(frame: str) -> None:
            print(separator + frame)

        def run():
            rt.run(driver)
            rt.env.run()

        follow_runtime(
            rt,
            run,
            interval_s=args.interval,
            window=args.window,
            on_frame=show,
        )
        return 0
    if not args.trace:
        parser.error("expected a trace file, --follow, or --smoke")
        return 2
    for frame in replay_frames(
        _load_events(args.trace),
        frames=args.frames,
        interval_s=args.interval,
        window=args.window,
    ):
        print(separator + frame)
    return 0


def _cmd_profile(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs profile",
        description="Self-profile the simulator: wall-clock attribution "
        "by engine/bus/metrics category, hot-loop counters, events-per-"
        "wall-second throughput, and flamegraph export.  With TRACE, "
        "profiles the offline analysis pipeline over that recording "
        "(and prints any profile recorded in its run.summary); with "
        "--workload, runs the built-in chaos workload instrumented.",
    )
    parser.add_argument(
        "trace", nargs="?", help="a record_run() JSONL file to analyze"
    )
    parser.add_argument(
        "--workload",
        choices=("chaos",),
        default=None,
        help="run a built-in workload live with the profiler attached",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--flame", default=None, help="write a standalone SVG flamegraph here"
    )
    parser.add_argument(
        "--folded",
        default=None,
        help="write collapsed-stack text (for external flamegraph tools)",
    )
    parser.add_argument(
        "--cprofile",
        action="store_true",
        help="also capture cProfile for a function-level flamegraph "
        "(inflates wall time; never used by the bench harness)",
    )
    parser.add_argument(
        "--alloc",
        action="store_true",
        help="track allocations via tracemalloc (adds overhead)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the profile as JSON"
    )
    args = parser.parse_args(argv)
    from repro.obs.profile import (
        CProfileCapture,
        SelfProfiler,
        folded_from_profiler,
        write_flamegraph,
    )

    if args.trace is None and args.workload is None:
        parser.error("expected a trace file or --workload")
        return 2
    prof = SelfProfiler(trace_allocations=args.alloc)
    capture = CProfileCapture() if args.cprofile else None
    if capture is not None:
        capture.start()
    if args.workload:
        rt, driver = _chaos_workload(args.seed)
        prof.attach(rt)
        rt.run(driver)
        rt.env.run()
        prof.detach()
        recorded = None
    else:
        prof.start()
        with prof.scope("trace.load"):
            events = _load_events(args.trace)
        with prof.scope("span.derive"):
            derive_spans(events)
        with prof.scope("report.render"):
            report = RunReport(events)
            report.render()
        recorded = report.engine_summary()
    if capture is not None:
        capture.stop()
    prof.finish()
    if args.json:
        payload = prof.to_dict()
        if recorded:
            payload["recorded_profile"] = recorded
        print(json.dumps(payload, indent=2))
    else:
        print(prof.render())
        if recorded:
            print()
            print(
                f"recorded run.summary profile: "
                f"{recorded['events_processed']} simulated events in "
                f"{recorded['wall_time_s']:.3f}s wall "
                f"({recorded['events_per_wall_s']:,.0f} events/s)"
            )
            for row in recorded["top_categories"]:
                print(
                    f"  {row['category']:<28} {row['seconds']:9.4f}s  "
                    f"{100 * row['share']:5.1f}%"
                )
    folded = capture.folded() if capture is not None else folded_from_profiler(prof)
    if args.flame:
        title = (
            "cProfile (function-level)" if capture is not None
            else "self-profile (category scopes)"
        )
        out = write_flamegraph(
            folded,
            Path(args.flame),
            title=title,
            folded_path=Path(args.folded) if args.folded else None,
        )
        print(f"wrote {out}")
    elif args.folded:
        from repro.obs.profile.flame import folded_lines

        Path(args.folded).write_text("\n".join(folded_lines(folded)) + "\n")
        print(f"wrote {args.folded}")
    return 0


def _smoke_profile(seed: int, out_dir: Path) -> int:
    """The self-profiling plane's checks: full-coverage invariant,
    clean detach, behavior preservation, Engine report section,
    standalone flamegraph, and the non-gating trajectory track."""
    from repro.obs.events import EventBus
    from repro.obs.perf.diff import compare_benches
    from repro.obs.profile import (
        SelfProfiler,
        folded_from_profiler,
        render_flamegraph_svg,
    )

    failures = 0
    rt, driver = _chaos_workload(seed)
    prof = SelfProfiler()
    prof.attach(rt)
    values = rt.run(driver)
    rt.env.run()
    prof.detach()
    prof.finish()
    failures += _check(
        tuple(tuple(v) for v in values) == expected_output(seed),
        "profiled chaos run is oracle-correct",
    )
    profile = prof.to_dict()
    failures += _check(
        profile["wall_time_s"] > 0
        and prof.coverage_error() < 0.01
        and abs(sum(profile["categories"].values()) - profile["wall_time_s"])
        <= 0.01 * profile["wall_time_s"],
        f"category breakdown sums to total wall time "
        f"({profile['wall_time_s']:.4f}s, error "
        f"{100 * prof.coverage_error():.4f}%)",
    )
    failures += _check(
        profile["events_per_wall_s"] > 0
        and profile["counters"]["events_processed"]
        == profile["counters"]["heap_pops"]
        > 0,
        f"throughput and hot-loop counters populated "
        f"({profile['events_per_wall_s']:,.0f} events/s, "
        f"{profile['counters']['events_processed']} events)",
    )
    failures += _check(
        "step" not in vars(rt.env)
        and "emit" not in vars(rt.bus)
        and "charge_task" not in vars(rt),
        "detach restored every pristine method (no instance shadows left)",
    )

    # Behavior preservation: the profiled run's event stream must be
    # byte-identical to an unprofiled run of the same workload.
    rt2, driver2 = _chaos_workload(seed)
    rt2.run(driver2)
    rt2.env.run()
    profiled_stream = [
        (e.kind, e.ts, str(sorted(e.attrs.items()))) for e in rt.bus.events
    ]
    plain_stream = [
        (e.kind, e.ts, str(sorted(e.attrs.items()))) for e in rt2.bus.events
    ]
    failures += _check(
        profiled_stream == plain_stream,
        f"profiling changes no simulated behavior "
        f"({len(plain_stream)} events identical)",
    )

    jsonl_path = out_dir / "profile.events.jsonl"
    record_run(rt, str(jsonl_path))
    report = RunReport.load(str(jsonl_path))
    engine = report.engine_summary()
    failures += _check(
        bool(engine)
        and engine["events_processed"] > 0
        and "Engine self-profile" in report.render(),
        "report renders the Engine section from the recorded file alone",
    )

    svg = render_flamegraph_svg(folded_from_profiler(prof))
    stripped = svg.replace("http://www.w3.org/2000/svg", "")
    failures += _check(
        svg.startswith("<svg")
        and "<title>" in svg
        and "http://" not in stripped
        and "https://" not in stripped
        and "<script" not in svg,
        f"flamegraph is one standalone offline SVG ({len(svg)} bytes)",
    )

    base = {
        "name": "smoke",
        "rows": [{"variant": "push", "seconds": 10.0}],
        "sim_time_s": 10.0,
        "counters": {},
        "wall_time_s": 1.0,
        "profile": {"events_per_wall_s": 50_000.0, "sim_s_per_wall_s": 10.0,
                    "events_processed": 50_000},
        "fingerprint": {"bench": "smoke", "sort_scale": 1},
    }
    slower = dict(
        base,
        wall_time_s=2.5,
        profile={"events_per_wall_s": 20_000.0, "sim_s_per_wall_s": 4.0,
                 "events_processed": 50_000},
    )
    verdict = compare_benches(base, slower)
    failures += _check(
        verdict.ok
        and len(verdict.trajectory) == 4
        and "Perf trajectory" in verdict.render(),
        "a 2.5x wall-time slowdown is reported on the trajectory track "
        "but does not gate",
    )
    return failures


def _cmd_html(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs html",
        description="Export a recorded run as a single self-contained "
        "HTML explorer (inline JS, opens offline).",
    )
    parser.add_argument("trace", help="a record_run() JSONL file")
    parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="output path (default: TRACE with .explorer.html)",
    )
    parser.add_argument(
        "--title", default=None, help="document title (default: the trace)"
    )
    parser.add_argument(
        "--interval", type=float, default=0.25, help="sample interval (s)"
    )
    args = parser.parse_args(argv)
    from repro.obs.live import TimeSeriesSampler, write_html

    events = _load_events(args.trace)
    sampler = TimeSeriesSampler.replay(events, interval_s=args.interval)
    out = args.out or str(Path(args.trace).with_suffix("")) + ".explorer.html"
    write_html(
        events,
        out,
        sampler=sampler,
        title=args.title or f"run explorer: {Path(args.trace).name}",
    )
    print(f"wrote {out}")
    return 0


_SUBCOMMANDS = {
    "critpath": _cmd_critpath,
    "usage": _cmd_usage,
    "diff": _cmd_diff,
    "bless": _cmd_bless,
    "live": _cmd_live,
    "html": _cmd_html,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    """Dispatch to a perf subcommand, report mode, or smoke mode."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability-plane run reporter and smoke runner. "
        "Subcommands: critpath, usage, diff, bless, live, html, profile.",
    )
    parser.add_argument(
        "trace",
        nargs="?",
        help="a record_run() JSONL file to load and report on",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="report mode: print RunReport.to_dict() as JSON",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the end-to-end observability checks; exit nonzero on "
        "any failure",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--top", type=int, default=10, help="slowest-task rows to print"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
            out_dir = Path(tmp)
            failures = _smoke_causality(args.seed, out_dir)
            failures += _smoke_spill_accounting(args.seed, out_dir)
            failures += _smoke_reporter(args.seed, out_dir)
            failures += _smoke_perf(args.seed, out_dir)
            failures += _smoke_policy(args.seed, out_dir)
            failures += _smoke_profile(args.seed, out_dir)
        print(
            "obs smoke passed"
            if not failures
            else f"obs smoke: {failures} check(s) failed"
        )
        return 1 if failures else 0
    if args.trace:
        try:
            events = _load_events(args.trace)
            if args.json:
                print(
                    json.dumps(
                        RunReport(events).to_dict(top_k=args.top), indent=2
                    )
                )
                return 0
            print(RunReport(events).render(top_k=args.top))
            from repro.obs.perf import critical_path, derive_usage

            path = critical_path(events)
            if path.segments:
                print()
                print(path.render(top_k=0))
                print()
                print(derive_usage(events).node_table().render())
        except BrokenPipeError:  # e.g. piped into `head`
            pass
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
