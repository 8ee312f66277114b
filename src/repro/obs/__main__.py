"""CLI entry point: ``python -m repro.obs [TRACE]`` plus the
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
  workload live);
- ``python -m repro.obs html TRACE`` -- export the single-file offline
  HTML run explorer;
- ``python -m repro.obs profile [TRACE | --workload chaos]`` -- the
  simulator profiles *itself*: wall-clock attribution by category
  (engine dispatch, bus publish, metrics charging, span derivation),
  hot-loop counters, events-per-wall-second throughput, and
  standalone-SVG flamegraph export (``--flame``; ``python -m cProfile``
  gives function-level detail).

Report mode loads a :func:`repro.obs.report.record_run` JSONL file and
prints the full run story (phase breakdown, slowest tasks, jobs and
fairness, spill amplification, fault/retry timeline), followed by the
critical-path and usage summaries; ``--json`` prints
:meth:`RunReport.to_dict` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.chaos.harness import default_node_spec, make_inputs, submit_variant
from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.obs.events import EventBus
from repro.obs.report import RunReport
from repro.obs.trace import derive_spans


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

    path = critical_path(EventBus.load_jsonl(args.trace))
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

    print(derive_usage(EventBus.load_jsonl(args.trace)).render(bins=args.bins))
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
        compare_benches,
        load_bench,
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
            report = compare_benches(
                load_bench(str(base_path)),
                load_bench(str(cand_path)),
                rel_tolerance=tolerance,
                baseline_label=str(base_path),
                candidate_label=str(cand_path),
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
    from repro.obs.live.dashboard import ANSI_CLEAR

    separator = ANSI_CLEAR if args.clear else "\n" + "=" * 72 + "\n"
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
        parser.error("expected a trace file or --follow")
        return 2
    for frame in replay_frames(
        EventBus.load_jsonl(args.trace),
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
        help="run a built-in workload live with the profiler installed",
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
        "--json", action="store_true", help="print the profile as JSON"
    )
    args = parser.parse_args(argv)
    from repro.obs.profile import (
        SelfProfiler,
        folded_from_profiler,
        write_flamegraph,
    )

    if args.trace is None and args.workload is None:
        parser.error("expected a trace file or --workload")
        return 2
    prof = SelfProfiler()
    if args.workload:
        rt, driver = _chaos_workload(args.seed)
        with prof:
            rt.run(driver)
            rt.env.run()
        recorded = None
    else:
        prof.start()
        with prof.scope("trace.load"):
            events = EventBus.load_jsonl(args.trace)
        with prof.scope("span.derive"):
            derive_spans(events)
        with prof.scope("report.render"):
            report = RunReport(events)
            report.render()
        recorded = report.engine_summary()
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
            print("recorded run.summary profile")
            print(report.engine_section())
    folded = folded_from_profiler(prof)
    if args.flame:
        out = write_flamegraph(
            folded,
            Path(args.flame),
            title="self-profile (category scopes)",
            folded_path=Path(args.folded) if args.folded else None,
        )
        print(f"wrote {out}")
    elif args.folded:
        from repro.obs.profile.flame import folded_lines

        Path(args.folded).write_text("\n".join(folded_lines(folded)) + "\n")
        print(f"wrote {args.folded}")
    return 0


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

    events = EventBus.load_jsonl(args.trace)
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
    """Dispatch to a perf subcommand or report mode."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability-plane run reporter. "
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
        "--top", type=int, default=10, help="slowest-task rows to print"
    )
    args = parser.parse_args(argv)
    if args.trace:
        try:
            events = EventBus.load_jsonl(args.trace)
            report = RunReport(events)
            if args.json:
                print(json.dumps(report.to_dict(top_k=args.top), indent=2))
                return 0
            print(report.render(top_k=args.top))
            from repro.obs.perf import critical_path, derive_usage

            path = critical_path(events, report.spans)
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
