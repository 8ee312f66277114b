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
  stripped).

Report mode loads a :func:`repro.obs.report.record_run` JSONL file and
prints the full run story (phase breakdown, slowest tasks, jobs and
fairness, spill amplification, fault/retry timeline, and any
self-profile recorded in its run summary), followed by the
critical-path and usage summaries; ``--json`` prints
:meth:`RunReport.to_dict` instead.  The simulator profiles itself under
``pytest benchmarks/... --profile`` (see ``docs/profiling.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.obs.events import EventBus
from repro.obs.report import RunReport


def _trace_path(parser: argparse.ArgumentParser, trace: str) -> str:
    """``trace``, once it names a file; a missing one is a usage error
    (exit 2) naming the path, not a traceback."""
    if not Path(trace).is_file():
        parser.error(f"no such trace file: {trace}")
    return trace


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

    events = EventBus.load_jsonl(_trace_path(parser, args.trace))
    path = critical_path(events)
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

    events = EventBus.load_jsonl(_trace_path(parser, args.trace))
    print(derive_usage(events).render(bins=args.bins))
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


_SUBCOMMANDS = {
    "critpath": _cmd_critpath,
    "usage": _cmd_usage,
    "diff": _cmd_diff,
    "bless": _cmd_bless,
}


def main(argv=None) -> int:
    """Dispatch to a perf subcommand or report mode."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability-plane run reporter. "
        "Subcommands: critpath, usage, diff, bless.",
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
            events = EventBus.load_jsonl(_trace_path(parser, args.trace))
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
