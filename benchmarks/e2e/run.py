"""End-to-end benchmark: five workloads, a timed run and a traced run each.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out DIR]

(``PYTHONPATH=src:. python -m benchmarks.e2e`` is the same program.)

Every run of a workload is a fresh worker process
(:mod:`benchmarks.e2e.worker`), one after another, and every run checks
its own output.  For each workload the benchmark

- repeats the workload with tracing off for ``--seconds`` (at least three
  runs) and reports the end-to-end metrics: the fastest run's ``wall_s``
  and the medians of ``setup_s`` and ``peak_rss_mb``;
- then repeats it with the boundary tracer on (at least one run) and
  reports the medians of the per-layer ledger, the simulated results,
  the critical path and the tracing overhead.

``--trace 0`` runs only the first phase and ``--trace 1`` only the
second (plus one untraced run, for the overhead and the check that the
traced run simulates exactly the same thing).  The metric names, units
and workloads are those in ``BENCHMARK.json``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With one workload and one ``--trace`` phase its metrics
are exactly that phase's list; otherwise each name is prefixed with
``<workload>/``.  The whole result, with a header for comparing hosts,
goes to ``DIR/e2e.json``.

The exit code is 0 only if every job's output was correct, traced and
untraced runs simulated identically, and every metric was measured.  A
workload that fails, or whose worker crashes or is killed, counts as a
failed run and the other workloads still run.  Only if the very first
worker crashes without reporting (e.g. ``repro`` is missing) does the
benchmark exit 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

#: A hung worker is killed after this long and its run counts as failed.
WORKER_TIMEOUT_S = 150

#: Iterations of the fixed pure-Python calibration loop (about 0.1 s).
CALIB_LOOPS = 2_000_000

#: A traced run's ledger share of wall time above which attribution is
#: reported as incomplete.
UNTRACKED_LIMIT = 0.05

#: Printed first, in this order; the layer table and the rest follow.
HEADLINE = ("wall_s", "setup_s", "peak_rss_mb", "error_rate", "trace.overhead",
            "untracked.share")


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed yardstick."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i * i
    return time.perf_counter() - start


def git_sha() -> Optional[str]:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def header(seed: int, smoke: bool) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "smoke": smoke,
        "calib_s": calibrate(),
    }


# -- running workers -----------------------------------------------------------
def spawn_worker(
    name: str, seed: int, smoke: bool, traced: bool, out: Path
) -> Dict[str, Any]:
    """One run of ``name`` in a fresh process; returns its record."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker",
           "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", "--out", str(out)]
    pythonpath = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    # A fixed hash seed makes every run iterate its dicts and sets of
    # strings in the same order, so runs of one seed execute the same code.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "traced": traced, "ok": False,
                "error": f"timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # Killed (e.g. out of memory) or broken before it could report.
        sys.stderr.write(proc.stderr)
        return {"workload": name, "traced": traced, "ok": False, "crashed": True,
                "error": f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-3000:]}"}
    record = json.loads(lines[-1])
    if not record["ok"] and proc.stderr:
        sys.stderr.write(proc.stderr)
    return record


def repeat(
    name: str, seed: int, smoke: bool, traced: bool, out: Path,
    seconds: float, min_runs: int,
) -> List[Dict[str, Any]]:
    """Run until another run would overshoot ``seconds`` (at least
    ``min_runs``); stop at the first failed job, which would fail again."""
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        records.append(spawn_worker(name, seed, smoke, traced, out))
        elapsed = time.perf_counter() - start
        per_run = elapsed / len(records)
        if not records[-1]["ok"] or (
            len(records) >= min_runs and elapsed + per_run > seconds
        ):
            return records


# -- turning records into metrics ------------------------------------------------
def ledger_metrics(record: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """A traced record's per-layer metrics as ``{name: (value, unit)}``."""
    wall = record["wall_s"]
    out: Dict[str, Tuple[float, str]] = {}
    for layer, entry in record["layers"].items():
        out[f"{layer}.calls"] = (entry["calls"], "count")
        out[f"{layer}.self_s"] = (entry["self_s"], "s")
        out[f"{layer}.self_share"] = (entry["self_s"] / wall, "ratio")
    for name, value in record.get("counts", {}).items():
        out[name] = (value, "B" if "bytes" in name else "count")
    for group in ("critpath", "sim"):
        for name, value in record.get(group, {}).items():
            out[name] = (value, "sim-s")
    out["untracked.share"] = (record["untracked_s"] / wall, "ratio")
    return out


def summarize(
    name: str, timed: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The phases' metrics as ``{name: (value, unit)}``, and everything
    found wrong."""
    runs = timed + traced
    problems = [f"{name}: {r['error']}" for r in runs if not r["ok"]]
    if len({r["digest"] for r in runs if r["ok"]}) > 1:
        problems.append(f"{name}: runs of one seed simulated different results")
    metrics: Dict[str, Tuple[float, str]] = {}
    measured = [r for r in timed if "wall_s" in r]  # not killed on timeout
    ok_timed = [r for r in measured if r["ok"]] or measured
    if measured:
        # Interference from other tenants of the host only ever slows a
        # run down, and comes in phases of seconds: the fastest repeat is
        # the steadiest estimate of what the code costs.
        metrics["wall_s"] = (min(r["wall_s"] for r in ok_timed), "s")
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in measured), "s")
        metrics["peak_rss_mb"] = (
            statistics.median(r["peak_rss_mb"] for r in ok_timed), "MiB"
        )
    ok_traced = [r for r in traced if r["ok"]]
    if ok_traced:
        per_run = [ledger_metrics(r) for r in ok_traced]
        for metric, (_, unit) in per_run[0].items():
            metrics[metric] = (statistics.median(m[metric][0] for m in per_run), unit)
        traced_wall = min(r["wall_s"] for r in ok_traced)
        if "wall_s" in metrics:
            metrics["trace.overhead"] = (traced_wall / metrics["wall_s"][0], "ratio")
        for r in ok_traced:
            if r["coverage_error"] > 0.01:
                problems.append(
                    f"{name}: layer self times miss the traced wall time by "
                    f"{100 * r['coverage_error']:.2f}%"
                )
    failed = sum(1 for r in runs if not r["ok"])
    metrics["error_rate"] = (failed / len(runs), "ratio")
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": len(runs),
        "failed": failed,
        "runs": {"timed": timed, "traced": traced},
    }


def run_workload(
    name: str, seed: int, smoke: bool, phases: Tuple[bool, ...], out: Path,
    seconds: float,
) -> Dict[str, Any]:
    """Both phases (``False`` = timed, ``True`` = traced) of one workload."""
    timed: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    if False in phases:
        timed = repeat(name, seed, smoke, False, out, seconds, 1 if smoke else 3)
    if True in phases:
        if not timed:
            timed = [spawn_worker(name, seed, smoke, False, out)]
        if timed[-1]["ok"]:
            traced = repeat(name, seed, smoke, True, out, seconds, 1)
    return summarize(name, timed, traced)


# -- reporting -----------------------------------------------------------------
def render(name: str, summary: Dict[str, Any]) -> str:
    metrics = summary["metrics"]
    lines = [f"== {name}: {summary['attempted']} runs, {summary['failed']} failed"]

    def line(metric: str) -> str:
        value, unit = metrics[metric]
        return f"  {metric:<28} {value:14.4f} {unit}"

    lines += [line(metric) for metric in HEADLINE if metric in metrics]
    layers = sorted(
        {m.rsplit(".", 1)[0] for m in metrics if m.endswith(".self_s")},
        key=lambda layer: -metrics[f"{layer}.self_s"][0],
    )
    if layers:
        events = metrics["simcore.engine.calls"][0] or 1
        lines.append(
            f"  {'layer':<24} {'calls':>10} {'self_s':>9} {'share':>7} {'us/event':>9}"
        )
        for layer in layers:
            calls = metrics[f"{layer}.calls"][0]
            self_s = metrics[f"{layer}.self_s"][0]
            share = metrics[f"{layer}.self_share"][0]
            lines.append(
                f"  {layer:<24} {calls:10.0f} {self_s:9.4f} {100 * share:6.2f}%"
                f" {1e6 * self_s / events:9.3f}"
            )
    shown = set(HEADLINE) | {
        f"{layer}.{part}" for layer in layers for part in ("calls", "self_s", "self_share")
    }
    lines += [line(metric) for metric in sorted(set(metrics) - shown)]
    for problem in summary["problems"]:
        lines.append(f"  PROBLEM {problem}")
    if metrics.get("untracked.share", (0.0,))[0] > UNTRACKED_LIMIT:
        lines.append(f"  WARNING untracked share above {UNTRACKED_LIMIT:.0%}")
    return "\n".join(lines)


def contract_metrics(
    spec: Dict[str, Any], results: Dict[str, Dict[str, Any]],
    phases: Tuple[bool, ...], prefixed: bool,
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """The ``BENCHMARK.json`` metrics of each result, and any missing."""
    wanted = []
    if False in phases:
        wanted += spec["end_to_end"]
    if True in phases:
        wanted += spec["per_layer"]
    out: Dict[str, Dict[str, Any]] = {}
    missing = []
    for name, summary in results.items():
        for entry in wanted:
            metric = entry["name"]
            key = f"{name}/{metric}" if prefixed else metric
            if metric not in summary["metrics"]:
                missing.append(f"{name}: metric {metric} was not measured")
                continue
            value, unit = summary["metrics"][metric]
            out[key] = {"value": value, "unit": unit}
    return out, missing


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the events, one run per phase")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    phases = (False, True) if args.trace is None else (bool(args.trace),)
    selected = [args.workload] if args.workload else names
    seconds = 0.0 if args.smoke else args.seconds

    head = header(args.seed, args.smoke)
    print("e2e " + " ".join(f"{k}={v}" for k, v in head.items()), flush=True)
    results: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        results[name] = run_workload(
            name, args.seed, args.smoke, phases, args.out, seconds
        )
        first_run = results[name]["runs"]["timed"][0]
        if len(results) == 1 and first_run.get("crashed"):
            # Not one worker has run: the benchmark itself cannot.
            print(f"e2e: cannot measure: {first_run['error']}", file=sys.stderr)
            return 2
        print(render(name, results[name]), flush=True)

    prefixed = len(selected) > 1 or len(phases) > 1
    metrics, missing = contract_metrics(spec, results, phases, prefixed)
    problems = [p for r in results.values() for p in r["problems"]] + missing
    for problem in missing:
        print(f"PROBLEM {problem}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "e2e.json").write_text(json.dumps({
        "header": head,
        "problems": problems,
        "workloads": {
            name: dict(r, metrics={
                m: {"value": v, "unit": u} for m, (v, u) in r["metrics"].items()
            })
            for name, r in results.items()
        },
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
