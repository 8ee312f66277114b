"""One run of one workload in a fresh process; prints one JSON record.

    PYTHONPATH=src:. python -m benchmarks.e2e.worker --workload NAME \\
        [--seed N] [--smoke] [--trace] [--out DIR]

The clock starts before anything imports ``repro``, so ``setup_s``
covers the imports, ``Runtime.create`` and the input generation that
happens outside the simulation.  ``wall_s`` covers the run itself:
datagen, job and validation.  ``peak_rss_mb`` is this process's
``ru_maxrss``.

With ``--trace`` the boundary tracer wraps every layer before the inputs
are built, its window brackets exactly the run, and the record carries
the per-layer ledger; the raw spans go to ``DIR/<workload>.trace.json``
(Chrome trace) and the per-path aggregates to ``DIR/<workload>.paths.json``.

A workload that fails -- its inputs cannot be built, its job raises,
deadlocks or fails validation, or the analysis after the job raises --
is reported in the record (``ok`` false, ``error``), with exit code 0.
Only ``repro`` not importing exits non-zero without a record.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

#: ``rt.stats()`` keys behind the per-layer counts.
STAT_COUNTS = {
    "tasks.finished": "tasks_finished",
    "lineage.resubmits": "tasks_resubmitted",
    "lineage.reconstructions": "lineage_reconstructions",
    "store.peak_bytes": "store_peak_bytes",
    "store.evictions": "objects_evicted",
    "fetch.objects": "fetched_objects",
    "network.bytes": "network_bytes",
    "spill.bytes_written": "spill_bytes_written",
    "spill.bytes_read": "spill_bytes_read",
}

#: Critical-path categories reported, as ``critpath.<category>_s``.
CRITPATH_CATEGORIES = (
    "compute", "queue", "transfer", "spill_write", "spill_restore",
    "disk_write", "fault_recovery",
)


def sim_results(outcome: Any) -> Dict[str, Any]:
    """What the simulation computed: identical with and without tracing."""
    rt = outcome.runtime
    counts: Dict[str, float] = {
        name: float(rt.stats().get(key, 0)) for name, key in STAT_COUNTS.items()
    }
    counts["bus.events_retained"] = float(len(rt.bus))
    counts["stream.backpressure_stalls"] = float(outcome.backpressure_stalls)
    counts["stream.records"] = float(outcome.records)
    sim = {
        "sim_s": outcome.sim_s,
        "p50_latency_s": outcome.latency[0],
        "p999_latency_s": outcome.latency[1],
    }
    digest = hashlib.sha256(
        json.dumps({"sim": sim, "stats": rt.stats(), "counts": counts}, sort_keys=True).encode()
    ).hexdigest()
    return {"sim": sim, "counts": counts, "digest": digest}


def ledger(tracer: Any, wall_s: float) -> Dict[str, Any]:
    """Per-layer calls and exclusive time from a stopped tracer."""
    layers = {
        layer: {"calls": calls, "self_s": self_s}
        for layer, (calls, self_s) in tracer.layer_totals().items()
    }
    accounted = sum(entry["self_s"] for entry in layers.values()) + tracer.untracked_s
    return {
        "layers": layers,
        "untracked_s": tracer.untracked_s,
        "coverage_error": abs(accounted - wall_s) / wall_s,
        "switch_misses": tracer.switch_misses,
    }


def critical_path_s(outcome: Any) -> Dict[str, float]:
    from repro.obs.perf import critical_path

    times = critical_path(outcome.runtime.bus.events).category_times()
    return {f"critpath.{cat}_s": times.get(cat, 0.0) for cat in CRITPATH_CATEGORIES}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    # Not importing ``repro`` means the benchmark cannot run at all: that
    # is the one failure left to crash the process.
    from benchmarks.e2e.workloads import WORKLOADS

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced": args.trace,
    }
    tracer = None
    try:
        build = WORKLOADS[args.workload]
        if args.trace:
            from benchmarks.e2e.tracer import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        run = build(args.seed, args.smoke)
        record["setup_s"] = time.perf_counter() - STARTED
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            outcome = run()
        finally:
            record["wall_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.stop()
                tracer.uninstall()
        record["error"] = "; ".join(outcome.problems) or None
        record.update(sim_results(outcome))
        if tracer is not None:
            record.update(ledger(tracer, record["wall_s"]))
            record["critpath"] = critical_path_s(outcome)
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                tracer.write_chrome_trace(str(args.out / f"{args.workload}.trace.json"))
                (args.out / f"{args.workload}.paths.json").write_text(
                    json.dumps(tracer.paths(), indent=1) + "\n"
                )
    except Exception as exc:  # a failed workload is a result, not a crash
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()  # after a failed install or build
    record["ok"] = record["error"] is None
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
