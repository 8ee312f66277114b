"""Shared scaffolding for the figure-reproduction benchmarks.

Scaling: the paper's clusters move 1-100 TB through 10-100 machines; a
laptop-scale simulation keeps every *ratio* that drives the results --
data:aggregate-memory (external-sort pressure), partition:store
(working-set pressure), and partition *counts* in ranges where block
sizes cross the disks' seek-dominated regime -- while shrinking absolute
bytes so runs finish in seconds to minutes.  Each benchmark's docstring
states its scale factor; EXPERIMENTS.md compares shapes, not absolute
numbers, per the reproduction brief.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines.spark import SparkConfig, SparkSortJob
from repro.cluster import (
    Cluster,
    ClusterSpec,
    D3_2XLARGE,
    FailurePlan,
    I3_2XLARGE,
    NodeSpec,
    R6I_2XLARGE,
)
from repro.common.units import GB, GIB
from repro.futures import Runtime, RuntimeConfig
from repro.metrics import ResultTable
from repro.simcore import Environment
from repro.sort import SortJobConfig, run_sort

#: Everything in the 1 TB sort experiments is scaled down by this factor
#: (data and per-node object store alike), preserving data:memory and
#: partition:store ratios.
SORT_SCALE = 10

#: "1 TB" after scaling.
SCALED_TB = 1000 * GB // SORT_SCALE


def scaled_node(base: NodeSpec) -> NodeSpec:
    """A paper instance type with its object store scaled down."""
    return base.with_object_store(max(1, base.object_store_bytes // SORT_SCALE))


def hdd_node() -> NodeSpec:
    return scaled_node(D3_2XLARGE)


def ssd_node() -> NodeSpec:
    return scaled_node(I3_2XLARGE)


#: Where ``finish_bench`` writes BENCH_<name>.json and (when a runtime
#: is available) observability traces; set from the ``--trace`` pytest
#: option by :mod:`benchmarks.conftest`.  ``None`` disables trace export
#: but JSON results still land in the working directory.
_TRACE_DIR: Optional[Path] = None

#: The most recently created benchmark runtime (set by
#: :func:`make_runtime`); ``finish_bench`` falls back to it so figure
#: functions that return only a table still get their trace exported.
LAST_RUNTIME: Optional[Runtime] = None


def set_trace_dir(path: Optional[str]) -> None:
    """Point trace/JSON export at ``path`` (created if missing)."""
    global _TRACE_DIR
    if path is None:
        _TRACE_DIR = None
        return
    _TRACE_DIR = Path(path)
    _TRACE_DIR.mkdir(parents=True, exist_ok=True)


#: When true (the ``--live-html`` pytest option), ``finish_bench`` also
#: exports the single-file HTML run explorer next to the trace files --
#: the artifact CI attaches to the perf-gate run.
_LIVE_HTML = False


def set_live_html(enabled: bool) -> None:
    """Toggle HTML run-explorer export alongside bench traces."""
    global _LIVE_HTML
    _LIVE_HTML = bool(enabled)


#: Under the ``--profile`` pytest option, the installed
#: ``repro.obs.profile.SelfProfiler`` covering the current benchmark:
#: every engine it runs, one runtime per variant and the baselines' bare
#: engines alike.  ``finish_bench`` stamps the aggregated profile
#: (throughput, category fractions, counters) into ``BENCH_*.json`` as
#: its ``profile`` section plus ``<name>.profile.json`` and a
#: ``<name>.flame.svg`` flamegraph in the trace dir.  Only the cheap
#: scoped profiler runs here -- never cProfile, whose per-call hook
#: would corrupt the very wall-time numbers the trajectory track
#: follows.
_PROFILER: Optional[Any] = None


def set_profile(enabled: bool) -> None:
    """Toggle self-profiling of benchmark runs (the ``--profile`` flag).

    Uninstalls any profiler still installed -- a bench that raised before
    ``finish_bench`` leaves one -- then installs a fresh one if enabled.
    """
    global _PROFILER
    if _PROFILER is not None:
        _PROFILER.finish()
        _PROFILER = None
    if enabled:
        from repro.obs.profile import SelfProfiler

        _PROFILER = SelfProfiler()
        _PROFILER.install()


def make_runtime(
    node: NodeSpec, num_nodes: int, config: Optional[RuntimeConfig] = None
) -> Runtime:
    global LAST_RUNTIME
    LAST_RUNTIME = Runtime.create(node, num_nodes, config=config)
    return LAST_RUNTIME


def run_es_sort(
    node: NodeSpec,
    num_nodes: int,
    variant: str,
    num_partitions: int,
    data_bytes: int,
    output_to_disk: bool = True,
    failures: Sequence[FailurePlan] = (),
    runtime_config: Optional[RuntimeConfig] = None,
):
    """One Exoshuffle sort run on a fresh runtime; returns (result, rt)."""
    rt = make_runtime(node, num_nodes, config=runtime_config)
    config = SortJobConfig(
        variant=variant,
        num_partitions=num_partitions,
        partition_bytes=data_bytes // num_partitions,
        virtual=True,
        output_to_disk=output_to_disk,
        failures=failures,
    )
    result = run_sort(rt, config)
    assert result.validated
    return result, rt


def run_spark_sort_on(
    node: NodeSpec,
    num_nodes: int,
    num_partitions: int,
    data_bytes: int,
    push_based: bool = False,
    compression: bool = False,
    output_to_disk: bool = True,
):
    env = Environment()
    cluster = Cluster.homogeneous(env, node, num_nodes)
    job = SparkSortJob(
        cluster,
        config=SparkConfig(push_based=push_based, compression=compression),
        num_partitions=num_partitions,
        partition_bytes=data_bytes // num_partitions,
        output_to_disk=output_to_disk,
    )
    return job.run()


def sort_figure_table(
    title: str,
    node: NodeSpec,
    num_nodes: int,
    data_bytes: int,
    partition_counts: Sequence[int],
    variants: Sequence[str],
    include_spark: bool = True,
    output_to_disk: bool = True,
    variant_max_partitions: Optional[Dict[str, int]] = None,
) -> ResultTable:
    """The common Fig 4a/4b shape: JCT per (variant, partition count).

    ``variant_max_partitions`` skips expensive combinations (the merge
    variant's task graphs grow quadratically in wall-clock cost).
    """
    caps = variant_max_partitions or {}
    table = ResultTable(
        title, ["variant", "partitions", "seconds", "disk_gb_written"]
    )
    for parts in partition_counts:
        for variant in variants:
            if parts > caps.get(variant, 10**9):
                continue
            result, rt = run_es_sort(
                node, num_nodes, variant, parts, data_bytes,
                output_to_disk=output_to_disk,
            )
            table.add_row(
                variant=variant,
                partitions=parts,
                seconds=result.sort_seconds,
                disk_gb_written=rt.counters.get("disk_bytes_written") / GB,
            )
        if include_spark:
            spark = run_spark_sort_on(
                node, num_nodes, parts, data_bytes,
                output_to_disk=output_to_disk,
            )
            table.add_row(
                variant="spark",
                partitions=parts,
                seconds=spark.sort_seconds,
                disk_gb_written=spark.stats.get("disk_bytes_written", 0) / GB,
            )
    return table


def column_by_variant(table: ResultTable, variant: str) -> Dict[int, float]:
    """partition-count -> seconds for one variant."""
    return {
        row["partitions"]: row["seconds"]
        for row in table.rows
        if row["variant"] == variant
    }


def print_table(table: ResultTable, extra_lines: List[str] = ()) -> None:
    print()
    print(table.render())
    for line in extra_lines:
        print(line)


def _git_sha() -> Optional[str]:
    """The repo HEAD this result was produced from, or ``None``."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _wall_time_seconds(benchmark: Any) -> Optional[float]:
    """Total measured wall time from a pytest-benchmark fixture, or
    ``None`` when stats are unavailable (defensive across versions)."""
    try:
        return float(benchmark.stats.stats.total)
    except AttributeError:
        try:
            return float(benchmark.stats["total"])
        except Exception:
            return None


def finish_bench(
    name: str,
    table: ResultTable,
    benchmark: Any = None,
    extra_lines: Sequence[str] = (),
    runtime: Optional[Runtime] = None,
) -> Path:
    """Print a figure table and persist a machine-readable result file.

    Writes ``BENCH_<name>.json`` (table rows, extra lines, measured wall
    time, simulated time, and key runtime counters) into the ``--trace``
    directory when set, else the working directory.  When a runtime is
    available (passed explicitly or remembered from the last
    :func:`make_runtime` call) and ``--trace`` is set, also exports the
    run's observability record -- a ``record_run`` JSONL and a Chrome
    trace -- and records their paths in the JSON.  Returns the JSON path.

    Every result is stamped for comparability: the git SHA it was
    produced from, a config *fingerprint* (bench name, the harness
    scale factor, the cluster shape of the stamping runtime), and the
    run's critical-path category summary.  ``python -m repro.obs diff``
    keys off the fingerprint to refuse apples-to-oranges comparisons
    and off the critpath summary to attribute regressions.

    Under ``--profile``, the self-profiler installed by
    :func:`set_profile` is uninstalled and finalized here, its summary is
    stamped into the JSON as the ``profile`` section (the non-gating
    trajectory input of ``repro.obs diff``), and ``<name>.profile.json``
    plus a ``<name>.flame.svg`` flamegraph land in the trace dir.
    """
    global _PROFILER
    print_table(table, list(extra_lines))
    rt = runtime if runtime is not None else LAST_RUNTIME
    out_dir = _TRACE_DIR if _TRACE_DIR is not None else Path.cwd()
    profiler = _PROFILER
    _PROFILER = None
    if profiler is not None:
        profiler.uninstall()
    critpath_summary: Optional[Dict[str, Any]] = None
    if rt is not None and rt.bus.events:
        from repro.obs.perf import critical_path

        if profiler is not None:
            # Span derivation is an obs hot path the profiler's class
            # hooks do not cover; charge it explicitly.
            with profiler.scope("span.derive"):
                critpath_summary = critical_path(rt.bus.events).to_dict()
        else:
            critpath_summary = critical_path(rt.bus.events).to_dict()
    if profiler is not None:
        profiler.finish()
    payload: Dict[str, Any] = {
        "name": name,
        "title": table.title,
        "rows": table.rows,
        "extra": list(extra_lines),
        "wall_time_s": _wall_time_seconds(benchmark) if benchmark else None,
        "sim_time_s": rt.env.now if rt is not None else None,
        "counters": rt.counters.as_dict() if rt is not None else {},
        "git_sha": _git_sha(),
        "fingerprint": {
            "bench": name,
            "sort_scale": SORT_SCALE,
            # Elasticity can change the cluster mid-run and spill can be
            # redirected to a shared tier; both shape the numbers, so
            # both are part of comparability.
            "nodes": len(rt.node_managers) if rt is not None else None,
            "spill_backend": rt.config.spill_backend if rt is not None else None,
            "cluster": rt.cluster_snapshot() if rt is not None else None,
        },
        "events_jsonl": None,
        "chrome_trace": None,
        "live_html": None,
    }
    if critpath_summary is not None:
        payload["critpath"] = critpath_summary
    if profiler is not None:
        payload["profile"] = profiler.to_dict()
        if _TRACE_DIR is not None:
            from repro.obs.profile import folded_from_profiler, write_flamegraph

            profile_path = _TRACE_DIR / f"{name}.profile.json"
            profile_path.write_text(
                json.dumps(payload["profile"], indent=2) + "\n"
            )
            write_flamegraph(
                folded_from_profiler(profiler),
                _TRACE_DIR / f"{name}.flame.svg",
                title=f"{name} self-profile",
            )
    if rt is not None and _TRACE_DIR is not None:
        from repro.obs.report import record_run
        from repro.obs.trace import write_chrome_trace

        events_path = _TRACE_DIR / f"{name}.events.jsonl"
        chrome_path = _TRACE_DIR / f"{name}.trace.json"
        record_run(rt, str(events_path), profile=payload.get("profile"))
        write_chrome_trace(rt.bus.events, str(chrome_path))
        payload["events_jsonl"] = str(events_path)
        payload["chrome_trace"] = str(chrome_path)
        if _LIVE_HTML:
            from repro.obs.events import EventBus
            from repro.obs.live import write_html

            # Re-load the just-written JSONL rather than reading the bus:
            # record_run appends a run.summary record (cluster capacities,
            # final counters) that never passes through live subscribers,
            # and the explorer uses it to scale the store gauges.
            html_path = _TRACE_DIR / f"{name}.explorer.html"
            write_html(
                EventBus.load_jsonl(str(events_path)),
                str(html_path),
                title=f"{name} -- {table.title}",
            )
            payload["live_html"] = str(html_path)
    payload["written_at"] = time.time()
    json_path = out_dir / f"BENCH_{name}.json"
    json_path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return json_path


def print_sort_figure_chart(table: ResultTable, title: str) -> None:
    """Render a Fig 4-style JCT-vs-partitions chart next to the table."""
    from repro.metrics.ascii_charts import grouped_bar_chart

    groups: Dict[str, Dict[int, float]] = {}
    for row in table.rows:
        groups.setdefault(row["variant"], {})[row["partitions"]] = row["seconds"]
    print()
    print(grouped_bar_chart(title, groups))
