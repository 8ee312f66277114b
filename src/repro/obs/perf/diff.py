"""Baseline/regression diffing of ``BENCH_*.json`` result files.

The simulated runtime is deterministic, so the *simulated* metrics in a
benchmark result (figure-table values, simulated makespan, byte/task
counters) are exactly reproducible -- any drift is a code change, not
noise.  Host wall time is the one noisy field and is ignored.  A diff

1. **refuses apples-to-oranges comparisons**: both files carry a config
   fingerprint (bench name, scale factor, cluster shape) stamped by the
   harness; a mismatch raises :class:`BenchMismatchError` instead of
   producing a confidently wrong verdict;
2. compares each metric within a tolerance band (relative by default,
   per-metric overrides supported);
3. **attributes** any regression: when both files embed a
   critical-path summary, the per-category deltas (compute, transfer,
   spill I/O, queue...) say *where* the extra time went.

The CI perf gate is ``python -m repro.obs diff --gate`` over the
committed ``benchmarks/baselines/``; refresh baselines deliberately
with ``python -m repro.obs bless``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.tables import ResultTable

#: Default relative tolerance band. The simulation is deterministic, so
#: this is headroom for intentional small tuning, not for noise.
DEFAULT_REL_TOLERANCE = 0.10

#: Top-level fields that never participate in a comparison and are
#: stripped from blessed baselines (pure host-side bookkeeping: write
#: stamps and export paths, including the ``live_html`` path older
#: result files carry).  ``wall_time_s`` is deliberately *not*
#: here anymore: it is committed into baselines and reported on the
#: non-gating perf-trajectory track, so wall-clock movement is visible
#: without ever failing the behavior gate.
VOLATILE_FIELDS = ("written_at", "events_jsonl", "chrome_trace", "live_html")

#: (label, extractor-path) pairs for the non-gating perf-trajectory
#: track: host wall time and the self-profile throughput metrics.
#: These never enter :attr:`DiffReport.metrics` and never affect
#: :attr:`DiffReport.ok` -- wall-clock speed is tracked, not gated.
TRAJECTORY_FIELDS = (
    ("wall_time_s", ("wall_time_s",)),
    ("events_per_wall_s", ("profile", "events_per_wall_s")),
    ("sim_s_per_wall_s", ("profile", "sim_s_per_wall_s")),
    ("events_processed", ("profile", "events_processed")),
)


class BenchMismatchError(ValueError):
    """The two results are not comparable (different bench/scale/cluster)."""


def load_bench(path: str) -> Dict[str, Any]:
    """Load one ``BENCH_<name>.json`` payload."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError(f"{path} is not a benchmark result file")
    return data


def strip_volatile(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A copy without host-dependent fields -- what ``bless`` commits
    as a baseline (wall time, export paths, and write stamps differ per
    machine; everything kept is simulation-deterministic)."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}


@dataclass(frozen=True)
class MetricDiff:
    """One metric compared between baseline and candidate."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    tolerance: float
    #: ``ok`` (within band), ``regressed`` (worse beyond band),
    #: ``improved`` (better beyond band -- baselines need a re-bless),
    #: ``missing`` (gone from the candidate), ``new`` (not in baseline).
    status: str

    @property
    def rel_delta(self) -> float:
        if self.baseline is None or self.candidate is None:
            return 0.0
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class DiffReport:
    """The comparison verdict plus its evidence."""

    baseline_label: str
    candidate_label: str
    metrics: List[MetricDiff] = field(default_factory=list)
    #: Critical-path category deltas (seconds), present when both
    #: results embed a critpath summary.
    category_deltas: Dict[str, float] = field(default_factory=dict)
    #: The non-gating perf-trajectory rows (wall time / self-profile
    #: throughput movement); informational only -- never part of
    #: :attr:`metrics` and never consulted by :attr:`ok`.
    trajectory: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDiff]:
        return [m for m in self.metrics if m.status in ("regressed", "missing")]

    @property
    def improvements(self) -> List[MetricDiff]:
        return [m for m in self.metrics if m.status == "improved"]

    @property
    def ok(self) -> bool:
        """Gate verdict: no metric got worse and none disappeared.
        Improvements pass but are flagged for a baseline refresh."""
        return not self.regressions

    def attribution(self, top_k: int = 3) -> List[str]:
        """Where the extra time went, per the critical-path deltas."""
        if not self.category_deltas:
            return []
        ranked = sorted(
            self.category_deltas.items(), key=lambda kv: -abs(kv[1])
        )
        out = []
        for category, delta in ranked[:top_k]:
            if abs(delta) < 1e-9:
                continue
            direction = "+" if delta >= 0 else "-"
            out.append(
                f"critical-path {category}: {direction}{abs(delta):.3f}s"
            )
        return out

    def trajectory_table(self) -> ResultTable:
        """The wall-time / throughput delta rows (non-gating)."""
        table = ResultTable(
            "Perf trajectory (non-gating)",
            ["metric", "baseline", "candidate", "delta_pct"],
        )
        for row in self.trajectory:
            base, cand, delta = (
                row["baseline"], row["candidate"], row["delta_pct"]
            )
            table.add_row(
                metric=row["metric"],
                baseline=base if base is not None else float("nan"),
                candidate=cand if cand is not None else float("nan"),
                delta_pct=delta if delta is not None else float("nan"),
            )
        return table

    def table(self, only_changed: bool = True) -> ResultTable:
        table = ResultTable(
            f"{self.baseline_label} vs {self.candidate_label}",
            ["metric", "baseline", "candidate", "delta_pct", "tol_pct",
             "status"],
        )
        for m in self.metrics:
            if only_changed and m.status == "ok":
                continue
            table.add_row(
                metric=m.metric,
                baseline=m.baseline if m.baseline is not None else float("nan"),
                candidate=(
                    m.candidate if m.candidate is not None else float("nan")
                ),
                delta_pct=100.0 * m.rel_delta,
                tol_pct=100.0 * m.tolerance,
                status=m.status,
            )
        return table

    def render(self) -> str:
        changed = [m for m in self.metrics if m.status != "ok"]
        parts = [
            f"Compared {len(self.metrics)} metrics: "
            f"{len(self.metrics) - len(changed)} within tolerance, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved",
        ]
        if changed:
            parts.append("")
            parts.append(self.table().render())
        attribution = self.attribution()
        if self.regressions and attribution:
            parts.append("")
            parts.append("Regression attribution (critical-path deltas):")
            parts.extend("  " + line for line in attribution)
        if self.improvements:
            parts.append("")
            parts.append(
                "Improvements beyond tolerance -- refresh the baseline "
                "with `python -m repro.obs bless` once intended."
            )
        if self.trajectory:
            parts.append("")
            parts.append(self.trajectory_table().render())
            parts.append(
                "(trajectory rows track host speed; they never gate)"
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        parts.append("")
        parts.append("GATE: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "ok": self.ok,
            "metrics": [
                {
                    "metric": m.metric,
                    "baseline": m.baseline,
                    "candidate": m.candidate,
                    "rel_delta": m.rel_delta,
                    "tolerance": m.tolerance,
                    "status": m.status,
                }
                for m in self.metrics
            ],
            "category_deltas": self.category_deltas,
            "trajectory": self.trajectory,
            "attribution": self.attribution(),
            "notes": self.notes,
        }


def _check_fingerprints(
    baseline: Dict[str, Any], candidate: Dict[str, Any], notes: List[str]
) -> None:
    base_fp = baseline.get("fingerprint")
    cand_fp = candidate.get("fingerprint")
    if base_fp is None or cand_fp is None:
        missing = "baseline" if base_fp is None else "candidate"
        notes.append(
            f"{missing} carries no config fingerprint (pre-stamping file); "
            f"comparability not verified"
        )
        if baseline.get("name") != candidate.get("name"):
            raise BenchMismatchError(
                f"refusing to compare different benchmarks: "
                f"{baseline.get('name')!r} vs {candidate.get('name')!r}"
            )
        return
    mismatched = {
        key: (base_fp.get(key), cand_fp.get(key))
        for key in set(base_fp) | set(cand_fp)
        if base_fp.get(key) != cand_fp.get(key)
    }
    if mismatched:
        details = "; ".join(
            f"{key}: baseline={b!r} candidate={c!r}"
            for key, (b, c) in sorted(mismatched.items())
        )
        raise BenchMismatchError(
            f"config fingerprints differ, comparison would be "
            f"apples-to-oranges ({details})"
        )


def _row_key(row: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """The identity of a table row: its non-float columns.

    Figure tables key rows by categorical columns (variant, partition
    count, object size, on/off flags -- str/bool/int) and measure float
    columns (seconds, GB written); that convention is what makes rows
    matchable across runs.
    """
    return tuple(
        sorted(
            (k, v)
            for k, v in row.items()
            if isinstance(v, (str, bool)) or (
                isinstance(v, int) and not isinstance(v, bool)
            )
        )
    )


def _row_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in payload.get("rows", []):
        key = ",".join(f"{k}={v}" for k, v in _row_key(row))
        for column, value in sorted(row.items()):
            if isinstance(value, float):
                out[f"{column}[{key}]"] = value
    return out


def _flat_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Every comparable metric in a result payload."""
    out = _row_metrics(payload)
    if isinstance(payload.get("sim_time_s"), (int, float)):
        out["sim_time_s"] = float(payload["sim_time_s"])
    for key, value in sorted(payload.get("counters", {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[f"counters.{key}"] = float(value)
    return out


def _trajectory_value(payload: Dict[str, Any], path: Tuple[str, ...]):
    """Walk a dotted path into a result payload; None when absent or
    non-numeric."""
    node: Any = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def trajectory_rows(
    baseline: Dict[str, Any], candidate: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """The non-gating perf-trajectory rows for two result payloads:
    wall time and self-profile throughput, wherever at least one side
    carries the value (see :data:`TRAJECTORY_FIELDS`)."""
    rows: List[Dict[str, Any]] = []
    for label, path in TRAJECTORY_FIELDS:
        base = _trajectory_value(baseline, path)
        cand = _trajectory_value(candidate, path)
        if base is None and cand is None:
            continue
        delta = (
            100.0 * (cand - base) / abs(base)
            if base and cand is not None
            else None
        )
        rows.append({
            "metric": label,
            "baseline": base,
            "candidate": cand,
            "delta_pct": delta,
        })
    return rows


def _tolerance_for(
    metric: str, rel_tolerance: float, tolerances: Optional[Dict[str, float]]
) -> float:
    if tolerances:
        if metric in tolerances:
            return tolerances[metric]
        for prefix, tol in tolerances.items():
            if metric.startswith(prefix):
                return tol
    return rel_tolerance


def compare_benches(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
    tolerances: Optional[Dict[str, float]] = None,
    baseline_label: str = "baseline",
    candidate_label: str = "candidate",
) -> DiffReport:
    """Compare two benchmark result payloads.

    Raises :class:`BenchMismatchError` when the config fingerprints
    disagree.  ``tolerances`` maps metric names (or prefixes, e.g.
    ``"counters."``) to relative tolerance overrides.  A metric is
    *regressed* when the candidate exceeds the baseline by more than the
    band -- every stamped metric (seconds, bytes, counters) is a cost,
    so larger is worse; shrinking beyond the band is *improved* and
    passes the gate with a re-bless reminder.
    """
    notes: List[str] = []
    _check_fingerprints(baseline, candidate, notes)
    base_metrics = _flat_metrics(baseline)
    cand_metrics = _flat_metrics(candidate)

    diffs: List[MetricDiff] = []
    for metric in sorted(set(base_metrics) | set(cand_metrics)):
        tol = _tolerance_for(metric, rel_tolerance, tolerances)
        base = base_metrics.get(metric)
        cand = cand_metrics.get(metric)
        if base is None:
            status = "new"
        elif cand is None:
            status = "missing"
        else:
            band = tol * abs(base) if base != 0 else tol
            if cand > base + band:
                status = "regressed"
            elif cand < base - band:
                status = "improved"
            else:
                status = "ok"
        diffs.append(MetricDiff(metric, base, cand, tol, status))

    category_deltas: Dict[str, float] = {}
    base_cats = (baseline.get("critpath") or {}).get("categories")
    cand_cats = (candidate.get("critpath") or {}).get("categories")
    if base_cats and cand_cats:
        for category in sorted(set(base_cats) | set(cand_cats)):
            category_deltas[category] = float(
                cand_cats.get(category, 0.0)
            ) - float(base_cats.get(category, 0.0))

    base_sha = baseline.get("git_sha")
    cand_sha = candidate.get("git_sha")
    if base_sha and cand_sha and base_sha != cand_sha:
        notes.append(f"baseline from {base_sha[:12]}, candidate from "
                     f"{cand_sha[:12]}")

    return DiffReport(
        baseline_label=baseline_label,
        candidate_label=candidate_label,
        metrics=diffs,
        category_deltas=category_deltas,
        trajectory=trajectory_rows(baseline, candidate),
        notes=notes,
    )
