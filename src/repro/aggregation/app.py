"""The online-aggregation application: top pages by language.

Two modes over the same inputs and operators:

- ``batch``: one simple shuffle over every hourly block; the aggregate
  exists only when the whole job finishes.
- ``streaming``: :func:`repro.shuffle.streaming_shuffle` (Listing 2)
  in rounds; after each round an asynchronous aggregate task computes
  the partial ranking and its KL-divergence from the ground truth (the
  paper's error metric, footnote 4), giving the error-vs-time curve of
  Fig 5.

Per the paper, streaming pays extra total run time (the per-round
aggregates and round barriers) in exchange for partial results orders of
magnitude earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.futures import ObjectRef, Runtime
from repro.metrics.core import TimeSeries
from repro.plan import JobShape, ShuffleExpr, planner_for_runtime
from repro.shuffle import push_based_shuffle, simple_shuffle, streaming_shuffle
from repro.shuffle.common import chunks
from repro.workloads.pageviews import PageviewBlock, PageviewDataset


def kl_divergence(p: np.ndarray, p_hat: np.ndarray) -> float:
    """D_KL(p || p_hat) with the usual epsilon guard."""
    eps = 1e-12
    p = np.asarray(p, dtype=np.float64) + eps
    q = np.asarray(p_hat, dtype=np.float64) + eps
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum(p * np.log(p / q)))


class PartialCounts:
    """Per-reducer accumulated counts with a declared byte size."""

    __slots__ = ("counts", "size_bytes")

    def __init__(self, counts: Dict[str, np.ndarray], size_bytes: int) -> None:
        self.counts = counts
        self.size_bytes = size_bytes

    @staticmethod
    def merge(parts: Sequence["PartialCounts"]) -> "PartialCounts":
        merged: Dict[str, np.ndarray] = {}
        for part in parts:
            for lang, counts in part.counts.items():
                if lang in merged:
                    merged[lang] = merged[lang] + counts
                else:
                    merged[lang] = counts.copy()
        size = max(p.size_bytes for p in parts)
        return PartialCounts(merged, size)


@dataclass
class AggregationResult:
    """Everything Fig 5 plots for one mode."""

    mode: str
    total_seconds: float
    error_series: TimeSeries
    map_progress: TimeSeries
    reduce_progress: TimeSeries
    final_error: float
    stats: Dict[str, Any] = field(default_factory=dict)

    def first_time_within(self, error: float) -> float:
        """Earliest simulated time with partial error <= ``error``."""
        for t, value in self.error_series.samples:
            if value <= error:
                return t
        return float("inf")


def _make_operators(dataset: PageviewDataset, num_reduces: int):
    """map/reduce/error operators shared by both modes.

    Map tasks stream their hour straight from the object store's S3-like
    source (the paper loads from S3): the input never occupies the object
    store, only the small per-reducer aggregates do.
    """
    lang_index = {lang: i for i, lang in enumerate(dataset.languages)}
    out_bytes = max(1, dataset.block_bytes // num_reduces)

    def map_fn(hour: int) -> List[PartialCounts]:
        block: PageviewBlock = dataset.hourly_block(hour)
        outputs: List[Dict[str, np.ndarray]] = [
            {} for _ in range(num_reduces)
        ]
        for lang, counts in block.counts.items():
            outputs[lang_index[lang] % num_reduces][lang] = counts
        return [PartialCounts(out, out_bytes) for out in outputs]

    def batch_reduce(*parts: PartialCounts) -> PartialCounts:
        return PartialCounts.merge(list(parts))

    def streaming_reduce(
        state: Optional[PartialCounts], *parts: PartialCounts
    ) -> PartialCounts:
        merged = list(parts) if state is None else [state, *parts]
        result = PartialCounts.merge(merged)
        # The "extra computation needed to produce partial results"
        # (§5.2.1): every round re-ranks the accumulated state so a
        # consumable top-pages answer exists, not just raw counts.
        for counts in result.counts.values():
            np.argsort(counts)
        return result

    truth = dataset.final_distribution()

    def error_of(states: Sequence[PartialCounts]) -> float:
        errors = []
        for state in states:
            for lang, counts in state.counts.items():
                total = counts.sum()
                if total <= 0:
                    continue
                errors.append(kl_divergence(truth[lang], counts / total))
        return float(np.mean(errors)) if errors else float("inf")

    return map_fn, batch_reduce, streaming_reduce, error_of


#: Effective S3 read throughput per map task.
S3_READ_BYTES_PER_SEC = 600e6


def _scan_cost(ctx) -> float:
    return (ctx.input_bytes + ctx.output_bytes) / 1e9  # ~1 GB/s scan+hash


def _make_map_cost(block_bytes: int):
    """Map cost: S3 read of the hour plus the scan+hash over it."""

    def map_cost(ctx) -> float:
        return (
            block_bytes / S3_READ_BYTES_PER_SEC
            + (block_bytes + ctx.output_bytes) / 1e9
        )

    return map_cost


def _streaming_reduce_cost(ctx) -> float:
    # scan+hash plus the per-round re-ranking of the full state.
    return _scan_cost(ctx) + ctx.output_bytes / 2e8


def run_online_aggregation(
    rt: Runtime,
    dataset: PageviewDataset,
    num_reduces: int = 8,
    mode: str = "streaming",
    hours_per_round: int = 12,
    variant: str = "simple",
) -> AggregationResult:
    """Run one mode end to end on ``rt`` (blocking).

    ``variant`` pins the batch arm's shuffle (``"simple"`` is Fig 5's
    contrast arm and the default); ``"auto"`` lets :mod:`repro.plan`
    choose between ``simple`` and ``push`` from the dataset size.
    Ignored in streaming mode, which always uses the streaming shuffle.
    """
    if mode not in ("streaming", "batch"):
        raise ValueError(f"unknown mode {mode!r}")
    map_fn, batch_reduce, streaming_reduce, error_of = _make_operators(
        dataset, num_reduces
    )
    error_series = TimeSeries("partial_error")
    map_cost = _make_map_cost(dataset.block_bytes)

    def record_error_on_completion(agg_ref: ObjectRef) -> None:
        def on_ready(_oid, error: Optional[BaseException]) -> None:
            if error is None:
                error_series.record(rt.env.now, rt.peek(agg_ref))

        rt.directory.on_ready(agg_ref.object_id, on_ready)

    aggregate_task = rt.remote(
        lambda *states: error_of(states), compute=5e-3
    )
    keepalive: List[ObjectRef] = []

    def driver() -> float:
        inputs = list(range(dataset.num_hours))
        start = rt.timestamp()
        if mode == "batch":
            plan = planner_for_runtime(rt).plan(
                ShuffleExpr(
                    shape=JobShape(
                        total_bytes=dataset.num_hours * dataset.block_bytes,
                        num_maps=dataset.num_hours,
                        num_reduces=num_reduces,
                    ),
                    backend=variant,
                    variants=("simple", "push"),
                    label="aggregation",
                ),
                default_rule="empirical",
            )
            if plan.variant == "push":
                states = push_based_shuffle(
                    rt, inputs, map_fn, batch_reduce, batch_reduce,
                    num_reduces,
                    map_options={"compute": map_cost},
                    merge_options={"compute": _scan_cost},
                    reduce_options={"compute": _scan_cost},
                )
            else:
                states = simple_shuffle(
                    rt, inputs, map_fn, batch_reduce, num_reduces,
                    map_options={"compute": map_cost},
                    reduce_options={"compute": _scan_cost},
                )
        else:
            rounds = chunks(inputs, hours_per_round)

            def on_round(_rnd: int, state_refs: List[ObjectRef]) -> None:
                agg_ref = aggregate_task.remote(*state_refs)
                keepalive.append(agg_ref)
                record_error_on_completion(agg_ref)

            states = streaming_shuffle(
                rt, rounds, map_fn, streaming_reduce, num_reduces,
                on_round=on_round,
                map_options={"compute": map_cost},
                reduce_options={"compute": _streaming_reduce_cost},
            )
        finals = rt.get(states)
        final_error = error_of(finals)
        error_series.record(rt.timestamp(), final_error)
        return rt.timestamp() - start, final_error

    total_seconds, final_error = rt.run(driver)
    map_progress, reduce_progress = _progress_series(rt)
    return AggregationResult(
        mode=mode,
        total_seconds=total_seconds,
        error_series=error_series,
        map_progress=map_progress,
        reduce_progress=reduce_progress,
        final_error=final_error,
        stats=rt.stats(),
    )


def _progress_series(rt: Runtime) -> tuple:
    """Fractions of map/reduce tasks finished over time (Fig 5's dotted
    and solid progress lines), reconstructed from task records."""
    map_times: List[float] = []
    reduce_times: List[float] = []
    for record in rt.tasks.values():
        if record.finished_at is None:
            continue
        name = record.spec.fn_name
        if name == "map_fn":
            map_times.append(record.finished_at)
        elif name in ("batch_reduce", "streaming_reduce"):
            reduce_times.append(record.finished_at)
    series = []
    for times, label in ((map_times, "map"), (reduce_times, "reduce")):
        progress = TimeSeries(label)
        for i, t in enumerate(sorted(times), start=1):
            progress.record(t, i / max(1, len(times)))
        series.append(progress)
    return series[0], series[1]
