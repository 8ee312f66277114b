"""Adaptive mid-job re-planning under disk-seek-dominated chaos.

A static plan is only as good as the cluster it was lowered against.
This benchmark runs the same three-stage sort-style workload twice --
once per ``RuntimeConfig.replan`` arm -- with identical mid-run chaos:
after stage 1 completes, three of the four nodes depart and the
survivor's disk stalls (the churn + DISK_STALL recipe of the failure
matrix).  The 80 MB working set that fit the healthy cluster's
aggregate store is now external on one 64 MiB node, so stages 2-3 spill
everything; at 128 partitions the simple shuffle's ``M x R`` ~5 KB
blocks restore in scattered order and hit the seek wall (the Fig 7
access-pattern model), while push's merged runs restore near-
sequentially and its fewer tasks pipeline the stalled disk.

Both arms lower the same expression through :mod:`repro.plan`, whose
one rule (:func:`repro.plan.empirical_variant`: in memory below 150
partitions -> simple) picks ``simple`` on the healthy cluster.  The
static arm (``replan="off"``) keeps that plan to the end.  The adaptive
arm (``replan="on"``) re-lowers the remaining stages at the stage
boundary against a fresh sample of the shrunken membership's store
capacity and switches to ``push``.  The headline signals are the causal
``plan.replan`` event (carrying the sampled ``store_bytes``, in which
the stage's data no longer fits) and the makespan split: the adaptive
arm must finish no later than the static arm.

Scale: 4 nodes with 64 MiB stores moving 80 MB per stage keeps the
data:aggregate-memory ratio healthy (~0.3) before the departures and
decidedly external (~1.2) after them -- the same crossover the 1 TB
externals hit at 1/SORT_SCALE size.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

import pytest

from repro.cluster import DiskSpec, NicSpec, NodeSpec
from repro.common.units import MB, MIB
from repro.futures import Runtime, RuntimeConfig
from repro.metrics import ResultTable
from repro.plan import JobShape, ShuffleExpr, fits_in_memory, planner_for_runtime
from repro.shuffle import ShuffleOps, submit
from repro.sort.datagen import generate_partitions
from repro.sort.job import MERGE_THROUGHPUT, SORT_THROUGHPUT
from repro.sort.ops import SortOps
from repro.sort.partitioner import uniform_bounds
from repro.sort.validate import validate_sorted_output

from benchmarks._harness import finish_bench, make_runtime

SEED = 11
JOB = "staged-sort"

NUM_NODES = 4
STORE_MIB = 64
STAGES = 3
PARTITIONS = 128
DATA_MB = 80

#: Worker nodes departing between stages 1 and 2 (the driver node stays).
DEPARTURES = 3
#: DISK_STALL severity applied to the survivors (chaos default).
STALL_FACTOR = 8.0


def _bench_node() -> NodeSpec:
    return NodeSpec(
        name="replan-bench-node",
        cores=4,
        memory_bytes=8 * 1024 * MIB,
        object_store_bytes=STORE_MIB * MIB,
        disk=DiskSpec(bandwidth_bytes_per_sec=200e6, seek_latency_s=5e-3),
        nic=NicSpec(bandwidth_bytes_per_sec=125e6),
    )


def _sort_cost(ctx: Any) -> float:
    return (ctx.input_bytes + ctx.output_bytes) / SORT_THROUGHPUT


def _merge_cost(ctx: Any) -> float:
    return (ctx.input_bytes + ctx.output_bytes) / MERGE_THROUGHPUT


def _run_stage(
    rt: Runtime, variant: str, parts: int, data_bytes: int, seed: int
) -> None:
    """One sort stage under ``variant``, validated, then freed.

    Mirrors :func:`repro.sort.job.run_sort`'s driver body, minus the
    nested ``rt.run`` (all stages share one driver so the planner sees
    one continuous run).  The push arm frees map bundles eagerly
    (the paper's ES-push*, §5.1.4).
    """
    partition_bytes = data_bytes // parts
    inputs = generate_partitions(
        rt, parts, partition_bytes, virtual=True, seed=seed
    )
    bounds = uniform_bounds(parts)
    ops = SortOps(bounds)
    expected_records = sum(rt.peek(ref).num_records for ref in inputs)
    expected_checksum = sum(rt.peek(ref).checksum() for ref in inputs) % 2**64
    store_bytes = min(
        node.spec.object_store_bytes for node in rt.cluster.alive_nodes()
    )
    shuffle_ops = ShuffleOps(
        ops.map, ops.reduce, merge=ops.merge,
        map_options={"compute": _sort_cost},
        merge_options={"compute": _merge_cost},
        reduce_options={"compute": _merge_cost, "output_to_disk": True},
    )
    out_refs = submit(
        rt, variant, inputs, shuffle_ops, parts,
        map_parallelism=max(1, min(8, store_bytes // (8 * partition_bytes))),
    )
    rt.wait(out_refs, num_returns=len(out_refs))
    validate_sorted_output(
        rt.get(out_refs), bounds, expected_records, expected_checksum
    )
    # Drop the stage's working set so the next stage starts from the
    # same store occupancy in both arms.
    rt.free(out_refs)
    rt.free(inputs)


def _degrade_cluster(rt: Runtime) -> None:
    """The mid-run chaos both arms see: departures + stalled disks."""
    node_ids = list(rt.cluster.node_ids)
    for victim in node_ids[-DEPARTURES:]:
        rt.remove_node(victim)
    for node in rt.cluster.alive_nodes():
        node.degrade_disk(1.0 / STALL_FACTOR)
        rt.bus.emit("chaos.fault", node=node.node_id, fault="disk_stall")


def run_staged_sort(
    replan: str,
    *,
    stages: int = STAGES,
    parts: int = PARTITIONS,
    data_mb: int = DATA_MB,
) -> Dict[str, Any]:
    """One arm: ``stages`` equal sorts with chaos after the first."""
    data_bytes = data_mb * MB
    rt = make_runtime(_bench_node(), NUM_NODES, config=RuntimeConfig(replan=replan))
    planner = planner_for_runtime(rt)
    shape = JobShape(total_bytes=data_bytes, num_maps=parts, num_reduces=parts)
    plan = planner.plan(ShuffleExpr(shape=shape, label=JOB), job=JOB)
    variants_run: List[str] = []

    def driver() -> None:
        nonlocal plan
        for stage in range(stages):
            if stage == 1:
                _degrade_cluster(rt)
            if stage > 0:
                revised = rt.stage_boundary(
                    "stage", plan=plan, remaining_shape=shape, job=JOB
                )
                if revised is not None:
                    plan = revised
            variants_run.append(plan.variant)
            _run_stage(rt, plan.variant, parts, data_bytes, seed=SEED + stage)

    rt.run(driver)
    replans = [e for e in rt.bus.events if e.kind == "plan.replan"]
    return {
        "replan": replan,
        "variants": "+".join(variants_run),
        "seconds": rt.env.now,
        "replans": len(replans),
        "replan_store_mb": (
            replans[0].attrs["store_bytes"] / MIB if replans else None
        ),
        "spill_gb_written": rt.counters.get("spill_bytes_written") / 1e9,
    }


def _run_figure(
    stages: int = STAGES, parts: int = PARTITIONS, data_mb: int = DATA_MB
) -> ResultTable:
    table = ResultTable(
        "Adaptive re-planning: static vs re-lowered plan across chaos",
        [
            "replan", "variants", "seconds", "replans",
            "replan_store_mb", "spill_gb_written",
        ],
    )
    for replan in ("off", "on"):
        table.add_row(
            **run_staged_sort(replan, stages=stages, parts=parts, data_mb=data_mb)
        )
    return table


def assert_replan_split(table: ResultTable) -> None:
    """The figure's claim: re-planning reacts and does not lose."""
    static = table.find(replan="off")
    adaptive = table.find(replan="on")
    assert static["replans"] == 0, "the off arm must never re-plan"
    assert "push" not in static["variants"], (
        "the static arm must keep its healthy-cluster plan"
    )
    assert adaptive["replans"] >= 1, (
        "the adaptive arm must re-lower at the degraded stage boundary"
    )
    assert "push" in adaptive["variants"], (
        "seek-dominated spilling must flip the remaining stages to push"
    )
    assert not fits_in_memory(
        int(adaptive["replan_store_mb"] * MIB), DATA_MB * MB
    ), "a switch must be justified: the data no longer fits the sampled store"
    assert adaptive["seconds"] <= static["seconds"], (
        "the re-lowered plan must finish no later than the static one"
    )


@pytest.mark.benchmark(group="planning")
def test_adaptive_replan_beats_static(benchmark):
    table = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    finish_bench("adaptive_replan", table, benchmark=benchmark)
    assert_replan_split(table)


def main(argv=None) -> int:
    """``python benchmarks/bench_adaptive_replan.py [--smoke]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced-size run; exit nonzero unless the adaptive arm "
        "re-plans to push and finishes no later than the static arm",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        table = _run_figure(stages=2)
    else:
        table = _run_figure()
    print(table.render())
    try:
        assert_replan_split(table)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    print("adaptive replan smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
