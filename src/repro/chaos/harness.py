"""A seeded shuffle workload for driving chaos experiments.

Every shuffle variant here computes the *same* pure function of the
seeded input data -- partition integers by residue, then sort each
partition -- so a run's output depends only on ``(seed, num_maps,
num_reduces)``, never on scheduling, retries, or injected faults.  That
makes the correctness oracle trivial: a chaos run must produce output
identical to the fault-free run of the same variant and seed, and the
failure-matrix test suite asserts exactly that for every (variant, fault
kind) pair, over every variant the planner can lower to
(:data:`repro.plan.PLAN_VARIANTS`).

Explicit per-task compute costs stretch the job over several simulated
seconds so that faults injected at t~=1s land mid-run rather than before
or after the interesting window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.spec import ChaosPlan
from repro.cluster import DiskSpec, NicSpec, NodeSpec
from repro.common.rng import seeded_rng
from repro.common.units import GIB, MIB
from repro.futures import Runtime
from repro.shuffle import ShuffleOps, submit

_MAP_COMPUTE_S = 1.0
_MERGE_COMPUTE_S = 0.8
_REDUCE_COMPUTE_S = 1.0


@dataclass
class ChaosRunReport:
    """What one chaos (or fault-free) run produced."""

    variant: str
    seed: int
    #: One sorted tuple of integers per reduce partition -- the pure
    #: function of the input data every variant computes.
    output: Tuple[Tuple[int, ...], ...]
    #: Simulated job completion time.
    duration: float
    #: ``runtime.stats()`` snapshot (counters + derived totals).
    stats: Dict[str, Any]
    #: The injector's fired-fault log: ``(time, kind, node_id)``.
    injected: List[tuple] = field(default_factory=list)
    #: Invariant violations found at quiesce (empty = healthy).
    violations: List[str] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """How many task re-executions the run needed."""
        return int(self.stats.get("tasks_resubmitted", 0))


def make_inputs(seed: int, num_maps: int, values_per_part: int) -> List[List[int]]:
    """Seeded integer map inputs (plain values, so lineage is complete).

    Public so other workload builders (the multi-tenant jobs layer) can
    run the exact same oracle-checked sort jobs.
    """
    rng = seeded_rng(seed, "chaos-data")
    return [
        [int(rng.integers(0, 10_000)) for _ in range(values_per_part)]
        for _ in range(num_maps)
    ]


def expected_output(
    seed: int, num_maps: int = 8, num_reduces: int = 4, values_per_part: int = 24
) -> Tuple[Tuple[int, ...], ...]:
    """The oracle: what every variant must produce for these parameters,
    computed directly without the runtime."""
    inputs = make_inputs(seed, num_maps, values_per_part)
    return tuple(
        tuple(sorted(v for part in inputs for v in part if v % num_reduces == r))
        for r in range(num_reduces)
    )


def default_node_spec() -> NodeSpec:
    """The homogeneous node shape chaos runs (and the jobs mixed
    workload) build clusters from: small store, modest disk and NIC, so
    spilling and transfer effects show up at toy scales."""
    return NodeSpec(
        name="chaos-node",
        cores=4,
        memory_bytes=8 * GIB,
        object_store_bytes=256 * MIB,
        disk=DiskSpec(bandwidth_bytes_per_sec=200e6, seek_latency_s=5e-3),
        nic=NicSpec(bandwidth_bytes_per_sec=125e6),
    )


def submit_variant(
    variant: str, rt: Runtime, inputs: List[List[int]], num_reduces: int
) -> List[Any]:
    """Submit one variant's task graph; returns the reduce-output refs."""
    R = num_reduces

    def map_fn(part: List[int]) -> List[Tuple[int, ...]]:
        return [tuple(v for v in part if v % R == r) for r in range(R)]

    def reduce_fn(*blocks: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sorted(v for block in blocks for v in block))

    def riffle_merge(*blocks: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        # F*R inputs laid out map-major; column r is blocks[r::R].
        return [
            tuple(sorted(v for block in blocks[r::R] for v in block))
            for r in range(R)
        ]

    def merge_one(*blocks: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sorted(v for block in blocks for v in block))

    def streaming_reduce(
        state: Optional[Tuple[int, ...]], *blocks: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        merged = list(state or ())
        merged.extend(v for block in blocks for v in block)
        return tuple(sorted(merged))

    ops = ShuffleOps(
        map_fn, reduce_fn, merge=merge_one, merge_columns=riffle_merge,
        stream_reduce=streaming_reduce,
        map_options={"compute": _MAP_COMPUTE_S},
        merge_options={"compute": _MERGE_COMPUTE_S},
        reduce_options={"compute": _REDUCE_COMPUTE_S},
    )
    return submit(rt, variant, inputs, ops, R, merge_factor=2)


def run_chaos_shuffle(
    variant: str,
    plan: Optional[ChaosPlan] = None,
    *,
    seed: int = 0,
    num_nodes: int = 4,
    num_maps: int = 8,
    num_reduces: int = 4,
    values_per_part: int = 24,
) -> ChaosRunReport:
    """Run one shuffle variant under an optional chaos plan.

    Builds a fresh homogeneous cluster, arms ``plan`` (if any), drives
    the variant to completion, drains every trailing simulation event
    (fault-window recoveries, node restarts), and runs the
    :class:`InvariantChecker` over the quiesced runtime.  Pass
    ``plan=None`` for the fault-free baseline the matrix tests compare
    against.
    """
    rt = Runtime.create(default_node_spec(), num_nodes)
    injector = ChaosInjector(rt, plan) if plan is not None else None
    inputs = make_inputs(seed, num_maps, values_per_part)

    def driver() -> List[Tuple[int, ...]]:
        refs = submit_variant(variant, rt, inputs, num_reduces)
        return rt.get(refs)

    values = rt.run(driver)
    duration = rt.now
    rt.env.run()  # drain recoveries/restarts so the runtime quiesces
    violations = InvariantChecker(rt).check()
    return ChaosRunReport(
        variant=variant,
        seed=seed,
        output=tuple(tuple(v) for v in values),
        duration=duration,
        stats=rt.stats(),
        injected=list(injector.injected) if injector is not None else [],
        violations=violations,
    )
