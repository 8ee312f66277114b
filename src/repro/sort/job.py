"""High-level sort job runner: what the Fig 4 benchmarks invoke.

Runs datagen (untimed, per the benchmark rules: input pre-exists on disk),
picks reducer boundaries, executes the chosen shuffle variant, optionally
injects node failures relative to the sort's start (§5.1.5), and validates
the output offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.blocks.layout import DEFAULT_RECORD_BYTES, check_record_bytes
from repro.cluster import ClusterSpec, FailureInjector, FailurePlan
from repro.common.errors import ObjectLostError
from repro.futures import Runtime
from repro.shuffle import ShuffleOps, submit
from repro.sort.datagen import generate_partitions
from repro.sort.ops import SortOps
from repro.sort.partitioner import sample_bounds, uniform_bounds
from repro.sort.validate import validate_sorted_output

#: The shuffle variants of §5.1.1 by paper name: the
#: :func:`repro.shuffle.submit` variant and ``free_map_outputs``.  ES-push
#: and ES-push* differ only in freeing map outputs (§5.1.4).
LOWERINGS = {
    "simple": ("simple", True),
    "merge": ("riffle", True),
    "magnet": ("magnet", True),
    "push": ("push", False),
    "push*": ("push", True),
}
VARIANTS = tuple(LOWERINGS)

#: Map outputs per merge task (merge and magnet).
MERGE_FACTOR = 4


#: Per-operator CPU throughputs (bytes of input+output per core-second).
#: Sorting runs at native memory-sort speed (gensort-style binary records
#: partition+sort at ~GB/s per core); merging pre-sorted runs is mostly
#: sequential memory movement and cheaper still.  With these rates, disk
#: is the bottleneck on the paper's HDD clusters (§5.1.1) and CPU is not.
SORT_THROUGHPUT = 1000 * 10**6
MERGE_THROUGHPUT = 2000 * 10**6


@dataclass
class SortJobConfig:
    """Parameters of one sort run."""

    variant: str = "simple"
    num_partitions: int = 16
    partition_bytes: int = 64 * 10**6
    num_reduces: Optional[int] = None  # defaults to num_partitions
    record_bytes: int = DEFAULT_RECORD_BYTES
    virtual: bool = True
    #: Persist reduce outputs to disk (external sort).  The in-memory
    #: experiment (Fig 4c) turns this off.
    output_to_disk: bool = True
    #: Rounds of merge tasks allowed in flight (push variants).
    pipeline_depth: int = 3
    validate: bool = True
    seed: int = 0
    #: Node failures, timed from the sort's start (after datagen).
    failures: Sequence[FailurePlan] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        check_record_bytes(self.record_bytes)
        if self.num_partitions < 1 or self.partition_bytes < self.record_bytes:
            raise ValueError("degenerate sort size")
        if self.num_reduces is not None and self.num_reduces < 1:
            raise ValueError(f"num_reduces must be >= 1, got {self.num_reduces}")
        if not self.virtual:
            # Real payloads need numpy: load it with the real-block code
            # now, before any event is armed, not inside the run.
            import repro.blocks.real  # noqa: F401

    @property
    def total_bytes(self) -> int:
        return self.num_partitions * self.partition_bytes

    @property
    def reducers(self) -> int:
        return self.num_partitions if self.num_reduces is None else self.num_reduces


@dataclass
class SortResult:
    """Outcome and measurements of one sort run."""

    variant: str
    num_partitions: int
    total_bytes: int
    datagen_seconds: float
    sort_seconds: float
    stats: Dict[str, Any]
    validated: bool


def theoretical_sort_seconds(spec: ClusterSpec, data_bytes: int) -> float:
    """The paper's disk-bound lower bound: T = 4 D / B (§5.1.1).

    Each datum is read twice and written twice -- the external-sort
    minimum -- against the cluster's aggregate disk bandwidth.
    """
    return 4.0 * data_bytes / spec.aggregate_disk_bandwidth


def run_sort(rt: Runtime, config: SortJobConfig) -> SortResult:
    """Execute one sort job end to end on ``rt``; blocking."""

    def driver() -> SortResult:
        parts = generate_partitions(
            rt,
            config.num_partitions,
            config.partition_bytes,
            record_bytes=config.record_bytes,
            virtual=config.virtual,
            seed=config.seed,
        )
        if config.virtual:
            bounds = uniform_bounds(config.reducers)
        else:
            blocks = rt.get(parts)
            bounds = sample_bounds(blocks, config.reducers, seed=config.seed)
        ops = SortOps(bounds)
        expected_records = sum(
            rt.peek(ref).num_records for ref in parts
        )
        expected_checksum = (
            sum(rt.peek(ref).checksum() for ref in parts) % 2**64
        )

        datagen_seconds = rt.timestamp()
        sort_start = rt.timestamp()
        FailureInjector(rt.cluster, config.failures)

        out_refs = _submit_shuffle(rt, config, parts, ops)
        rt.wait(out_refs, num_returns=len(out_refs))
        sort_seconds = rt.timestamp() - sort_start

        validated = False
        if config.validate:
            outputs = []
            for ref in out_refs:
                try:
                    outputs.append(rt.peek(ref))
                except ObjectLostError:
                    # An output produced before a node failure died with
                    # the node; fetching it re-runs its lineage (post-
                    # timing, so the measurement is unaffected).
                    outputs.append(rt.get(ref))
            validate_sorted_output(
                outputs, bounds, expected_records, expected_checksum
            )
            validated = True
        return SortResult(
            variant=config.variant,
            num_partitions=config.num_partitions,
            total_bytes=config.total_bytes,
            datagen_seconds=datagen_seconds,
            sort_seconds=sort_seconds,
            stats=rt.stats(),
            validated=validated,
        )

    return rt.run(driver)


def _sort_cost(ctx: Any) -> float:
    return (ctx.input_bytes + ctx.output_bytes) / SORT_THROUGHPUT


def _merge_cost(ctx: Any) -> float:
    return (ctx.input_bytes + ctx.output_bytes) / MERGE_THROUGHPUT


def _submit_shuffle(
    rt: Runtime, config: SortJobConfig, parts: List[Any], ops: SortOps
) -> List[Any]:
    variant, free_map_outputs = LOWERINGS[config.variant]
    # A push round's per-node working set is ~2 x (1 + pipeline_depth)
    # partition-sized pieces per concurrent map (input, bundles, merged
    # outputs); keeping it inside the object store keeps bundles from
    # spilling before their merge consumes them.
    store_bytes = min(n.spec.object_store_bytes for n in rt.cluster.alive_nodes())
    round_bytes = 2 * (1 + config.pipeline_depth) * config.partition_bytes
    shuffle_ops = ShuffleOps(
        ops.map, ops.reduce, merge=ops.merge, merge_columns=ops.merge_columns,
        map_options={"compute": _sort_cost},
        merge_options={"compute": _merge_cost},
        reduce_options={
            "compute": _merge_cost, "output_to_disk": config.output_to_disk
        },
    )
    return submit(
        rt, variant, parts, shuffle_ops, ops.num_reduces,
        merge_factor=MERGE_FACTOR,
        map_parallelism=max(1, min(8, store_bytes // round_bytes)),
        pipeline_depth=config.pipeline_depth, free_map_outputs=free_map_outputs,
    )
