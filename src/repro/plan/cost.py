"""The lowering rules: per-variant cost estimates and the empirical rule.

This module is the arithmetic core of every shuffle choice.  The cost
model prices every shuffle variant with additive terms for task scheduling, per-block metadata/fetch overhead,
network transfer, and disk spill traffic, with push-style variants
overlapping network against disk.  Absolute seconds are not predictions;
only the ordering is meaningful, and the tests assert orderings:

- small in-memory jobs with few partitions: ``simple`` wins (merging
  only adds overhead, Fig 4c left);
- many partitions: per-block overhead grows with ``maps x reduces``, so
  block-coalescing variants (``push``) overtake ``simple`` even in
  memory (the Fig 4c crossover);
- larger-than-memory jobs: spill seeks dominate, and variants with
  fewer/larger blocks (``riffle``, ``magnet``, ``push``) beat
  ``simple``, with ``push`` first since it overlaps spill I/O with the
  network;
- ``streaming`` is only *feasible* for jobs declared as streaming.

The empirical rule is the paper's two-way crossover: simple when the data fits in memory and partitions
are few, push otherwise (§5.1.3, §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.plan.profile import (
    PARTITION_CROSSOVER,
    ClusterProfile,
    JobShape,
    fits_in_memory,
)

#: The canonical variant names the plan layer can lower to.  Matches
#: :data:`repro.chaos.SHUFFLE_VARIANTS` (asserted by tests); declared
#: here independently so the plan layer never imports the harness.
PLAN_VARIANTS: Tuple[str, ...] = (
    "simple",
    "riffle",
    "riffle_dynamic",
    "magnet",
    "push",
    "streaming",
)

#: Riffle merge factor assumed by the model (matches the harness).
DEFAULT_MERGE_FACTOR = 2

#: Scheduling overhead charged per task the variant launches.
_SCHEDULE_S = 5e-4

#: Metadata + fetch overhead charged per shuffle block (the per-object
#: cost that makes M x R blocks expensive at high partition counts).
_PER_BLOCK_S = 1e-4

#: Fixed coordination cost of push-style pipelines (merge scheduling,
#: pipeline spin-up).  Calibrated so the simple-vs-push crossover for the
#: harness job shape lands in the paper's 80-200 partition window.
_PUSH_SETUP_S = 0.06

#: Riffle's dynamic variant starts merges opportunistically as map
#: outputs appear, overlapping part of the merge pass's disk traffic
#: with map execution.  Applied to the disk term only: in memory there
#: is no merge I/O to hide, and dynamic merging buys nothing.
_DYNAMIC_DISCOUNT = 0.95

#: Streaming overlaps one round's reduce with the next round's map.
_STREAMING_DISCOUNT = 0.9


@dataclass(frozen=True)
class PlanEstimate:
    """One variant's estimated cost and feasibility."""

    variant: str
    est_seconds: float
    feasible: bool
    #: The additive terms behind ``est_seconds`` (for explainability).
    breakdown: Tuple[Tuple[str, float], ...]

    def __repr__(self) -> str:
        flag = "" if self.feasible else " (infeasible)"
        return f"<PlanEstimate {self.variant} ~{self.est_seconds:.3f}s{flag}>"


def _network_seconds(profile: ClusterProfile, shape: JobShape) -> float:
    # Each node keeps 1/N of the data local; the rest crosses NICs
    # that transfer in parallel (aggregate bandwidth).
    p = profile
    crossing = shape.total_bytes * (p.num_nodes - 1) / max(1, p.num_nodes)
    return crossing / p.nic_bandwidth


def _disk_seconds(
    profile: ClusterProfile, shape: JobShape, blocks: int, passes: int
) -> float:
    # Each spill pass writes and re-reads the dataset; every block
    # read pays a seek unless fused (coalescing is what `blocks`
    # captures).  Aggregate disk bandwidth: disks work in parallel.
    if fits_in_memory(profile, shape):
        return 0.0
    p = profile
    streamed = passes * 2 * shape.total_bytes / p.disk_bandwidth
    seeks = blocks * p.disk_seek_s / p.num_nodes
    return streamed + seeks


def _meta_seconds(blocks: int, tasks: int) -> float:
    return blocks * _PER_BLOCK_S + tasks * _SCHEDULE_S


def estimate_variant(
    profile: ClusterProfile,
    shape: JobShape,
    variant: str,
    merge_factor: int = DEFAULT_MERGE_FACTOR,
) -> PlanEstimate:
    """Price one variant for this profile and shape (the cost model)."""
    p = profile
    M, R, W = shape.num_maps, shape.num_reduces, p.num_nodes
    F = merge_factor
    net = _network_seconds(profile, shape)
    feasible = True
    overlap = False
    extra = 0.0
    if variant == "simple":
        blocks = M * R
        tasks = M + R
        disk = _disk_seconds(profile, shape, blocks, passes=1)
    elif variant in ("riffle", "riffle_dynamic"):
        merges = max(1, M // F)
        blocks = merges * R
        tasks = M + merges + R
        # The merge pass re-reads and re-writes map output once more
        # when spilling, in exchange for F-times-larger blocks.
        disk = _disk_seconds(profile, shape, blocks, passes=2)
        if variant == "riffle_dynamic":
            disk *= _DYNAMIC_DISCOUNT
    elif variant == "magnet":
        blocks = W * R
        tasks = M + W * R // max(1, F) + R
        disk = _disk_seconds(profile, shape, blocks, passes=2)
    elif variant == "push":
        blocks = W * R
        tasks = M + W * R + R
        disk = _disk_seconds(profile, shape, blocks, passes=1)
        overlap = True
        extra = _PUSH_SETUP_S
    elif variant == "streaming":
        blocks = M * R
        tasks = M + R
        disk = _disk_seconds(profile, shape, blocks, passes=1)
        overlap = True
        feasible = shape.streaming
    else:
        raise ValueError(f"unknown shuffle variant {variant!r}")
    meta = _meta_seconds(blocks, tasks)
    if overlap:
        moved = max(net, disk)
        breakdown = (("meta", meta), ("overlap(net,disk)", moved),
                     ("setup", extra))
    else:
        moved = net + disk
        breakdown = (("meta", meta), ("net", net), ("disk", disk),
                     ("setup", extra))
    seconds = meta + moved + extra
    if variant == "streaming":
        seconds *= _STREAMING_DISCOUNT
    return PlanEstimate(
        variant=variant,
        est_seconds=seconds,
        feasible=feasible,
        breakdown=breakdown,
    )


def rank_variants(
    profile: ClusterProfile,
    shape: JobShape,
    merge_factor: int = DEFAULT_MERGE_FACTOR,
    variants: Optional[Sequence[str]] = None,
) -> List[PlanEstimate]:
    """Every variant's estimate, cheapest first; infeasible ones last.

    ``variants`` restricts the candidate set (callers that can only
    execute a subset of variants -- e.g. the dataframe's simple/push
    operators -- lower against just those).
    """
    candidates = PLAN_VARIANTS if variants is None else tuple(variants)
    estimates = [
        estimate_variant(profile, shape, v, merge_factor) for v in candidates
    ]
    return sorted(
        estimates,
        key=lambda e: (not e.feasible, e.est_seconds, e.variant),
    )


def cheapest_feasible(ranked: Sequence[PlanEstimate]) -> PlanEstimate:
    """The winner of a :func:`rank_variants` ranking, or ``ValueError``
    when nothing feasible remains."""
    if not ranked or not ranked[0].feasible:
        raise ValueError("no feasible shuffle variant for this job shape")
    return ranked[0]


def empirical_variant(
    store_bytes: int, total_bytes: int, num_partitions: int
) -> str:
    """The paper's two-way rule against a sampled capacity figure:
    ``"simple"`` when the data fits in memory with headroom and the
    partition count is below the Fig 4c crossover, else ``"push"``."""
    in_memory = fits_in_memory(store_bytes, total_bytes)
    if in_memory and num_partitions < PARTITION_CROSSOVER:
        return "simple"
    return "push"
