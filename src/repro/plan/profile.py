"""The facts planning consumes, and the one rule that reads them.

The lowering rule decides against two inputs: a :class:`ClusterProfile`
(what the alive cluster can hold right now) and a :class:`JobShape`
(what the job will ask of it).  The rule is the paper's two-way
crossover (§5.1.3, §7), :func:`empirical_variant`: simple when the data
fits in memory and partitions are few, push otherwise.  The plan layer
owns this vocabulary; callers import it from :mod:`repro.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

#: Fraction of aggregate store memory the working set may occupy and
#: still count as "fits in memory" (input + shuffled copy + slack).
MEMORY_HEADROOM = 0.4

#: Above this many partitions, push-based pipelining wins even in memory
#: (the Fig 4c crossover is between 80 and 200 partitions).
PARTITION_CROSSOVER = 150

#: The canonical variant names the plan layer can lower to, in canonical
#: order; the chaos harness and its failure matrix run each of them.
PLAN_VARIANTS: Tuple[str, ...] = (
    "simple",
    "riffle",
    "magnet",
    "push",
    "streaming",
)


@dataclass(frozen=True)
class ClusterProfile:
    """The hardware fact the rule consumes: aggregate store bytes."""

    store_bytes: int

    def __post_init__(self) -> None:
        if self.store_bytes <= 0:
            raise ValueError("cluster store capacity must be positive")

    @classmethod
    def from_runtime(cls, rt: Any) -> "ClusterProfile":
        """Profile the *alive* portion of a runtime's cluster.

        Duck-typed on the runtime (``rt.cluster.alive_nodes()``), so the
        plan layer never imports :mod:`repro.futures` -- the layering
        lint enforces that it consumes profiles, not live runtime state.
        """
        nodes = list(rt.cluster.alive_nodes())
        if not nodes:
            raise ValueError("no alive nodes to profile")
        return cls(
            store_bytes=sum(node.spec.object_store_bytes for node in nodes)
        )


@dataclass(frozen=True)
class JobShape:
    """The job facts lowering consumes and plans record."""

    total_bytes: int
    num_maps: int
    num_reduces: int
    #: Whether the input arrives in rounds (a streaming job).
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if self.num_maps < 1 or self.num_reduces < 1:
            raise ValueError("job shape dimensions must be >= 1")


def fits_in_memory(store_bytes: int, total_bytes: int) -> bool:
    """Does the working set fit in aggregate store memory with headroom?"""
    return total_bytes <= MEMORY_HEADROOM * store_bytes


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
