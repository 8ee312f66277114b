"""The facts planning consumes: cluster profiles and job shapes.

Both lowering rules -- the empirical two-way rule and the cost model --
decide against the same two inputs: a :class:`ClusterProfile` (what the
hardware can do right now) and a :class:`JobShape` (what the job will
ask of it).  The plan layer owns this vocabulary; callers import it
from :mod:`repro.plan`.

The in-memory-fit predicate lives here too, as the single shared
:func:`fits_in_memory`, so the two rules cannot drift apart on what
"fits in memory" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

#: Fraction of aggregate store memory the working set may occupy and
#: still count as "fits in memory" (input + shuffled copy + slack).
MEMORY_HEADROOM = 0.4

#: Above this many partitions, push-based pipelining wins even in memory
#: (the Fig 4c crossover is between 80 and 200 partitions).
PARTITION_CROSSOVER = 150


@dataclass(frozen=True)
class ClusterProfile:
    """The hardware facts the cost model consumes."""

    num_nodes: int
    total_cores: int
    store_bytes: int
    disk_bandwidth: float
    nic_bandwidth: float
    disk_seek_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.total_cores < 1:
            raise ValueError("cluster must have at least one node and core")
        if min(self.store_bytes, self.disk_bandwidth, self.nic_bandwidth) <= 0:
            raise ValueError("cluster capacities must be positive")

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
            num_nodes=len(nodes),
            total_cores=sum(node.spec.cores for node in nodes),
            store_bytes=sum(node.spec.object_store_bytes for node in nodes),
            disk_bandwidth=sum(
                node.spec.disk.bandwidth_bytes_per_sec for node in nodes
            ),
            nic_bandwidth=sum(
                node.spec.nic.bandwidth_bytes_per_sec for node in nodes
            ),
            disk_seek_s=max(
                node.spec.disk.effective_seek_latency_s for node in nodes
            ),
        )


@dataclass(frozen=True)
class JobShape:
    """The job facts the cost model consumes."""

    total_bytes: int
    num_maps: int
    num_reduces: int
    #: Whether the input arrives in rounds (makes ``streaming`` feasible).
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if self.num_maps < 1 or self.num_reduces < 1:
            raise ValueError("job shape dimensions must be >= 1")


def fits_in_memory(
    profile: Union[ClusterProfile, int], shape: Union["JobShape", int]
) -> bool:
    """Does the working set fit in aggregate store memory with headroom?

    The one shared in-memory predicate behind both lowering rules.
    Accepts either the typed inputs or raw byte counts, so the empirical
    rule (which only ever samples store bytes) can use it without
    building a full profile.
    """
    store = (
        profile.store_bytes if isinstance(profile, ClusterProfile) else int(profile)
    )
    total = shape.total_bytes if isinstance(shape, JobShape) else int(shape)
    return total <= MEMORY_HEADROOM * store
