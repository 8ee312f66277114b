"""Hardware specifications and the instance-type presets from §5.1.1.

A :class:`DiskSpec` describes an aggregate disk array by sequential
bandwidth, per-spindle seek latency, and spindle count.  The simulation
serves the array as a single FIFO byte server whose per-operation latency
is ``seek_latency / spindles``: with many spindles, seeks overlap, but a
workload of small random operations still hits an IOPS wall while large
sequential operations approach full bandwidth.  This is the property the
paper's I/O-efficiency arguments (§2.1, Fig 4, Fig 7) rest on.

The presets translate the paper's EC2 instances.  Published aggregate IOPS
figures for HDD instances reflect burst behaviour, so HDD presets instead
use mechanical seek times (~8 ms), which is what sustained shuffle I/O
experiences; SSD presets use the published IOPS directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

from repro.common.units import GIB, MIB


@dataclass(frozen=True)
class DiskSpec:
    """An aggregate disk array on one node."""

    bandwidth_bytes_per_sec: float
    seek_latency_s: float
    spindles: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("disk bandwidth must be positive")
        if self.seek_latency_s < 0:
            raise ValueError("seek latency must be non-negative")
        if self.spindles < 1:
            raise ValueError("need at least one spindle")

    @property
    def effective_seek_latency_s(self) -> float:
        """Per-operation latency of the aggregate FIFO server."""
        return self.seek_latency_s / self.spindles


@dataclass(frozen=True)
class NicSpec:
    """A full-duplex network interface."""

    bandwidth_bytes_per_sec: float
    per_message_latency_s: float = 0.25e-3

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("NIC bandwidth must be positive")
        if self.per_message_latency_s < 0:
            raise ValueError("NIC latency must be non-negative")


@dataclass(frozen=True)
class NodeSpec:
    """One machine: cores, memory, object-store share, disk, NIC."""

    name: str
    cores: int
    memory_bytes: int
    object_store_bytes: int
    disk: DiskSpec
    nic: NicSpec

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        if self.memory_bytes <= 0:
            raise ValueError("memory must be positive")
        if not 0 < self.object_store_bytes <= self.memory_bytes:
            raise ValueError(
                "object store must be positive and fit inside node memory"
            )

    def with_object_store(self, object_store_bytes: int) -> "NodeSpec":
        """A copy with a different object-store capacity (microbenches)."""
        return replace(self, object_store_bytes=object_store_bytes)


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous or heterogeneous collection of node specs."""

    nodes: List[NodeSpec] = field(default_factory=list)

    @classmethod
    def homogeneous(cls, spec: NodeSpec, count: int) -> "ClusterSpec":
        if count < 1:
            raise ValueError("cluster needs at least one node")
        return cls(nodes=[spec] * count)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.nodes)

    @property
    def aggregate_disk_bandwidth(self) -> float:
        return sum(node.disk.bandwidth_bytes_per_sec for node in self.nodes)


def _gbps(gigabits: float) -> float:
    return gigabits * 1e9 / 8


# d3.2xlarge: 8 cores, 64 GiB, 6x HDD with 1100 MiB/s aggregate sequential
# throughput, 6 Gbps baseline networking (we model the baseline, not burst).
D3_2XLARGE = NodeSpec(
    name="d3.2xlarge",
    cores=8,
    memory_bytes=64 * GIB,
    object_store_bytes=19 * GIB,  # Ray default: ~30% of RAM
    disk=DiskSpec(
        bandwidth_bytes_per_sec=1100 * MIB, seek_latency_s=8e-3, spindles=6
    ),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(6)),
)

# i3.2xlarge: 8 cores, 61 GiB, NVMe SSD 720 MB/s, 180K write IOPS,
# 2.5 Gbps baseline networking.
I3_2XLARGE = NodeSpec(
    name="i3.2xlarge",
    cores=8,
    memory_bytes=61 * GIB,
    object_store_bytes=18 * GIB,
    disk=DiskSpec(
        bandwidth_bytes_per_sec=720e6, seek_latency_s=1 / 180_000, spindles=1
    ),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(2.5)),
)

# r6i.2xlarge: 8 cores, 64 GiB, EBS-backed; used for the online-aggregation
# experiment where data streams in from S3 (modelled via the NIC).
R6I_2XLARGE = NodeSpec(
    name="r6i.2xlarge",
    cores=8,
    memory_bytes=64 * GIB,
    object_store_bytes=19 * GIB,
    disk=DiskSpec(bandwidth_bytes_per_sec=500e6, seek_latency_s=1e-4, spindles=1),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(12.5)),
)

# g4dn.4xlarge: 16 cores, 64 GiB, NVMe, T4 GPU (the accelerator itself is
# modelled in repro.ml), 20 Gbps networking.
G4DN_4XLARGE = NodeSpec(
    name="g4dn.4xlarge",
    cores=16,
    memory_bytes=64 * GIB,
    object_store_bytes=19 * GIB,
    disk=DiskSpec(bandwidth_bytes_per_sec=1000e6, seek_latency_s=1e-5, spindles=1),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(20)),
)

# The single fat node used in the Dask-vs-Ray comparison (Fig 6):
# 32 vCPUs, 244 GB RAM.  The object store is sized generously (a tuned
# single-node data-processing configuration, as in the Dask-on-Ray
# experiments) rather than Ray's conservative 30% default -- Dask's
# executors get the whole 244 GB as heap, so parity demands it.
LOCAL_32CPU = NodeSpec(
    name="local-32cpu",
    cores=32,
    memory_bytes=244 * 10**9,
    object_store_bytes=170 * 10**9,
    disk=DiskSpec(bandwidth_bytes_per_sec=1000e6, seek_latency_s=1e-5, spindles=1),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(10)),
)

# The sc1 cold-HDD volume used for the Fig 7 spilling microbenchmark:
# very low throughput and a single slow spindle, so the small-I/O penalty
# is pronounced.
SC1_MICROBENCH = NodeSpec(
    name="sc1-microbench",
    cores=8,
    memory_bytes=32 * GIB,
    object_store_bytes=1 * GIB,
    disk=DiskSpec(bandwidth_bytes_per_sec=90 * MIB, seek_latency_s=12e-3, spindles=1),
    nic=NicSpec(bandwidth_bytes_per_sec=_gbps(10)),
)
