"""Cluster hardware model: nodes, disks, NICs, network fabric, failures.

The paper evaluates on AWS instance families (§5.1.1).  This package models
each node as a bundle of contended resources on the simulation engine:

- CPU cores -- a counted :class:`~repro.simcore.Resource`.
- An aggregate disk array -- a :class:`~repro.simcore.BandwidthResource`
  whose per-operation latency models seek time, so random small I/O pays
  the IOPS wall while large sequential I/O runs at full bandwidth.
- A full-duplex NIC -- independent ingress and egress byte servers.

Failure injection (`FailureInjector`) kills a node at a chosen time (losing
its memory contents and interrupting resident work) and restarts it after a
delay, reproducing the §5.1.5 fault-tolerance experiments.
"""

from repro.cluster.node import Node
from repro.cluster.specs import (
    ClusterSpec,
    DiskSpec,
    NicSpec,
    NodeSpec,
    D3_2XLARGE,
    G4DN_4XLARGE,
    I3_2XLARGE,
    LOCAL_32CPU,
    R6I_2XLARGE,
    SC1_MICROBENCH,
)
from repro.cluster.fabric import Cluster, NodeFailure
from repro.cluster.failures import FailureInjector, FailurePlan
from repro.cluster.membership import ClusterMembership

__all__ = [
    "Node",
    "ClusterMembership",
    "NodeSpec",
    "DiskSpec",
    "NicSpec",
    "ClusterSpec",
    "Cluster",
    "NodeFailure",
    "FailureInjector",
    "FailurePlan",
    "D3_2XLARGE",
    "I3_2XLARGE",
    "R6I_2XLARGE",
    "G4DN_4XLARGE",
    "LOCAL_32CPU",
    "SC1_MICROBENCH",
]
