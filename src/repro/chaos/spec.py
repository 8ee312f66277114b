"""Declarative fault models: what goes wrong, where, when, how badly.

A :class:`FaultSpec` describes one fault; a :class:`ChaosPlan` bundles a
sequence of them under one root seed.  Specs are plain data -- they name
*kinds* of faults and victim *indices*, not live nodes -- so a plan can
be constructed before the cluster exists, logged, and replayed.  Every
random choice (victim selection, object-loss sampling, straggler
selection) derives from the plan seed via :mod:`repro.common.rng`, so a
plan is exactly repeatable.

Validation is strict and *up front*: :meth:`ChaosPlan.validate` (called
by the injector before anything is scheduled) rejects every malformed
fault before a single event is armed, so a bad plan can never leave a
half-injected simulation behind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.rng import seeded_rng


class FaultKind(enum.Enum):
    """The fault shapes the injector knows how to produce."""

    #: Kill the victim node (store and spill contents lost, resident
    #: tasks interrupted); restart it ``duration`` seconds later.
    NODE_CRASH = "node_crash"

    #: Dilate the victim's task compute time by ``severity`` for the
    #: fault window (a contended or thermally-throttled CPU).
    SLOW_NODE = "slow_node"

    #: Collapse the victim's disk bandwidth by ``severity`` for the
    #: window (spills and restores crawl; a failing or saturated drive).
    DISK_STALL = "disk_stall"

    #: Cut both NIC directions' bandwidth by ``severity`` for the window
    #: (an oversubscribed or renegotiated link).
    NET_DEGRADE = "net_degrade"

    #: Drop the bidirectional link between the victim and ``peer_index``
    #: for the window; transfers over it fail and are retried.
    LINK_DOWN = "link_down"

    #: Silently lose a seeded ``severity`` fraction of the objects
    #: resident on the victim (memory and spilled copies) without
    #: killing it -- partial data loss / corruption.
    OBJECT_LOSS = "object_loss"

    #: For the window, tax each task attempt with probability
    #: ``probability`` by ``severity`` extra seconds (stragglers).  With
    #: ``node_index`` set the tax applies only to attempts on that node;
    #: with ``node_index=None`` it applies cluster-wide.
    STRAGGLER = "straggler"

    #: Cluster churn: a fresh node joins mid-run (elastic scale-up).
    #: Takes no victim -- ``node_index`` must stay ``None``.
    NODE_JOIN = "node_join"

    #: Cluster churn: the victim drains (no new placements) at onset and
    #: is removed ``duration`` seconds later if still draining --
    #: a graceful scale-down under deadline.
    NODE_DRAIN = "node_drain"

    #: Cluster churn: the victim is removed immediately -- a *planned*
    #: departure (interrupted work resubmits at once, no heartbeat
    #: detection delay), unlike ``NODE_CRASH``.  Local store and spill
    #: contents are still lost with the node.
    NODE_REMOVE = "node_remove"


#: Fault kinds whose ``severity`` is a slowdown/dilation factor (> 1).
_FACTOR_KINDS = (FaultKind.SLOW_NODE, FaultKind.DISK_STALL, FaultKind.NET_DEGRADE)

#: Fault kinds that select no random victim (STRAGGLER may apply
#: cluster-wide; NODE_JOIN adds a node instead of picking one).
_VICTIMLESS_KINDS = (FaultKind.STRAGGLER, FaultKind.NODE_JOIN)

#: Churn kinds that retire their victim; node 0 hosts the driver by
#: convention and may never be drained or removed.
_DEPARTURE_KINDS = (FaultKind.NODE_DRAIN, FaultKind.NODE_REMOVE)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, onset time, window, victim, and magnitude.

    ``node_index`` of ``None`` picks a pseudo-random victim from the
    plan seed, never node 0 (which hosts the driver by convention).
    ``severity`` means: dilation/slowdown factor for ``SLOW_NODE`` /
    ``DISK_STALL`` / ``NET_DEGRADE`` (must be > 1), the lost fraction in
    (0, 1] for ``OBJECT_LOSS``, and the extra seconds per straggling
    attempt for ``STRAGGLER``.  ``probability`` is used only by
    ``STRAGGLER``.
    """

    kind: FaultKind
    at_time: float
    duration: float = 10.0
    node_index: Optional[int] = None
    peer_index: Optional[int] = None
    severity: float = 2.0
    probability: float = 0.25

    def validate(self, num_nodes: int) -> None:
        """Raise ``ValueError`` if this spec is malformed for a cluster
        of ``num_nodes`` nodes."""
        if self.at_time < 0:
            raise ValueError(f"{self.kind.value}: fault time must be non-negative")
        if self.duration < 0:
            raise ValueError(f"{self.kind.value}: duration must be non-negative")
        if self.node_index is not None and not 0 <= self.node_index < num_nodes:
            raise ValueError(
                f"{self.kind.value}: node_index {self.node_index} out of range "
                f"(cluster has {num_nodes} nodes)"
            )
        if (
            self.node_index is None
            and num_nodes < 2
            and self.kind not in _VICTIMLESS_KINDS
        ):
            raise ValueError(
                f"{self.kind.value}: random victim selection needs >= 2 nodes"
            )
        if self.kind is FaultKind.NODE_JOIN and self.node_index is not None:
            raise ValueError("node_join: takes no victim; node_index must be None")
        if self.kind in _DEPARTURE_KINDS and self.node_index == 0:
            raise ValueError(
                f"{self.kind.value}: node 0 hosts the driver and cannot depart"
            )
        if self.kind in _FACTOR_KINDS and self.severity <= 1.0:
            raise ValueError(
                f"{self.kind.value}: severity is a slowdown factor; need > 1"
            )
        if self.kind is FaultKind.OBJECT_LOSS and not 0 < self.severity <= 1:
            raise ValueError("object_loss: severity is a fraction in (0, 1]")
        if self.kind is FaultKind.STRAGGLER:
            if self.severity < 0:
                raise ValueError("straggler: severity (extra seconds) must be >= 0")
            if not 0 <= self.probability <= 1:
                raise ValueError("straggler: probability must be in [0, 1]")
        if self.kind is FaultKind.LINK_DOWN:
            if self.peer_index is not None and not 0 <= self.peer_index < num_nodes:
                raise ValueError(
                    f"link_down: peer_index {self.peer_index} out of range"
                )
            if num_nodes < 2:
                raise ValueError("link_down needs >= 2 nodes")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded sequence of faults to inject into one run."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "seed", int(seed))

    def validate(self, num_nodes: int) -> None:
        """Validate every fault up front (all-or-nothing semantics)."""
        for fault in self.faults:
            fault.validate(num_nodes)

    def resolve_victim(self, index: int, fault: FaultSpec, num_nodes: int) -> int:
        """The victim node index of fault ``index``; deterministic in the
        plan seed.  Random selection never picks node 0 (the driver)."""
        if fault.node_index is not None:
            return fault.node_index
        rng = seeded_rng(self.seed, "chaos-victim", index, fault.kind.value)
        return int(rng.integers(1, num_nodes))

    def resolve_peer(
        self, index: int, fault: FaultSpec, victim: int, num_nodes: int
    ) -> int:
        """The peer node index for a LINK_DOWN fault (distinct from the
        victim); deterministic in the plan seed."""
        if fault.peer_index is not None and fault.peer_index != victim:
            return fault.peer_index
        rng = seeded_rng(self.seed, "chaos-peer", index, fault.kind.value)
        candidates: List[int] = [n for n in range(num_nodes) if n != victim]
        return candidates[int(rng.integers(0, len(candidates)))]


def matrix_plan(kind: FaultKind, *, at_time: float = 1.0, seed: int = 0) -> ChaosPlan:
    """A canonical one-fault plan per kind, used by the failure-matrix
    test suite and the ``obs`` CLI's chaos workload: moderate severity,
    seeded victim."""
    presets = {
        FaultKind.NODE_CRASH: FaultSpec(kind, at_time=at_time, duration=4.0),
        FaultKind.SLOW_NODE: FaultSpec(kind, at_time=at_time, duration=8.0, severity=4.0),
        FaultKind.DISK_STALL: FaultSpec(kind, at_time=at_time, duration=8.0, severity=10.0),
        FaultKind.NET_DEGRADE: FaultSpec(kind, at_time=at_time, duration=8.0, severity=8.0),
        FaultKind.LINK_DOWN: FaultSpec(kind, at_time=at_time, duration=4.0),
        FaultKind.OBJECT_LOSS: FaultSpec(kind, at_time=at_time, severity=0.5),
        FaultKind.STRAGGLER: FaultSpec(
            kind, at_time=0.0, duration=60.0, severity=1.5, probability=0.3
        ),
        FaultKind.NODE_JOIN: FaultSpec(kind, at_time=at_time),
        FaultKind.NODE_DRAIN: FaultSpec(kind, at_time=at_time, duration=4.0),
        FaultKind.NODE_REMOVE: FaultSpec(kind, at_time=at_time),
    }
    return ChaosPlan(faults=(presets[kind],), seed=seed)
