"""Policy interfaces and the view types the data plane feeds them.

The Exoshuffle thesis is that shuffle *decisions* belong in swappable
application-level code; this module gives the data plane the same shape
internally.  Task placement and spill victim/batch selection are
:class:`typing.Protocol` seams whose implementations are pure functions
over small frozen *view* dataclasses; dispatch ordering has one
implementation (fair sharing) over the same kind of views.

Layering is deliberate and lint-enforced (``tools/check_layering.py``):
this package imports only the task/ref/id value types, never
``Runtime``, ``NodeManager``, ``ObjectStore``, or ``simcore``.  The
mechanism layers build the views, call the policy, enact the choice,
and emit the ``policy.decision`` observability event -- policies never
touch live runtime state or the event bus, which is what keeps them
trivially swappable and testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.common.ids import NodeId, ObjectId, TaskId
from repro.futures.task import TaskRecord


# -- placement ---------------------------------------------------------------
@dataclass(frozen=True)
class NodeCandidate:
    """One alive node as the placement policy sees it."""

    #: The node's identity (the policy's only handle on it).
    node_id: NodeId
    #: True while the node is inside its post-failure cooldown window.
    blacklisted: bool
    #: Queued tasks per core -- the load-balancing signal.
    load: float
    #: Bytes of the task's arguments already resident here (memory or
    #: disk) -- the locality signal.
    arg_bytes: int


@dataclass(frozen=True)
class PlacementRequest:
    """The task-side inputs to one placement decision."""

    task_id: TaskId
    #: The soft node-affinity hint from the task's options, if any.
    affinity: Optional[NodeId]
    job_id: Optional[str]


@dataclass(frozen=True)
class PlacementDecision:
    """A placement policy's answer: where, and which stage decided."""

    node_id: NodeId
    #: Name of the stage that made the final call (e.g. ``"affinity"``,
    #: ``"locality"``, ``"least-loaded"``).
    stage: str
    #: Name of the deciding policy, for attribution.
    policy: str
    #: How many candidates were on the table.
    candidates: int


@runtime_checkable
class PlacementStage(Protocol):
    """One composable step of a staged placement policy.

    A stage either *decides* (returns a single :class:`NodeCandidate`)
    or *filters/passes* (returns a candidate list for the next stage).
    """

    name: str

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> "NodeCandidate | Sequence[NodeCandidate]":
        """Decide or narrow; ``candidates`` is never empty."""
        ...


@runtime_checkable
class PlacementPolicy(Protocol):
    """Chooses a node for a dependency-ready task."""

    name: str

    def place(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> PlacementDecision:
        """Pick one of ``candidates`` (never empty; all alive)."""
        ...


# -- spilling ----------------------------------------------------------------
@dataclass(frozen=True)
class SpillCandidate:
    """An unpinned primary store entry the spill policy may victimise."""

    object_id: ObjectId
    size: int
    #: A queued local task is about to read this object; spilling it
    #: forces an immediate restore (write + read for nothing).
    needed_soon: bool
    #: This node's disk already holds a copy (nothing to write).
    spilled: bool


@runtime_checkable
class SpillPolicy(Protocol):
    """Chooses what to spill, how much, and in what file batches."""

    name: str

    def target_bytes(self, backlog_bytes: int) -> int:
        """How many bytes one spill round should move for a given
        allocation-queue backlog."""
        ...

    def select_victims(
        self,
        candidates: Iterable[SpillCandidate],
        target: int,
        last_resort: bool,
    ) -> List[SpillCandidate]:
        """Victims to write, in order.  ``last_resort`` permits spilling
        ``needed_soon`` objects to preserve liveness.  ``candidates`` is
        a fresh one-pass iterable, oldest entry first, built lazily: a
        policy that stops early pays only for what it walked."""
        ...

    def make_batches(
        self, victims: Sequence[SpillCandidate]
    ) -> List[List[SpillCandidate]]:
        """Group victims into files: one batch = one sequential write
        (fused), one victim per batch = one seek-paying write each."""
        ...


# -- dispatch ----------------------------------------------------------------
@dataclass(frozen=True)
class ParkNote:
    """Record of a task parked behind its job's fair-share queue."""

    job_id: str
    #: Queue depth right after parking (what ``task.park`` reports).
    queued: int


@dataclass
class DispatchOutcome:
    """What a dispatch-policy call decided: launches and/or a park."""

    #: Records to launch now, in order.
    launch: List[TaskRecord] = field(default_factory=list)
    #: Set when the triggering record was parked instead of launched.
    parked: Optional[ParkNote] = None
    #: Job ids picked by fair queueing this round, in launch order
    #: (empty when nothing queued was released).
    picks: Tuple[str, ...] = ()
