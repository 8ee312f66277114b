"""Task specifications: what the driver submits and lineage remembers.

A :class:`TaskSpec` is deliberately *plain data*: argument references are
recorded as :class:`ObjectId`, not live :class:`ObjectRef` instances, so a
spec can sit in the lineage log without pinning its inputs.  The runtime
separately holds the live argument refs of *pending* tasks and drops them
at completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.common.ids import NodeId, ObjectId, TaskId


class TaskPhase(enum.Enum):
    """Where a task currently is in its lifecycle."""

    WAITING_DEPS = "waiting_deps"
    QUEUED = "queued"
    FETCHING = "fetching"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class RefArg:
    """A positional argument that is a distributed future."""

    object_id: ObjectId


@dataclass(frozen=True, slots=True)
class PlainArg:
    """A positional argument passed by value."""

    value: Any


Arg = Union[RefArg, PlainArg]


@dataclass(frozen=True)
class CostContext:
    """Inputs available to a task's compute-cost callable."""

    input_bytes: int
    output_bytes: int
    num_args: int
    num_returns: int


#: A compute-cost declaration: ``None`` (derive from bytes), a constant
#: number of core-seconds, or a callable of :class:`CostContext`.
ComputeCost = Union[None, float, int, Callable[[CostContext], float]]


@dataclass(frozen=True)
class TaskOptions:
    """Per-invocation options (``RemoteFunction.options(...)``)."""

    num_returns: int = 1
    #: Soft node-affinity hint (§4.3.2): preferred placement, honoured when
    #: the node is alive, otherwise any suitable node is used.
    node: Optional[NodeId] = None
    compute: ComputeCost = None
    #: Persist outputs straight to local disk (final outputs of a sort job,
    #: Spark-style materialisation) instead of store memory.
    output_to_disk: bool = False
    name: str = ""
    #: The job this task belongs to (multi-tenant control plane).  Stamped
    #: automatically from the submitting driver's label by
    #: ``Runtime.submit_task``; drives fair-share scheduling and per-job
    #: accounting.  ``None`` = unattributed (single-job runs).
    job_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_returns < 1:
            raise ValueError("num_returns must be >= 1")


@dataclass
class TaskSpec:
    """Everything needed to run (and re-run) one task."""

    task_id: TaskId
    fn: Callable[..., Any]
    fn_name: str
    args: Tuple[Arg, ...]
    options: TaskOptions
    return_ids: Tuple[ObjectId, ...]
    is_generator: bool = False
    #: Bumped on each (re-)execution attempt, for introspection and tests.
    attempts: int = 0
    #: The ``RefArg`` object ids in argument order (repeats kept), derived
    #: once from ``args``, which never change after submission.
    dependency_ids: Tuple[ObjectId, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.dependency_ids = tuple(
            arg.object_id for arg in self.args if isinstance(arg, RefArg)
        )

    def __repr__(self) -> str:
        return (
            f"<TaskSpec {self.task_id} {self.fn_name} "
            f"deps={len(self.dependency_ids)} returns={len(self.return_ids)}>"
        )


@dataclass(eq=False)  # identity semantics: records live in sets
class TaskRecord:
    """Mutable runtime state of a submitted task."""

    spec: TaskSpec
    phase: TaskPhase = TaskPhase.WAITING_DEPS
    assigned_node: Optional[NodeId] = None
    pending_deps: int = 0
    #: Live argument refs held while the task is pending, released on
    #: completion so argument objects become evictable.
    held_refs: List[Any] = field(default_factory=list)
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Whether this task currently contributes to the runtime's
    #: pending-consumer counts (spill protection of its arguments).
    counted: bool = False
    #: Whether this task currently counts toward the runtime's in-flight
    #: total (autoscale pressure); guarded on both transitions so a
    #: record re-entering flight (lineage reconstruction) is counted
    #: exactly once per live episode.
    in_flight: bool = False
