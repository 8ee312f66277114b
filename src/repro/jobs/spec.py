"""Job and tenant declarations for the multi-tenant control plane.

A :class:`JobSpec` describes one shuffle job (shape, variant, seed); a
:class:`TenantSpec` groups jobs under a shared :class:`TenantQuota` and a
fair-share weight.  :class:`Job` is the mutable lifecycle record the
:class:`~repro.jobs.manager.JobManager` drives through
:class:`JobState`: submitted jobs queue, are admitted when quota allows,
run as cooperative subdrivers, and end done, failed, cancelled, or
rejected (a rejection is terminal at submission -- queueing could never
have helped).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class JobState(enum.Enum):
    """Where a job currently is in its lifecycle."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


#: States a job can no longer leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.REJECTED}
)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``None`` = unlimited).

    ``max_concurrent_jobs`` bounds jobs running at once;
    ``max_store_bytes`` bounds the summed store-byte estimates of the
    tenant's *admitted* jobs; ``max_task_slots`` caps the tenant's
    concurrently dispatched tasks (enforced by the fair-share
    scheduler); ``max_queued_jobs`` bounds the admission queue --
    submission past it fails with backpressure rather than buffering
    unboundedly.
    """

    max_concurrent_jobs: int = 2
    max_store_bytes: Optional[int] = None
    max_task_slots: Optional[int] = None
    max_queued_jobs: int = 8

    def __post_init__(self) -> None:
        if self.max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if self.max_queued_jobs < 1:
            raise ValueError("max_queued_jobs must be >= 1")
        if self.max_store_bytes is not None and self.max_store_bytes <= 0:
            raise ValueError("max_store_bytes must be positive when set")
        if self.max_task_slots is not None and self.max_task_slots < 1:
            raise ValueError("max_task_slots must be >= 1 when set")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, a fair-share weight, and a quota."""

    name: str
    weight: float = 1.0
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")


#: Bytes-per-value heuristic used to estimate a job's store footprint
#: when the spec gives no explicit estimate (integer payloads plus the
#: simulated object envelope, doubled for the shuffled copy).
_BYTES_PER_VALUE_ESTIMATE = 64


@dataclass(frozen=True)
class StreamSpec:
    """The streaming arm of a :class:`JobSpec`.

    When a job carries one, the manager dispatches it to the streaming
    tier's registered runner (:mod:`repro.streaming`) instead of the
    batch shuffle path: the job becomes a long-lived subdriver fed by
    ``JobSpec.num_maps`` Poisson sources, repartitioning each tumbling
    window across ``JobSpec.num_reduces`` stateful reducers.

    ``rate_hz`` is the mean open-loop arrival rate *per source*;
    arrivals stop at ``duration_s`` of event time, closing the source.
    ``max_inflight_windows`` bounds windows that are closed but whose
    aggregate is not yet visible -- the backpressure knob; set
    ``backpressure=False`` to let in-flight windows grow unboundedly
    (the bench's contrast arm).
    """

    rate_hz: float = 2.0
    duration_s: float = 30.0
    window_s: float = 5.0
    keys: int = 16
    bytes_per_record: int = 64
    max_inflight_windows: int = 2
    backpressure: bool = True

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.keys < 1:
            raise ValueError("keys must be >= 1")
        if self.bytes_per_record < 1:
            raise ValueError("bytes_per_record must be >= 1")
        if self.max_inflight_windows < 1:
            raise ValueError("max_inflight_windows must be >= 1")

    @property
    def expected_records(self) -> float:
        """Mean records one source emits before closing."""
        return self.rate_hz * self.duration_s


@dataclass(frozen=True)
class JobSpec:
    """A declarative description of one shuffle job.

    ``variant`` names a :data:`repro.plan.PLAN_VARIANTS` entry or
    ``"auto"`` to let the plan layer choose (a
    :class:`~repro.plan.ShuffleExpr` lowered with the cost-model rule).  ``weight`` multiplies the owning
    tenant's weight for fair sharing.  ``store_bytes_estimate`` feeds
    admission control; when ``None`` a size heuristic from the job shape
    is used.
    """

    name: str
    tenant: str
    num_maps: int = 8
    num_reduces: int = 4
    values_per_part: int = 24
    variant: str = "auto"
    weight: float = 1.0
    seed: int = 0
    store_bytes_estimate: Optional[int] = None
    #: When set, the job runs on the streaming tier: ``num_maps``
    #: sources, ``num_reduces`` repartition width, ``variant`` ignored.
    stream: Optional[StreamSpec] = None
    #: Optional pre-built plan hook: a :class:`repro.plan.ShuffleExpr`
    #: to lower in place of the shape-derived one (callers that want
    #: custom variant restrictions or expression rewrites), or an
    #: already-lowered :class:`repro.plan.ShufflePlan` to execute as-is.
    #: Duck-typed so the spec layer stays plan-free.
    plan: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.num_maps < 1 or self.num_reduces < 1 or self.values_per_part < 1:
            raise ValueError("job shape dimensions must be >= 1")
        if self.weight <= 0:
            raise ValueError("job weight must be positive")

    @property
    def estimated_store_bytes(self) -> int:
        """The admission-control footprint: the explicit estimate when
        given; for streaming jobs, the bytes resident with every allowed
        window in flight; otherwise a heuristic of twice the input bytes
        (input plus shuffled copy)."""
        if self.store_bytes_estimate is not None:
            return self.store_bytes_estimate
        if self.stream is not None:
            window_bytes = (
                self.num_maps
                * self.stream.rate_hz
                * self.stream.window_s
                * self.stream.bytes_per_record
            )
            return int(2 * window_bytes * (self.stream.max_inflight_windows + 1))
        values = self.num_maps * self.values_per_part
        return 2 * values * _BYTES_PER_VALUE_ESTIMATE


@dataclass
class Job:
    """The mutable lifecycle record of one submitted job."""

    spec: JobSpec
    job_id: str
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    admitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Once DONE: the reduce outputs (one sorted tuple per partition)
    #: for batch jobs, or the runner's result record for streaming jobs.
    output: Optional[Any] = None
    #: The exception that ended the job (FAILED or REJECTED).
    error: Optional[BaseException] = None
    #: The variant the planner resolved ``"auto"`` to (or the explicit one).
    planned_variant: Optional[str] = None
    #: The lowered :class:`repro.plan.ShufflePlan` behind
    #: ``planned_variant`` when the resolution went through the plan
    #: surface (None for explicit variants; streaming jobs carry their
    #: pinned streaming plan).
    plan: Optional[Any] = None

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.state in TERMINAL_STATES

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds between submission and admission (None while queued)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def duration(self) -> Optional[float]:
        """Seconds from submission to a terminal state (None until then)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} {self.spec.name!r} tenant={self.spec.tenant} "
            f"{self.state.value}>"
        )
