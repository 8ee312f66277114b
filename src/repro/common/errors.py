"""Exception hierarchy shared across the runtime and applications."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class OutOfMemoryError(ReproError):
    """An allocation could not be satisfied even after spilling.

    Raised by stores that have no spill path (e.g. the Dask-style
    per-executor heap stores in :mod:`repro.baselines.dask`) or when a
    single object exceeds every fallback capacity.
    """


class ObjectLostError(ReproError):
    """An object's last copy was lost and could not be reconstructed."""

    def __init__(self, object_id: object, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"object {object_id} lost{detail}")
        self.object_id = object_id


class TaskExecutionError(ReproError):
    """A task's user function raised; carries the underlying cause."""

    def __init__(self, task_id: object, cause: BaseException) -> None:
        super().__init__(f"task {task_id} failed: {cause!r}")
        self.task_id = task_id
        self.cause = cause


class RetryExhaustedError(ReproError):
    """A task ran :data:`~repro.futures.lineage.MAX_TASK_ATTEMPTS` times
    and will not be retried again."""

    def __init__(self, task_id: object, attempts: int) -> None:
        super().__init__(
            f"task {task_id} gave up after {attempts} attempts"
        )
        self.task_id = task_id
        self.attempts = attempts


class InvariantViolationError(ReproError):
    """A runtime invariant check failed (see :mod:`repro.chaos.invariants`).

    Carries the full list of violation descriptions so a single failure
    reports everything that is wrong with the run.
    """

    def __init__(self, violations: list) -> None:
        summary = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(
            f"{len(violations)} invariant violation(s): {summary}{more}"
        )
        self.violations = list(violations)


class SchedulingError(ReproError):
    """A task could not be placed (e.g. no alive node satisfies it)."""


class JobControlError(ReproError):
    """Base class for multi-tenant job control plane errors
    (:mod:`repro.jobs`)."""


class UnknownTenantError(JobControlError):
    """A job named a tenant the admission controller has never seen."""

    def __init__(self, tenant: str) -> None:
        super().__init__(f"unknown tenant {tenant!r}; register it first")
        self.tenant = tenant


class TenantQuotaExceededError(JobControlError):
    """A job's resource demand exceeds its tenant's quota outright, so
    queueing it could never help -- it is rejected at submission."""

    def __init__(
        self, tenant: str, resource: str, needed: float, limit: float
    ) -> None:
        super().__init__(
            f"tenant {tenant!r} quota exceeded: job needs {needed:g} "
            f"{resource}, quota allows {limit:g}"
        )
        self.tenant = tenant
        self.resource = resource
        self.needed = needed
        self.limit = limit


class AdmissionQueueFullError(JobControlError):
    """A tenant's admission queue is at its bound; submitting more work
    must wait for earlier jobs to drain (backpressure, not buffering)."""

    def __init__(self, tenant: str, depth: int) -> None:
        super().__init__(
            f"tenant {tenant!r} admission queue full ({depth} jobs queued)"
        )
        self.tenant = tenant
        self.depth = depth


class JobCancelledError(JobControlError):
    """The job was cancelled before (or while) running."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id!r} was cancelled")
        self.job_id = job_id


class LineageReconstructionError(ReproError):
    """Reconstruction failed: lineage was truncated or inputs unrecoverable."""
