"""Admission control: per-tenant quotas with bounded queueing.

The controller is the gatekeeper between submission and execution.  It
answers three questions deterministically:

- **Reject now?**  A job whose declared footprint exceeds its tenant's
  quota outright can never be admitted, so it is rejected at submission
  with a typed error (:class:`~repro.common.errors.TenantQuotaExceededError`)
  rather than queued forever.
- **Queue or push back?**  Each tenant's admission queue is bounded
  (``TenantQuota.max_queued_jobs``); submission past the bound raises
  :class:`~repro.common.errors.AdmissionQueueFullError` -- backpressure
  to the submitter instead of unbounded buffering in the control plane.
- **Admit whom next?**  :meth:`AdmissionController.admit_ready` releases
  queued jobs in FIFO order per tenant while the tenant stays under its
  concurrent-job and aggregate store-byte limits; round-robin across
  tenants keeps one tenant's deep queue from starving another's.

The controller tracks only control-plane state (counts and byte
estimates); actually running jobs is the
:class:`~repro.jobs.manager.JobManager`'s business.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import (
    AdmissionQueueFullError,
    JobCancelledError,
    TenantQuotaExceededError,
    UnknownTenantError,
)
from repro.jobs.spec import Job, JobState, TenantSpec


class AdmissionController:
    """Quota enforcement and bounded queueing for job submission."""

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantSpec] = {}
        self._queues: Dict[str, Deque[Job]] = {}
        self._running: Dict[str, int] = {}
        self._admitted_bytes: Dict[str, int] = {}
        #: Rotation order for round-robin admission across tenants.
        self._rotation: List[str] = []

    # -- tenant registry -----------------------------------------------------
    def register_tenant(self, tenant: TenantSpec) -> None:
        """Add a tenant; re-registering an existing name is an error."""
        if tenant.name in self._tenants:
            raise ValueError(f"tenant {tenant.name!r} already registered")
        self._tenants[tenant.name] = tenant
        self._queues[tenant.name] = deque()
        self._running[tenant.name] = 0
        self._admitted_bytes[tenant.name] = 0
        self._rotation.append(tenant.name)

    def tenant(self, name: str) -> TenantSpec:
        """Look up a tenant spec by name (typed error when unknown)."""
        spec = self._tenants.get(name)
        if spec is None:
            raise UnknownTenantError(name)
        return spec

    def tenants(self) -> List[TenantSpec]:
        """All registered tenants in registration order."""
        return [self._tenants[name] for name in self._rotation]

    # -- submission ----------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Queue a job, or raise the typed rejection it deserves.

        Raises :class:`UnknownTenantError`,
        :class:`TenantQuotaExceededError` (footprint can never fit), or
        :class:`AdmissionQueueFullError` (bounded-queue backpressure).
        The caller marks the job REJECTED on exception.
        """
        tenant = self.tenant(job.spec.tenant)
        quota = tenant.quota
        needed = job.spec.estimated_store_bytes
        if quota.max_store_bytes is not None and needed > quota.max_store_bytes:
            raise TenantQuotaExceededError(
                tenant.name, "store bytes", needed, quota.max_store_bytes
            )
        queue = self._queues[tenant.name]
        if len(queue) >= quota.max_queued_jobs:
            raise AdmissionQueueFullError(tenant.name, len(queue))
        job.state = JobState.QUEUED
        queue.append(job)

    def cancel(self, job: Job) -> None:
        """Withdraw a still-queued job (CANCELLED with a typed error)."""
        queue = self._queues.get(job.spec.tenant)
        if queue is None or job not in queue:
            raise ValueError(f"job {job.job_id!r} is not queued")
        queue.remove(job)
        job.state = JobState.CANCELLED
        job.error = JobCancelledError(job.job_id)

    # -- admission -----------------------------------------------------------
    def _can_admit(self, tenant: TenantSpec, job: Job) -> bool:
        quota = tenant.quota
        if self._running[tenant.name] >= quota.max_concurrent_jobs:
            return False
        if quota.max_store_bytes is not None:
            footprint = self._admitted_bytes[tenant.name]
            if footprint + job.spec.estimated_store_bytes > quota.max_store_bytes:
                return False
        return True

    def admit_ready(self) -> List[Job]:
        """Release every job that now fits, round-robin across tenants.

        Each pass over the rotation admits at most one job per tenant
        (its queue head, FIFO within the tenant) until no tenant can
        admit more; the admitted jobs are returned in admission order.
        The caller transitions them to ADMITTED and starts them.
        """
        admitted: List[Job] = []
        progress = True
        while progress:
            progress = False
            for name in self._rotation:
                queue = self._queues[name]
                if not queue:
                    continue
                tenant = self._tenants[name]
                job = queue[0]
                if not self._can_admit(tenant, job):
                    continue
                queue.popleft()
                self._running[name] += 1
                self._admitted_bytes[name] += job.spec.estimated_store_bytes
                admitted.append(job)
                progress = True
        return admitted

    def release(self, job: Job) -> None:
        """Return an admitted job's quota (it reached a terminal state)."""
        name = job.spec.tenant
        if self._running.get(name, 0) > 0:
            self._running[name] -= 1
        held = self._admitted_bytes.get(name, 0)
        self._admitted_bytes[name] = max(
            0, held - job.spec.estimated_store_bytes
        )

    # -- introspection -------------------------------------------------------
    def queued_jobs(self, tenant: Optional[str] = None) -> List[Job]:
        """Jobs awaiting admission (one tenant's, or all in rotation order)."""
        names = [tenant] if tenant is not None else self._rotation
        out: List[Job] = []
        for name in names:
            out.extend(self._queues.get(name, ()))
        return out
