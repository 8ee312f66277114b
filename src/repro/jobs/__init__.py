"""Multi-tenant job control plane over the distributed-futures runtime.

The paper's architecture runs one shuffle job per driver program; real
clusters run many jobs from many tenants at once.  This package layers a
control plane on :class:`~repro.futures.Runtime` without touching the
shuffle libraries themselves:

- :class:`JobSpec` / :class:`Job` -- declarative job descriptions and
  lifecycle records (queued -> admitted -> running -> done / failed /
  cancelled / rejected), with typed errors in :mod:`repro.common.errors`;
- :class:`AdmissionController` -- per-tenant quotas (concurrent jobs,
  aggregate store bytes, task slots) with bounded queueing and
  backpressure;
- fair-share scheduling -- admitted jobs' tasks dispatch by weighted
  virtual-time fair queueing (the ``"fair-share"`` dispatch policy)
  instead of global FIFO, composing with the existing locality/blacklist
  placement;
- ``variant="auto"`` -- resolved before launch by lowering a
  :class:`repro.plan.ShuffleExpr` through the runtime's planner (the
  cost-model lowering rule by default);
- per-job/per-tenant metrics -- every charge lands in the global
  series *and* the owning job's series of the runtime's metric
  registry, an exact-sum invariant the chaos checker asserts.

See ``docs/jobs.md`` for the full tour.
"""

from repro.jobs.admission import AdmissionController
from repro.jobs.manager import JobManager, job_runner, register_job_runner
from repro.jobs.spec import (
    Job,
    JobSpec,
    JobState,
    StreamSpec,
    TERMINAL_STATES,
    TenantQuota,
    TenantSpec,
)
from repro.jobs.workload import (
    JobsRunReport,
    default_tenants,
    mixed_workload,
    run_jobs,
    verify_outputs,
)

__all__ = [
    "AdmissionController",
    "Job",
    "JobManager",
    "JobSpec",
    "JobState",
    "JobsRunReport",
    "StreamSpec",
    "TERMINAL_STATES",
    "TenantQuota",
    "TenantSpec",
    "default_tenants",
    "job_runner",
    "mixed_workload",
    "register_job_runner",
    "run_jobs",
    "verify_outputs",
]
