"""The job manager: admission, fair sharing, planning, and execution.

:class:`JobManager` ties the control plane together around one
:class:`~repro.futures.Runtime`:

- jobs are submitted against registered tenants and pass through the
  :class:`~repro.jobs.admission.AdmissionController` (typed rejections,
  bounded queues);
- admitted jobs register with the runtime's scheduler, whose dispatch
  is fair sharing (weight = tenant weight x job weight, tenant
  task-slot caps), and run as labeled cooperative subdrivers, so every
  task they submit is stamped with their job id and both scheduling
  and accounting see job boundaries;
- ``variant="auto"`` jobs are resolved before launch by lowering a
  :class:`~repro.plan.ShuffleExpr` through the runtime's planner;
- per-job metrics (queue wait, task-seconds, bytes) accumulate on the
  job axis of the runtime's metric registry and in a queue-wait
  :class:`~repro.metrics.Histogram`.

Job bodies never leak exceptions into the simulation: a failing job is
recorded as ``FAILED`` with its error and its quota is released, while
sibling jobs keep running.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.harness import make_inputs, submit_variant
from repro.common.errors import JobControlError
from repro.futures import DriverHandle, Runtime
from repro.jobs.admission import AdmissionController
from repro.jobs.spec import Job, JobSpec, JobState, TenantSpec
from repro.metrics import Histogram
from repro.plan import JobShape, ShuffleExpr, ShufflePlan, planner_for_runtime


#: Pluggable job-runner bodies keyed by mode name.  A runner is called
#: inside the job's labeled subdriver as ``runner(manager, job)`` and
#: returns the job's output.  Higher tiers register themselves here on
#: import -- e.g. :mod:`repro.streaming` registers ``"streaming"`` -- so
#: the control plane dispatches to them without importing them (the
#: jobs layer stays below optional tiers in the layering order).
_JOB_RUNNERS: Dict[str, Callable[["JobManager", Job], Any]] = {}


def register_job_runner(
    mode: str, runner: Callable[["JobManager", Job], Any]
) -> None:
    """Register (or replace) the runner body for ``mode`` jobs."""
    _JOB_RUNNERS[mode] = runner


def job_runner(mode: str) -> Callable[["JobManager", Job], Any]:
    """Look up a registered runner; raises with an import hint when the
    providing tier has not been loaded."""
    runner = _JOB_RUNNERS.get(mode)
    if runner is None:
        raise JobControlError(
            f"no job runner registered for mode {mode!r}; import the tier "
            f"that provides it (e.g. repro.streaming for 'streaming')"
        )
    return runner


class JobManager:
    """Drives multi-tenant jobs through admission, fair-share execution,
    and per-job accounting on one runtime."""

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        #: The runtime's own scheduler, whose dispatch is fair sharing:
        #: every manager on one runtime registers its jobs with it.
        self.fair = runtime.scheduler
        self.admission = AdmissionController()
        # The planning surface behind ``variant="auto"``: the runtime's
        # shared :class:`repro.plan.AdaptivePlanner` (honouring the
        # ``replan=`` config knob).
        self.planner = planner_for_runtime(runtime)
        #: Every job ever submitted, keyed by job id, in submission order.
        self.jobs: Dict[str, Job] = {}
        #: Queue-wait distribution (seconds from submission to admission).
        self.queue_wait = Histogram("job_queue_wait_s")
        self._ids = itertools.count()

    # -- registration ---------------------------------------------------------
    def add_tenant(self, tenant: TenantSpec) -> None:
        """Register a tenant before submitting its jobs."""
        self.admission.register_tenant(tenant)

    def submit(self, spec: JobSpec) -> Job:
        """Submit a job; returns its lifecycle record.

        Typed control-plane rejections
        (:class:`~repro.common.errors.JobControlError` subclasses) are
        recorded on the job as ``REJECTED`` and re-raised, so the caller
        both observes the typed error and can inspect the record later.
        """
        job_id = f"job-{next(self._ids)}"
        job = Job(spec=spec, job_id=job_id, submitted_at=self.runtime.now)
        self.jobs[job_id] = job
        bus = self.runtime.bus
        bus.emit(
            "job.submit", job=job_id, tenant=spec.tenant, name=spec.name
        )
        try:
            self.admission.submit(job)
        except JobControlError as exc:
            job.state = JobState.REJECTED
            job.error = exc
            job.finished_at = self.runtime.now
            bus.emit(
                "job.reject",
                job=job_id,
                tenant=spec.tenant,
                error=type(exc).__name__,
            )
            raise
        return job

    def cancel(self, job: Job) -> None:
        """Cancel a still-queued job (typed error recorded on the job)."""
        self.admission.cancel(job)
        job.finished_at = self.runtime.now
        self.runtime.bus.emit(
            "job.cancel", job=job.job_id, tenant=job.spec.tenant
        )

    # -- execution ------------------------------------------------------------
    def run(self) -> List[Job]:
        """Run every submitted job to a terminal state; returns them all.

        This is the blocking entry point: it drives the runtime's
        simulation until each queued job has been admitted, executed as a
        fair-share subdriver, and reaped.
        """
        self.runtime.run(self.drive)
        return list(self.jobs.values())

    def drive(self) -> None:
        """The control-plane driver loop (already inside ``runtime.run``).

        Use this instead of :meth:`run` to compose the manager with other
        driver-side work (e.g. arming a chaos plan first).
        """
        rt = self.runtime
        live: Dict[str, DriverHandle] = {}
        while True:
            for job in self.admission.admit_ready():
                self._admit(job)
                live[job.job_id] = rt.spawn_driver(
                    self._run_job,
                    job,
                    name=f"job:{job.job_id}",
                    label=job.job_id,
                )
            if not live:
                if self.admission.queued_jobs():
                    raise RuntimeError(
                        "admission stalled with no running jobs"
                    )  # pragma: no cover - admission always releases idle tenants
                break
            # Sleep until at least one job finishes; _run_job never leaks
            # exceptions, so the completion events always succeed.
            rt.wait_event(rt.env.any_of([h.done for h in live.values()]))
            for job_id in [jid for jid, h in live.items() if h.finished]:
                handle = live.pop(job_id)
                job = self.jobs[job_id]
                rt.join_driver(handle)
                self.fair.unregister_job(job_id)
                self.admission.release(job)

    def _admit(self, job: Job) -> None:
        job.state = JobState.ADMITTED
        job.admitted_at = self.runtime.now
        self.queue_wait.record(job.queue_wait or 0.0)
        tenant = self.admission.tenant(job.spec.tenant)
        self.fair.register_job(
            job.job_id,
            weight=tenant.weight * job.spec.weight,
            tenant=tenant.name,
            tenant_task_slots=tenant.quota.max_task_slots,
        )
        self.runtime.bus.emit(
            "job.admit",
            job=job.job_id,
            tenant=tenant.name,
            weight=tenant.weight * job.spec.weight,
            queue_wait_s=job.queue_wait or 0.0,
        )

    def _resolve_variant(self, job: Job) -> str:
        """Resolve the job's variant through the plan surface.

        A ``spec.plan`` hook wins: an already-lowered plan is executed
        as-is, an expression is lowered by the manager's planner.  Then
        explicit variants pass straight through, and ``"auto"`` lowers
        the shape-derived expression with the paper's empirical rule.
        """
        spec = job.spec
        if isinstance(spec.plan, ShufflePlan):
            job.plan = spec.plan
            return spec.plan.variant
        if spec.plan is not None:
            expr = spec.plan
        elif spec.stream is not None:
            # Streaming jobs are pinned to the streaming tier, but still
            # lower through the plan surface so the shape is recorded
            # (and ``plan.lower`` emitted when re-planning is on).
            # Total bytes = every record the sources will emit.
            expr = ShuffleExpr(
                shape=JobShape(
                    total_bytes=int(
                        spec.num_maps
                        * spec.stream.expected_records
                        * spec.stream.bytes_per_record
                    ),
                    num_maps=spec.num_maps,
                    num_reduces=spec.num_reduces,
                    streaming=True,
                ),
                backend="streaming",
                label=spec.name,
            )
        elif spec.variant != "auto":
            return spec.variant
        else:
            expr = ShuffleExpr(
                shape=JobShape(
                    total_bytes=spec.estimated_store_bytes,
                    num_maps=spec.num_maps,
                    num_reduces=spec.num_reduces,
                    streaming=False,
                ),
                label=spec.name,
            )
        job.plan = self.planner.plan(expr, job=job.job_id)
        return job.plan.variant

    def _run_job(self, job: Job) -> Job:
        """The per-job subdriver body: plan, submit, block, record.

        Runs labeled with the job id, so every task it submits is
        stamped for fair sharing and accounting.  All errors -- including
        exhausted retries under chaos -- are captured on the job record;
        the body itself never raises, keeping sibling jobs unaffected.
        """
        rt = self.runtime
        job.state = JobState.RUNNING
        job.started_at = rt.now
        start_seq = rt.bus.emit(
            "job.start", job=job.job_id, tenant=job.spec.tenant
        )
        try:
            if job.spec.stream is not None:
                job.planned_variant = self._resolve_variant(job)
                job.output = job_runner("streaming")(self, job)
            else:
                variant = self._resolve_variant(job)
                job.planned_variant = variant
                spec = job.spec
                inputs = make_inputs(
                    spec.seed, spec.num_maps, spec.values_per_part
                )
                refs = submit_variant(variant, rt, inputs, spec.num_reduces)
                values = rt.get(refs)
                job.output = tuple(tuple(v) for v in values)
            job.state = JobState.DONE
        except Exception as exc:  # noqa: BLE001 - captured on the record
            job.state = JobState.FAILED
            job.error = exc
        job.finished_at = rt.now
        if job.state is JobState.DONE:
            rt.bus.emit(
                "job.done",
                job=job.job_id,
                tenant=job.spec.tenant,
                cause=start_seq,
                variant=job.planned_variant,
            )
        else:
            rt.bus.emit(
                "job.fail",
                job=job.job_id,
                tenant=job.spec.tenant,
                cause=start_seq,
                error=type(job.error).__name__,
            )
        return job

    # -- metrics --------------------------------------------------------------
    def job_metrics(self, job_id: str) -> Dict[str, float]:
        """One job's counters (task-seconds, bytes, retries, ...)."""
        return self.runtime.job_stats().get(job_id, {})

    def tenant_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-job counters aggregated per tenant."""
        job_stats = self.runtime.job_stats()
        out: Dict[str, Dict[str, float]] = {}
        for job_id, job in self.jobs.items():
            counters = job_stats.get(job_id)
            if counters is None:
                continue
            agg = out.setdefault(job.spec.tenant, {})
            for key, value in counters.items():
                agg[key] = agg.get(key, 0.0) + value
        return out

    def completion_ratio(self) -> Optional[float]:
        """Max/min completion-time ratio across DONE jobs (the fairness
        figure of merit; ``None`` with fewer than two finished jobs)."""
        durations = [
            job.duration
            for job in self.jobs.values()
            if job.state is JobState.DONE and job.duration
        ]
        if len(durations) < 2:
            return None
        return max(durations) / min(durations)

    def report(self) -> List[Dict[str, Any]]:
        """One summary row per job (state, variant, timings, key counters)."""
        rows = []
        for job in self.jobs.values():
            metrics = self.job_metrics(job.job_id)
            rows.append(
                {
                    "job_id": job.job_id,
                    "name": job.spec.name,
                    "tenant": job.spec.tenant,
                    "state": job.state.value,
                    "variant": job.planned_variant or job.spec.variant,
                    "queue_wait_s": job.queue_wait,
                    "duration_s": job.duration,
                    "tasks_finished": metrics.get("tasks_finished", 0.0),
                    "compute_seconds": metrics.get("compute_seconds", 0.0),
                    "task_output_bytes": metrics.get("task_output_bytes", 0.0),
                    "error": repr(job.error) if job.error else None,
                }
            )
        return rows
