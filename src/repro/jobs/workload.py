"""Mixed multi-tenant workloads and the chaos-under-jobs runner.

Builds deterministic fleets of oracle-checked sort jobs (the chaos
harness workload: partition integers by residue, sort each partition)
spread across tenants and shuffle variants, and runs them through a
:class:`~repro.jobs.manager.JobManager` -- optionally with a
:class:`~repro.chaos.ChaosPlan` firing underneath.  Because every job
computes a pure function of ``(seed, shape)``, correctness under
concurrency and faults reduces to comparing each job's output with
:func:`repro.chaos.expected_output`.

Job arrival order is drawn from the registered
:data:`~repro.common.rng.JOB_ARRIVAL_STREAM` RNG stream, so reordering
is a seed-controlled, reproducible property of the workload rather than
an accident of construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.harness import default_node_spec, expected_output
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.spec import ChaosPlan
from repro.common.rng import JOB_ARRIVAL_STREAM, named_rng
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.jobs.manager import JobManager
from repro.jobs.spec import Job, JobSpec, JobState, TenantQuota, TenantSpec


def default_tenants(
    count: int = 4, *, max_concurrent_jobs: int = 4
) -> List[TenantSpec]:
    """Equal-weight tenants with permissive quotas (fairness studies)."""
    quota = TenantQuota(max_concurrent_jobs=max_concurrent_jobs)
    return [
        TenantSpec(name=f"tenant-{i}", weight=1.0, quota=quota)
        for i in range(count)
    ]


def mixed_workload(
    seed: int,
    num_jobs: int = 16,
    tenants: Optional[List[TenantSpec]] = None,
    *,
    num_maps: int = 8,
    num_reduces: int = 4,
    values_per_part: int = 24,
    variants: Tuple[str, ...] = ("simple", "riffle", "push", "auto"),
) -> Tuple[List[TenantSpec], List[JobSpec]]:
    """A deterministic fleet of identical-shape sort jobs.

    Jobs cycle through ``variants`` and are dealt to tenants round-robin,
    then the *submission order* is shuffled by the registered job-arrival
    RNG stream -- every run of the same seed submits the same jobs in the
    same order.
    """
    if tenants is None:
        tenants = default_tenants()
    specs = [
        JobSpec(
            name=f"sort-{i}",
            tenant=tenants[i % len(tenants)].name,
            num_maps=num_maps,
            num_reduces=num_reduces,
            values_per_part=values_per_part,
            variant=variants[i % len(variants)],
            seed=seed + i,
        )
        for i in range(num_jobs)
    ]
    rng = named_rng(seed, JOB_ARRIVAL_STREAM)
    order = rng.permutation(len(specs))
    return tenants, [specs[i] for i in order]


@dataclass
class JobsRunReport:
    """What one multi-tenant run produced."""

    jobs: List[Job]
    #: Simulated makespan (time when the last job reached a terminal state).
    duration: float
    #: ``runtime.stats()`` snapshot (global counters + derived totals).
    stats: Dict[str, Any]
    #: Per-job counter buckets keyed by job id.
    job_stats: Dict[str, Dict[str, float]]
    #: Max/min completion-time ratio over DONE jobs (None if < 2 finished).
    completion_ratio: Optional[float]
    #: Invariant violations found at quiesce (empty = healthy).
    violations: List[str] = field(default_factory=list)
    #: Jobs whose output differed from the pure-function oracle.
    incorrect: List[str] = field(default_factory=list)
    #: The chaos injector's fired-fault log: ``(time, kind, node_id)``.
    injected: List[tuple] = field(default_factory=list)

    @property
    def all_done(self) -> bool:
        """True when every job finished successfully."""
        return all(job.state is JobState.DONE for job in self.jobs)

    @property
    def ok(self) -> bool:
        """True when every job is DONE with oracle-identical output and
        no invariant was violated."""
        return self.all_done and not self.violations and not self.incorrect


def verify_outputs(jobs: List[Job]) -> List[str]:
    """Job ids of DONE jobs whose output differs from the oracle."""
    bad = []
    for job in jobs:
        if job.state is not JobState.DONE:
            continue
        spec = job.spec
        oracle = expected_output(
            spec.seed, spec.num_maps, spec.num_reduces, spec.values_per_part
        )
        if job.output != oracle:
            bad.append(job.job_id)
    return bad


def run_jobs(
    specs: List[JobSpec],
    tenants: List[TenantSpec],
    plan: Optional[ChaosPlan] = None,
    *,
    num_nodes: int = 4,
    retry_policy: Optional[RetryPolicy] = None,
) -> JobsRunReport:
    """Run a workload through a fresh cluster, optionally under chaos.

    Builds the same homogeneous cluster the chaos harness uses, arms
    ``plan`` (if any), submits every spec, drives the manager until all
    jobs are terminal, drains trailing events, and checks invariants --
    including per-job accounting summing to the global counters -- plus
    every finished job's output against the oracle.
    """
    config = RuntimeConfig(retry_policy=retry_policy or RetryPolicy())
    rt = Runtime.create(default_node_spec(), num_nodes, config=config)
    injector = ChaosInjector(rt, plan) if plan is not None else None
    manager = JobManager(rt)
    for tenant in tenants:
        manager.add_tenant(tenant)
    for spec in specs:
        manager.submit(spec)
    jobs = manager.run()
    duration = rt.now
    rt.env.run()  # drain recoveries/restarts so the runtime quiesces
    violations = InvariantChecker(rt).check()
    return JobsRunReport(
        jobs=jobs,
        duration=duration,
        stats=rt.stats(),
        job_stats=rt.job_stats(),
        completion_ratio=manager.completion_ratio(),
        violations=violations,
        incorrect=verify_outputs(jobs),
        injected=list(injector.injected) if injector is not None else [],
    )
