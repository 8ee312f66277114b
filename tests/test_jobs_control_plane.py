"""The multi-tenant job control plane: lifecycle, admission, fairness,
planning, accounting, and determinism."""

import pytest
from conftest import make_runtime

from repro.chaos import expected_output
from repro.common.errors import (
    AdmissionQueueFullError,
    JobCancelledError,
    TenantQuotaExceededError,
    UnknownTenantError,
)
from repro.common.rng import JOB_ARRIVAL_STREAM, named_rng, register_stream
from repro.jobs import (
    JobManager,
    JobSpec,
    JobState,
    TenantQuota,
    TenantSpec,
    mixed_workload,
    run_jobs,
)
from repro.plan import ClusterProfile, JobShape, ShuffleExpr


def make_manager(num_nodes=4, **kwargs):
    rt = make_runtime(num_nodes=num_nodes, store_mib=256)
    return JobManager(rt, **kwargs)


class TestLifecycle:
    def test_done_job_walks_the_states(self):
        manager = make_manager()
        manager.add_tenant(TenantSpec(name="t"))
        job = manager.submit(JobSpec(name="j", tenant="t", variant="simple"))
        assert job.state is JobState.QUEUED
        manager.run()
        assert job.state is JobState.DONE
        assert job.queue_wait is not None and job.duration is not None
        assert job.output == expected_output(0)

    def test_auto_variant_is_resolved_and_recorded(self):
        manager = make_manager()
        manager.add_tenant(TenantSpec(name="t"))
        job = manager.submit(JobSpec(name="j", tenant="t", variant="auto"))
        manager.run()
        assert job.state is JobState.DONE
        assert job.planned_variant in ("simple", "push")

    def test_failed_job_records_error_and_spares_siblings(self):
        manager = make_manager()
        manager.add_tenant(TenantSpec(name="t", quota=TenantQuota(max_concurrent_jobs=2)))
        bad = manager.submit(JobSpec(name="bad", tenant="t", variant="nonsense"))
        good = manager.submit(JobSpec(name="good", tenant="t", variant="simple"))
        manager.run()
        assert bad.state is JobState.FAILED
        assert isinstance(bad.error, ValueError)
        assert good.state is JobState.DONE

    def test_cancel_queued_job(self):
        manager = make_manager()
        manager.add_tenant(TenantSpec(name="t"))
        job = manager.submit(JobSpec(name="j", tenant="t"))
        manager.cancel(job)
        assert job.state is JobState.CANCELLED
        assert isinstance(job.error, JobCancelledError)
        manager.run()  # nothing left to do; must not hang or resurrect it
        assert job.state is JobState.CANCELLED


class TestAdmission:
    def test_unknown_tenant_rejected(self):
        manager = make_manager()
        with pytest.raises(UnknownTenantError):
            manager.submit(JobSpec(name="j", tenant="ghost"))
        (job,) = manager.jobs.values()
        assert job.state is JobState.REJECTED

    def test_over_quota_footprint_rejected_with_typed_error(self):
        manager = make_manager()
        manager.add_tenant(
            TenantSpec(name="t", quota=TenantQuota(max_store_bytes=1024))
        )
        with pytest.raises(TenantQuotaExceededError) as info:
            manager.submit(
                JobSpec(name="big", tenant="t", store_bytes_estimate=2048)
            )
        assert info.value.tenant == "t"
        assert info.value.needed == 2048 and info.value.limit == 1024
        (job,) = manager.jobs.values()
        assert job.state is JobState.REJECTED and job.error is info.value

    def test_bounded_queue_backpressure(self):
        manager = make_manager()
        manager.add_tenant(
            TenantSpec(name="t", quota=TenantQuota(max_queued_jobs=2))
        )
        manager.submit(JobSpec(name="a", tenant="t"))
        manager.submit(JobSpec(name="b", tenant="t"))
        with pytest.raises(AdmissionQueueFullError):
            manager.submit(JobSpec(name="c", tenant="t"))

    def test_concurrency_cap_defers_admission(self):
        manager = make_manager()
        manager.add_tenant(
            TenantSpec(name="t", quota=TenantQuota(max_concurrent_jobs=1))
        )
        first = manager.submit(JobSpec(name="a", tenant="t", variant="simple"))
        second = manager.submit(JobSpec(name="b", tenant="t", variant="simple"))
        manager.run()
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE
        # Serialised: the second was admitted only after the first freed
        # its quota slot, i.e. at (or after) the first's finish time.
        assert second.admitted_at >= first.finished_at

    def test_store_bytes_quota_serialises_admission(self):
        manager = make_manager()
        estimate = 4096
        manager.add_tenant(
            TenantSpec(
                name="t",
                quota=TenantQuota(
                    max_concurrent_jobs=4, max_store_bytes=estimate
                ),
            )
        )
        jobs = [
            manager.submit(
                JobSpec(
                    name=f"j{i}",
                    tenant="t",
                    variant="simple",
                    store_bytes_estimate=estimate,
                )
            )
            for i in range(2)
        ]
        manager.run()
        assert all(job.state is JobState.DONE for job in jobs)
        assert jobs[1].admitted_at >= jobs[0].finished_at


class TestFairness:
    def test_sixteen_jobs_four_tenants_oracle_and_ratio(self):
        tenants, specs = mixed_workload(seed=0, num_jobs=16)
        report = run_jobs(specs, tenants)
        assert report.all_done
        assert report.incorrect == []
        assert report.violations == []
        assert report.completion_ratio is not None
        assert report.completion_ratio <= 2.0

    def test_weighted_tenant_gets_more_concurrent_service(self):
        rt = make_runtime(num_nodes=2, store_mib=256)
        manager = JobManager(rt)
        quota = TenantQuota(max_concurrent_jobs=1)
        manager.add_tenant(TenantSpec(name="heavy", weight=4.0, quota=quota))
        manager.add_tenant(TenantSpec(name="light", weight=1.0, quota=quota))
        heavy = manager.submit(
            JobSpec(name="h", tenant="heavy", variant="simple")
        )
        light = manager.submit(
            JobSpec(name="l", tenant="light", variant="simple")
        )
        manager.run()
        assert heavy.state is JobState.DONE and light.state is JobState.DONE
        # Contending for the same slots, the 4x-weight job finishes first.
        assert heavy.finished_at <= light.finished_at

    def test_fair_share_scheduler_installed_once(self):
        """Every manager uses the runtime's own scheduler."""
        rt = make_runtime()
        assert JobManager(rt).fair is rt.scheduler
        assert JobManager(rt).fair is rt.scheduler

    def test_fair_share_grants_one_slot_per_alive_core(self):
        rt = make_runtime(num_nodes=3, store_mib=256)
        JobManager(rt)
        cores = sum(
            manager.node.spec.cores for manager in rt.node_managers.values()
        )
        assert rt.scheduler.total_slots == cores


class TestAccounting:
    def test_per_job_buckets_sum_to_global(self):
        tenants, specs = mixed_workload(seed=3, num_jobs=6)
        report = run_jobs(specs, tenants)
        assert report.violations == []  # includes the accounting check
        keys = set()
        for bucket in report.job_stats.values():
            keys.update(bucket)
        assert "tasks_finished" in keys and "compute_seconds" in keys
        for key in keys:
            total = sum(b.get(key, 0.0) for b in report.job_stats.values())
            assert total == pytest.approx(report.stats.get(key, 0.0))

    def test_each_done_job_ran_tasks(self):
        tenants, specs = mixed_workload(seed=1, num_jobs=4)
        report = run_jobs(specs, tenants)
        for job in report.jobs:
            bucket = report.job_stats.get(job.job_id, {})
            assert bucket.get("tasks_finished", 0) > 0
            assert bucket.get("task_output_bytes", 0) > 0


class TestPlanner:
    def profile(self):
        rt = make_runtime(num_nodes=4, store_mib=256)
        return ClusterProfile.from_runtime(rt)

    def choose(self, shape):
        return ShuffleExpr(shape).lower(self.profile()).variant

    def test_small_in_memory_few_partitions_prefers_simple(self):
        shape = JobShape(total_bytes=10 * 1024**2, num_maps=8, num_reduces=4)
        assert self.choose(shape) == "simple"

    def test_many_partitions_prefers_block_coalescing(self):
        shape = JobShape(
            total_bytes=10 * 1024**2, num_maps=500, num_reduces=500
        )
        assert self.choose(shape) != "simple"

    def test_spilling_job_prefers_push(self):
        spill = JobShape(
            total_bytes=8 * 1024**3, num_maps=64, num_reduces=64
        )
        assert self.choose(spill) == "push"

    def test_streaming_only_feasible_when_declared(self):
        """The rule never picks the streaming tier for a shape; only an
        explicitly declared streaming backend lowers to it."""
        stream = JobShape(
            total_bytes=1024**2, num_maps=8, num_reduces=4, streaming=True
        )
        assert self.choose(stream) != "streaming"
        declared = ShuffleExpr(stream, backend="streaming").lower(self.profile())
        assert declared.variant == "streaming"


class TestDeterminism:
    def test_identical_runs_are_bit_exact(self):
        first = run_jobs(*reversed(mixed_workload(seed=7, num_jobs=8)))
        second = run_jobs(*reversed(mixed_workload(seed=7, num_jobs=8)))
        assert first.duration == second.duration
        assert first.stats == second.stats
        assert first.job_stats == second.job_stats
        assert [j.output for j in first.jobs] == [j.output for j in second.jobs]
        assert [j.finished_at for j in first.jobs] == [
            j.finished_at for j in second.jobs
        ]

    def test_arrival_stream_is_registered_and_stable(self):
        a = named_rng(5, JOB_ARRIVAL_STREAM).integers(0, 1000, 8)
        b = named_rng(5, JOB_ARRIVAL_STREAM).integers(0, 1000, 8)
        assert list(a) == list(b)

    def test_stream_registry_guards(self):
        with pytest.raises(KeyError):
            named_rng(0, "jobs/never-registered")
        register_stream(JOB_ARRIVAL_STREAM, "jobs", "arrival")  # idempotent
        with pytest.raises(ValueError):
            register_stream(JOB_ARRIVAL_STREAM, "some", "other", "path")

    def test_workload_order_depends_on_seed(self):
        _, a = mixed_workload(seed=0, num_jobs=12)
        _, b = mixed_workload(seed=1, num_jobs=12)
        assert [s.name for s in a] != [s.name for s in b]
