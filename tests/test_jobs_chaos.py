"""Chaos under concurrent jobs: every fault kind fires beneath a
multi-tenant fleet and the control plane must stay correct.

Each run asserts the full contract: all jobs reach DONE, every output
matches the pure-function oracle, and the invariant checker -- including
the per-job accounting check -- reports nothing.
"""

import pytest

from repro.chaos import FaultKind, matrix_plan
from repro.jobs import mixed_workload, run_jobs


def run_under_fault(kind, seed=0, num_jobs=4):
    tenants, specs = mixed_workload(seed, num_jobs=num_jobs)
    return run_jobs(specs, tenants, plan=matrix_plan(kind, seed=seed))


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_fleet_survives_fault(kind):
    report = run_under_fault(kind)
    assert report.all_done, [
        (j.job_id, j.state, repr(j.error)) for j in report.jobs
    ]
    assert report.incorrect == []
    assert report.violations == []


def test_node_crash_actually_fired_and_retried():
    report = run_under_fault(FaultKind.NODE_CRASH)
    assert report.injected  # the plan really fired
    assert report.stats.get("tasks_resubmitted", 0) > 0
    assert report.ok


def test_chaos_accounting_still_sums_to_global():
    report = run_under_fault(FaultKind.NODE_CRASH, seed=2)
    keys = set()
    for bucket in report.job_stats.values():
        keys.update(bucket)
    for key in keys:
        total = sum(b.get(key, 0.0) for b in report.job_stats.values())
        assert total == pytest.approx(report.stats.get(key, 0.0)), key
