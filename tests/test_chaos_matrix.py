"""The failure matrix: every shuffle variant x every fault kind.

Each cell runs one seeded shuffle under one injected fault and asserts
the three chaos-harness guarantees: the output is byte-identical to the
fault-free run (and to the offline oracle), the retry count is bounded,
and the quiesced runtime passes the full invariant suite.  A separate
test pins determinism: re-running a cell with the same seed reproduces
identical outputs, retry counts, and counters.
"""

import pytest

from repro.chaos import (
    ChaosInjector,
    ChaosPlan,
    FaultKind,
    FaultSpec,
    expected_output,
    matrix_plan,
    run_chaos_shuffle,
)
from repro.cluster import FailurePlan
from repro.cluster.failures import FailureInjector
from repro.plan import PLAN_VARIANTS

from tests.conftest import make_runtime

SEED = 11

_baseline_cache = {}


def _baseline(variant):
    if variant not in _baseline_cache:
        _baseline_cache[variant] = run_chaos_shuffle(variant, None, seed=SEED)
    return _baseline_cache[variant]


class TestFailureMatrix:
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("variant", PLAN_VARIANTS)
    def test_variant_survives_fault(self, variant, kind):
        baseline = _baseline(variant)
        assert baseline.output == expected_output(SEED)
        assert baseline.retries == 0
        assert not baseline.violations

        report = run_chaos_shuffle(
            variant, matrix_plan(kind, seed=SEED), seed=SEED
        )
        assert report.output == baseline.output
        assert not report.violations
        assert len(report.injected) == 1
        assert report.injected[0][1] == kind.value
        # Retries stay bounded: a handful of re-executions, not a storm.
        assert 0 <= report.retries <= 3 * len(report.stats) + 40

    def test_compound_plan_recovers(self):
        """Several overlapping faults in one run still converge."""
        plan = ChaosPlan(
            faults=(
                FaultSpec(FaultKind.NODE_CRASH, at_time=1.0, duration=3.0),
                FaultSpec(
                    FaultKind.DISK_STALL, at_time=0.5, duration=6.0,
                    node_index=3, severity=10.0,
                ),
                FaultSpec(
                    FaultKind.STRAGGLER, at_time=0.0, duration=30.0,
                    severity=1.0, probability=0.3,
                ),
            ),
            seed=SEED,
        )
        report = run_chaos_shuffle("push", plan, seed=SEED)
        assert report.output == _baseline("push").output
        assert not report.violations
        assert len(report.injected) == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "kind",
        [FaultKind.NODE_CRASH, FaultKind.OBJECT_LOSS, FaultKind.STRAGGLER],
        ids=lambda k: k.value,
    )
    def test_same_seed_reproduces_run_exactly(self, kind):
        first = run_chaos_shuffle("push", matrix_plan(kind, seed=5), seed=5)
        second = run_chaos_shuffle("push", matrix_plan(kind, seed=5), seed=5)
        assert first.output == second.output
        assert first.retries == second.retries
        assert first.duration == second.duration
        assert first.injected == second.injected
        assert first.stats == second.stats

    def test_different_plan_seed_changes_victim_choice(self):
        fault = FaultSpec(FaultKind.NODE_CRASH, at_time=1.0, duration=2.0)
        victims = {
            ChaosPlan([fault], seed=s).resolve_victim(0, fault, num_nodes=16)
            for s in range(12)
        }
        assert len(victims) > 1
        assert 0 not in victims  # node 0 hosts the driver


class TestPlanValidation:
    def test_invalid_plan_arms_nothing(self):
        rt = make_runtime(num_nodes=2)
        plan = ChaosPlan(
            faults=(
                FaultSpec(FaultKind.NODE_CRASH, at_time=0.5, node_index=1),
                FaultSpec(FaultKind.OBJECT_LOSS, at_time=1.0, severity=2.0),
            )
        )
        with pytest.raises(ValueError):
            ChaosInjector(rt, plan)
        rt.env.run()
        # The valid first fault must not have fired either.
        assert all(node.alive for node in rt.cluster.nodes)
        assert rt.counters.get("chaos_faults_injected") == 0

    def test_spec_validation_messages(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NODE_CRASH, at_time=-1.0).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.SLOW_NODE, at_time=0.0, severity=1.0).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.OBJECT_LOSS, at_time=0.0, severity=0.0).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.STRAGGLER, at_time=0.0, probability=1.5
            ).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NODE_CRASH, at_time=0.0, node_index=9).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DOWN, at_time=0.0, node_index=0).validate(1)
        # Cluster-wide straggler is fine even on one node.
        FaultSpec(FaultKind.STRAGGLER, at_time=0.0).validate(1)


class TestFailureInjectorRegression:
    def test_invalid_plan_in_batch_schedules_nothing(self):
        """An invalid plan anywhere in the batch must leave zero events
        armed -- previously, plans before the bad one were already
        scheduled when ``__init__`` raised mid-loop."""
        rt = make_runtime(num_nodes=1)
        plans = [
            FailurePlan(at_time=0.5, node_index=0),  # valid on 1 node
            FailurePlan(at_time=1.0, node_index=None),  # random needs >= 2
        ]
        with pytest.raises(ValueError):
            FailureInjector(rt.cluster, plans)
        rt.env.run()
        assert all(node.alive for node in rt.cluster.nodes)
        assert rt.counters.get("node_failures") == 0

    def test_valid_batch_still_schedules_all(self):
        rt = make_runtime(num_nodes=3)
        injector = FailureInjector(
            rt.cluster,
            [
                FailurePlan(at_time=0.5, downtime=1.0, node_index=1),
                FailurePlan(at_time=0.7, downtime=1.0, node_index=2),
            ],
        )
        rt.env.run()
        assert len(injector.injected) == 2
        assert all(node.alive for node in rt.cluster.nodes)  # restarted
