"""The expression-level plan IR and the adaptive planner.

Three layers of pinning:

- *equivalence*: lowering an abstract :class:`ShuffleExpr` with the
  ``"cost"`` rule reproduces the original cost model's choice, and the
  ``"empirical"`` rule reproduces the paper's two-way crossover -- each
  checked against an inlined independent oracle, property-tested over
  random shapes and profiles;
- *zero cost when off*: with ``replan="off"`` (the default) the plan
  layer emits nothing and a multi-tenant jobs run is bit-for-bit
  identical to the pre-plan-layer build (golden full-event digest);
- *adaptivity*: with re-planning on, observed spill/disk spans degrade
  the effective profile, stage boundaries can switch the remaining
  plan (causally chained ``plan.lower`` -> ``plan.replan``), and
  streaming round boundaries can shrink the in-flight bound.
"""

import hashlib

import pytest
from conftest import make_runtime
from hypothesis import given, settings, strategies as st

from repro.chaos.harness import SHUFFLE_VARIANTS, default_node_spec
from repro.dataframe import DistributedFrame
from repro.futures import Runtime, RuntimeConfig
from repro.jobs import JobManager, JobSpec, TenantSpec, mixed_workload
from repro.jobs.spec import StreamSpec
from repro.plan import (
    PLAN_VARIANTS,
    AdaptivePlanner,
    ClusterProfile,
    JobShape,
    MEMORY_HEADROOM,
    PARTITION_CROSSOVER,
    ShuffleExpr,
    ShufflePlan,
    empirical_variant,
    fits_in_memory,
    planner_for_runtime,
    rank_variants,
)
import numpy as np

# ---------------------------------------------------------------------------
# The original cost model, inlined verbatim as an independent oracle.  If
# the plan layer drifts from these formulas, the equivalence property
# below fails.
# ---------------------------------------------------------------------------

_SCHEDULE_S = 5e-4
_PER_BLOCK_S = 1e-4
_PUSH_SETUP_S = 0.06
_DYNAMIC_DISCOUNT = 0.95
_STREAMING_DISCOUNT = 0.9


def _oracle_estimate(profile, shape, variant, merge_factor=2):
    p = profile
    in_memory = shape.total_bytes <= MEMORY_HEADROOM * p.store_bytes
    crossing = shape.total_bytes * (p.num_nodes - 1) / max(1, p.num_nodes)
    net = crossing / p.nic_bandwidth

    def disk_seconds(blocks, passes):
        if in_memory:
            return 0.0
        streamed = passes * 2 * shape.total_bytes / p.disk_bandwidth
        seeks = blocks * p.disk_seek_s / p.num_nodes
        return streamed + seeks

    M, R, W = shape.num_maps, shape.num_reduces, p.num_nodes
    F = merge_factor
    feasible, overlap, extra = True, False, 0.0
    if variant == "simple":
        blocks, tasks = M * R, M + R
        disk = disk_seconds(blocks, passes=1)
    elif variant in ("riffle", "riffle_dynamic"):
        merges = max(1, M // F)
        blocks, tasks = merges * R, M + merges + R
        disk = disk_seconds(blocks, passes=2)
        if variant == "riffle_dynamic":
            disk *= _DYNAMIC_DISCOUNT
    elif variant == "magnet":
        blocks, tasks = W * R, M + W * R // max(1, F) + R
        disk = disk_seconds(blocks, passes=2)
    elif variant == "push":
        blocks, tasks = W * R, M + W * R + R
        disk = disk_seconds(blocks, passes=1)
        overlap, extra = True, _PUSH_SETUP_S
    elif variant == "streaming":
        blocks, tasks = M * R, M + R
        disk = disk_seconds(blocks, passes=1)
        overlap = True
        feasible = shape.streaming
    meta = blocks * _PER_BLOCK_S + tasks * _SCHEDULE_S
    moved = max(net, disk) if overlap else net + disk
    seconds = meta + moved + extra
    if variant == "streaming":
        seconds *= _STREAMING_DISCOUNT
    return seconds, feasible


def _oracle_choose(profile, shape):
    ranked = sorted(
        (
            (_oracle_estimate(profile, shape, v), v)
            for v in SHUFFLE_VARIANTS
        ),
        key=lambda pair: (not pair[0][1], pair[0][0], pair[1]),
    )
    (seconds, feasible), variant = ranked[0]
    if not feasible:
        raise ValueError("no feasible shuffle variant for this job shape")
    return variant


profiles = st.builds(
    ClusterProfile,
    num_nodes=st.integers(1, 16),
    total_cores=st.integers(1, 256),
    store_bytes=st.integers(1, 10**12),
    disk_bandwidth=st.floats(1e6, 1e10),
    nic_bandwidth=st.floats(1e6, 1e10),
    disk_seek_s=st.floats(1e-4, 5e-2),
)

shapes = st.builds(
    JobShape,
    total_bytes=st.integers(0, 10**12),
    num_maps=st.integers(1, 500),
    num_reduces=st.integers(1, 500),
    streaming=st.booleans(),
)


class TestVariantRegistry:
    def test_plan_variants_mirror_the_chaos_registry(self):
        """The plan layer declares its own tuple (it must not import the
        chaos harness); this pins the two in lockstep."""
        assert PLAN_VARIANTS == SHUFFLE_VARIANTS


class TestSharedPredicate:
    def test_fits_in_memory_accepts_typed_and_raw_inputs(self):
        profile = ClusterProfile(
            num_nodes=2, total_cores=8, store_bytes=1000,
            disk_bandwidth=1e8, nic_bandwidth=1e8,
        )
        shape = JobShape(total_bytes=400, num_maps=4, num_reduces=4)
        assert fits_in_memory(profile, shape)
        assert fits_in_memory(1000, 400)
        assert not fits_in_memory(1000, 401)


class TestEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(profile=profiles, shape=shapes)
    def test_cost_rule_matches_legacy_planner_and_oracle(self, profile, shape):
        expr = ShuffleExpr(shape=shape)
        try:
            expected = _oracle_choose(profile, shape)
        except ValueError:
            with pytest.raises(ValueError):
                expr.lower(profile, rule="cost")
            return
        plan = expr.lower(profile, rule="cost")
        assert plan.variant == expected

    @settings(max_examples=200, deadline=None)
    @given(profile=profiles, shape=shapes)
    def test_empirical_rule_matches_the_select_crossover(self, profile, shape):
        plan = ShuffleExpr(shape=shape).lower(profile, rule="empirical")
        partitions = max(shape.num_maps, shape.num_reduces)
        in_memory = shape.total_bytes <= MEMORY_HEADROOM * profile.store_bytes
        few = partitions < PARTITION_CROSSOVER
        assert plan.variant == ("simple" if in_memory and few else "push")
        assert plan.variant == empirical_variant(
            profile.store_bytes, shape.total_bytes, partitions
        )

    @settings(max_examples=100, deadline=None)
    @given(profile=profiles, shape=shapes)
    def test_estimates_match_the_oracle_numerically(self, profile, shape):
        for est in rank_variants(profile, shape):
            seconds, feasible = _oracle_estimate(profile, shape, est.variant)
            assert est.est_seconds == pytest.approx(seconds)
            assert est.feasible == feasible


class TestExpressionIR:
    PROFILE = ClusterProfile(
        num_nodes=4, total_cores=16, store_bytes=10**9,
        disk_bandwidth=8e8, nic_bandwidth=5e8,
    )

    def test_explicit_backend_skips_the_rules(self):
        shape = JobShape(total_bytes=10**12, num_maps=300, num_reduces=300)
        plan = ShuffleExpr(shape=shape, backend="simple").lower(self.PROFILE)
        assert plan.variant == "simple" and plan.decided_by == "explicit"
        assert plan.ranking == ()
        # ...but the estimate is still computed, so it can explain itself.
        assert plan.estimate.variant == "simple"
        assert "simple" in plan.explain()

    def test_variant_restriction_limits_the_ranking(self):
        shape = JobShape(total_bytes=10**12, num_maps=64, num_reduces=64)
        plan = ShuffleExpr(
            shape=shape, variants=("simple", "push")
        ).lower(self.PROFILE)
        assert plan.variant in ("simple", "push")
        assert {est.variant for est in plan.ranking} == {"simple", "push"}

    def test_unknown_backend_and_empty_restriction_rejected(self):
        shape = JobShape(total_bytes=1, num_maps=1, num_reduces=1)
        with pytest.raises(ValueError):
            ShuffleExpr(shape=shape, backend="bogus")
        with pytest.raises(ValueError):
            ShuffleExpr(shape=shape, variants=())
        with pytest.raises(ValueError):
            ShuffleExpr(shape=shape).lower(self.PROFILE, rule="bogus")

    def test_infeasible_when_only_streaming_offered_to_batch_shape(self):
        shape = JobShape(
            total_bytes=1, num_maps=1, num_reduces=1, streaming=False
        )
        with pytest.raises(ValueError):
            ShuffleExpr(shape=shape, variants=("streaming",)).lower(self.PROFILE)

    def test_repartition_collapse_rewrite(self):
        inner = ShuffleExpr(
            shape=JobShape(total_bytes=500, num_maps=8, num_reduces=32),
            label="repartition",
        )
        outer = ShuffleExpr(
            shape=JobShape(total_bytes=600, num_maps=32, num_reduces=4),
            input=inner,
            label="groupby",
        )
        simplified = outer.simplify()
        # The inner layout change is dead work: the merged exchange reads
        # the original 8 partitions straight into the outer's 4.
        assert simplified.input is None
        assert simplified.shape == JobShape(
            total_bytes=500, num_maps=8, num_reduces=4
        )
        # Non-repartition inputs are left alone.
        kept = ShuffleExpr(
            shape=outer.shape,
            input=ShuffleExpr(shape=inner.shape, label="sort"),
        ).simplify()
        assert kept.input is not None

    def test_plan_to_dict_is_json_shaped(self):
        shape = JobShape(total_bytes=10**8, num_maps=8, num_reduces=4)
        plan = ShuffleExpr(shape=shape).lower(self.PROFILE)
        data = plan.to_dict()
        assert data["variant"] == plan.variant
        assert data["shape"]["num_maps"] == 8
        assert len(data["ranking"]) == len(PLAN_VARIANTS)


class TestAdaptivePlanner:
    PROFILE = TestExpressionIR.PROFILE

    def test_off_planner_is_silent_and_static(self, rt):
        planner = AdaptivePlanner(self.PROFILE)
        before = len(rt.bus.events)
        plan = planner.plan(
            ShuffleExpr(
                shape=JobShape(total_bytes=10**8, num_maps=8, num_reduces=4)
            )
        )
        assert isinstance(plan, ShufflePlan)
        assert len(rt.bus.events) == before
        assert planner.maybe_replan(plan) is None
        assert planner.maybe_shrink_inflight(4) is None

    def test_effective_profile_degrades_with_observed_disk(self):
        planner = AdaptivePlanner(self.PROFILE, replan=True)

        class _Evt:
            def __init__(self, seq, ts, kind, cause=None, **attrs):
                self.seq, self.ts, self.kind = seq, ts, kind
                self.cause, self.attrs = cause, attrs

        # 100 MB written over 10 s: 10 MB/s measured against a 200 MB/s
        # nominal per-node disk -> 20x degradation.
        planner.on_event(_Evt(0, 0.0, "spill.write.begin", bytes=int(1e8)))
        planner.on_event(_Evt(1, 10.0, "spill.write.end", cause=0))
        effective = planner.effective_profile()
        per_node = self.PROFILE.disk_bandwidth / self.PROFILE.num_nodes
        scale = 1e7 / per_node
        assert effective.disk_bandwidth == pytest.approx(
            self.PROFILE.disk_bandwidth * scale
        )
        assert effective.disk_seek_s == pytest.approx(
            self.PROFILE.disk_seek_s / scale
        )
        assert planner.signals.measured_disk_bandwidth() == pytest.approx(1e7)

    def test_replan_switches_and_chains_causally(self, rt):
        planner = AdaptivePlanner(self.PROFILE, replan=True)
        planner.attach(rt.bus)
        # In memory with a small fan-out: simple wins at lowering time
        # (merge variants save too few blocks to pay their extra tasks).
        shape = JobShape(total_bytes=10**8, num_maps=4, num_reduces=4)
        plan = planner.plan(ShuffleExpr(shape=shape), job="j-0")
        assert plan.variant == "simple"
        lower = [e for e in rt.bus.events if e.kind == "plan.lower"]
        assert len(lower) == 1 and lower[0].job == "j-0"
        # Mid-job the store shrinks far below the working set and seeks
        # dominate the (fast-streaming) disk: block-coalescing push wins.
        planner.profile_source = lambda: ClusterProfile(
            num_nodes=2, total_cores=8, store_bytes=10**7,
            disk_bandwidth=1e9, nic_bandwidth=5e8, disk_seek_s=5e-2,
        )
        replanned = planner.maybe_replan(plan, job="j-0")
        assert replanned is not None and replanned.variant != "simple"
        replans = [e for e in rt.bus.events if e.kind == "plan.replan"]
        assert len(replans) == 1
        assert replans[0].cause == lower[0].seq
        assert replans[0].attrs["est_after"] < replans[0].attrs["est_before"]
        verdicts = [
            e.attrs["decision"]
            for e in rt.bus.events
            if e.kind == "policy.decision" and e.attrs.get("policy") == "replan"
        ]
        assert verdicts == ["switch"]

    def test_replan_keeps_when_nothing_changed(self, rt):
        planner = AdaptivePlanner(self.PROFILE, replan=True)
        planner.attach(rt.bus)
        shape = JobShape(total_bytes=10**8, num_maps=16, num_reduces=4)
        plan = planner.plan(ShuffleExpr(shape=shape))
        assert planner.maybe_replan(plan) is None
        verdicts = [
            e.attrs["decision"]
            for e in rt.bus.events
            if e.kind == "policy.decision" and e.attrs.get("policy") == "replan"
        ]
        assert verdicts == ["keep"]

    def test_shrink_inflight_under_stall_pressure(self, rt):
        planner = AdaptivePlanner(self.PROFILE, replan=True, stall_threshold=2)
        planner.attach(rt.bus)
        assert planner.maybe_shrink_inflight(4) is None  # no pressure yet
        for _ in range(3):
            rt.bus.emit("stream.backpressure", reason="inflight_windows")
        assert planner.maybe_shrink_inflight(4) == 3
        # Marks reset: the same stalls are not double-counted.
        assert planner.maybe_shrink_inflight(3) is None
        # Floor: a bound of 1 never shrinks, whatever the pressure.
        for _ in range(5):
            rt.bus.emit("stream.backpressure", reason="inflight_windows")
        assert planner.maybe_shrink_inflight(1) is None
        replans = [e for e in rt.bus.events if e.kind == "plan.replan"]
        assert len(replans) == 1
        assert replans[0].attrs["param"] == "max_inflight_windows"


class TestRuntimeWiring:
    def test_planner_for_runtime_off_stays_detached(self):
        rt = make_runtime()
        planner = planner_for_runtime(rt)
        assert planner.replan is False
        assert rt.planner is None  # not registered: zero-cost when off
        assert rt.stage_boundary("stage") is None

    def test_planner_for_runtime_on_attaches_and_registers(self):
        rt = make_runtime(config=RuntimeConfig(replan="on"))
        planner = planner_for_runtime(rt)
        assert rt.planner is planner
        assert planner_for_runtime(rt) is planner  # idempotent
        # The stage-boundary hook reaches the planner...
        shape = JobShape(total_bytes=10**6, num_maps=4, num_reduces=2)
        plan = planner.plan(ShuffleExpr(shape=shape))
        assert rt.stage_boundary("stage", plan=plan) is None  # keep
        # ...and the lowering emitted observable plan events.
        assert any(e.kind == "plan.lower" for e in rt.bus.events)

    def test_config_rule_override_forces_one_rule(self):
        rt = make_runtime(config=RuntimeConfig(planner="empirical"))
        planner = planner_for_runtime(rt)
        shape = JobShape(total_bytes=10**6, num_maps=4, num_reduces=2)
        plan = planner.plan(ShuffleExpr(shape=shape), default_rule="cost")
        assert plan.decided_by == "empirical"


class TestCallSitesResolveThroughThePlanLayer:
    def test_jobspec_auto_records_a_plan(self):
        rt = make_runtime(num_nodes=4, store_mib=256)
        manager = JobManager(rt)
        manager.add_tenant(TenantSpec(name="t"))
        job = manager.submit(JobSpec(name="j", tenant="t", variant="auto"))
        manager.run()
        assert isinstance(job.plan, ShufflePlan)
        assert job.plan.variant == job.planned_variant
        assert job.plan.decided_by == "cost"

    def test_jobspec_prebuilt_expression_is_honoured(self):
        rt = make_runtime(num_nodes=4, store_mib=256)
        manager = JobManager(rt)
        manager.add_tenant(TenantSpec(name="t"))
        expr = ShuffleExpr(
            shape=JobShape(total_bytes=10**5, num_maps=8, num_reduces=4),
            backend="riffle",
        )
        job = manager.submit(
            JobSpec(name="j", tenant="t", variant="auto", plan=expr)
        )
        manager.run()
        assert job.planned_variant == "riffle"
        assert job.plan.decided_by == "explicit"

    def test_streaming_jobspec_carries_a_pinned_streaming_plan(self):
        rt = make_runtime(num_nodes=2)
        manager = JobManager(rt)
        manager.add_tenant(TenantSpec(name="t"))
        job = manager.submit(
            JobSpec(
                name="s", tenant="t", num_maps=2, num_reduces=2,
                stream=StreamSpec(rate_hz=2.0, duration_s=8.0, window_s=4.0),
            )
        )
        manager.run()
        assert job.planned_variant == "streaming"
        assert isinstance(job.plan, ShufflePlan)
        assert job.plan.shape.streaming and job.plan.decided_by == "explicit"

    def test_dataframe_resolves_through_an_attached_planner(self):
        rt = make_runtime(num_nodes=2)
        planner = AdaptivePlanner(ClusterProfile.from_runtime(rt))
        rt.attach_planner(planner)
        data = {"k": np.arange(40) % 5, "v": np.arange(40.0)}
        frame = rt.run(lambda: DistributedFrame.from_arrays(rt, data, 4))
        rt.run(lambda: frame.repartition(2).collect())
        labels = [plan.label for plan in planner.plans]
        assert "repartition" in labels
        assert all(plan.rule == "empirical" for plan in planner.plans)


GOLDEN_JOBS_DIGEST = (
    "8416ed03f05dd43edfd08eae767984a09a0d94f2a13ce922f25f1ec50d0c5780"
)


def _digest(events) -> str:
    lines = [
        f"{e.ts!r}|{e.kind}|{e.node}|{e.job}|{e.task}|{e.obj}|{e.cause}"
        f"|{sorted(e.attrs.items())!r}"
        for e in events
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestZeroCostWhenOff:
    def test_jobs_run_is_bit_for_bit_identical_to_pre_plan_layer(self):
        """The pinned digest was captured before the plan layer existed:
        with ``replan="off"`` the whole event stream -- every timestamp,
        attr, and causal link -- must be unchanged."""
        tenants, specs = mixed_workload(seed=7, num_jobs=8)
        rt = Runtime.create(default_node_spec(), 4, config=RuntimeConfig())
        manager = JobManager(rt)
        for tenant in tenants:
            manager.add_tenant(tenant)
        for spec in specs:
            manager.submit(spec)
        jobs = manager.run()
        assert [j.planned_variant for j in jobs] == [
            "push", "simple", "simple", "simple",
            "riffle", "push", "riffle", "simple",
        ]
        assert len(rt.bus.events) == 1934
        assert _digest(rt.bus.events) == GOLDEN_JOBS_DIGEST
