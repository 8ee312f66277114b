"""The policy plane: registry contents and placement-policy properties.

The property tests run over *every* registered placement policy, so a
newly registered policy is automatically held to the same contract:
return only (alive) candidates, honour the blacklist when alternatives
exist, and fall through gracefully when all candidates are blacklisted
or the affinity hint is dead.  A chaos-matrix integration test then
checks the same alive-nodes-only invariant end to end under every fault
kind, replaying the event stream against the death/restart timeline.
Fair-share dispatch is checked against a brute-force reference over
random job lifecycles.
"""

from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.harness import (
    default_node_spec,
    expected_output,
    make_inputs,
    submit_variant,
)
from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.common.ids import NodeId, TaskId
from repro.futures import (
    POLICY_KINDS,
    RetryPolicy,
    Runtime,
    RuntimeConfig,
    available_policies,
    create_policy,
    register_policy,
)
from repro.futures.policies import (
    DispatchContext,
    DispatchOutcome,
    NodeCandidate,
    PlacementDecision,
    PlacementRequest,
    StagedPlacementPolicy,
)
from repro.futures.policies.defaults import FairShareDispatchPolicy
from repro.futures.policies.registry import _REGISTRY
from repro.futures.task import TaskPhase, TaskRecord


# -- registry -----------------------------------------------------------------
def test_registry_has_the_builtin_policies():
    assert POLICY_KINDS == ("placement", "spill", "autoscale")
    assert available_policies() == {
        "placement": ["default", "load-only", "random"],
        "spill": ["default", "unfused"],
        "autoscale": ["none", "threshold"],
    }


def test_unknown_policy_name_is_a_typed_error():
    with pytest.raises(ValueError, match="unknown placement policy"):
        create_policy("placement", "nope", RuntimeConfig())
    with pytest.raises(ValueError, match="unknown policy kind"):
        register_policy("steering", "x", lambda config: None)
    with pytest.raises(ValueError, match="unknown spill policy 'nope'"):
        Runtime.create(
            default_node_spec(), 2, config=RuntimeConfig(spill_policy="nope")
        )


def test_custom_policy_registers_and_resolves_through_config():
    class FirstNodePolicy:
        name = "first-node"

        def place(self, request, candidates):
            chosen = candidates[0]
            return PlacementDecision(
                node_id=chosen.node_id,
                stage="first",
                policy=self.name,
                candidates=len(candidates),
            )

    register_policy("placement", "first-node", lambda config: FirstNodePolicy())
    try:
        rt = Runtime.create(
            default_node_spec(),
            2,
            config=RuntimeConfig(placement_policy="first-node"),
        )
        assert rt.policies.placement.name == "first-node"
        double = rt.remote(lambda x: 2 * x)

        def driver():
            return rt.get([double.remote(i) for i in range(4)])

        assert rt.run(driver) == [0, 2, 4, 6]
        places = rt.bus.events_of("policy.decision")
        assert any(
            e.attrs.get("policy") == "placement:first-node" for e in places
        )
    finally:
        del _REGISTRY[("placement", "first-node")]


# -- placement-policy properties ----------------------------------------------
def _placement_policies() -> List[str]:
    return available_policies("placement")["placement"]


def _make_candidates(
    blacklisted: List[bool], loads: List[int], arg_bytes: List[int]
) -> List[NodeCandidate]:
    return [
        NodeCandidate(
            node_id=NodeId(i),
            blacklisted=black,
            load=load / 4.0,
            arg_bytes=bytes_,
        )
        for i, (black, load, bytes_) in enumerate(
            zip(blacklisted, loads, arg_bytes)
        )
    ]


candidate_lists = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(
            st.integers(min_value=0, max_value=12), min_size=n, max_size=n
        ),
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=n,
            max_size=n,
        ),
        st.integers(min_value=0, max_value=2 * n),  # affinity target
        st.booleans(),  # hint set at all?
    )
)


@pytest.mark.parametrize("policy_name", _placement_policies())
@given(data=candidate_lists)
@settings(max_examples=60, deadline=None)
def test_placement_contract(policy_name: str, data) -> None:
    """Every registered placement policy: alive-only, blacklist-aware,
    graceful fall-through."""
    blacklisted, loads, arg_bytes, hint_index, hinted = data
    candidates = _make_candidates(blacklisted, loads, arg_bytes)
    # hint_index beyond the candidate range models a *dead* hinted node.
    affinity: Optional[NodeId] = NodeId(hint_index) if hinted else None
    request = PlacementRequest(
        task_id=TaskId(7), affinity=affinity, job_id=None
    )
    policy = create_policy("placement", policy_name, RuntimeConfig())
    decision = policy.place(request, candidates)

    by_id = {c.node_id: c for c in candidates}
    # Only ever one of the (alive) candidates.
    assert decision.node_id in by_id
    assert decision.candidates == len(candidates)
    chosen = by_id[decision.node_id]
    # Blacklist honoured whenever an alternative exists...
    if chosen.blacklisted and decision.stage != "affinity":
        assert all(c.blacklisted for c in candidates)
    # ...and all-blacklisted pools still place (liveness over hygiene).
    if all(c.blacklisted for c in candidates):
        assert decision.node_id in by_id


@given(data=candidate_lists)
@settings(max_examples=60, deadline=None)
def test_default_placement_affinity_semantics(data) -> None:
    """The default stack honours live hints and falls through dead ones."""
    blacklisted, loads, arg_bytes, hint_index, _ = data
    candidates = _make_candidates(blacklisted, loads, arg_bytes)
    hint = NodeId(hint_index)
    request = PlacementRequest(task_id=TaskId(0), affinity=hint, job_id=None)
    policy = create_policy("placement", "default", RuntimeConfig())
    decision = policy.place(request, candidates)
    survivors = [c for c in candidates if not c.blacklisted] or candidates
    if any(c.node_id == hint for c in survivors):
        # A live, non-blacklisted hinted node is always honoured.
        assert decision.node_id == hint
        assert decision.stage == "affinity"
    else:
        # Dead (or blacklisted-away) hint: soft affinity falls through.
        assert decision.stage != "affinity"
        assert decision.node_id in {c.node_id for c in candidates}


def test_staged_policy_empty_stage_result_is_ignored():
    """A stage that would empty the pool is skipped, not fatal."""

    class EmptyStage:
        name = "empty"

        def apply(self, request, candidates):
            return []

    policy = StagedPlacementPolicy("test", [EmptyStage()])
    candidates = _make_candidates([False, False], [1, 0], [0, 0])
    decision = policy.place(
        PlacementRequest(task_id=TaskId(1), affinity=None, job_id=None),
        candidates,
    )
    assert decision.stage == "fallback"
    assert decision.node_id == NodeId(0)


# -- fair-share dispatch ------------------------------------------------------
class _BruteForceFairShare(FairShareDispatchPolicy):
    """Fair share whose every pick is a full scan: the smallest
    ``(vtime, job_id)`` over the jobs with a queued task and tenant room."""

    def _has_room(self, job):
        tenant = self._tenant_of[job]
        cap = self._tenant_caps.get(tenant) if tenant is not None else None
        return cap is None or self._inflight_by_tenant[tenant] < cap

    def _pump(self, ctx):
        launch, picks = [], []
        while len(self._inflight) < ctx.total_slots:
            eligible = [
                job for job, queue in self._queues.items()
                if queue and self._has_room(job)
            ]
            if not eligible:
                break
            best = min(eligible, key=lambda job: (self._vtime[job], job))
            record = self._queues[best].popleft()
            if record.phase in (TaskPhase.FINISHED, TaskPhase.FAILED):
                continue
            self._vclock = self._vtime[best]
            self._vtime[best] += 1.0 / self._weights[best]
            self._inflight[record] = best
            self._inflight_by_job[best] += 1
            tenant = self._tenant_of[best]
            if tenant is not None:
                self._inflight_by_tenant[tenant] += 1
            launch.append(record)
            picks.append(best)
        return DispatchOutcome(launch=launch, picks=tuple(picks))


_JOBS = ["j0", "j1", "j2", "j3"]
_SLOTS = st.integers(1, 3)
_REGISTRATION = st.tuples(
    st.sampled_from([0.5, 1.0, 3.0]),  # weight
    st.sampled_from([None, "a", "b"]),  # tenant
    st.sampled_from([None, 1, 2]),  # tenant slot cap
)
_SUBMIT = st.tuples(st.just("submit"), st.sampled_from(_JOBS), _SLOTS)
_DONE = st.tuples(st.just("done"), st.integers(0, 99), _SLOTS)
#: Every job registers first; later ops may unregister and re-register.
_LIFECYCLE = st.tuples(
    st.lists(_REGISTRATION, min_size=len(_JOBS), max_size=len(_JOBS)),
    st.lists(
        st.one_of(
            _SUBMIT, _SUBMIT, _SUBMIT, _DONE, _DONE,
            st.tuples(st.just("submit"), st.none(), _SLOTS),
            st.tuples(st.just("retry"), st.integers(0, 99), _SLOTS),
            st.tuples(st.just("fail_parked"), st.integers(0, 99)),
            st.tuples(st.just("unregister"), st.sampled_from(_JOBS), _SLOTS),
            st.tuples(st.just("register"), st.sampled_from(_JOBS), _REGISTRATION),
        ),
        min_size=20,
        max_size=80,
    ),
).map(
    lambda parts: [("register", job, reg) for job, reg in zip(_JOBS, parts[0])]
    + parts[1]
)


#: A job unregistered with a parked task leaves a stale ``(1.0, "j0")``
#: heap entry; re-registered at virtual time 0 with weight 0.5, its
#: second launch must come at virtual time 2, not at the stale 1.
_STALE_REREGISTRATION = [
    ("register", job, (1.0, None, None)) for job in _JOBS
] + [
    ("submit", "j0", 1), ("submit", "j0", 1), ("unregister", "j0", 1),
    ("register", "j0", (0.5, None, None)),
    ("submit", "j0", 1), ("submit", "j0", 1), ("done", 0, 3),
]

#: j0's tenant is at its one-slot cap while j0 holds the smallest virtual
#: time: the pump must set j0 aside and launch j1's second task.
_CAPPED_FIRST = [
    ("register", "j0", (3.0, "a", 1)), ("register", "j1", (1.0, None, None)),
    ("submit", "j0", 3), ("submit", "j0", 3), ("submit", "j1", 3),
    ("submit", "j1", 3),
]


@settings(max_examples=200, deadline=None)
@given(ops=_LIFECYCLE)
@example(ops=_STALE_REREGISTRATION)
@example(ops=_CAPPED_FIRST)
def test_fair_share_picks_match_brute_force(ops):
    """Over random register/submit/task_done/unregister sequences (with
    weights, tenant caps, re-registered ids and tasks that fail while
    parked), every outcome equals the brute-force pick sequence."""
    heap, reference = FairShareDispatchPolicy(), _BruteForceFairShare()
    job_of, inflight, parked = {}, [], []

    def check(new, ref):
        assert [id(r) for r in new.launch] == [id(r) for r in ref.launch]
        assert new.picks == ref.picks
        assert new.parked == ref.parked
        assert (heap._vtime, heap._vclock) == (reference._vtime, reference._vclock)
        # No in-flight count outlives its job.
        assert all(n or job in heap._queues for job, n in heap._inflight_by_job.items())
        for record in new.launch:
            if record in parked:
                parked.remove(record)
            inflight.append(record)

    for op, *args in ops:
        if op == "register":
            job, (weight, tenant, cap) = args
            if job not in heap._queues:
                for policy in (heap, reference):
                    policy.register_job(
                        job, weight=weight, tenant=tenant, tenant_task_slots=cap
                    )
        elif op == "submit":
            job, slots = args
            record = TaskRecord(spec=None)
            job_of[record] = job
            ctx = DispatchContext(total_slots=slots)
            outcome = heap.submit(record, job, ctx)
            if outcome.parked is not None:
                parked.append(record)
            check(outcome, reference.submit(record, job, ctx))
        elif op in ("done", "retry") and inflight:
            index, slots = args
            ctx = DispatchContext(total_slots=slots)
            if op == "done":
                record = inflight.pop(index % len(inflight))
                record.phase = TaskPhase.FINISHED
                check(heap.task_done(record, ctx), reference.task_done(record, ctx))
            else:
                record = inflight.pop(index % len(inflight))
                job = job_of[record]
                outcome = heap.submit(record, job, ctx)
                if outcome.parked is not None:  # a straggler, queued afresh
                    parked.append(record)
                check(outcome, reference.submit(record, job, ctx))
        elif op == "fail_parked" and parked:
            parked.pop(args[0] % len(parked)).phase = TaskPhase.FAILED
        elif op == "unregister":
            job, slots = args
            ctx = DispatchContext(total_slots=slots)
            check(heap.unregister_job(job, ctx), reference.unregister_job(job, ctx))


# -- chaos matrix integration -------------------------------------------------
@pytest.mark.parametrize("kind", list(FaultKind))
def test_placements_target_alive_nodes_across_failure_matrix(kind):
    """Under every chaos fault kind, each task.place lands on a node not
    currently dead (replayed from the event stream in seq order)."""
    seed = 11
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    ChaosInjector(rt, matrix_plan(kind, seed=seed))
    inputs = make_inputs(seed, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    values = rt.run(driver)
    rt.env.run()  # drain restarts
    assert tuple(tuple(v) for v in values) == expected_output(seed)

    dead = set()
    placements = 0
    for event in rt.bus.events:
        if event.kind == "node.death":
            dead.add(event.node)
        elif event.kind == "node.restart":
            dead.discard(event.node)
        elif event.kind == "task.place":
            placements += 1
            assert event.node not in dead, (
                f"{event.kind} seq={event.seq} placed on dead {event.node}"
            )
    assert placements > 0
