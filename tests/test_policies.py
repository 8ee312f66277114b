"""Placement and dispatch rules: names, properties, brute force.

The placement property tests run over *both* named placement rules
(the default and the scheduling ablation's arm), called on plain
per-node rows: return only (alive) candidates, avoid draining nodes
when alternatives exist, and fall through gracefully when all
candidates are draining or the affinity hint is dead.  A chaos-matrix
integration test then checks the same alive-nodes-only invariant end to
end under every fault kind, replaying the event stream against the
death/restart timeline.  Fair-share dispatch is checked against a
brute-force reference over random job lifecycles.
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
from repro.common.ids import NodeId
from repro.futures import Runtime, RuntimeConfig
from repro.futures.config import PLACEMENT_POLICIES, SPILL_POLICIES
from repro.futures.policies.defaults import (
    DispatchOutcome,
    FairShareDispatchPolicy,
)
from repro.futures.scheduler import PlacementRow, choose_node
from repro.futures.task import TaskPhase, TaskRecord


# -- names --------------------------------------------------------------------
def test_registry_has_the_builtin_policies():
    assert PLACEMENT_POLICIES == ("default", "load-only")
    assert SPILL_POLICIES == ("default", "unfused")


def test_unknown_policy_name_is_a_typed_error():
    """``RuntimeConfig`` itself rejects an unknown name, listing the
    known ones, before any runtime is built."""
    with pytest.raises(
        ValueError,
        match=r"unknown placement policy 'nope'; known: default, load-only$",
    ):
        RuntimeConfig(placement_policy="nope")
    with pytest.raises(
        ValueError, match=r"unknown spill policy 'typo'; known: default, unfused$"
    ):
        RuntimeConfig(spill_policy="typo")


# -- placement properties -----------------------------------------------------
def _make_rows(
    draining: List[bool], loads: List[int], arg_bytes: List[int]
) -> List[PlacementRow]:
    return [
        (NodeId(i), avoid, load / 4.0, bytes_)
        for i, (avoid, load, bytes_) in enumerate(
            zip(draining, loads, arg_bytes)
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


@pytest.mark.parametrize("policy_name", PLACEMENT_POLICIES)
@given(data=candidate_lists)
@settings(max_examples=60, deadline=None)
def test_placement_contract(policy_name: str, data) -> None:
    """Both placement rules: alive-only, drain-aware, graceful
    fall-through."""
    draining, loads, arg_bytes, hint_index, hinted = data
    rows = _make_rows(draining, loads, arg_bytes)
    # hint_index beyond the candidate range models a *dead* hinted node.
    affinity: Optional[NodeId] = NodeId(hint_index) if hinted else None
    node_id, stage = choose_node(rows, affinity, policy_name)

    avoid = {row[0]: row[1] for row in rows}
    # Only ever one of the (alive) candidates.
    assert node_id in avoid
    # Draining nodes avoided whenever an alternative exists...
    if avoid[node_id] and stage != "affinity":
        assert all(avoid.values())
    if policy_name == "load-only":
        assert stage == "least-loaded"


@given(data=candidate_lists)
@settings(max_examples=60, deadline=None)
def test_default_placement_affinity_semantics(data) -> None:
    """The default rule honours live hints and falls through dead ones."""
    draining, loads, arg_bytes, hint_index, _ = data
    rows = _make_rows(draining, loads, arg_bytes)
    hint = NodeId(hint_index)
    node_id, stage = choose_node(rows, hint)
    survivors = [row for row in rows if not row[1]] or rows
    if any(row[0] == hint for row in survivors):
        # A live, non-draining hinted node is always honoured.
        assert node_id == hint
        assert stage == "affinity"
    else:
        # Dead (or draining-away) hint: soft affinity falls through.
        assert stage != "affinity"
        assert node_id in {row[0] for row in rows}


# -- fair-share dispatch ------------------------------------------------------
class _BruteForceFairShare(FairShareDispatchPolicy):
    """Fair share whose every pick is a full scan: the smallest
    ``(vtime, job_id)`` over the jobs with a queued task and tenant room."""

    def _has_room(self, job):
        tenant = self._tenant_of[job]
        cap = self._tenant_caps.get(tenant) if tenant is not None else None
        return cap is None or self._inflight_by_tenant[tenant] < cap

    def _pump(self, total_slots):
        launch, picks = [], []
        while len(self._inflight) < total_slots:
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
            outcome = heap.submit(record, job, slots)
            if outcome.parked is not None:
                parked.append(record)
            check(outcome, reference.submit(record, job, slots))
        elif op in ("done", "retry") and inflight:
            index, slots = args
            if op == "done":
                record = inflight.pop(index % len(inflight))
                record.phase = TaskPhase.FINISHED
                check(
                    heap.task_done(record, slots),
                    reference.task_done(record, slots),
                )
            else:
                record = inflight.pop(index % len(inflight))
                job = job_of[record]
                outcome = heap.submit(record, job, slots)
                if outcome.parked is not None:  # a straggler, queued afresh
                    parked.append(record)
                check(outcome, reference.submit(record, job, slots))
        elif op == "fail_parked" and parked:
            parked.pop(args[0] % len(parked)).phase = TaskPhase.FAILED
        elif op == "unregister":
            job, slots = args
            check(
                heap.unregister_job(job, slots),
                reference.unregister_job(job, slots),
            )


# -- chaos matrix integration -------------------------------------------------
@pytest.mark.parametrize("kind", list(FaultKind))
def test_placements_target_alive_nodes_across_failure_matrix(kind):
    """Under every chaos fault kind, each task.place lands on a node not
    currently dead (replayed from the event stream in seq order)."""
    seed = 11
    rt = Runtime.create(default_node_spec(), 4)
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
