"""Global task placement and dispatch: mechanism around the policy plane.

Ray's two-level scheduler balances bin-packing against load-balancing;
for shuffle what matters is (a) honouring the library's *soft
node-affinity* hints (merge tasks pinned near their future reduce
tasks), (b) data locality (run a task where most of its argument bytes
already live), and (c) spreading everything else across alive nodes by
load.  Recently-failed nodes are additionally *blacklisted* for a
cooldown window (``RuntimeConfig.blacklist_cooldown_s``).

The decision rules themselves live in :mod:`repro.futures.policies`:
the scheduler builds candidate views (alive nodes, blacklist state,
load, argument bytes), asks its
:class:`~repro.futures.policies.PlacementPolicy` *where* and its
:class:`~repro.futures.policies.FairShareDispatchPolicy` *when*,
publishes a ``policy.decision`` event for each choice, and enacts it.
Placement happens when a task's dependencies are all created, so
locality information is fresh.

Fair sharing is the only dispatch path.  Work of a job registered
through the job surface (the multi-tenant control plane,
:mod:`repro.jobs`) queues for weighted virtual-time release; all other
work launches at once and publishes no dispatch decision.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.common.errors import SchedulingError
from repro.common.ids import NodeId
from repro.futures.policies.base import (
    DispatchOutcome,
    NodeCandidate,
    PlacementDecision,
    PlacementPolicy,
    PlacementRequest,
)
from repro.futures.policies.defaults import (
    PLACEMENT_POLICIES,
    FairShareDispatchPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.futures.runtime import Runtime
    from repro.futures.task import TaskRecord


class Scheduler:
    """Places and launches dependency-ready tasks via the policy plane."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        #: Nodes to avoid until the mapped simulated time (cooldown after
        #: a failure); stale entries are pruned lazily during placement.
        self._blacklist_until: Dict[NodeId, float] = {}
        #: Where tasks run (``RuntimeConfig.placement_policy``).
        self.placement_policy: PlacementPolicy = PLACEMENT_POLICIES[
            runtime.config.placement_policy
        ]()
        #: When tasks launch: registered jobs share the slots fairly.
        self.policy = FairShareDispatchPolicy()

    # -- dispatch -----------------------------------------------------------
    @property
    def total_slots(self) -> int:
        """The dispatch budget: one task slot per alive core."""
        membership = self.runtime.membership
        cores = sum(
            manager.node.spec.cores
            for node_id, manager in self.runtime.node_managers.items()
            if manager.node.alive and membership.is_active(node_id)
        )
        return max(1, cores)

    def dispatch(self, record: "TaskRecord") -> None:
        """A task became dependency-ready: let the dispatch policy
        launch it, park it, or release other queued work."""
        outcome = self.policy.submit(
            record, record.spec.options.job_id, self.total_slots
        )
        self._enact(record, outcome)

    def task_done(self, record: "TaskRecord") -> None:
        """Hook: a dispatched task reached a terminal phase; the policy
        may free a slot and release queued work."""
        outcome = self.policy.task_done(record, self.total_slots)
        self._enact(None, outcome)

    def _enact(
        self, record: Optional["TaskRecord"], outcome: DispatchOutcome
    ) -> None:
        """Publish the dispatch decision and launch what it released."""
        bus = self.runtime.bus
        if outcome.parked is not None and record is not None:
            bus.emit(
                "task.park",
                task=record.spec.task_id,
                job=outcome.parked.job_id,
                queued=outcome.parked.queued,
            )
            bus.emit(
                "policy.decision",
                task=record.spec.task_id,
                job=outcome.parked.job_id,
                policy=f"dispatch:{self.policy.name}",
                decision="park",
                queued=outcome.parked.queued,
                released=len(outcome.launch),
            )
        elif outcome.picks:
            bus.emit(
                "policy.decision",
                policy=f"dispatch:{self.policy.name}",
                decision="release",
                picks=list(outcome.picks),
            )
        for released in outcome.launch:
            self._launch(released)

    def _launch(self, record: "TaskRecord") -> None:
        """Place one record and hand it to its node manager."""
        decision = self._place(record)
        options = record.spec.options
        attrs = {
            "policy": f"placement:{decision.policy}",
            "decision": "place",
            "stage": decision.stage,
            "candidates": decision.candidates,
        }
        if options.node is not None:
            attrs["affinity"] = options.node
        self.runtime.bus.emit(
            "policy.decision",
            task=record.spec.task_id,
            node=decision.node_id,
            job=options.job_id,
            **attrs,
        )
        self.runtime.bus.emit(
            "task.place",
            task=record.spec.task_id,
            node=decision.node_id,
            job=options.job_id,
        )
        self.runtime.node_managers[decision.node_id].submit(record)

    # -- job surface ---------------------------------------------------------
    def register_job(
        self,
        job_id: str,
        *,
        weight: float = 1.0,
        tenant: Optional[str] = None,
        tenant_task_slots: Optional[int] = None,
    ) -> None:
        """Enrol a job with the dispatch policy (fair sharing)."""
        self.policy.register_job(
            job_id,
            weight=weight,
            tenant=tenant,
            tenant_task_slots=tenant_task_slots,
        )

    def unregister_job(self, job_id: str) -> None:
        """Remove a finished job; any stragglers launch immediately."""
        outcome = self.policy.unregister_job(job_id, self.total_slots)
        self._enact(None, outcome)

    def queued_tasks(self, job_id: str) -> int:
        """How many of a job's tasks are parked awaiting a slot."""
        return self.policy.queued_tasks(job_id)

    def inflight_tasks(self, job_id: str) -> int:
        """How many of a job's tasks currently occupy slots."""
        return self.policy.inflight_tasks(job_id)

    # -- failure feedback ---------------------------------------------------
    def note_failure(self, node_id: NodeId) -> None:
        """Record a node failure; blacklist it for the cooldown window."""
        cooldown = self.runtime.config.blacklist_cooldown_s
        if cooldown > 0:
            self._blacklist_until[node_id] = self.runtime.env.now + cooldown

    def is_blacklisted(self, node_id: NodeId) -> bool:
        """True while ``node_id`` is inside its post-failure cooldown."""
        until = self._blacklist_until.get(node_id)
        if until is None:
            return False
        if self.runtime.env.now >= until:
            del self._blacklist_until[node_id]
            return False
        return True

    # -- placement ----------------------------------------------------------
    def place(self, record: "TaskRecord") -> NodeId:
        """Choose a node for ``record``; raises if the cluster is empty."""
        return self._place(record).node_id

    def _place(self, record: "TaskRecord") -> PlacementDecision:
        """Build the candidate views and ask the placement policy."""
        request, candidates = self.placement_view(record)
        return self.placement_policy.place(request, candidates)

    def placement_view(
        self, record: "TaskRecord"
    ) -> Tuple[PlacementRequest, Tuple[NodeCandidate, ...]]:
        """The policy-side view of one placement: the request plus one
        candidate per alive node (blacklist state, load, argument bytes
        resident in memory or on disk)."""
        runtime = self.runtime
        membership = runtime.membership
        # Removed members are out of the candidate pool entirely;
        # draining members stay in but are flagged blacklisted, so
        # placement avoids them yet can still fall back to them rather
        # than fail (exactly how post-failure cooldowns behave).
        alive = {
            node_id: manager
            for node_id, manager in runtime.node_managers.items()
            if manager.node.alive and membership.schedulable(node_id)
        }
        if not alive:
            raise SchedulingError("no alive nodes to schedule on")
        directory = runtime.directory
        sizes = directory.sizes
        bytes_by_node: Dict[NodeId, int] = defaultdict(int)
        for dep in record.spec.dependency_ids:
            held = directory.holders(dep)
            if held is None:
                continue
            memory_nodes, spill_nodes = held
            for node_id in memory_nodes:
                if node_id in alive:
                    bytes_by_node[node_id] += sizes[dep]
            for node_id in spill_nodes:
                if node_id in alive:
                    bytes_by_node[node_id] += sizes[dep]
        candidates = tuple(
            NodeCandidate(
                node_id=node_id,
                blacklisted=(
                    self.is_blacklisted(node_id)
                    or membership.is_draining(node_id)
                ),
                load=self._load(manager),
                arg_bytes=bytes_by_node.get(node_id, 0),
            )
            for node_id, manager in alive.items()
        )
        options = record.spec.options
        request = PlacementRequest(
            task_id=record.spec.task_id,
            affinity=options.node,
            job_id=options.job_id,
        )
        return request, candidates

    @staticmethod
    def _load(manager: object) -> float:
        return manager.pending_tasks / manager.node.spec.cores  # type: ignore[attr-defined]

