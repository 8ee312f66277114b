"""Global task placement and dispatch.

Ray's two-level scheduler balances bin-packing against load-balancing;
for shuffle what matters is (a) honouring the library's *soft
node-affinity* hints (merge tasks pinned near their future reduce
tasks), (b) data locality (run a task where most of its argument bytes
already live), and (c) spreading everything else across alive nodes by
load.  Draining nodes are avoided while any other node remains.

:func:`choose_node` is that placement rule, a pure function over one
plain row per alive node; the scheduler builds the rows
(:meth:`Scheduler.placement_view`), asks its
:class:`~repro.futures.policies.FairShareDispatchPolicy` *when* a task
launches, publishes a ``policy.decision`` event for each choice, and
enacts it.  Placement happens when a task's dependencies are all
created, so locality information is fresh.

Fair sharing is the only dispatch path.  Work of a job registered
through the job surface (the multi-tenant control plane,
:mod:`repro.jobs`) queues for weighted virtual-time release; all other
work launches at once and publishes no dispatch decision.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.common.errors import SchedulingError
from repro.common.ids import NodeId
from repro.futures.policies.defaults import (
    DispatchOutcome,
    FairShareDispatchPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.futures.runtime import Runtime
    from repro.futures.task import TaskRecord

#: One alive node as placement sees it: ``(node, avoid, load,
#: arg_bytes)``.  ``avoid`` marks a draining node; ``load`` is queued
#: tasks per core; ``arg_bytes`` counts the task's argument bytes
#: resident there (memory or disk).
PlacementRow = Tuple[NodeId, bool, float, int]


def choose_node(
    rows: Sequence[PlacementRow],
    affinity: Optional[NodeId],
    policy: str = "default",
) -> Tuple[NodeId, str]:
    """Pick one of ``rows`` (never empty) and name the step that decided.

    Avoided (draining) nodes are skipped while any other remains
    (availability beats a graceful departure).  Under ``"default"``, a
    hinted node among the rest wins (``"affinity"``: the hint is soft,
    so a dead or draining hint falls through), then the node holding the
    most argument bytes (``"locality"``, ties by load then id);
    otherwise, and always under ``"load-only"``, the least-loaded node
    (``"least-loaded"``, ties by id).
    """
    pool = [row for row in rows if not row[1]] or rows
    if policy == "default":
        if affinity is not None:
            for row in pool:
                if row[0] == affinity:
                    return row[0], "affinity"
        local = [row for row in pool if row[3] > 0]
        if local:
            best = min(local, key=lambda row: (-row[3], row[2], row[0]))
            return best[0], "locality"
    return min(pool, key=lambda row: (row[2], row[0]))[0], "least-loaded"


class Scheduler:
    """Places and launches dependency-ready tasks."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        #: Where tasks run (``RuntimeConfig.placement_policy``).
        self.placement_policy = runtime.config.placement_policy
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
        node_id, stage, candidates = self._place(record)
        options = record.spec.options
        attrs = {
            "policy": f"placement:{self.placement_policy}",
            "decision": "place",
            "stage": stage,
            "candidates": candidates,
        }
        if options.node is not None:
            attrs["affinity"] = options.node
        self.runtime.bus.emit(
            "policy.decision",
            task=record.spec.task_id,
            node=node_id,
            job=options.job_id,
            **attrs,
        )
        self.runtime.bus.emit(
            "task.place",
            task=record.spec.task_id,
            node=node_id,
            job=options.job_id,
        )
        self.runtime.node_managers[node_id].submit(record)

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

    # -- placement ----------------------------------------------------------
    def place(self, record: "TaskRecord") -> NodeId:
        """Choose a node for ``record``; raises if the cluster is empty."""
        return self._place(record)[0]

    def _place(self, record: "TaskRecord") -> Tuple[NodeId, str, int]:
        """The chosen node, the deciding step and how many rows competed."""
        rows = self.placement_view(record)
        node_id, stage = choose_node(
            rows, record.spec.options.node, self.placement_policy
        )
        return node_id, stage, len(rows)

    def placement_view(self, record: "TaskRecord") -> Tuple[PlacementRow, ...]:
        """One :data:`PlacementRow` per alive node for ``record``."""
        runtime = self.runtime
        membership = runtime.membership
        # Removed members are out of the candidate pool entirely;
        # draining members stay in but are avoided, so placement skips
        # them yet can still fall back to them rather than fail.
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
        return tuple(
            (
                node_id,
                membership.is_draining(node_id),
                manager.pending_tasks / manager.node.spec.cores,
                bytes_by_node.get(node_id, 0),
            )
            for node_id, manager in alive.items()
        )
