"""Lineage-based reconstruction and fault-cause bookkeeping (§4.2.3).

:class:`LineageManager` owns everything the runtime does about failure:
reacting to node death, cleaning stale directory metadata after the
heartbeat timeout, re-executing interrupted or reconstructed tasks under
the configured :class:`~repro.futures.retry.RetryPolicy`, and the
chaos-causality plumbing that links retry events back to the fault that
triggered them.  :class:`~repro.futures.runtime.Runtime` delegates its
public fault-tolerance surface here, keeping the runtime itself to
wiring and the driver-facing API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import (
    ObjectLostError,
    RetryExhaustedError,
    TaskDeadlineError,
)
from repro.common.ids import NodeId, ObjectId
from repro.futures.refs import ObjectRef, make_ref
from repro.futures.task import TaskPhase, TaskRecord
from repro.simcore import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.futures.runtime import Runtime


class LineageManager:
    """Re-executes lost work from the driver-side lineage log."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        #: Chaos causality plumbing: fault event seqs noted by the
        #: injector before it kills a node / loses an object, consumed
        #: when the death or reconstruction is observed so retry events
        #: link back to the fault that caused them.
        self._fault_causes: Dict[NodeId, int] = {}
        self._object_fault_causes: Dict[ObjectId, int] = {}
        self._last_fault_event: Dict[NodeId, int] = {}

    # -- fault-cause notes --------------------------------------------------
    def note_fault_cause(self, node_id: NodeId, seq: Optional[int]) -> None:
        """Record the event seq of a fault about to kill ``node_id`` so
        the ensuing ``node.death`` links back to it (chaos injector)."""
        if seq is not None:
            self._fault_causes[node_id] = seq

    def note_object_fault(self, object_id: ObjectId, seq: Optional[int]) -> None:
        """Record the fault seq behind an object loss so the eventual
        reconstruction retry links back to it (chaos injector)."""
        if seq is not None:
            self._object_fault_causes[object_id] = seq

    def note_node_fault_event(self, node_id: NodeId, seq: Optional[int]) -> None:
        """Remember the latest death/executor-failure event on a node;
        retries of tasks assigned there default their cause to it."""
        if seq is not None:
            self._last_fault_event[node_id] = seq

    # -- node death ---------------------------------------------------------
    def on_node_death(self, node: "Node") -> None:
        """A node died: drop its local state now, clean directory
        metadata and re-execute casualties after the detection delay."""
        runtime = self.runtime
        manager = runtime.node_managers[node.node_id]
        casualties = manager.kill()
        lost_objects = runtime.directory_objects_on(node.node_id)
        runtime.counters.add("node_failures", 1)
        death_seq = runtime.bus.emit(
            "node.death",
            node=node.node_id,
            cause=self._fault_causes.pop(node.node_id, None),
            casualties=len(casualties),
            lost_objects=len(lost_objects),
        )
        self.note_node_fault_event(node.node_id, death_seq)
        runtime.scheduler.note_failure(node.node_id)
        runtime.env.call_later(
            runtime.config.failure_detection_s,
            lambda: self._after_failure_detected(
                node, casualties, lost_objects, death_seq
            ),
        )

    def _after_failure_detected(
        self,
        node: "Node",
        casualties: List[TaskRecord],
        lost_objects: List[ObjectId],
        cause: Optional[int] = None,
    ) -> None:
        """Heartbeat timeout elapsed: clean metadata and re-execute."""
        runtime = self.runtime
        for oid in lost_objects:
            runtime.directory.remove_memory_location(oid, node.node_id)
            runtime.directory.remove_spill_location(oid, node.node_id)
            runtime.maybe_drop_payload(oid)
        for record in casualties:
            if record.phase in (TaskPhase.FINISHED, TaskPhase.FAILED):
                continue
            self.resubmit(record, cause=cause)

    # -- re-execution -------------------------------------------------------
    def resubmit(self, record: TaskRecord, cause: Optional[int] = None) -> None:
        """Re-execute a task (lineage reconstruction, §4.2.3).

        The configured :class:`~repro.futures.retry.RetryPolicy` governs
        the re-execution: a task past its attempt budget or per-task
        deadline fails permanently with a typed error, and retries may be
        delayed by deterministic exponential backoff.  Every verdict is
        published as a ``policy.decision`` event.
        """
        runtime = self.runtime
        spec = record.spec
        policy = runtime.config.retry_policy
        if not policy.should_retry(spec.attempts):
            self._emit_decision(record, "give-up-attempts", spec.attempts)
            runtime.task_failed(
                record, RetryExhaustedError(spec.task_id, spec.attempts)
            )
            return
        if policy.deadline_exceeded(record.submitted_at, runtime.env.now):
            self._emit_decision(record, "give-up-deadline", spec.attempts)
            runtime.task_failed(
                record, TaskDeadlineError(spec.task_id, policy.task_deadline_s)
            )
            return
        runtime.charge_task(spec.options, "tasks_resubmitted", 1)
        # A reconstructed task re-enters flight (autoscale pressure);
        # interrupted casualties never left it, and the guard makes this
        # a no-op for them.
        runtime._note_task_inflight(record)
        if cause is None and record.assigned_node is not None:
            cause = self._last_fault_event.get(record.assigned_node)
        runtime.bus.emit(
            "task.retry",
            task=spec.task_id,
            job=spec.options.job_id,
            node=record.assigned_node,
            cause=cause,
            attempt=spec.attempts + 1,
        )
        directory = runtime.directory
        for oid in spec.return_ids:
            if oid in directory and not directory.is_available(oid):
                directory.mark_uncreated(oid)
        held: List[ObjectRef] = []
        for dep in dict.fromkeys(spec.dependency_ids):
            if dep not in directory:
                directory.register(dep, creator=directory.creator_of(dep))
            held.append(make_ref(runtime, dep))
            if not directory.is_available(dep):
                # Recursively arrange for the dependency to exist again.
                self.ensure_available(dep)
        stale, record.held_refs = record.held_refs, held
        for ref in stale:
            # A record interrupted mid-run still holds the previous
            # attempt's argument refs; release them or the arguments'
            # refcounts stay inflated forever.
            ref.release()
        delay = policy.backoff_s(max(1, spec.attempts), task_key=spec.task_id.index)
        self._emit_decision(record, "retry", spec.attempts + 1, backoff_s=delay)
        if delay > 0:
            # Claim the record now so racing consumers observing a
            # FINISHED/FAILED phase cannot double-resubmit it during the
            # backoff window.
            record.phase = TaskPhase.WAITING_DEPS
            runtime.counters.add("retry_backoff_s", delay)
            runtime.env.call_later(
                delay, lambda: runtime._schedule_when_ready(record)
            )
        else:
            runtime._schedule_when_ready(record)

    def _emit_decision(
        self,
        record: TaskRecord,
        choice: str,
        attempt: int,
        backoff_s: float = 0.0,
    ) -> None:
        """Publish one retry-policy verdict on the obs bus."""
        self.runtime.bus.emit(
            "policy.decision",
            task=record.spec.task_id,
            job=record.spec.options.job_id,
            node=record.assigned_node,
            policy="retry",
            decision=choice,
            attempt=attempt,
            backoff_s=backoff_s,
        )

    def ensure_available(self, object_id: ObjectId) -> Event:
        """An event that fires once the object has a live copy somewhere.

        Triggers lineage reconstruction for lost objects.  Fails with
        :class:`ObjectLostError` when reconstruction is impossible
        (``put()`` objects, truncated lineage, reconstruction disabled) or
        with the creating task's error if it failed.
        """
        runtime = self.runtime
        event = runtime.env.event()
        directory = runtime.directory
        if object_id not in directory:
            return event.fail(ObjectLostError(object_id, "freed"))
        error = directory.error_of(object_id)
        if error is not None:
            return event.fail(error)
        if directory.is_available(object_id):
            return event.succeed()
        creator_id = directory.creator_of(object_id)
        creator = (
            runtime.tasks.get(creator_id) if creator_id is not None else None
        )
        if creator is None:
            # put() objects and truncated lineage are unrecoverable.
            return event.fail(ObjectLostError(object_id, "no creating task"))
        if creator.phase in (TaskPhase.FINISHED, TaskPhase.FAILED):
            # The creator ran to completion but no copy survives -- either
            # the object was lost to a failure, or its record was dropped
            # (freed) and has been re-registered by a recovering consumer.
            # Either way the creator must run again.
            if not runtime.config.enable_lineage_reconstruction:
                return event.fail(ObjectLostError(object_id, "unreconstructable"))
            directory.mark_uncreated(object_id)
            # This is a true lineage *recompute* (re-running a finished
            # creator because no copy survives), counted separately from
            # interrupted-task resubmits -- the disaggregated spill tier
            # exists precisely to drive this number to zero.
            runtime.counters.add("lineage_reconstructions", 1)
            self.resubmit(
                creator, cause=self._object_fault_causes.pop(object_id, None)
            )
        # else: the creating task is in flight; its completion will fire.

        def on_ready(_oid: ObjectId, error: Optional[BaseException]) -> None:
            if event.triggered:
                return
            if error is not None:
                event.fail(error)
            else:
                event.succeed()

        directory.on_ready(object_id, on_ready)
        return event
