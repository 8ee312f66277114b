"""Schedules a :class:`~repro.chaos.spec.ChaosPlan` against a live runtime.

The injector is the bridge between the declarative fault specs and the
data plane's degradation knobs: node ``fail``/``restart``, compute
dilation, disk/NIC rate factors, fabric link administration, and direct
object-store loss.  All events are armed at construction time (after the
whole plan validates -- an invalid plan arms nothing), fire via the
simulation clock, and are logged in :attr:`ChaosInjector.injected` for
test assertions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.chaos.spec import ChaosPlan, FaultKind, FaultSpec
from repro.common.ids import NodeId
from repro.common.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.futures.runtime import Runtime
    from repro.futures.task import TaskSpec


class ChaosInjector:
    """Arms one :class:`ChaosPlan` against one :class:`Runtime`.

    Construction validates the *entire* plan first (raising ``ValueError``
    with zero events scheduled on any malformed fault), resolves every
    seeded victim, then schedules the fault onsets and recoveries on the
    runtime's simulation clock.  Straggler faults additionally install
    the runtime's ``task_delay_hook``.
    """

    def __init__(self, runtime: "Runtime", plan: ChaosPlan) -> None:
        self.runtime = runtime
        self.plan = plan
        self.env = runtime.env
        self.cluster = runtime.cluster
        num_nodes = len(self.cluster)
        plan.validate(num_nodes)
        #: Log of fired faults as ``(time, kind_value, node_id)`` tuples.
        self.injected: List[Tuple[float, str, Optional[NodeId]]] = []
        #: ``(fault_index, fault, victim_node_id_or_None)`` for straggler
        #: windows consulted by the task-delay hook.
        self._straggler_windows: List[
            Tuple[int, FaultSpec, Optional[NodeId]]
        ] = []
        for index, fault in enumerate(plan.faults):
            self._arm(index, fault, num_nodes)
        if self._straggler_windows:
            runtime.task_delay_hook = self._straggler_delay

    # -- scheduling ---------------------------------------------------------
    def _arm(self, index: int, fault: FaultSpec, num_nodes: int) -> None:
        if fault.kind is FaultKind.STRAGGLER:
            victim_id: Optional[NodeId] = None
            if fault.node_index is not None:
                victim_id = self.cluster.node_ids[fault.node_index]
            self._straggler_windows.append((index, fault, victim_id))
            self.env.call_later(
                fault.at_time,
                lambda: self._log(fault.kind, victim_id),
            )
            return
        if fault.kind is FaultKind.NODE_JOIN:
            self.env.call_later(fault.at_time, lambda: self._join(fault))
            return
        victim_index = self.plan.resolve_victim(index, fault, num_nodes)
        node = self.cluster.nodes[victim_index]
        if fault.kind is FaultKind.NODE_CRASH:
            self.env.call_later(fault.at_time, lambda: self._crash(fault, node))
        elif fault.kind is FaultKind.SLOW_NODE:
            self._arm_window(
                fault,
                node,
                start=lambda: node.set_compute_dilation(fault.severity),
                stop=lambda: node.set_compute_dilation(1.0),
            )
        elif fault.kind is FaultKind.DISK_STALL:
            self._arm_window(
                fault,
                node,
                start=lambda: node.degrade_disk(1.0 / fault.severity),
                stop=lambda: node.degrade_disk(1.0),
            )
        elif fault.kind is FaultKind.NET_DEGRADE:
            self._arm_window(
                fault,
                node,
                start=lambda: node.degrade_nic(1.0 / fault.severity),
                stop=lambda: node.degrade_nic(1.0),
            )
        elif fault.kind is FaultKind.LINK_DOWN:
            peer_index = self.plan.resolve_peer(
                index, fault, victim_index, num_nodes
            )
            peer = self.cluster.nodes[peer_index]
            self._arm_window(
                fault,
                node,
                start=lambda: self._set_link(node, peer, down=True),
                stop=lambda: self._set_link(node, peer, down=False),
            )
        elif fault.kind is FaultKind.OBJECT_LOSS:
            self.env.call_later(
                fault.at_time, lambda: self._lose_objects(index, fault, node)
            )
        elif fault.kind is FaultKind.NODE_DRAIN:
            self.env.call_later(fault.at_time, lambda: self._drain(fault, node))
        elif fault.kind is FaultKind.NODE_REMOVE:
            self.env.call_later(fault.at_time, lambda: self._remove(fault, node))
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unhandled fault kind {fault.kind}")

    def _arm_window(self, fault: FaultSpec, node: "Node", start, stop) -> None:
        """Schedule a start/stop pair around the fault window."""

        def begin() -> None:
            self._log(fault.kind, node.node_id)
            start()

        self.env.call_later(fault.at_time, begin)
        self.env.call_later(fault.at_time + fault.duration, stop)

    def _log(self, kind: FaultKind, node_id: Optional[NodeId]) -> Optional[int]:
        """Record a fired fault; returns the bus event's seq (for causal
        links)."""
        self.injected.append((self.env.now, kind.value, node_id))
        self.runtime.counters.add("chaos_faults_injected", 1)
        return self.runtime.bus.emit(
            "chaos.fault", node=node_id, fault=kind.value
        )

    # -- fault actions -------------------------------------------------------
    def _crash(self, fault: FaultSpec, node: "Node") -> None:
        seq = self._log(fault.kind, node.node_id)
        # Note the fault's event seq so the ensuing node.death (and the
        # task.retry events it triggers) link back to this fault causally.
        self.runtime.lineage.note_fault_cause(node.node_id, seq)
        node.fail()
        self.env.call_later(fault.duration, lambda: self._restart(node))

    def _restart(self, node: "Node") -> None:
        node.restart()
        self.runtime.bus.emit("node.restart", node=node.node_id)

    # -- churn actions (cluster elasticity) -----------------------------------
    def _join(self, fault: FaultSpec) -> None:
        """A fresh node joins the running cluster (elastic scale-up)."""
        node_id = self.runtime.add_node()
        self._log(fault.kind, node_id)

    def _drain(self, fault: FaultSpec, node: "Node") -> None:
        """Drain the victim now; remove it when the window closes.

        If the victim is no longer active (a colliding fault already
        retired it), the fault fires as a logged no-op -- random plans
        may overlap churn on one node, and half-applying a transition
        would be worse than skipping it.
        """
        seq = self._log(fault.kind, node.node_id)
        runtime = self.runtime
        if not runtime.membership.is_active(node.node_id):
            return
        runtime.drain_node(node.node_id)

        def finish() -> None:
            if runtime.membership.is_draining(node.node_id):
                runtime.remove_node(node.node_id, cause=seq)

        self.env.call_later(fault.duration, finish)

    def _remove(self, fault: FaultSpec, node: "Node") -> None:
        """Remove the victim immediately (planned departure).

        Like :meth:`_drain`, a victim that already departed makes the
        fault a logged no-op.
        """
        seq = self._log(fault.kind, node.node_id)
        runtime = self.runtime
        if runtime.membership.is_removed(node.node_id):
            return
        runtime.remove_node(node.node_id, cause=seq)

    def _set_link(self, a: "Node", b: "Node", down: bool) -> None:
        # The fault models a broken cable: both directions go together.
        if down:
            self.cluster.set_link_down(a.node_id, b.node_id)
            self.cluster.set_link_down(b.node_id, a.node_id)
        else:
            self.cluster.set_link_up(a.node_id, b.node_id)
            self.cluster.set_link_up(b.node_id, a.node_id)

    def _lose_objects(self, index: int, fault: FaultSpec, node: "Node") -> None:
        """Silently drop a seeded fraction of the victim's resident objects.

        Pinned store entries are exempt: their bytes are mid-read by an
        executing task or in-flight transfer, and real corruption there
        surfaces as a task/transfer failure, not silent loss.  Lost
        primaries become directory-*lost* objects, reconstructed on demand
        by lineage (or surfacing ``ObjectLostError`` for ``put()`` data).
        """
        fault_seq = self._log(fault.kind, node.node_id)
        runtime = self.runtime
        manager = runtime.node_managers[node.node_id]
        rng = seeded_rng(self.plan.seed, "chaos-objloss", index)
        lost = 0
        for oid in manager.store.objects():
            if manager.store.is_pinned(oid):
                continue
            if rng.random() < fault.severity:
                manager.store.free(oid)
                runtime.directory.remove_memory_location(oid, node.node_id)
                runtime.maybe_drop_payload(oid)
                runtime.lineage.note_object_fault(oid, fault_seq)
                lost += 1
        for oid in manager.spill.spilled_objects():
            if rng.random() < fault.severity:
                manager.spill.forget(oid)
                runtime.maybe_drop_payload(oid)
                runtime.lineage.note_object_fault(oid, fault_seq)
                lost += 1
        runtime.counters.add("chaos_objects_lost", lost)

    # -- straggler hook ------------------------------------------------------
    def _straggler_delay(self, spec: "TaskSpec", node_id: NodeId) -> float:
        """The runtime's ``task_delay_hook``: extra seconds for one attempt.

        Deterministic in (plan seed, fault index, task index, attempt
        number) -- independent of wall-clock event ordering, so the same
        plan taxes the same attempts every run.
        """
        now = self.env.now
        total = 0.0
        for index, fault, victim_id in self._straggler_windows:
            if victim_id is not None and node_id != victim_id:
                continue
            if not fault.at_time <= now < fault.at_time + fault.duration:
                continue
            rng = seeded_rng(
                self.plan.seed,
                "chaos-straggler",
                index,
                spec.task_id.index,
                spec.attempts,
            )
            if rng.random() < fault.probability:
                total += fault.severity
        return total
