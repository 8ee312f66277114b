"""The distributed-futures runtime: Ray-as-the-paper-describes-it.

:class:`Runtime` wires the pieces together: one :class:`NodeManager` per
cluster node (object store + spill manager + executors), the global object
directory, the scheduler, lineage-based reconstruction, and the driver
host.  Its public surface is the Ray-style API used throughout the paper's
listings:

- ``runtime.remote(fn, **options)`` / ``fn.options(...)`` / ``.remote()``
- ``runtime.get(refs)``, ``runtime.wait(refs, ...)``, ``runtime.put(v)``
- ``runtime.run(driver_fn)`` to execute a blocking driver program
- ``runtime.free(refs)`` for eager eviction (the ``del`` in Listing 3)

Fault tolerance follows §4.2.3: the driver-side lineage (all task specs)
is replayed to reconstruct lost objects; executor failures lose no objects
because stores belong to node managers, and node failures trigger
re-execution after a detection delay.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.fabric import Cluster
from repro.cluster.membership import ClusterMembership
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.common.errors import ObjectLostError
from repro.common.ids import IdGenerator, NodeId, ObjectId, TaskId
from repro.futures.config import RuntimeConfig
from repro.futures.directory import ObjectDirectory
from repro.futures.driver import DriverHandle, DriverHost
from repro.futures.lineage import LineageManager
from repro.futures.node_manager import NodeManager
from repro.futures.policies.registry import PolicyStack, resolve_policies
from repro.futures.refs import ObjectRef, make_ref, weak_release
from repro.futures.remote import RemoteFunction
from repro.futures.scheduler import Scheduler
from repro.futures.sizing import size_of
from repro.futures.task import (
    Arg,
    PlainArg,
    RefArg,
    TaskOptions,
    TaskPhase,
    TaskRecord,
    TaskSpec,
)
from repro.obs.events import EventBus
from repro.obs.registry import UNATTRIBUTED, MetricRegistry
from repro.simcore import BandwidthResource, Environment, Event

#: Job dimension for work carrying no job id (plain single-driver runs,
#: or background restores not tied to any task).
UNATTRIBUTED_JOB = UNATTRIBUTED


class Runtime:
    """A simulated Ray cluster plus the driver-facing API."""

    def __init__(
        self,
        cluster: Union[Cluster, ClusterSpec],
        config: Optional[RuntimeConfig] = None,
        env: Optional[Environment] = None,
    ) -> None:
        self.env = env or Environment()
        if isinstance(cluster, ClusterSpec):
            cluster = Cluster(self.env, cluster)
        elif cluster.env is not self.env:
            raise ValueError("cluster and runtime must share an Environment")
        self.cluster = cluster
        self.config = config or RuntimeConfig()
        self.ids: IdGenerator = cluster.ids
        #: Structured event bus (repro.obs): every subsystem publishes
        #: typed, causally linked events here; exported by the tracer
        #: and the run reporter.
        self.bus = EventBus(clock=lambda: self.env.now)
        #: The one accounting store: dimensioned counters, gauges and
        #: histograms.  ``counters`` is its global series (a bare
        #: ``counters.add`` charges no job); :meth:`job_stats` reads its
        #: job axis.
        self.metrics = MetricRegistry()
        self.counters = self.metrics.counters
        #: The resolved policy stack (placement, spill, autoscale) named
        #: by the config and instantiated from the registry; the
        #: scheduler and every node manager consult it.
        self.policies: PolicyStack = resolve_policies(self.config)
        #: Fault tolerance: node-death handling, retry pacing, and
        #: lineage reconstruction (§4.2.3) live here.
        self.lineage = LineageManager(self)
        self.payloads: Dict[ObjectId, Any] = {}
        #: The release callback shared by every :class:`ObjectRef` this
        #: runtime hands out (weak: a dangling ref never keeps it alive).
        self.release_ref = weak_release(self)
        self.directory = ObjectDirectory(on_refcount_zero=self._evict_object)
        self.tasks: Dict[TaskId, TaskRecord] = {}
        #: Objects that submitted-but-unfinished tasks will consume.  The
        #: spill managers treat these as spill-of-last-resort: spilling a
        #: block a pending consumer is about to read forces an immediate
        #: restore (write + read for nothing).
        self._pending_consumers: Dict[ObjectId, int] = {}
        #: The disaggregated spill tier (``spill_backend="shared"``): one
        #: cluster-wide byte server, tied to no node, whose contents the
        #: directory's shared flag records.  None spills to local disks.
        self.shared_store: Optional[BandwidthResource] = None
        if self.config.spill_backend == "shared":
            self.shared_store = BandwidthResource(
                self.env,
                self.config.shared_store_bandwidth_bytes_per_sec,
                per_op_latency=self.config.shared_store_latency_s,
                name="shared-store",
            )
        #: Mid-run cluster elasticity: per-node lifecycle state (active /
        #: draining / removed) behind :meth:`add_node` /
        #: :meth:`drain_node` / :meth:`remove_node`.
        self.membership = ClusterMembership(cluster.node_ids)
        #: Cluster size at construction; the autoscaler's default growth
        #: ceiling when ``autoscale_max_nodes`` is 0.
        self._initial_node_count = len(cluster)
        #: Submitted-but-unfinished tasks, cluster-wide (autoscale input).
        self._inflight_tasks = 0
        #: Whether an autoscale decision point is already scheduled; the
        #: flag debounces ticks so at most one timer is pending.  Never
        #: set while ``autoscale_policy == "none"``, so static runs
        #: schedule no extra simulation events at all.
        self._autoscaler_armed = False
        self.node_managers: Dict[NodeId, NodeManager] = {}
        for node in cluster:
            manager = NodeManager(self, node)
            self.node_managers[node.node_id] = manager
            node.on_death(self.lineage.on_node_death)
        self.scheduler = Scheduler(self)
        self.driver_node_id: NodeId = cluster.node_ids[0]
        self._driver = DriverHost(self.env, bus=self.bus)
        #: Optional chaos hook: ``hook(spec, node_id) -> extra_seconds``
        #: taxes a task attempt with additional latency (straggler
        #: injection).  Installed by :class:`repro.chaos.ChaosInjector`.
        self.task_delay_hook: Optional[Callable[[TaskSpec, NodeId], float]] = None
        #: Duck-typed planning-surface slot, set by
        #: :meth:`attach_planner` (normally via
        #: ``repro.plan.planner_for_runtime`` when ``config.replan`` is
        #: on).  The data plane never imports the plan layer: drivers
        #: announce :meth:`stage_boundary` and whatever planner is
        #: attached decides whether to re-plan.
        self.planner: Optional[Any] = None

    # -- construction helpers -------------------------------------------------
    @classmethod
    def create(
        cls,
        node_spec: NodeSpec,
        num_nodes: int,
        config: Optional[RuntimeConfig] = None,
    ) -> "Runtime":
        """A homogeneous cluster runtime in one call."""
        env = Environment()
        cluster = Cluster.homogeneous(env, node_spec, num_nodes)
        return cls(cluster, config=config, env=env)

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def driver_manager(self) -> NodeManager:
        return self.node_managers[self.driver_node_id]

    # -- remote functions ---------------------------------------------------
    def remote(self, fn: Any = None, **options: Any) -> Any:
        """Declare a remote function; usable as a decorator.

        ``rt.remote(fn)`` or ``@rt.remote(num_returns=4, compute=1.5)``.
        """
        if fn is None:
            task_options = TaskOptions(**options)

            def decorate(inner_fn: Any) -> RemoteFunction:
                return RemoteFunction(self, inner_fn, task_options)

            return decorate
        return RemoteFunction(self, fn, TaskOptions(**options))

    def actor(self, cls: Any, **options: Any) -> Any:
        """Declare an actor class (Listing 2's ``trainer`` pattern).

        ``rt.actor(Trainer).options(node=n).remote(args)`` returns a
        handle whose method calls are tasks serialised on the actor.
        """
        from repro.futures.actor import ActorClass

        return ActorClass(self, cls, TaskOptions(**options))

    # -- per-job accounting ---------------------------------------------------
    def charge_task(
        self, options: TaskOptions, name: str, amount: float = 1.0
    ) -> None:
        """Increment a counter globally *and* on the owning job's series.

        Every task-attributable counter must go through here (not
        ``self.counters.add``, which charges the global series only) so
        per-job values sum exactly to the global totals -- the
        accounting invariant the chaos checker asserts.
        """
        job_id = options.job_id
        self.metrics.counter(
            name, amount, job=job_id if job_id is not None else UNATTRIBUTED_JOB
        )

    def charge_object(
        self, object_id: ObjectId, name: str, amount: float = 1.0
    ) -> None:
        """An object-attributed charge (spill bytes): the object maps back
        to its creating task's job, and the amount is charged globally
        and to that job together."""
        job_id: Optional[str] = None
        creator = self.directory.creator_of(object_id)
        if creator is not None:
            record = self.tasks.get(creator)
            if record is not None:
                job_id = record.spec.options.job_id
        self.metrics.counter(
            name, amount, job=job_id if job_id is not None else UNATTRIBUTED_JOB
        )

    # -- submission (driver-side, non-blocking) -----------------------------
    def submit_task(
        self,
        fn: Any,
        args: Sequence[Any],
        options: TaskOptions,
        fn_name: str,
        is_generator: bool,
    ) -> List[ObjectRef]:
        """Create and schedule one task (the ``.remote()`` entry point);
        returns one ref per declared return."""
        if options.job_id is None:
            # Attribute work to the submitting driver: the jobs layer runs
            # each job as a labeled subdriver, so its task graph is tagged
            # without libraries knowing about jobs at all.
            label = self._driver.current_label()
            if label is not None:
                options = dataclasses.replace(options, job_id=label)
        task_id = self.ids.next_task_id()
        return_ids = tuple(
            self.ids.next_object_id() for _ in range(options.num_returns)
        )
        arg_descs: List[Arg] = []
        held_refs: List[ObjectRef] = []
        for arg in args:
            if isinstance(arg, ObjectRef):
                if arg.object_id not in self.directory:
                    raise ObjectLostError(arg.object_id, "argument already freed")
                arg_descs.append(RefArg(arg.object_id))
                held_refs.append(make_ref(self, arg.object_id))
            else:
                arg_descs.append(PlainArg(arg))
        spec = TaskSpec(
            task_id=task_id,
            fn=fn,
            fn_name=fn_name,
            args=tuple(arg_descs),
            options=options,
            return_ids=return_ids,
            is_generator=is_generator,
        )
        record = TaskRecord(spec, held_refs=held_refs, submitted_at=self.env.now)
        self.tasks[task_id] = record
        for oid in return_ids:
            self.directory.register(oid, creator=task_id)
        refs = [make_ref(self, oid) for oid in return_ids]
        self.charge_task(options, "tasks_submitted", 1)
        self._note_task_inflight(record)
        self.bus.emit(
            "task.submit",
            task=task_id,
            job=options.job_id,
            fn=fn_name,
            returns=return_ids,
            deps=spec.dependency_ids,
        )
        self._schedule_when_ready(record)
        return refs

    def has_pending_consumer(self, object_id: ObjectId) -> bool:
        """True if a submitted-but-unfinished task will consume this object
        (spill managers treat such objects as last-resort victims)."""
        return self._pending_consumers.get(object_id, 0) > 0

    def _count_consumers(self, record: TaskRecord, delta: int) -> None:
        for oid in record.spec.dependency_ids:
            count = self._pending_consumers.get(oid, 0) + delta
            if count > 0:
                self._pending_consumers[oid] = count
            else:
                self._pending_consumers.pop(oid, None)

    def _schedule_when_ready(self, record: TaskRecord) -> None:
        """Dispatch once every dependency object is created."""
        if not record.counted:
            record.counted = True
            self._count_consumers(record, +1)
        record.phase = TaskPhase.WAITING_DEPS
        deps = list(dict.fromkeys(record.spec.dependency_ids))
        pending = [oid for oid in deps if not self.directory.is_created(oid)]
        record.pending_deps = len(pending)
        if record.pending_deps == 0:
            self._dispatch(record)
            return

        def on_dep_ready(_oid: ObjectId, error: Optional[BaseException]) -> None:
            if record.phase is not TaskPhase.WAITING_DEPS:
                return
            if error is not None:
                self.task_failed(record, error)
                return
            record.pending_deps -= 1
            if record.pending_deps == 0:
                self._dispatch(record)

        for oid in pending:
            self.directory.on_ready(oid, on_dep_ready)

    def _dispatch(self, record: TaskRecord) -> None:
        self.scheduler.dispatch(record)

    # -- task completion callbacks (from NodeManager) -------------------------
    def task_finished(self, record: TaskRecord) -> None:
        """NodeManager callback: release the finished task's argument refs."""
        self._note_task_settled(record)
        if record.counted:
            record.counted = False
            self._count_consumers(record, -1)
        for ref in record.held_refs:
            ref.release()
        record.held_refs = []
        self.scheduler.task_done(record)

    def task_failed(self, record: TaskRecord, error: BaseException) -> None:
        """NodeManager callback: mark returns failed, release arguments."""
        self._note_task_settled(record)
        record.phase = TaskPhase.FAILED
        record.finished_at = self.env.now
        if record.counted:
            record.counted = False
            self._count_consumers(record, -1)
        self.charge_task(record.spec.options, "tasks_failed", 1)
        self.bus.emit(
            "task.fail",
            task=record.spec.task_id,
            job=record.spec.options.job_id,
            node=record.assigned_node,
            error=type(error).__name__,
        )
        for oid in record.spec.return_ids:
            self.directory.mark_failed(oid, error)
        for ref in record.held_refs:
            ref.release()
        record.held_refs = []
        self.scheduler.task_done(record)

    # -- reference counting & eviction -----------------------------------------
    def incref(self, object_id: ObjectId) -> None:
        """Add one reference to an object (used by ObjectRef creation)."""
        self.directory.incref(object_id)

    def decref(self, object_id: ObjectId) -> None:
        """Drop one reference; at zero the object is evicted everywhere."""
        self.directory.decref(object_id)

    def free(self, refs: Sequence[ObjectRef]) -> None:
        """Eagerly release references (equivalent to ``del`` in Listing 3)."""
        for ref in refs:
            ref.release()

    def retain_until(
        self, refs: Sequence[ObjectRef], until: Sequence[ObjectRef]
    ) -> None:
        """Keep ``refs`` alive until every object in ``until`` is created.

        This is how a shuffle library keeps intermediate blocks around for
        recovery durability (ES-push, §4.3.1) without blocking: the extra
        references die as soon as the downstream results exist.
        """
        holder = [make_ref(self, ref.object_id) for ref in refs]
        remaining = {"count": len(until)}
        if remaining["count"] == 0:
            for held in holder:
                held.release()
            return

        def on_ready(_oid: ObjectId, _error: Optional[BaseException]) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                for held in holder:
                    held.release()

        for ref in until:
            self.directory.on_ready(ref.object_id, on_ready)

    def _evict_object(self, object_id: ObjectId) -> None:
        held = self.directory.holders(object_id)
        if held is None:
            return
        memory_nodes, spill_nodes = held
        # Each holding store frees once, in ascending node order.
        for node_id in memory_nodes:
            manager = self.node_managers.get(node_id)
            if manager is not None:
                manager.store.free(object_id)
        for node_id in list(spill_nodes):
            manager = self.node_managers.get(node_id)
            if manager is not None:
                manager.spill.forget(object_id)
        self.payloads.pop(object_id, None)
        self.directory.drop(object_id)
        self.counters.add("objects_evicted", 1)
        self.bus.emit("object.evict", obj=object_id)

    def maybe_drop_payload(self, object_id: ObjectId) -> None:
        """Drop the Python payload if no copy survives anywhere."""
        if not self.directory.is_available(object_id):
            self.payloads.pop(object_id, None)

    # -- fault tolerance (delegated to the LineageManager) --------------------
    def note_fault_cause(self, node_id: NodeId, seq: Optional[int]) -> None:
        """Record the event seq of a fault about to kill ``node_id`` so
        the ensuing ``node.death`` links back to it (chaos injector)."""
        self.lineage.note_fault_cause(node_id, seq)

    def note_object_fault(self, object_id: ObjectId, seq: Optional[int]) -> None:
        """Record the fault seq behind an object loss so the eventual
        reconstruction retry links back to it (chaos injector)."""
        self.lineage.note_object_fault(object_id, seq)

    def directory_objects_on(self, node_id: NodeId) -> List[ObjectId]:
        """Objects the directory currently places (in any form) on a node."""
        holds = self.directory.holds
        return [oid for oid in list(self.payloads) if holds(oid, node_id)]

    def resubmit_task(
        self, record: TaskRecord, cause: Optional[int] = None
    ) -> None:
        """Public entry for re-executing an interrupted task (used by
        executor-failure handling; node failures go through the
        detection path).  ``cause`` is the triggering fault's event seq."""
        self.lineage.resubmit(record, cause=cause)

    def ensure_available(self, object_id: ObjectId) -> Event:
        """An event that fires once the object has a live copy somewhere
        (triggering lineage reconstruction for lost objects; see
        :meth:`LineageManager.ensure_available`)."""
        return self.lineage.ensure_available(object_id)

    # -- cluster elasticity ---------------------------------------------------
    def _note_task_inflight(self, record: TaskRecord) -> None:
        """A task entered (or re-entered) flight: count it toward
        autoscale pressure and make sure a decision point is pending.
        Guarded by ``record.in_flight`` so each live episode counts
        exactly once."""
        if not record.in_flight:
            record.in_flight = True
            self._inflight_tasks += 1
        self._maybe_arm_autoscaler()

    def _note_task_settled(self, record: TaskRecord) -> None:
        """A task reached a terminal phase: stop counting it."""
        if record.in_flight:
            record.in_flight = False
            self._inflight_tasks -= 1

    def add_node(self, node_spec: Optional[NodeSpec] = None) -> NodeId:
        """Join a new node to the running cluster (elastic scale-up).

        Provisions the node in the fabric, builds its manager, registers
        the usual death handling, and announces the join on the event
        bus.  The scheduler sees the node as a placement candidate from
        the next dependency-ready task onward.  Defaults to the spec of
        the cluster's first founding node (homogeneous growth).
        """
        spec = node_spec or self.cluster.spec.nodes[0]
        node = self.cluster.add_node(spec)
        manager = NodeManager(self, node)
        self.node_managers[node.node_id] = manager
        node.on_death(self.lineage.on_node_death)
        self.membership.add(node.node_id)
        self.counters.add("nodes_added", 1)
        self.bus.emit(
            "cluster.membership",
            node=node.node_id,
            action="join",
            active=self.membership.active_count(),
        )
        return node.node_id

    def drain_node(self, node_id: NodeId) -> None:
        """Begin a graceful departure: the node finishes what it is
        running but receives no new placements (it behaves like a
        blacklisted node).  The autoscaler -- or an explicit
        :meth:`remove_node` call -- completes the departure once the
        node is idle.  The driver node may never drain."""
        if node_id == self.driver_node_id:
            raise ValueError("cannot drain the driver node")
        self.membership.drain(node_id)
        self.counters.add("nodes_drained", 1)
        self.bus.emit(
            "cluster.membership",
            node=node_id,
            action="drain",
            active=self.membership.active_count(),
        )

    def remove_node(
        self, node_id: NodeId, cause: Optional[int] = None
    ) -> None:
        """Complete a node's departure (from active or draining).

        This is a *planned* removal, unlike a crash: resident work is
        interrupted and resubmitted immediately, and directory metadata
        is cleaned right away -- there is no heartbeat-timeout detection
        delay and no scheduler blacklisting.  Objects whose only copies
        lived here become reconstruction work for the lineage manager,
        unless the shared spill tier still holds them
        (``spill_backend="shared"``), in which case consumers simply
        read them back.  ``cause`` optionally links the ensuing retry
        events to a triggering fault/chaos event.
        """
        if node_id == self.driver_node_id:
            raise ValueError("cannot remove the driver node")
        manager = self.node_managers[node_id]
        self.membership.remove(node_id)
        casualties = manager.kill()
        lost_objects = self.directory_objects_on(node_id)
        # Planned departure: no death listeners, no detection delay.
        manager.node.retire()
        departure_seq = self.bus.emit(
            "cluster.membership",
            node=node_id,
            action="remove",
            cause=cause,
            casualties=len(casualties),
            lost_objects=len(lost_objects),
            active=self.membership.active_count(),
        )
        seq = departure_seq if departure_seq is not None else cause
        self.lineage.note_node_fault_event(node_id, seq)
        self.counters.add("nodes_removed", 1)
        for oid in lost_objects:
            self.directory.remove_memory_location(oid, node_id)
            self.directory.remove_spill_location(oid, node_id)
            self.maybe_drop_payload(oid)

        def requeue() -> None:
            # After the interrupts have unwound the dying task processes.
            for record in casualties:
                if record.phase not in (TaskPhase.FINISHED, TaskPhase.FAILED):
                    self.lineage.resubmit(record, cause=seq)

        self.env.call_later(0.0, requeue)

    def _maybe_arm_autoscaler(self) -> None:
        """Schedule one autoscale decision point, if none is pending.

        A no-op under ``autoscale_policy="none"`` -- the elasticity plane
        then adds zero simulation events, keeping static runs
        event-for-event identical to the seed (pinned by the golden
        digest tests).
        """
        if self._autoscaler_armed:
            return
        if self.policies.autoscale.name == "none":
            return
        self._autoscaler_armed = True
        self.env.call_later(
            self.config.autoscale_interval_s, self._autoscale_tick
        )

    def _autoscale_view(self) -> "AutoscaleView":
        """Aggregate cluster pressure for the autoscale policy."""
        from repro.futures.policies.base import AutoscaleView

        queued_allocations = sum(
            manager.store.backlog
            for node_id, manager in self.node_managers.items()
            if self.membership.is_active(node_id) and manager.node.alive
        )
        return AutoscaleView(
            now=self.env.now,
            active_nodes=self.membership.active_count(),
            draining_nodes=self.membership.draining_count(),
            pending_tasks=max(0, self._inflight_tasks),
            queued_allocations=queued_allocations,
            total_slots=self.scheduler.total_slots,
            min_nodes=self.config.autoscale_min_nodes,
            max_nodes=self.config.autoscale_max_nodes
            or self._initial_node_count,
        )

    def _autoscale_tick(self) -> None:
        """One debounced autoscale decision point.

        Completes pending drains whose nodes went idle, asks the policy
        to grow/shrink/hold, enacts the answer, and re-arms while work
        (or a drain) is still outstanding -- so the timer chain always
        terminates and ``env.run()`` can drain the event queue.
        """
        self._autoscaler_armed = False
        self._complete_drains()
        view = self._autoscale_view()
        decision = self.policies.autoscale.decide(view)
        if decision.action not in ("grow", "shrink", "hold"):
            raise ValueError(
                f"autoscale policy returned unknown action {decision.action!r}"
            )
        if decision.action != "hold":
            self.bus.emit(
                "policy.decision",
                policy=f"autoscale:{self.policies.autoscale.name}",
                decision=decision.action,
                count=decision.count,
                reason=decision.reason,
            )
        if decision.action == "grow":
            for _ in range(max(1, decision.count)):
                self.add_node()
        elif decision.action == "shrink":
            for _ in range(max(1, decision.count)):
                victim = self._pick_drain_victim()
                if victim is None:
                    break
                self.drain_node(victim)
        if self._inflight_tasks > 0 or self.membership.draining_count() > 0:
            self._maybe_arm_autoscaler()

    def _complete_drains(self) -> None:
        """Remove draining nodes that have finished their resident work."""
        for node_id in self.membership.draining_nodes():
            manager = self.node_managers[node_id]
            if manager.pending_tasks == 0:
                self.remove_node(node_id)

    def _pick_drain_victim(self) -> Optional[NodeId]:
        """The active non-driver node to drain on a shrink decision:
        fewest pending tasks, newest first on ties (scale-in releases
        the most recently added capacity, like cloud autoscalers)."""
        candidates = [
            node_id
            for node_id in self.membership.active_nodes()
            if node_id != self.driver_node_id
            and self.node_managers[node_id].node.alive
        ]
        if not candidates:
            return None
        order = {node_id: i for i, node_id in enumerate(self.node_managers)}
        return min(
            candidates,
            key=lambda nid: (
                self.node_managers[nid].pending_tasks,
                -order[nid],
            ),
        )

    # -- driver-facing blocking API ------------------------------------------
    def run(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        """Execute ``fn`` as the driver program; returns its result.

        Simulated time advances while the driver blocks; ``runtime.now``
        after ``run`` returns is the job completion time.
        """
        return self._driver.run(fn, *args, **kwargs)

    def get(self, refs: Union[ObjectRef, Sequence[ObjectRef]]) -> Any:
        """Fetch object values to the driver (blocking)."""
        single = isinstance(refs, ObjectRef)
        ref_list = [refs] if single else list(refs)
        for ref in ref_list:
            if not isinstance(ref, ObjectRef):
                raise TypeError(f"get expects ObjectRefs, got {type(ref).__name__}")
        proc = self.env.process(
            self._get_proc([ref.object_id for ref in ref_list]), name="driver-get"
        )
        values = self._driver.block_on(proc)
        return values[0] if single else values

    def _get_proc(self, object_ids: List[ObjectId]) -> Iterator[Event]:
        manager = self.driver_manager
        values: List[Any] = []
        for oid in object_ids:
            yield self.ensure_available(oid)
            state = yield from manager.ensure_local(oid)
            if state == "memory":
                manager.store.unpin(oid)
            else:
                # Resident only on the driver node's disk: stream it in.
                yield manager.spill.restore_read(oid)
            values.append(self.payloads[oid])
        return values

    def wait(
        self,
        refs: Sequence[ObjectRef],
        num_returns: int = 1,
        timeout: Optional[float] = None,
    ) -> Tuple[List[ObjectRef], List[ObjectRef]]:
        """Block until ``num_returns`` of ``refs`` are computed (§3.1).

        Returns ``(ready, not_ready)`` preserving input order.  Objects
        whose task failed count as ready (their ``get`` raises), matching
        Ray.  Does not fetch values -- this is the pipelining/backpressure
        primitive of Listing 3 L22.
        """
        ref_list = list(refs)
        if not 1 <= num_returns <= len(ref_list):
            raise ValueError(
                f"num_returns={num_returns} out of range for {len(ref_list)} refs"
            )
        done = self.env.event()
        state = {"ready": 0}

        def on_ready(_oid: ObjectId, _error: Optional[BaseException]) -> None:
            state["ready"] += 1
            if state["ready"] >= num_returns and not done.triggered:
                done.succeed()

        for ref in ref_list:
            if ref.object_id in self.directory:
                self.directory.on_ready(ref.object_id, on_ready)
            else:
                on_ready(ref.object_id, None)
        if not done.triggered and timeout is not None:
            wake: Event = self.env.any_of([done, self.env.timeout(timeout)])
        else:
            wake = done
        self._driver.block_on(wake)
        ready, not_ready = [], []
        directory = self.directory
        for ref in ref_list:
            oid = ref.object_id
            is_ready = (
                oid not in directory
                or directory.is_created(oid)
                or directory.error_of(oid) is not None
            )
            (ready if is_ready else not_ready).append(ref)
        return ready, not_ready

    def put(self, value: Any) -> ObjectRef:
        """Store a driver-local value in the object store (blocking)."""
        object_id = self.ids.next_object_id()
        self.directory.register(object_id, creator=None)
        ref = make_ref(self, object_id)
        proc = self.env.process(self._put_proc(object_id, value), name="driver-put")
        self._driver.block_on(proc)
        return ref

    def _put_proc(self, object_id: ObjectId, value: Any) -> Iterator[Event]:
        manager = self.driver_manager
        size = size_of(value)
        self.payloads[object_id] = value
        allocation = manager.store.allocate(object_id, size, primary=True)
        placement = yield allocation
        if placement == "memory":
            self.directory.add_memory_location(object_id, manager.node_id)
        self.directory.mark_created(object_id, size)
        self.bus.emit(
            "object.create", obj=object_id, node=manager.node_id, bytes=size
        )

    def replicate(self, refs: Sequence[ObjectRef], copies: int = 2) -> None:
        """Ensure each object has at least ``copies`` durable copies on
        distinct alive nodes (blocking; driver-side).

        This is the §4.2.3 replica-tuning knob the paper sketches as
        future work: the application chooses extra redundancy for blocks
        it cannot afford to reconstruct.  Replicas are *primary* entries
        on their nodes, so memory pressure spills them instead of
        dropping them.
        """
        if copies < 1:
            raise ValueError("need at least one copy")
        proc = self.env.process(
            self._replicate_proc([ref.object_id for ref in refs], copies),
            name="driver-replicate",
        )
        self._driver.block_on(proc)

    def _replicate_proc(
        self, object_ids: List[ObjectId], copies: int
    ) -> Iterator[Event]:
        for oid in object_ids:
            yield self.ensure_available(oid)
            if oid not in self.directory:
                continue
            existing = {
                nid
                for nid in self.directory.locations(oid)
                if self.node_managers[nid].node.alive
            }
            targets = [
                nid
                for nid in sorted(self.node_managers)
                if nid not in existing and self.node_managers[nid].node.alive
            ]
            for nid in targets[: max(0, copies - len(existing))]:
                manager = self.node_managers[nid]
                state = yield from manager.ensure_local(oid)
                # Promote the copy to primary: it now spills under
                # pressure rather than being dropped.
                manager.store.try_allocate(
                    oid, self.directory.sizes[oid], primary=True
                )
                if state == "memory":
                    manager.store.unpin(oid)
                self.counters.add("replicas_created", 1)

    def peek(self, ref: ObjectRef) -> Any:
        """Read an object's payload *without* simulating any I/O.

        For offline validation and metrics only (e.g. checking a finished
        sort's output) -- using it inside a workload would bypass the data
        plane the reproduction is measuring.
        """
        if ref.object_id not in self.payloads:
            raise ObjectLostError(ref.object_id, "no payload to peek at")
        return self.payloads[ref.object_id]

    def sleep(self, seconds: float) -> None:
        """Advance simulated time from the driver (like ``time.sleep``)."""
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._driver.block_on(self.env.timeout(seconds))

    # -- concurrent drivers (multi-tenant job control plane) -------------------
    def spawn_driver(
        self,
        fn: Any,
        *args: Any,
        name: str = "",
        label: Optional[str] = None,
        **kwargs: Any,
    ) -> DriverHandle:
        """Start ``fn`` as a concurrent subdriver program (from a driver).

        The subdriver may use every blocking API (``get``/``wait``/
        ``sleep``) and runs cooperatively with its siblings -- this is how
        the jobs layer (:mod:`repro.jobs`) executes many blocking shuffle
        jobs against one cluster.  ``label`` becomes the ``job_id``
        stamped onto every task the subdriver submits.
        """
        return self._driver.spawn(fn, *args, name=name, label=label, **kwargs)

    def join_driver(self, handle: DriverHandle) -> Any:
        """Block until a spawned subdriver finishes; return its result or
        re-raise its error (driver-side)."""
        return self._driver.join(handle)

    def wait_event(self, event: Event) -> Any:
        """Block the calling driver on an arbitrary simulation event
        (e.g. ``env.any_of`` over subdriver completion events)."""
        return self._driver.block_on(event)

    def on_ready(
        self,
        ref: ObjectRef,
        callback: Callable[[ObjectId, Optional[BaseException]], None],
    ) -> None:
        """Invoke ``callback(object_id, error)`` once ``ref`` is created
        (or its task failed terminally), without blocking.

        The non-blocking completion hook long-lived jobs build on: the
        streaming tier timestamps aggregate visibility this way, and the
        online-aggregation app records its error-vs-time curve with it.
        Fires immediately if the object already exists.
        """
        self.directory.on_ready(ref.object_id, callback)

    def allocation_backlog(self) -> int:
        """Bytes parked in the allocation queues of active, alive nodes.

        The stores' FIFO allocation queues are where store overload
        shows up first; this aggregate is the data-plane pressure signal
        the streaming tier's backpressure controller (and the threshold
        autoscaler) key off.
        """
        return sum(
            manager.store.backlog
            for node_id, manager in self.node_managers.items()
            if self.membership.is_active(node_id) and manager.node.alive
        )

    def timestamp(self) -> float:
        """Current simulated time (driver-side convenience)."""
        return self.env.now

    # -- introspection (§4.3.1 "runtime introspection") -----------------------
    def locations_of(self, ref: ObjectRef) -> List[NodeId]:
        """Where an object currently lives (memory or disk)."""
        if not self.directory.is_created(ref.object_id):
            return []
        return self.directory.location_nodes(ref.object_id)

    def object_size(self, ref: ObjectRef) -> int:
        """Size in bytes of a created object (0 if not yet created)."""
        if not self.directory.is_created(ref.object_id):
            return 0
        return self.directory.sizes[ref.object_id]

    def task_attempts(self, ref: ObjectRef) -> int:
        """How many times the creating task of ``ref`` has executed."""
        creator_id = self.directory.creator_of(ref.object_id)
        if creator_id is None:
            return 0
        return self.tasks[creator_id].spec.attempts

    def stats(self) -> Dict[str, Any]:
        """A summary snapshot for benchmarks and EXPERIMENTS.md tables."""
        snapshot = dict(self.counters.as_dict())
        snapshot["time"] = self.env.now
        snapshot["network_bytes"] = self.cluster.network_bytes_sent
        snapshot["store_peak_bytes"] = sum(
            manager.store.peak_used_bytes
            for manager in self.node_managers.values()
        )
        return snapshot

    def cluster_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-node hardware capacities, keyed by node id.

        Recorded into ``run.summary`` so the perf layer can turn event
        activity into utilization *fractions* (busy cores / total cores,
        disk and NIC busy against their bandwidth, store occupancy
        against capacity) offline, from the trace file alone.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for node_id, manager in self.node_managers.items():
            spec = manager.node.spec
            out[str(node_id)] = {
                "name": spec.name,
                "cores": spec.cores,
                "object_store_bytes": spec.object_store_bytes,
                "disk_bandwidth_bytes_per_sec": spec.disk.bandwidth_bytes_per_sec,
                "nic_bandwidth_bytes_per_sec": spec.nic.bandwidth_bytes_per_sec,
            }
        return out

    def job_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-job counter snapshots keyed by job id: the registry's job
        axis, charged by :meth:`charge_task` / :meth:`charge_object`."""
        return self.metrics.counters_by("job")

    def sample_gauges(self) -> None:
        """Sample point-in-time per-node gauges into :attr:`metrics`.

        Called by :func:`repro.obs.record_run` before export (and usable
        mid-run for occupancy timelines): object-store occupancy, pinned
        bytes, allocation backlog, and spilled bytes per node.
        """
        for node_id, manager in self.node_managers.items():
            store = manager.store
            self.metrics.gauge_set(
                "store_used_bytes", store.used_bytes, node=node_id
            )
            self.metrics.gauge_set(
                "store_pinned_bytes", store.pinned_bytes, node=node_id
            )
            self.metrics.gauge_set(
                "store_backlog", store.backlog, node=node_id
            )
            self.metrics.gauge_set(
                "spilled_bytes", manager.spill.spilled_bytes, node=node_id
            )

    def attach_sampler(self, sampler: Any) -> Callable[[], None]:
        """Attach a live telemetry consumer to the event bus.

        ``sampler`` is duck-typed (the data plane never imports the obs
        live package): an optional ``on_attach(runtime)`` hook fires
        first -- samplers capture the clock and the cluster capacity
        snapshot there -- then ``on_event`` is subscribed to the bus.
        Returns the unsubscribe callable.
        """
        on_attach = getattr(sampler, "on_attach", None)
        if on_attach is not None:
            on_attach(self)
        return self.bus.subscribe(sampler.on_event)

    def attach_planner(self, planner: Any) -> None:
        """Install a planning surface on the duck-typed ``planner`` slot.

        Like :meth:`attach_sampler`, the runtime holds the object
        without importing its package (``repro.plan`` stays an optional
        layer above the data plane).  Call sites that resolve
        ``variant="auto"`` find the shared planner here, and
        :meth:`stage_boundary` forwards boundary announcements to it.
        """
        self.planner = planner

    def stage_boundary(self, label: str, **info: Any) -> Optional[Any]:
        """Announce a stage/round boundary to the attached planner.

        Drivers running multi-stage work call this between stages with
        whatever context they have (``plan=``, ``remaining_shape=``,
        ``job=``, ``inflight=``); the attached planner's duck-typed
        ``on_stage_boundary`` hook may return a revised plan (or bound)
        for the remaining work.  A no-op returning ``None`` when no
        planner is attached or it declines -- static runs pay nothing.
        """
        if self.planner is None:
            return None
        hook = getattr(self.planner, "on_stage_boundary", None)
        if hook is None:
            return None
        return hook(label, **info)
