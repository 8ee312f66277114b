"""The per-node manager: object store, spilling, fetching, and execution.

This is the paper's generic ``NodeManager`` (Fig 3b): the one process per
node that owns the shared-memory object store and coordinates block
movement, replacing the external shuffle service of monolithic designs.
Executors stay stateless -- a task's outputs live in the store, so executor
(process) failures lose no data, and node failures are handled by lineage
reconstruction at the runtime level.

Execution flow per task (one simulation process each):

1. *Fetch* arguments.  With prefetching enabled (§4.2.2) this happens
   before a core is acquired, bounded by a fetch-concurrency semaphore, so
   argument I/O overlaps other tasks' execution.  With it disabled the
   task first occupies a core and then waits for I/O -- the Fig 7
   ablation.
2. *Execute*: charge the per-task overhead and the modelled compute time
   while holding a core; run the real Python function to produce real (or
   virtual) payloads.
3. *Store* outputs: allocate store memory (which may queue, spill, or fall
   back to disk) or, for ``output_to_disk`` tasks, write straight to disk.
   Generator tasks interleave compute and stores per yielded value, which
   is what bounds their memory footprint (§4.3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

from repro.cluster.fabric import NodeFailure
from repro.common.errors import ObjectLostError, TaskExecutionError
from repro.common.ids import NodeId, ObjectId
from repro.futures.object_store import ObjectStore
from repro.futures.spilling import SpillManager
from repro.futures.task import (
    CostContext,
    PlainArg,
    TaskPhase,
    TaskRecord,
    TaskSpec,
)
from repro.futures.sizing import size_of
from repro.simcore import Event, Interrupt, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.futures.runtime import Runtime


class NodeManager:
    """Owns one node's store, spill manager, and task execution."""

    def __init__(self, runtime: "Runtime", node: "Node") -> None:
        self.runtime = runtime
        self.node = node
        self.env = node.env
        self.node_id: NodeId = node.node_id
        self.store = ObjectStore(
            self.env,
            node.node_id,
            node.spec.object_store_bytes,
            on_pressure=self._on_pressure,
            on_evict_cached=self._on_evict_cached,
            bus=runtime.bus,
            sizes=runtime.directory.sizes,
        )
        self.spill = SpillManager(
            node,
            self.store,
            runtime.directory,
            runtime.counters,
            charge=runtime.charge_object,
            policy=runtime.policies.spill,
            bus=runtime.bus,
            shared=runtime.shared_store,
        )
        self.pending_tasks = 0
        self._fetch_sem = Resource(
            self.env,
            runtime.config.prefetch_concurrency,
            name=f"{node.node_id}.fetch",
        )
        # Spill protection consults the runtime-wide pending-consumer
        # table: a block's consumer may be queued on any node.
        self.spill.needed_soon = runtime.has_pending_consumer
        #: In-flight remote fetches: object -> that fetch's handle, a
        #: one-slot list holding the waiters' event (None until a
        #: second fetcher of the object arrives).
        self._inflight_fetches: Dict[ObjectId, List[Optional[Event]]] = {}
        # Insertion-ordered (dicts, not sets): death handling interrupts
        # and resubmits in submission order, keeping runs deterministic --
        # set iteration order follows object hashes, which vary per run.
        self._procs: Dict[Any, None] = {}
        self._active_records: Dict[TaskRecord, None] = {}

    # -- store callbacks ----------------------------------------------------
    def _on_pressure(self) -> None:
        self.spill.kick()

    def _on_evict_cached(self, object_id: ObjectId) -> None:
        self.runtime.directory.remove_memory_location(object_id, self.node_id)

    # -- submission ------------------------------------------------------------
    def submit(self, record: TaskRecord) -> None:
        """Start a simulation process that runs ``record`` to completion."""
        record.assigned_node = self.node_id
        record.phase = TaskPhase.QUEUED
        self.pending_tasks += 1
        self._active_records[record] = None
        proc = self.env.process(
            self._run_task(record), name=f"task-{record.spec.task_id}"
        )
        self._procs[proc] = None
        proc.add_callback(lambda _event: self._procs.pop(proc, None))

    # -- executor failure (§4.2.3) --------------------------------------------
    def kill_executors(self) -> int:
        """Kill every executor *process* on this node, keeping the node
        (and crucially its object store and spill files) alive.

        This is the common failure mode the paper distinguishes from node
        death: because blocks live in the NodeManager's store rather than
        in executor memory, no objects are lost and no lineage
        reconstruction is needed -- in-flight tasks simply restart.
        Returns the number of tasks interrupted.
        """
        for proc in list(self._procs):
            proc.interrupt("executor killed")
        self._procs.clear()
        casualties = list(self._active_records)
        self._active_records.clear()
        self.pending_tasks = 0
        self.runtime.counters.add("executor_failures", 1)
        cause = self.runtime.bus.emit(
            "executor.failure", node=self.node_id, casualties=len(casualties)
        )
        self.runtime.lineage.note_node_fault_event(self.node_id, cause)

        def requeue() -> None:
            # Runs after the interrupts have been delivered, so the dying
            # task processes have finished unwinding.
            for record in casualties:
                if record.phase not in (TaskPhase.FINISHED, TaskPhase.FAILED):
                    self.runtime.resubmit_task(record, cause=cause)

        self.env.call_later(0.0, requeue)
        return len(casualties)

    # -- death handling ---------------------------------------------------------
    def kill(self) -> List[TaskRecord]:
        """Node died: interrupt resident work, drop all local state.

        Returns the task records that were in flight here so the runtime
        can requeue them after the failure-detection delay.
        """
        for proc in list(self._procs):
            proc.interrupt(NodeFailure(self.node_id))
        self._procs.clear()
        # Local state is gone instantly; the *directory* stays stale until
        # the failure-detection delay elapses (heartbeat timeout), so
        # remote peers keep trying this node and fail until then -- that is
        # what the §5.1.5 recovery delay consists of.
        self.store.clear()
        self.spill.clear()
        self._inflight_fetches.clear()
        casualties = list(self._active_records)
        self._active_records.clear()
        self.pending_tasks = 0
        return casualties

    # -- the task lifecycle -----------------------------------------------------
    def _run_task(self, record: TaskRecord) -> Iterator[Event]:
        spec = record.spec
        spec.attempts += 1
        config = self.runtime.config
        pinned: List[ObjectId] = []
        core_req = None
        fetch_req = None
        try:
            record.phase = TaskPhase.FETCHING
            if config.enable_prefetching:
                # Admission first (while holding nothing), then a fetch
                # slot: pollers must not starve other tasks' fetches.
                yield from self._await_admission(spec)
                fetch_req = self._fetch_sem.request()
                yield fetch_req
                arg_state = yield from self._ensure_args(spec, pinned)
                fetch_req.cancel()
                fetch_req = None
                core_req = self.node.cpu.request()
                yield core_req
            else:
                core_req = self.node.cpu.request()
                yield core_req
                arg_state = yield from self._ensure_args(spec, pinned)

            record.phase = TaskPhase.RUNNING
            record.started_at = self.env.now
            self.runtime.bus.emit(
                "task.run",
                task=spec.task_id,
                node=self.node_id,
                job=spec.options.job_id,
                attempt=spec.attempts,
                fn=spec.fn_name,
            )
            overhead = config.task_overhead_s + config.per_object_overhead_s * (
                len(spec.args) + len(spec.return_ids)
            )
            if overhead > 0:
                yield self.env.timeout(overhead)
            # Chaos straggler injection: an installed hook may tax this
            # attempt with extra latency (deterministic under its seed).
            delay_hook = self.runtime.task_delay_hook
            if delay_hook is not None:
                extra = float(delay_hook(spec, self.node_id))
                if extra > 0:
                    self.runtime.counters.add("straggler_delay_s", extra)
                    yield self.env.timeout(extra)
            # Arguments resident only on local disk are streamed in now.
            for oid, state in arg_state.items():
                if state == "disk":
                    yield self.spill.restore_read(oid)

            values = self._materialize_args(spec)
            yield from self._execute_and_store(spec, values)

            record.phase = TaskPhase.FINISHED
            record.finished_at = self.env.now
            self.runtime.charge_task(spec.options, "tasks_finished", 1)
            self.runtime.bus.emit(
                "task.finish",
                task=spec.task_id,
                node=self.node_id,
                job=spec.options.job_id,
                attempt=spec.attempts,
            )
            self._active_records.pop(record, None)
            self.pending_tasks -= 1
            self.runtime.task_finished(record)
        except Interrupt:
            # Node death: kill() already moved our record to the casualty
            # list and reset counters; just stop.
            record.phase = TaskPhase.QUEUED
        except (NodeFailure, IOError):
            # A local device failed under us -- same situation as above.
            record.phase = TaskPhase.QUEUED
        except ObjectLostError as exc:
            self._abandon(record)
            self.runtime.task_failed(record, exc)
        except Exception as exc:  # noqa: BLE001 - app errors become task errors
            self._abandon(record)
            self.runtime.task_failed(record, TaskExecutionError(spec.task_id, exc))
        finally:
            if fetch_req is not None:
                fetch_req.cancel()
            if core_req is not None:
                core_req.cancel()
            for oid in pinned:
                self.store.unpin(oid)

    def _abandon(self, record: TaskRecord) -> None:
        if record in self._active_records:
            self._active_records.pop(record, None)
            self.pending_tasks -= 1

    # -- argument handling -----------------------------------------------------
    def _await_admission(self, spec: TaskSpec) -> Iterator[Event]:
        """Prefetch admission control (§4.2.2).

        A task may start fetching arguments only when the bytes currently
        pinned by other fetching/executing tasks leave headroom under
        ``prefetch_capacity_fraction`` of the store -- unbounded
        fetch-ahead would pin more memory than the store holds and thrash
        it.  Admission happens while the task holds no pins and no fetch
        slot, so there is no hold-and-wait and no deadlock; a task whose
        arguments alone exceed the budget is admitted when the store is
        quiet.
        """
        budget = int(
            self.runtime.config.prefetch_capacity_fraction * self.store.capacity
        )
        task_bytes = self.runtime.directory.total_size(
            dict.fromkeys(spec.dependency_ids)
        )
        demand = min(task_bytes, budget)
        while (
            self.store.pinned_bytes > 0
            and self.store.pinned_bytes + demand > budget
        ):
            yield self.env.timeout(0.05)

    def _ensure_args(
        self, spec: TaskSpec, pinned: List[ObjectId]
    ) -> Iterator[Event]:
        """Make every ref argument readable locally; pins memory copies.

        Returns a dict of per-object residency: ``"memory"`` (pinned in the
        local store) or ``"disk"`` (spilled locally; read through from disk
        at execution time).
        """
        states: Dict[ObjectId, str] = {}
        for oid in dict.fromkeys(spec.dependency_ids):
            state = yield from self.ensure_local(oid)
            if state == "memory":
                pinned.append(oid)
            states[oid] = state
        return states

    def ensure_local(self, object_id: ObjectId) -> Iterator[Event]:
        """Bring one object to this node; returns ``"memory"`` or ``"disk"``.

        Memory results are pinned (caller must unpin).  Retries around
        evictions, races, and source failures; gives up only when the
        object is unrecoverable.
        """
        directory = self.runtime.directory
        for _attempt in range(200):
            if object_id not in directory:
                raise ObjectLostError(object_id, "freed while required")
            if self.store.contains(object_id):
                self.store.pin(object_id)
                return "memory"
            if self.spill.is_spilled(object_id):
                if self.store.try_allocate(
                    object_id, directory.sizes[object_id], primary=False, pin=True
                ):
                    yield self.spill.restore_read(object_id)
                    directory.add_memory_location(object_id, self.node_id)
                    return "memory"
                return "disk"
            holds_pin = yield from self._fetch_remote(object_id)
            if holds_pin:
                # The fetch allocated the entry pinned on our behalf, so
                # it cannot have been evicted under memory pressure.
                return "memory"
        raise ObjectLostError(object_id, "exceeded fetch attempts")

    def _fetch_remote(self, object_id: ObjectId) -> Iterator[Event]:
        """Fetch one object from another node, deduplicating in-flight work.

        Returns True when the caller now holds a pin on the local
        in-memory entry (initiator path); dedup waiters return False and
        must re-check + pin themselves.

        Each fetch registers its own handle, a one-slot list holding the
        wake-up event.  The first waiter creates that event; the initiator
        succeeds it only if one exists, so an unshared fetch costs no
        engine step.  The handle's identity keeps a fetch from removing a
        newer fetch's entry after :meth:`kill` cleared the table.
        """
        handle = self._inflight_fetches.get(object_id)
        if handle is not None:
            done = handle[0]
            if done is None:
                done = handle[0] = self.env.event()
            yield done
            return False
        handle = [None]
        self._inflight_fetches[object_id] = handle
        try:
            holds_pin = yield from self._fetch_remote_inner(object_id)
            return holds_pin
        finally:
            if self._inflight_fetches.get(object_id) is handle:
                del self._inflight_fetches[object_id]
            done = handle[0]
            if done is not None and not done.triggered:
                done.succeed()

    def _fetch_remote_inner(self, object_id: ObjectId) -> Iterator[Event]:
        runtime = self.runtime
        directory = runtime.directory
        sizes = directory.sizes
        for _attempt in range(100):
            held = directory.holders(object_id)
            if held is None:
                raise ObjectLostError(object_id, "freed during fetch")
            if self.store.contains(object_id):
                self.store.pin(object_id)
                return True
            if self.spill.is_spilled(object_id):
                return False
            # The lowest-numbered alive holder serves: a memory copy if
            # any, else a spilled one.
            memory_nodes, spill_nodes = held
            source = self._first_alive(memory_nodes)
            from_memory = source is not None
            if not from_memory:
                source = self._first_alive(sorted(spill_nodes))
            if source is None and not directory.is_shared(object_id):
                # No *alive* copy: wait for (re)creation.  The directory
                # may still claim stale locations on dead-but-undetected
                # nodes (making ensure_available a no-op), so back off and
                # let failure detection catch up before re-checking.
                yield runtime.ensure_available(object_id)
                yield self.env.timeout(runtime.config.fetch_retry_backoff_s)
                continue
            placement = None
            try:
                # Pinned for the duration of the transfer: a copy that is
                # still arriving must not be evicted under pressure.
                allocation = self.store.allocate(
                    object_id, sizes[object_id], primary=False, pin=True
                )
                placement = yield allocation
                if placement == "resident":
                    return True  # appeared meanwhile; allocate pinned it
                if source is None:
                    # The disaggregated spill tier holds the only copy --
                    # the durability win: read it back instead of waiting
                    # for lineage to re-execute the creator.
                    yield self.spill.shared_restore_read(object_id)
                elif not from_memory:
                    # Spilled at the source: streamed from its disk (§4.2.2).
                    yield runtime.node_managers[source].spill.restore_read(
                        object_id
                    )
                if source is not None:
                    begin = runtime.bus.emit(
                        "transfer.begin",
                        node=self.node_id,
                        obj=object_id,
                        src=source,
                        bytes=sizes[object_id],
                    )
                    try:
                        yield runtime.cluster.send(
                            source, self.node_id, sizes[object_id]
                        )
                    except (NodeFailure, IOError):
                        runtime.bus.emit(
                            "transfer.end",
                            node=self.node_id,
                            obj=object_id,
                            cause=begin,
                            ok=False,
                        )
                        raise
                    runtime.bus.emit(
                        "transfer.end",
                        node=self.node_id,
                        obj=object_id,
                        cause=begin,
                        ok=True,
                    )
            except (NodeFailure, IOError):
                if placement == "memory":
                    self.store.free(object_id)
                yield self.env.timeout(runtime.config.fetch_retry_backoff_s)
                continue
            if placement == "memory":
                directory.add_memory_location(object_id, self.node_id)
                runtime.counters.add("fetched_objects", 1)
                return True
            # Disk-fallback grant: the bytes are on our local disk now.
            runtime.counters.add("fetched_objects", 1)
            return False
        raise ObjectLostError(object_id, "fetch retries exhausted")

    def _first_alive(self, node_ids: Iterable[NodeId]) -> Optional[NodeId]:
        """The first of ``node_ids`` that is another, alive node."""
        managers = self.runtime.node_managers
        for node_id in node_ids:
            if node_id != self.node_id and managers[node_id].node.alive:
                return node_id
        return None

    def _materialize_args(self, spec: TaskSpec) -> List[Any]:
        payloads = self.runtime.payloads
        values: List[Any] = []
        for arg in spec.args:
            if isinstance(arg, PlainArg):
                values.append(arg.value)
            else:
                values.append(payloads[arg.object_id])
        return values

    # -- execution --------------------------------------------------------------
    def _execute_and_store(
        self, spec: TaskSpec, values: List[Any]
    ) -> Iterator[Event]:
        options = spec.options
        input_bytes = self._input_bytes(spec)
        if spec.is_generator:
            yield from self._run_generator(spec, values, input_bytes)
        else:
            outputs = self._call_plain(spec, values)
            output_bytes = sum(size_of(value) for value in outputs)
            duration = self._compute_seconds(
                options.compute, input_bytes, output_bytes, spec
            )
            if duration > 0:
                yield self.env.timeout(duration)
            self.runtime.charge_task(options, "compute_seconds", duration)
            for object_id, value in zip(spec.return_ids, outputs):
                yield from self._store_output(object_id, value, options)

    def _run_generator(
        self, spec: TaskSpec, values: List[Any], input_bytes: int
    ) -> Iterator[Event]:
        generator = spec.fn(*values)
        produced = 0
        per_item_input = input_bytes / max(1, len(spec.return_ids))
        for object_id in spec.return_ids:
            try:
                value = next(generator)
            except StopIteration:
                raise ValueError(
                    f"generator task {spec.fn_name} yielded {produced} values, "
                    f"declared num_returns={len(spec.return_ids)}"
                ) from None
            produced += 1
            item_bytes = size_of(value)
            duration = self._compute_seconds(
                spec.options.compute,
                per_item_input,
                item_bytes,
                spec,
                per_item=True,
            )
            if duration > 0:
                yield self.env.timeout(duration)
            self.runtime.charge_task(spec.options, "compute_seconds", duration)
            yield from self._store_output(object_id, value, spec.options)
        # A well-formed generator is now exhausted.
        try:
            next(generator)
        except StopIteration:
            return
        raise ValueError(
            f"generator task {spec.fn_name} yielded more than "
            f"num_returns={len(spec.return_ids)} values"
        )

    def _call_plain(self, spec: TaskSpec, values: List[Any]) -> List[Any]:
        result = spec.fn(*values)
        if len(spec.return_ids) == 1:
            return [result]
        if not isinstance(result, (tuple, list)):
            raise TypeError(
                f"task {spec.fn_name} declared num_returns="
                f"{len(spec.return_ids)} but returned {type(result).__name__}"
            )
        if len(result) != len(spec.return_ids):
            raise ValueError(
                f"task {spec.fn_name} returned {len(result)} values, declared "
                f"num_returns={len(spec.return_ids)}"
            )
        return list(result)

    def _store_output(
        self, object_id: ObjectId, value: Any, options: Any
    ) -> Iterator[Event]:
        directory = self.runtime.directory
        size = size_of(value)
        if object_id not in directory:
            return  # all refs dropped before the task finished; discard
        self.runtime.payloads[object_id] = value
        self.runtime.charge_task(options, "task_output_bytes", size)
        if options.output_to_disk:
            self.runtime.counters.add("disk_bytes_written", size)
            self.runtime.counters.add("output_bytes_written", size)
            begin = self.runtime.bus.emit(
                "disk.write.begin",
                node=self.node_id,
                obj=object_id,
                job=options.job_id,
                bytes=size,
            )
            yield self.node.disk_write(size, sequential=True)
            self.runtime.bus.emit(
                "disk.write.end",
                node=self.node_id,
                obj=object_id,
                cause=begin,
            )
            self.spill.adopt(object_id, size)
        else:
            allocation = self.store.allocate(object_id, size, primary=True)
            placement = yield allocation
            if placement == "memory":
                directory.add_memory_location(object_id, self.node_id)
            # "disk": the spill manager's fallback already recorded the
            # spill location and charged the write.
        directory.mark_created(object_id, size)
        self.runtime.bus.emit(
            "object.create",
            obj=object_id,
            node=self.node_id,
            job=options.job_id,
            bytes=size,
        )

    # -- cost model -------------------------------------------------------------
    def _input_bytes(self, spec: TaskSpec) -> int:
        total = self.runtime.directory.total_size(spec.dependency_ids)
        for arg in spec.args:
            if isinstance(arg, PlainArg):
                total += size_of(arg.value)
        return total

    def _compute_seconds(
        self,
        compute: Any,
        input_bytes: float,
        output_bytes: float,
        spec: TaskSpec,
        per_item: bool = False,
    ) -> float:
        dilation = self.node.compute_dilation
        if compute is None:
            throughput = self.runtime.config.cpu_throughput_bytes_per_sec
            return dilation * (input_bytes + output_bytes) / throughput
        if callable(compute):
            context = CostContext(
                input_bytes=int(input_bytes),
                output_bytes=int(output_bytes),
                num_args=len(spec.args),
                num_returns=len(spec.return_ids),
            )
            seconds = float(compute(context))
        else:
            seconds = float(compute)
            if per_item:
                seconds /= max(1, len(spec.return_ids))
        if seconds < 0:
            raise ValueError(f"negative compute time from {spec.fn_name}")
        return dilation * seconds

    def __repr__(self) -> str:
        return f"<NodeManager {self.node_id} pending={self.pending_tasks}>"
