"""Whole-runtime consistency checking at quiesce.

After a run drains (driver returned, event queue empty), the data plane
must be back in a self-consistent state no matter what faults were
injected along the way.  :class:`InvariantChecker` walks the runtime and
validates:

- **Reference counts balance** -- no surviving directory record has a
  zero or negative refcount (a leak would pin memory forever; a negative
  count means a double free).
- **Store accounting** -- each node's ``used_bytes``/``pinned_bytes``
  match the entries actually resident, no allocation requests are stuck
  in a queue, and no entry is still pinned (a leaked pin means some task
  exited without unpinning its arguments).
- **Location consistency** -- every directory location (memory and spill)
  points at a node that really holds the copy, and every resident or
  spilled copy is recorded in the directory; spill-file live-byte
  accounting matches the surviving slots.
- **Output durability** -- every live object is available (memory or
  disk), carries its creating task's error, or is reconstructable from
  lineage; ``put()`` objects (no creating task) are exempt, as is
  everything when lineage reconstruction is disabled by config.
- **Task completion** -- every submitted task reached a terminal phase
  (a task parked in ``WAITING_DEPS``/``QUEUED`` forever is a lost wakeup).
- **Per-job accounting (metric dimensions)** -- the runtime's
  :class:`~repro.obs.registry.MetricRegistry` is its one counter store:
  ``runtime.counters`` is the global series and the per-job values are
  its job axis.  For every counter, each populated axis (per-node,
  per-job) sums exactly to the global series: no work is double-charged
  and none escapes attribution.

``check()`` returns human-readable violation strings (empty = healthy);
``assert_clean()`` raises :class:`~repro.common.errors.InvariantViolationError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from repro.common.errors import InvariantViolationError
from repro.common.ids import ObjectId
from repro.futures.task import TaskPhase

if TYPE_CHECKING:  # pragma: no cover
    from repro.futures.runtime import Runtime


class InvariantChecker:
    """Validates a quiesced :class:`Runtime` against the data-plane
    invariants listed in the module docstring."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime

    # -- entry points -------------------------------------------------------
    def check(self) -> List[str]:
        """All violations found (empty list = every invariant holds)."""
        violations: List[str] = []
        violations.extend(self._check_refcounts())
        violations.extend(self._check_store_accounting())
        violations.extend(self._check_locations())
        violations.extend(self._check_spill_accounting())
        violations.extend(self._check_durability())
        violations.extend(self._check_task_completion())
        violations.extend(self._check_metric_dimensions())
        return violations

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolationError` if any invariant fails."""
        violations = self.check()
        if violations:
            raise InvariantViolationError(violations)

    # -- refcounts -----------------------------------------------------------
    def _check_refcounts(self) -> List[str]:
        out = []
        for oid, record in self.runtime.directory.items():
            if record.refcount < 0:
                out.append(
                    f"{oid}: negative refcount {record.refcount} (double free)"
                )
            elif record.refcount == 0:
                # decref evicts at zero, so a surviving zero-count record
                # means someone forgot the eviction path: a leak.
                out.append(f"{oid}: refcount 0 but record not evicted (leak)")
        return out

    # -- per-node store accounting -------------------------------------------
    def _check_store_accounting(self) -> List[str]:
        out = []
        for node_id, manager in self.runtime.node_managers.items():
            store = manager.store
            resident = store.objects()
            total = sum(store.entry_size(oid) for oid in resident)
            if total != store.used_bytes:
                out.append(
                    f"{node_id}: store used_bytes={store.used_bytes} but "
                    f"entries total {total}"
                )
            pinned = [oid for oid in resident if store.is_pinned(oid)]
            if pinned:
                out.append(
                    f"{node_id}: {len(pinned)} entries still pinned at "
                    f"quiesce (leaked pins): {pinned[:3]}"
                )
            pinned_total = sum(store.entry_size(oid) for oid in pinned)
            if pinned_total != store.pinned_bytes:
                out.append(
                    f"{node_id}: pinned_bytes={store.pinned_bytes} but pinned "
                    f"entries total {pinned_total}"
                )
            if store.backlog:
                out.append(
                    f"{node_id}: {store.backlog} allocation requests stuck in "
                    f"the store queue"
                )
        return out

    # -- directory <-> store/spill location consistency -----------------------
    def _check_locations(self) -> List[str]:
        out = []
        managers = self.runtime.node_managers
        for oid, record in self.runtime.directory.items():
            for node_id in record.memory_nodes:
                manager = managers.get(node_id)
                if manager is None or not manager.store.contains(oid):
                    out.append(
                        f"{oid}: directory claims a memory copy on {node_id} "
                        f"but the store has none"
                    )
            for node_id, slot in record.spill_nodes.items():
                manager = managers.get(node_id)
                if manager is None or not manager.spill.is_spilled(oid):
                    out.append(
                        f"{oid}: directory claims a spill copy on {node_id} "
                        f"but the disk has none"
                    )
                elif manager.spill.slot(oid) is not slot:
                    out.append(
                        f"{oid}: directory spill slot on {node_id} is stale"
                    )
        for node_id, manager in managers.items():
            for oid in manager.store.objects():
                record = self.runtime.directory.maybe_get(oid)
                if record is None:
                    out.append(
                        f"{node_id}: store holds {oid} with no directory "
                        f"record (untracked memory)"
                    )
                elif node_id not in record.memory_nodes:
                    out.append(
                        f"{node_id}: store holds {oid} but the directory does "
                        f"not list the location"
                    )
            for oid in manager.spill.spilled_objects():
                record = self.runtime.directory.maybe_get(oid)
                if record is None:
                    out.append(
                        f"{node_id}: disk holds {oid} with no directory "
                        f"record (untracked spill)"
                    )
                elif node_id not in record.spill_nodes:
                    out.append(
                        f"{node_id}: disk holds {oid} but the directory does "
                        f"not list the spill location"
                    )
        return out

    # -- spill-file byte accounting -------------------------------------------
    def _check_spill_accounting(self) -> List[str]:
        out = []
        for node_id, manager in self.runtime.node_managers.items():
            live_by_file: Dict[int, int] = {}
            files = {}
            for oid in manager.spill.spilled_objects():
                slot = manager.spill.slot(oid)
                files[id(slot.file)] = slot.file
                live_by_file[id(slot.file)] = (
                    live_by_file.get(id(slot.file), 0) + slot.size
                )
            for key, file in files.items():
                if file.live_bytes != live_by_file[key]:
                    out.append(
                        f"{node_id}: spill file {file.file_id} records "
                        f"live_bytes={file.live_bytes} but surviving slots "
                        f"total {live_by_file[key]} (eviction accounting drift)"
                    )
        return out

    # -- durability / lineage --------------------------------------------------
    def _check_durability(self) -> List[str]:
        out = []
        runtime = self.runtime
        directory = runtime.directory
        for oid, record in directory.items():
            if record.available or record.error is not None:
                if record.available and oid not in runtime.payloads:
                    out.append(
                        f"{oid}: available per the directory but its payload "
                        f"is gone"
                    )
                continue
            # Live but unavailable: must be rebuildable on demand.
            if not runtime.config.enable_lineage_reconstruction:
                continue  # loss is expected; get() raises ObjectLostError
            if directory.creator_of(oid) is None:
                continue  # put() object: unrecoverable by design
            memo: Dict[ObjectId, bool] = {}
            if not self._reconstructable(oid, memo, set()):
                out.append(
                    f"{oid}: live object is unavailable and its lineage "
                    f"cannot reconstruct it"
                )
        return out

    def _reconstructable(
        self,
        oid: ObjectId,
        memo: Dict[ObjectId, bool],
        visiting: Set[ObjectId],
    ) -> bool:
        if oid in memo:
            return memo[oid]
        if oid in visiting:
            return False  # lineage cycle: cannot bottom out
        runtime = self.runtime
        record = runtime.directory.maybe_get(oid)
        if record is not None and (record.available or record.error is not None):
            memo[oid] = True
            return True
        creator_id = runtime.directory.creator_of(oid)
        if creator_id is None:
            # An unavailable object with no creating task (put data or
            # truncated lineage) cannot be rebuilt.
            memo[oid] = False
            return False
        creator = runtime.tasks.get(creator_id)
        if creator is None:
            memo[oid] = False
            return False
        visiting.add(oid)
        ok = all(
            self._reconstructable(dep, memo, visiting)
            for dep in dict.fromkeys(creator.spec.dependency_ids)
        )
        visiting.discard(oid)
        memo[oid] = ok
        return ok

    # -- per-job accounting: metric-registry dimensions ---------------------------
    def _check_metric_dimensions(self) -> List[str]:
        """Every populated axis of every registry counter sums to its
        global series.

        A dimensioned write (``Runtime.charge_task``/``charge_object``)
        charges the global series and the job axis together, so the one
        drift left is a global-only ``runtime.counters.add`` on a
        job-attributed counter -- a call site that bypassed the charge
        path.  Runtimes without a registry (hand-built test doubles) are
        skipped.
        """
        out: List[str] = []
        registry = getattr(self.runtime, "metrics", None)
        if registry is None:
            return out
        for name in registry.counter_names():
            total = registry.counter_total(name)
            for axis in ("node", "job"):
                values = registry.counter_by(name, axis)
                if not values:
                    continue
                axis_sum = sum(values.values())
                tolerance = max(1e-6, 1e-9 * abs(total))
                if abs(axis_sum - total) > tolerance:
                    out.append(
                        f"metric {name!r}: {axis} dimension sums to "
                        f"{axis_sum:g} but the global series reads {total:g} "
                        f"(attribution drift)"
                    )
        return out

    # -- task completion --------------------------------------------------------
    def _check_task_completion(self) -> List[str]:
        out = []
        for task_id, record in self.runtime.tasks.items():
            if record.phase not in (TaskPhase.FINISHED, TaskPhase.FAILED):
                out.append(
                    f"{task_id}: still {record.phase.name} at quiesce "
                    f"(lost wakeup or stuck dependency)"
                )
        return out
