"""Global object metadata: sizes, locations, reference counts.

The paper's limitation discussion (§7) notes that a distributed-futures
system stores metadata separately for each task and object -- this module
is that metadata.  Records use ``__slots__`` because shuffle creates one
record per intermediate block (M x R of them for simple shuffle).

Location state per object:

- ``memory_nodes`` -- nodes holding an in-memory copy in their store.
- ``spill_nodes`` -- nodes holding an on-disk (spilled) copy; the mapped
  value is the spill manager's slot handle, opaque to the directory.
- ``shared`` -- the disaggregated spill tier holds a copy (node-agnostic:
  it survives any node's death).

An object is *created* once its task has stored it at least once, and
*available* while any copy survives.  Created-but-unavailable objects are
lost and need lineage reconstruction.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set

from repro.common.ids import NodeId, ObjectId, TaskId

#: The spill map of every object never spilled: one shared read-only
#: empty mapping instead of a dict per object.
_NO_SPILLS: Mapping[NodeId, Any] = MappingProxyType({})


class ObjectRecord:
    """Metadata for one object."""

    __slots__ = (
        "size",
        "creator",
        "refcount",
        "created",
        "error",
        "memory_nodes",
        "spill_nodes",
        "shared",
    )

    def __init__(self, creator: Optional[TaskId]) -> None:
        self.size = 0
        self.creator = creator
        self.refcount = 0
        self.created = False
        self.error: Optional[BaseException] = None
        self.memory_nodes: Set[NodeId] = set()
        self.spill_nodes: Mapping[NodeId, Any] = _NO_SPILLS
        self.shared = False

    @property
    def available(self) -> bool:
        return self.created and bool(
            self.memory_nodes or self.spill_nodes or self.shared
        )

    @property
    def lost(self) -> bool:
        return self.created and not (
            self.memory_nodes or self.spill_nodes or self.shared
        )


class ObjectDirectory:
    """All object records, plus creation notification plumbing."""

    def __init__(self, on_refcount_zero: Callable[[ObjectId], None]) -> None:
        self._records: Dict[ObjectId, ObjectRecord] = {}
        self._on_refcount_zero = on_refcount_zero
        self._creation_waiters: Dict[
            ObjectId, List[Callable[[ObjectId, Optional[BaseException]], None]]
        ] = {}

    # -- record lifecycle ---------------------------------------------------
    def register(self, object_id: ObjectId, creator: Optional[TaskId]) -> ObjectRecord:
        """Create the record for a not-yet-computed object."""
        if object_id in self._records:
            raise ValueError(f"object {object_id} already registered")
        record = ObjectRecord(creator)
        self._records[object_id] = record
        return record

    def get(self, object_id: ObjectId) -> ObjectRecord:
        """The record for ``object_id`` (KeyError if unknown)."""
        return self._records[object_id]

    def maybe_get(self, object_id: ObjectId) -> Optional[ObjectRecord]:
        """The record for ``object_id``, or None if unknown."""
        return self._records.get(object_id)

    def drop(self, object_id: ObjectId) -> None:
        """Forget an object entirely (after global eviction)."""
        self._records.pop(object_id, None)
        self._creation_waiters.pop(object_id, None)

    def total_size(self, object_ids: Iterable[ObjectId]) -> int:
        """Summed size of ``object_ids``, each occurrence counted; unknown
        ids count zero.  One call per task instead of one per argument."""
        records = self._records
        total = 0
        for object_id in object_ids:
            record = records.get(object_id)
            if record is not None:
                total += record.size
        return total

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- creation -------------------------------------------------------------
    def mark_created(self, object_id: ObjectId, size: int) -> None:
        """Record that the object now exists with the given size."""
        record = self._records.get(object_id)
        if record is None:
            return  # freed (refcount zero) before its task finished storing
        record.size = size
        if record.created:
            return
        record.created = True
        for callback in self._creation_waiters.pop(object_id, []):
            callback(object_id, None)

    def mark_failed(self, object_id: ObjectId, error: BaseException) -> None:
        """The creating task failed; waiters observe the error."""
        record = self._records.get(object_id)
        if record is None:
            return
        record.error = error
        for callback in self._creation_waiters.pop(object_id, []):
            callback(object_id, error)

    def mark_uncreated(self, object_id: ObjectId) -> None:
        """Roll an object back to not-created (lost, pending rebuild)."""
        record = self._records.get(object_id)
        if record is not None:
            record.created = False

    def error_of(self, object_id: ObjectId) -> Optional[BaseException]:
        """The creating task's error, if it failed."""
        record = self._records.get(object_id)
        return record.error if record is not None else None

    def is_created(self, object_id: ObjectId) -> bool:
        """True once the object has been produced at least once."""
        record = self._records.get(object_id)
        return record is not None and record.created

    def is_available(self, object_id: ObjectId) -> bool:
        """True while at least one copy (memory, disk, or the shared
        tier) survives."""
        record = self._records.get(object_id)
        return record is not None and record.available

    def on_ready(
        self,
        object_id: ObjectId,
        callback: Callable[[ObjectId, Optional[BaseException]], None],
    ) -> None:
        """Invoke ``callback(object_id, error)`` once the object is created
        (``error is None``) or its creating task has failed.

        Fires immediately (synchronously) if the outcome is already known.
        """
        record = self._records[object_id]
        if record.created:
            callback(object_id, None)
        elif record.error is not None:
            callback(object_id, record.error)
        else:
            self._creation_waiters.setdefault(object_id, []).append(callback)

    # -- locations ------------------------------------------------------------
    def add_memory_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Record an in-memory copy on ``node_id`` (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            record.memory_nodes.add(node_id)

    def remove_memory_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Forget an in-memory copy (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            record.memory_nodes.discard(node_id)

    def add_spill_location(
        self, object_id: ObjectId, node_id: NodeId, slot: Any
    ) -> None:
        """Record an on-disk copy and its spill slot (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            if record.spill_nodes is _NO_SPILLS:
                record.spill_nodes = {}
            record.spill_nodes[node_id] = slot  # type: ignore[index]

    def remove_spill_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Forget an on-disk copy (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None and node_id in record.spill_nodes:
            del record.spill_nodes[node_id]  # type: ignore[attr-defined]

    def add_shared_location(self, object_id: ObjectId) -> None:
        """Record a copy in the disaggregated spill tier (no-op if
        unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            record.shared = True

    def remove_shared_location(self, object_id: ObjectId) -> None:
        """Forget the disaggregated-tier copy (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            record.shared = False

    def is_shared(self, object_id: ObjectId) -> bool:
        """True while the disaggregated spill tier holds a copy."""
        record = self._records.get(object_id)
        return record is not None and record.shared

    def locations(self, object_id: ObjectId) -> Set[NodeId]:
        """All nodes holding any copy of the object."""
        record = self._records[object_id]
        return set(record.memory_nodes) | set(record.spill_nodes)

    # -- reference counting -----------------------------------------------
    def incref(self, object_id: ObjectId) -> None:
        """Add one reference (no-op if unknown)."""
        record = self._records.get(object_id)
        if record is not None:
            record.refcount += 1

    def decref(self, object_id: ObjectId) -> None:
        """Drop one reference; fires the zero callback at zero."""
        record = self._records.get(object_id)
        if record is None:
            return
        record.refcount -= 1
        if record.refcount <= 0:
            self._on_refcount_zero(object_id)

    # -- bulk queries ----------------------------------------------------------
    def lost_objects(self) -> List[ObjectId]:
        """Created objects with no surviving copy."""
        return [oid for oid, record in self._records.items() if record.lost]

    def items(self) -> List[tuple]:
        """A snapshot of ``(object_id, record)`` pairs (for invariant
        checking and introspection)."""
        return list(self._records.items())
