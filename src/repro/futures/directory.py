"""Global object metadata: sizes, locations, reference counts.

The paper's limitation discussion (§7) notes that a distributed-futures
system stores metadata separately for each task and object -- this module
is that metadata.  Shuffle creates one object per intermediate block (M x R
of them for simple shuffle), so no block costs a Python object here: each
fact is a column indexed by the dense ``ObjectId`` integer, grown as ids
are registered and never shrunk.

Columns per object id:

- :attr:`ObjectDirectory.sizes` (``array('q')``) -- the object's size.
  The node object stores read their entries' sizes from this column.
- reference count (``array('i')``) and flags (``bytearray``: live,
  created, shared).
- creator (``array('q')``, -1 for none) -- the creating task.  It
  outlives the object's record, so lineage can re-register a freed
  dependency and spill charges find the owning job.
- memory locations -- one int bitmask per object, bit ``n`` for the
  store of ``NodeId(n)``, read back in ascending node order.

Sparse state stays in dicts: the creating task's error, the on-disk
(spilled) copies (``spill_nodes``: node -> the spill manager's slot
handle, opaque to the directory) and creation waiters.  ``shared`` marks
a copy in the disaggregated spill tier (node-agnostic: it survives any
node's death); it is the only record of what that tier holds.
:meth:`ObjectDirectory.get`, ``maybe_get`` and ``items`` hand out
read-only :class:`ObjectRecord` views over these columns.

An object is *created* once its task has stored it at least once, and
*available* while any copy survives.  Created-but-unavailable objects are
lost and need lineage reconstruction.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.common.ids import NodeId, ObjectId, TaskId

#: The spill map of every object never spilled: one shared read-only
#: empty mapping instead of a dict per object.
_NO_SPILLS: Mapping[NodeId, Any] = MappingProxyType({})

# Flag bits; a zero flag byte means "no record".
_LIVE, _CREATED, _SHARED = 1, 2, 4

#: Distinct location masks whose decoded node tuples are kept.
_MASK_MEMO_LIMIT = 4096


class ObjectRecord:
    """A read-only view of one object's directory columns."""

    __slots__ = ("_directory", "_oid")

    def __init__(self, directory: "ObjectDirectory", object_id: ObjectId) -> None:
        self._directory = directory
        self._oid = object_id

    @property
    def size(self) -> int:
        return self._directory.sizes[self._oid]

    @property
    def creator(self) -> Optional[TaskId]:
        return self._directory.creator_of(self._oid)

    @property
    def refcount(self) -> int:
        return self._directory._refcounts[self._oid]

    @property
    def created(self) -> bool:
        return self._directory.is_created(self._oid)

    @property
    def error(self) -> Optional[BaseException]:
        return self._directory.error_of(self._oid)

    @property
    def memory_nodes(self) -> Tuple[NodeId, ...]:
        return self._directory.memory_nodes(self._oid)

    @property
    def spill_nodes(self) -> Mapping[NodeId, Any]:
        spills = self._directory.spill_nodes(self._oid)
        return spills if spills is _NO_SPILLS else MappingProxyType(spills)

    @property
    def shared(self) -> bool:
        return self._directory.is_shared(self._oid)

    @property
    def available(self) -> bool:
        return self._directory.is_available(self._oid)

    @property
    def lost(self) -> bool:
        return self.created and not self.available


class ObjectDirectory:
    """Every object's metadata columns, plus creation notification plumbing."""

    def __init__(self, on_refcount_zero: Callable[[ObjectId], None]) -> None:
        #: Object sizes by id (the stores share this column).
        self.sizes = array("q")
        self._refcounts = array("i")
        self._creators = array("q")
        self._flags = bytearray()
        self._memory: List[int] = []
        # Decoded location masks, shared by every object with the same
        # holders: most objects live on one or two nodes, so a few
        # hundred masks cover a run.
        self._mask_nodes: Dict[int, Tuple[NodeId, ...]] = {0: ()}
        self._spills: Dict[ObjectId, Dict[NodeId, Any]] = {}
        self._errors: Dict[ObjectId, BaseException] = {}
        self._on_refcount_zero = on_refcount_zero
        self._creation_waiters: Dict[
            ObjectId, List[Callable[[ObjectId, Optional[BaseException]], None]]
        ] = {}

    def _grow(self, object_id: ObjectId) -> None:
        """Extend every column past ``object_id``, by at least a quarter
        so registering ids in order grows them a few times, not per id."""
        length = len(self._flags)
        extra = max(object_id + 1, length * 5 // 4 + 64) - length
        for zeroed in (self.sizes, self._refcounts):
            zeroed.frombytes(bytes(zeroed.itemsize * extra))
        self._creators.extend(array("q", (-1,)) * extra)
        self._flags.extend(bytes(extra))
        self._memory.extend([0] * extra)

    # -- record lifecycle ---------------------------------------------------
    def register(self, object_id: ObjectId, creator: Optional[TaskId]) -> None:
        """Create the record for a not-yet-computed object."""
        if object_id >= len(self._flags):
            self._grow(object_id)
        elif self._flags[object_id]:
            raise ValueError(f"object {object_id} already registered")
        self._flags[object_id] = _LIVE
        self._refcounts[object_id] = 0
        self._creators[object_id] = -1 if creator is None else creator

    def get(self, object_id: ObjectId) -> ObjectRecord:
        """The record for ``object_id`` (KeyError if unknown)."""
        if object_id not in self:
            raise KeyError(object_id)
        return ObjectRecord(self, object_id)

    def maybe_get(self, object_id: ObjectId) -> Optional[ObjectRecord]:
        """The record for ``object_id``, or None if unknown."""
        return ObjectRecord(self, object_id) if object_id in self else None

    def drop(self, object_id: ObjectId) -> None:
        """Forget an object (after global eviction).  Its size and creator
        stay: a store may still be releasing a copy, and lineage may
        re-register it."""
        if object_id < len(self._flags):
            self._flags[object_id] = 0
            self._memory[object_id] = 0
        self._spills.pop(object_id, None)
        self._errors.pop(object_id, None)
        self._creation_waiters.pop(object_id, None)

    def total_size(self, object_ids: Iterable[ObjectId]) -> int:
        """Summed size of ``object_ids``, each occurrence counted; unknown
        ids count zero.  One call per task instead of one per argument."""
        flags, sizes, known = self._flags, self.sizes, len(self._flags)
        total = 0
        for object_id in object_ids:
            if object_id < known and flags[object_id]:
                total += sizes[object_id]
        return total

    # The hot accessors read the flag byte under ``try``: an id past the
    # columns' end was never registered, and the common case pays no
    # bounds check.
    def __contains__(self, object_id: ObjectId) -> bool:
        try:
            return self._flags[object_id] != 0
        except IndexError:
            return False

    def __len__(self) -> int:
        return len(self._flags) - self._flags.count(0)

    def creator_of(self, object_id: ObjectId) -> Optional[TaskId]:
        """The task that creates ``object_id``, even after its record was
        dropped; None for ``put`` objects and unissued ids."""
        try:
            creator = self._creators[object_id]
        except IndexError:
            return None
        return None if creator < 0 else TaskId(creator)

    # -- creation -------------------------------------------------------------
    def mark_created(self, object_id: ObjectId, size: int) -> None:
        """Record that the object now exists with the given size."""
        try:
            flags = self._flags[object_id]
        except IndexError:
            return
        if not flags:
            return  # freed (refcount zero) before its task finished storing
        self.sizes[object_id] = size
        if flags & _CREATED:
            return
        self._flags[object_id] = flags | _CREATED
        for callback in self._creation_waiters.pop(object_id, []):
            callback(object_id, None)

    def mark_failed(self, object_id: ObjectId, error: BaseException) -> None:
        """The creating task failed; waiters observe the error."""
        if object_id not in self:
            return
        self._errors[object_id] = error
        for callback in self._creation_waiters.pop(object_id, []):
            callback(object_id, error)

    def mark_uncreated(self, object_id: ObjectId) -> None:
        """Roll an object back to not-created (lost, pending rebuild)."""
        if object_id in self:
            self._flags[object_id] &= ~_CREATED

    def error_of(self, object_id: ObjectId) -> Optional[BaseException]:
        """The creating task's error, if it failed."""
        return self._errors.get(object_id)

    def is_created(self, object_id: ObjectId) -> bool:
        """True once the object has been produced at least once."""
        try:
            return bool(self._flags[object_id] & _CREATED)
        except IndexError:
            return False

    def is_available(self, object_id: ObjectId) -> bool:
        """True while at least one copy (memory, disk, or the shared
        tier) survives."""
        try:
            flags = self._flags[object_id]
        except IndexError:
            return False
        return bool(flags & _CREATED) and bool(
            self._memory[object_id] or object_id in self._spills or flags & _SHARED
        )

    def on_ready(
        self,
        object_id: ObjectId,
        callback: Callable[[ObjectId, Optional[BaseException]], None],
    ) -> None:
        """Invoke ``callback(object_id, error)`` once the object is created
        (``error is None``) or its creating task has failed.

        Fires immediately (synchronously) if the outcome is already known.
        """
        flags = self._flags[object_id] if object_id < len(self._flags) else 0
        if not flags:
            raise KeyError(object_id)
        error = self._errors.get(object_id)
        if flags & _CREATED:
            callback(object_id, None)
        elif error is not None:
            callback(object_id, error)
        else:
            self._creation_waiters.setdefault(object_id, []).append(callback)

    # -- locations ------------------------------------------------------------
    def add_memory_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Record an in-memory copy on ``node_id`` (no-op if unknown)."""
        try:
            flags = self._flags[object_id]
        except IndexError:
            return
        if flags:
            self._memory[object_id] |= 1 << node_id

    def remove_memory_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Forget an in-memory copy (no-op if unknown)."""
        try:
            flags = self._flags[object_id]
        except IndexError:
            return
        if flags:
            self._memory[object_id] &= ~(1 << node_id)

    def _decode(self, mask: int) -> Tuple[NodeId, ...]:
        """The nodes of ``mask``'s set bits, ascending."""
        nodes = self._mask_nodes.get(mask)
        if nodes is None:
            bits = []
            rest = mask
            while rest:
                low = rest & -rest
                bits.append(NodeId(low.bit_length() - 1))
                rest ^= low
            nodes = tuple(bits)
            if len(self._mask_nodes) < _MASK_MEMO_LIMIT:
                self._mask_nodes[mask] = nodes
        return nodes

    def memory_nodes(self, object_id: ObjectId) -> Tuple[NodeId, ...]:
        """Nodes whose store holds a copy, ascending (empty if unknown)."""
        if object_id not in self:
            return ()
        return self._decode(self._memory[object_id])

    def holders(
        self, object_id: ObjectId
    ) -> Optional[Tuple[Tuple[NodeId, ...], Mapping[NodeId, Any]]]:
        """``(memory_nodes, spill_nodes)`` of a known object, else None:
        one call for eviction, fetch and placement, which read both.
        Callers must not mutate the spill map."""
        try:
            if not self._flags[object_id]:
                return None
        except IndexError:
            return None
        mask = self._memory[object_id]
        nodes = self._mask_nodes.get(mask)
        if nodes is None:
            nodes = self._decode(mask)
        return nodes, self._spills.get(object_id, _NO_SPILLS)

    def holds(self, object_id: ObjectId, node_id: NodeId) -> bool:
        """True if ``node_id`` holds any copy (memory or disk)."""
        if object_id not in self:
            return False
        return bool(self._memory[object_id] >> node_id & 1) or (
            node_id in self._spills.get(object_id, _NO_SPILLS)
        )

    def add_spill_location(
        self, object_id: ObjectId, node_id: NodeId, slot: Any
    ) -> None:
        """Record an on-disk copy and its spill slot (no-op if unknown)."""
        if object_id in self:
            self._spills.setdefault(object_id, {})[node_id] = slot

    def remove_spill_location(self, object_id: ObjectId, node_id: NodeId) -> None:
        """Forget an on-disk copy (no-op if unknown)."""
        spills = self._spills.get(object_id)
        if spills is not None and node_id in spills:
            del spills[node_id]
            if not spills:
                del self._spills[object_id]

    def spill_nodes(self, object_id: ObjectId) -> Mapping[NodeId, Any]:
        """The object's on-disk copies: node -> spill slot (callers must
        not mutate it)."""
        return self._spills.get(object_id, _NO_SPILLS)

    def add_shared_location(self, object_id: ObjectId) -> None:
        """Record a copy in the disaggregated spill tier (no-op if
        unknown)."""
        if object_id in self:
            self._flags[object_id] |= _SHARED

    def is_shared(self, object_id: ObjectId) -> bool:
        """True while the disaggregated spill tier holds a copy."""
        return object_id in self and bool(self._flags[object_id] & _SHARED)

    def location_nodes(self, object_id: ObjectId) -> List[NodeId]:
        """All nodes holding any copy of the object, ascending."""
        if object_id not in self:
            raise KeyError(object_id)
        mask = self._memory[object_id]
        for node_id in self._spills.get(object_id, _NO_SPILLS):
            mask |= 1 << node_id
        return list(self._decode(mask))

    def locations(self, object_id: ObjectId) -> Set[NodeId]:
        """All nodes holding any copy of the object."""
        return set(self.location_nodes(object_id))

    # -- reference counting -----------------------------------------------
    def incref(self, object_id: ObjectId) -> None:
        """Add one reference (no-op if unknown)."""
        if object_id in self:
            self._refcounts[object_id] += 1

    def decref(self, object_id: ObjectId) -> None:
        """Drop one reference; fires the zero callback at zero."""
        try:
            flags = self._flags[object_id]
        except IndexError:
            return
        if not flags:
            return
        refcount = self._refcounts[object_id] - 1
        self._refcounts[object_id] = refcount
        if refcount <= 0:
            self._on_refcount_zero(object_id)

    # -- bulk queries ----------------------------------------------------------
    def _live_ids(self) -> List[ObjectId]:
        return [ObjectId(oid) for oid, flags in enumerate(self._flags) if flags]

    def lost_objects(self) -> List[ObjectId]:
        """Created objects with no surviving copy."""
        return [
            oid
            for oid in self._live_ids()
            if self.is_created(oid) and not self.is_available(oid)
        ]

    def items(self) -> List[Tuple[ObjectId, ObjectRecord]]:
        """A snapshot of ``(object_id, record)`` pairs in id order (for
        invariant checking and introspection)."""
        return [(oid, ObjectRecord(self, oid)) for oid in self._live_ids()]
