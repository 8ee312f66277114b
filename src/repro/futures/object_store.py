"""The per-node shared-memory object store (§4.2.1-4.2.2).

The store manages a fixed byte budget.  Allocations (new task outputs, and
copies of objects fetched as task arguments) go through a FIFO queue: if
spare memory exists the request is granted immediately; otherwise the
store first drops *cached copies* (objects fetched from elsewhere whose
primary copy lives on another node or on disk -- dropping them costs no
I/O), and if that is not enough the request parks in the queue and the
node's spill manager is nudged.

Entries are *primary* (this store holds the authoritative in-memory copy,
which must be spilled before being dropped) or *cached* (re-fetchable).
Pins mark entries in active use by an executing task or in-flight
transfer; pinned entries are never dropped or spilled.

An entry is one small int, ``pins * 2 + primary``; its size lives in a
column indexed by object id, which a runtime shares with its directory
(:attr:`~repro.futures.directory.ObjectDirectory.sizes`).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.ids import NodeId, ObjectId
from repro.simcore import Environment, Event


class AllocationRequest:
    """A queued claim for store memory (built only when a claim parks)."""

    __slots__ = ("object_id", "size", "primary", "pin", "event")

    def __init__(
        self,
        object_id: ObjectId,
        size: int,
        primary: bool,
        pin: bool,
        event: Event,
    ) -> None:
        self.object_id = object_id
        self.size = size
        self.primary = primary
        self.pin = pin
        self.event = event


class ObjectStore:
    """One node's object store."""

    def __init__(
        self,
        env: Environment,
        node_id: NodeId,
        capacity_bytes: int,
        on_pressure: Optional[Callable[[], None]] = None,
        on_evict_cached: Optional[Callable[[ObjectId], None]] = None,
        bus: Optional[object] = None,
        sizes: Optional["array[int]"] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("store capacity must be positive")
        self.env = env
        self.node_id = node_id
        #: Optional structured event bus (:class:`repro.obs.EventBus`);
        #: parked allocations publish ``store.pressure`` events into it.
        self.bus = bus
        self.capacity = capacity_bytes
        self.used_bytes = 0
        #: Bytes of entries currently pinned by executing/fetching tasks.
        #: The prefetcher gates on this to bound fetch-ahead memory.
        self.pinned_bytes = 0
        #: Object sizes by id: the directory's column in a runtime, a
        #: private one for a standalone store.  Admission writes it.
        self._sizes = sizes if sizes is not None else array("q")
        # Object -> ``pins * 2 + primary``.  A plain dict, insertion-ordered,
        # so eviction/spill candidates come out oldest first, approximating
        # Ray's creation-order spilling.
        self._entries: Dict[ObjectId, int] = {}
        # Entries that are cached (not primary) and unpinned: the eviction
        # scan is skipped while this is zero.
        self._evictable = 0
        self._queue: Deque[AllocationRequest] = deque()
        self._on_pressure = on_pressure or (lambda: None)
        self._on_evict_cached = on_evict_cached or (lambda oid: None)
        self.peak_used_bytes = 0

    # -- queries ------------------------------------------------------------
    def contains(self, object_id: ObjectId) -> bool:
        """True if the object is resident in this store."""
        return object_id in self._entries

    def entry_size(self, object_id: ObjectId) -> int:
        """Stored size of a resident entry."""
        if object_id not in self._entries:
            raise KeyError(object_id)
        return self._sizes[object_id]

    def is_primary(self, object_id: ObjectId) -> bool:
        """True if this store holds the authoritative copy."""
        return bool(self._entries[object_id] & 1)

    def is_pinned(self, object_id: ObjectId) -> bool:
        """True if the resident entry is pinned by an active task or
        in-flight transfer (such entries are never dropped or spilled)."""
        return self._entries[object_id] > 1

    @property
    def spare_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def backlog(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        return sum(req.size for req in self._queue)

    def objects(self) -> List[ObjectId]:
        """Resident object ids in insertion order."""
        return list(self._entries)

    # -- allocation ------------------------------------------------------------
    def allocate(
        self, object_id: ObjectId, size: int, primary: bool, pin: bool = False
    ) -> Event:
        """Reserve ``size`` bytes for ``object_id``.

        The returned event succeeds once the entry is resident.  Objects
        already resident are granted immediately (idempotent; a cached
        entry is upgraded to primary if requested), and so is a queued
        request whose object became resident while it waited.
        """
        if size < 0:
            raise ValueError("negative allocation size")
        event = Event(self.env)
        if self._grant(object_id, size, primary, pin, event):
            return event
        self._queue.append(AllocationRequest(object_id, size, primary, pin, event))
        if self.bus is not None:
            self.bus.emit(
                "store.pressure",
                node=self.node_id,
                obj=object_id,
                bytes=size,
                backlog=len(self._queue),
            )
        self._on_pressure()
        return event

    def try_allocate(
        self, object_id: ObjectId, size: int, primary: bool, pin: bool = False
    ) -> bool:
        """Allocate only if it fits right now (no queueing); True on success.

        Used by restore and prefetch paths that have a cheaper fallback
        (reading through from disk) and must not park in the queue.
        """
        # Nobody waits on the event, but a grant still succeeds one, so the
        # engine runs the same entries as for any other grant.
        return self._serve_resident(object_id, primary, pin) or self._try_grant(
            object_id, size, primary, pin, Event(self.env)
        )

    def _grant(
        self, object_id: ObjectId, size: int, primary: bool, pin: bool, event: Event
    ) -> bool:
        """Grant the claim now if its object is resident or it fits."""
        if self._serve_resident(object_id, primary, pin):
            event.succeed("resident")
            return True
        return self._try_grant(object_id, size, primary, pin, event)

    def _serve_resident(self, object_id: ObjectId, primary: bool, pin: bool) -> bool:
        """Upgrade and pin the object's resident entry as the claim asks;
        False when none (a second entry would double-count)."""
        state = self._entries.get(object_id)
        if state is None:
            return False
        if primary and not state & 1:
            if state == 0:
                self._evictable -= 1
            self._entries[object_id] = state | 1
        if pin:
            self.pin(object_id)
        return True

    def _try_grant(
        self, object_id: ObjectId, size: int, primary: bool, pin: bool, event: Event
    ) -> bool:
        """Admit the claim if it fits, after dropping cached copies."""
        if size > self.capacity - self.used_bytes:
            self._evict_cached(size - self.capacity + self.used_bytes)
            if size > self.capacity - self.used_bytes:
                return False
        sizes = self._sizes
        try:
            sizes[object_id] = size
        except IndexError:  # a standalone store's own column
            sizes.frombytes(bytes(sizes.itemsize * (object_id + 1 - len(sizes))))
            sizes[object_id] = size
        self.used_bytes += size
        if self.used_bytes > self.peak_used_bytes:
            self.peak_used_bytes = self.used_bytes
        self._entries[object_id] = (2 if pin else 0) + (1 if primary else 0)
        if pin:
            self.pinned_bytes += size
        elif not primary:
            self._evictable += 1
        event.succeed("memory")
        return True

    def _evict_cached(self, needed: int) -> None:
        """Drop unpinned cached copies, oldest (insertion order) first,
        until ``needed`` bytes are freed.  The scan is skipped when no
        entry is cached and unpinned."""
        if self._evictable == 0:
            return
        entries, sizes = self._entries, self._sizes
        victims: List[ObjectId] = []
        freed = 0
        for oid, state in entries.items():
            if freed >= needed:
                break
            if state == 0:
                victims.append(oid)
                freed += sizes[oid]
        for oid in victims:
            del entries[oid]
            self._evictable -= 1
            self.used_bytes -= sizes[oid]
            self._on_evict_cached(oid)

    def pump(self) -> None:
        """Grant queued requests that now fit (called after memory frees).

        Strict FIFO: the queue head is always serviced first, so a request
        that does not fit blocks everything behind it -- the head-of-line
        behaviour Ray's store exhibits.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if not self._grant(
                head.object_id, head.size, head.primary, head.pin, head.event
            ):
                break
            queue.popleft()
        if self._queue:
            self._on_pressure()

    def take_head_request(self) -> Optional[AllocationRequest]:
        """Remove and return the oldest queued request (for disk fallback)."""
        return self._queue.popleft() if self._queue else None

    # -- pinning -----------------------------------------------------------
    def pin(self, object_id: ObjectId) -> None:
        """Mark an entry in active use (never dropped or spilled)."""
        state = self._entries[object_id]
        if state < 2:
            self.pinned_bytes += self._sizes[object_id]
            if state == 0:
                self._evictable -= 1
        self._entries[object_id] = state + 2

    def unpin(self, object_id: ObjectId) -> None:
        """Release one pin (no-op if absent or unpinned)."""
        state = self._entries.get(object_id)
        if state is not None and state > 1:
            state -= 2
            self._entries[object_id] = state
            if state < 2:
                self.pinned_bytes -= self._sizes[object_id]
                if state == 0:
                    self._evictable += 1

    def demote_to_cached(self, object_id: ObjectId) -> None:
        """Mark an entry re-fetchable (its authoritative copy is elsewhere,
        e.g. it was just spilled to disk)."""
        state = self._entries.get(object_id)
        if state is not None and state & 1:
            self._entries[object_id] = state - 1
            if state == 1:
                self._evictable += 1

    # -- release -----------------------------------------------------------------
    def free(self, object_id: ObjectId) -> bool:
        """Drop an entry unconditionally (GC or post-spill); True if present."""
        state = self._entries.pop(object_id, None)
        if state is None:
            return False
        size = self._sizes[object_id]
        self.used_bytes -= size
        if state > 1:
            self.pinned_bytes -= size
        elif state == 0:
            self._evictable -= 1
        self.pump()
        return True

    def spillable_entries(self) -> List[Tuple[ObjectId, int]]:
        """Every unpinned primary entry as ``(object_id, size)``, in
        insertion (creation) order: what a spill round may victimise."""
        sizes = self._sizes
        return [
            (oid, sizes[oid]) for oid, state in self._entries.items() if state == 1
        ]

    def spill_candidates(
        self,
        max_bytes: int,
        skip: Optional[Callable[[ObjectId], bool]] = None,
        entries: Optional[List[Tuple[ObjectId, int]]] = None,
    ) -> List[Tuple[ObjectId, int]]:
        """Oldest unpinned primary entries, taken until they reach
        ``max_bytes``.

        ``skip`` lets the caller protect objects that queued local tasks
        are about to consume -- spilling those would just force an
        immediate restore.  A caller already holding
        :meth:`spillable_entries` passes it as ``entries``.
        """
        if entries is None:
            entries = self.spillable_entries()
        chosen: List[Tuple[ObjectId, int]] = []
        total = 0
        for oid, size in entries:
            if total >= max_bytes:
                break
            if skip is not None and skip(oid):
                continue
            chosen.append((oid, size))
            total += size
        return chosen

    def clear(self) -> List[ObjectId]:
        """Drop everything (node death); returns the object ids lost.

        Queued allocation requests fail: their waiters (tasks on the dying
        node) are being interrupted anyway.
        """
        lost = list(self._entries)
        self._entries.clear()
        self.used_bytes = 0
        self.pinned_bytes = 0
        self._evictable = 0
        queue, self._queue = self._queue, deque()
        for request in queue:
            if not request.event.triggered:
                request.event.fail(IOError(f"store on {self.node_id} cleared"))
        return lost

    def __repr__(self) -> str:
        return (
            f"<ObjectStore {self.node_id} {self.used_bytes}/{self.capacity}B "
            f"entries={len(self._entries)} backlog={len(self._queue)}>"
        )
