"""Transparent object spilling with write fusing (§4.2.2, Fig 7).

When a node's allocation queue is backlogged, the spill manager migrates
unpinned primary objects from store memory to local disk.  With fusing
enabled (the default), victims are coalesced into files of at least
``fuse_min_bytes`` written with one sequential operation; with fusing
disabled each object becomes its own write and pays a seek -- this is the
Fig 7 ablation that is up to 12x slower for 100 KB objects.

If nothing is spillable and nothing is in flight, the manager falls back
to satisfying the oldest queued request directly on the filesystem,
preserving liveness ("Ray falls back to allocating task output objects on
the filesystem", §4.2.2).

With ``RuntimeConfig.spill_backend = "shared"`` the spill *destination*
changes: victim batches stream out the node's NIC into the cluster-wide
shared tier (``Runtime.shared_store``, one byte server) instead of onto
the local disk, and the directory records a node-agnostic shared
location.  Spilled bytes then survive the node's death -- recovery
re-reads instead of re-executing lineage (see ``docs/elasticity.md``).
Both backends run the same write, finish and restore bookkeeping; the
backend picks only the device and where the durable copy is recorded.
The liveness fallback stays on the local filesystem under both backends.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.common.ids import NodeId, ObjectId
from repro.metrics.core import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.futures.directory import ObjectDirectory
    from repro.futures.object_store import ObjectStore
    from repro.obs.events import EventBus
    from repro.simcore import BandwidthResource, Event

#: Bus attrs of a spill write or restore by backend: the shared tier
#: tags its events, the local disk does not.
_LOCAL: Dict[str, object] = {}
_SHARED: Dict[str, object] = {"backend": "shared"}


class SpillFile:
    """One on-disk file holding one or more fused objects.

    ``next_index`` tracks the read head: a restore of the object right
    after the previously restored one rides OS readahead and skips the
    seek; any other access (including the first) pays it.
    """

    __slots__ = (
        "file_id",
        "node_id",
        "total_bytes",
        "live_bytes",
        "num_objects",
        "next_index",
    )

    def __init__(self, file_id: int, node_id: NodeId, total_bytes: int,
                 num_objects: int) -> None:
        self.file_id = file_id
        self.node_id = node_id
        self.total_bytes = total_bytes
        self.live_bytes = total_bytes
        self.num_objects = num_objects
        self.next_index: Optional[int] = None


class SpillSlot:
    """An object's position inside a spill file."""

    __slots__ = ("file", "size", "index")

    def __init__(self, file: SpillFile, size: int, index: int = 0) -> None:
        self.file = file
        self.size = size
        self.index = index


class SpillManager:
    """Per-node spilling and restore logic."""

    def __init__(
        self,
        node: "Node",
        store: "ObjectStore",
        directory: "ObjectDirectory",
        counters: Counters,
        charge: Callable[[ObjectId, str, float], None],
        fuse_min_bytes: int,
        policy: str,
        bus: Optional["EventBus"] = None,
        shared: Optional["BandwidthResource"] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.store = store
        self.directory = directory
        self.counters = counters
        #: A spill round moves at least this many bytes (§4.2.2).
        self.fuse_min_bytes = fuse_min_bytes
        #: ``RuntimeConfig.spill_policy``: ``"unfused"`` writes one file
        #: per victim instead of one per round.
        self.policy = policy
        #: Optional structured event bus; spill writes, restore reads,
        #: and filesystem fallbacks publish begin/end events into it.
        self.bus = bus
        #: Per-object charge hook ``(object_id, counter, amount)`` that
        #: charges spill I/O globally and to the object's job together.
        self.charge = charge
        self._file_ids = itertools.count()
        self._slots: Dict[ObjectId, SpillSlot] = {}
        self._in_flight = 0
        #: Bumped by :meth:`clear` (node death): a spill write finishing
        #: in a later epoch than it started records nothing.
        self._epoch = 0
        #: Predicate marking objects that queued local tasks will consume;
        #: those are spilled only as a last resort (set by NodeManager).
        self.needed_soon = lambda oid: False
        #: The disaggregated spill tier's byte server
        #: (``config.spill_backend == "shared"``); None spills to the
        #: local disk.  The directory's shared flag records what it holds.
        self.shared = shared

    # -- queries --------------------------------------------------------------
    def is_spilled(self, object_id: ObjectId) -> bool:
        """True if this node's disk holds a copy of the object."""
        return object_id in self._slots

    def _has_durable_copy(self, object_id: ObjectId) -> bool:
        """True if a spilled copy exists locally or in the shared tier
        (either way, dropping the memory copy loses nothing)."""
        return object_id in self._slots or (
            self.shared is not None and self.directory.is_shared(object_id)
        )

    def slot(self, object_id: ObjectId) -> SpillSlot:
        """The spill slot of a locally spilled object."""
        return self._slots[object_id]

    def spilled_objects(self) -> List[ObjectId]:
        """Object ids with a copy on this node's disk (insertion order)."""
        return list(self._slots)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def spilled_bytes(self) -> int:
        """Total bytes currently held on this node's disk."""
        return sum(slot.size for slot in self._slots.values())

    # -- the pressure valve --------------------------------------------------
    def kick(self) -> None:
        """React to store pressure; called whenever the queue backlogs.

        One round covers the allocation backlog, but moves at least
        ``fuse_min_bytes`` (tiny files pay the seek fusing exists to
        avoid).  Victims come oldest first from
        :meth:`ObjectStore.spill_candidates`, skipping objects a queued
        local task will read unless nothing else is left (the last
        resort that keeps the node live).  A victim with a durable copy
        counts toward the target but is not written again.  The victims
        go out as one fused file, or one file each under ``"unfused"``.
        """
        if self._in_flight > 0:
            return  # current spill will re-kick on completion
        store = self.store
        if store.backlog == 0:
            return
        target = max(store.backlog_bytes, self.fuse_min_bytes)
        entries = store.spillable_entries()
        last_resort = False
        victims = self._victims(target, entries, self.needed_soon)
        if not victims:
            # Objects already spilled but still in memory can simply be
            # dropped -- their disk copy is authoritative.
            if self._drop_already_spilled():
                return
            # Last resort: spill even soon-needed objects to stay live.
            last_resort = True
            victims = self._victims(target, entries, None)
        if not victims:
            self._fallback_if_stuck()
            return
        if self.policy == "unfused":
            batches = [[victim] for victim in victims]
        else:
            batches = [victims]
        if self.bus is not None:
            self.bus.emit(
                "policy.decision",
                node=self.node.node_id,
                policy=f"spill:{self.policy}",
                decision="spill-victims",
                candidates=len(entries),
                bytes=sum(size for _, size in victims),
                batches=len(batches),
                last_resort=last_resort,
            )
        for batch in batches:
            self._start_spill(batch)

    def _victims(
        self,
        target: int,
        entries: List[Tuple[ObjectId, int]],
        skip: Optional[Callable[[ObjectId], bool]],
    ) -> List[Tuple[ObjectId, int]]:
        """The round's candidates less those with a durable copy."""
        return [
            (oid, size)
            for oid, size in self.store.spill_candidates(target, skip, entries)
            if not self._has_durable_copy(oid)
        ]

    def _drop_already_spilled(self) -> bool:
        dropped = False
        for oid in self.store.objects():
            if self._has_durable_copy(oid) and self.store.is_primary(oid):
                self.store.demote_to_cached(oid)
                dropped = True
        if dropped:
            self.store.pump()
        return dropped

    def _start_spill(self, batch: List[Tuple[ObjectId, int]]) -> None:
        total = sum(size for _, size in batch)
        file = SpillFile(
            next(self._file_ids), self.node.node_id, total, len(batch)
        )
        for oid, _size in batch:
            self.store.pin(oid)  # data must stay while being written
        self._in_flight += 1
        for oid, size in batch:
            self.charge(oid, "spill_bytes_written", size)
        self.counters.add("spill_files", 1)
        shared = self.shared
        self.counters.add(
            "disk_bytes_written" if shared is None else "shared_bytes_written",
            total,
        )
        begin = None
        if self.bus is not None:
            begin = self.bus.emit(
                "spill.write.begin",
                node=self.node.node_id,
                bytes=total,
                objects=len(batch),
                file=file.file_id,
                **(_LOCAL if shared is None else _SHARED),
            )
        if shared is None:
            # One sequential write per file; an unfused "file" per object
            # means one seek-bearing operation per object.
            disk = self.node.disk
            write = disk.transfer(total, latency=disk.per_op_latency)
        else:
            # Out the NIC into the shared tier: the write lasts as long
            # as the slower of the two (the tier adds its request latency).
            write = self.env.all_of(
                [self.node.nic_out.transfer(total), shared.transfer(total)]
            )
        epoch = self._epoch
        write.add_callback(
            lambda event: self._finish_spill(file, batch, event.ok, begin, epoch)
        )

    def _finish_spill(
        self,
        file: SpillFile,
        batch: List[Tuple[ObjectId, int]],
        ok: bool,
        begin: Optional[object],
        epoch: int,
    ) -> None:
        # A write issued before this node died (``clear`` moved the epoch
        # on) lands on a disk or in a tier copy nobody may read: the
        # store, slots and in-flight count it would touch are gone.
        stale = epoch != self._epoch
        if self.bus is not None:
            self.bus.emit(
                "spill.write.end",
                node=self.node.node_id,
                cause=begin,
                ok=ok and not stale,
                **(
                    {"file": file.file_id} if self.shared is None else _SHARED
                ),
            )
        if stale:
            return
        # Note: ``_in_flight`` stays held until all bookkeeping below is
        # done; intermediate ``free``/``pump`` calls re-enter ``kick`` and
        # must not start a new spill that re-selects this batch's objects.
        for oid, _size in batch:
            self.store.unpin(oid)
        if not ok:
            # The device failed mid-write; nothing was stored.
            self._in_flight -= 1
            return
        for position, (oid, size) in enumerate(batch):
            if oid not in self.directory:
                # Freed (refcount zero) while the write was in flight.
                file.live_bytes -= size
                continue
            if self.shared is None:
                slot = self._slots[oid] = SpillSlot(file, size, index=position)
                self.directory.add_spill_location(oid, self.node.node_id, slot)
            else:
                self.directory.add_shared_location(oid)
            # The memory copy is no longer authoritative; free it now to
            # relieve pressure.
            self.directory.remove_memory_location(oid, self.node.node_id)
            self.store.free(oid)
        self._in_flight -= 1
        self.store.pump()
        self.kick()

    def _fallback_if_stuck(self) -> None:
        """Grant the oldest queued request directly on the filesystem."""
        if self._in_flight > 0:
            return
        request = self.store.take_head_request()
        if request is None:
            return
        self.counters.add("fallback_allocations", 1)
        self.counters.add("disk_bytes_written", request.size)
        if self.bus is not None:
            self.bus.emit(
                "spill.fallback",
                node=self.node.node_id,
                obj=request.object_id,
                bytes=request.size,
            )
        write = self.node.disk_write(request.size, sequential=True)

        def done(event: object) -> None:
            self.adopt(request.object_id, request.size)
            if not request.event.triggered:
                request.event.succeed("disk")
            self.store.pump()

        write.add_callback(done)

    def adopt(self, object_id: ObjectId, size: int) -> None:
        """Record an object written straight to disk by its creating task
        (``output_to_disk`` task option) or by the fallback valve; the
        disk write was already charged by the caller."""
        file = SpillFile(next(self._file_ids), self.node.node_id, size, 1)
        slot = SpillSlot(file, size)
        self._slots[object_id] = slot
        self.directory.add_spill_location(object_id, self.node.node_id, slot)

    # -- restore --------------------------------------------------------------
    def restore_read(self, object_id: ObjectId):
        """Charge the disk read to bring a spilled object's bytes back.

        Access-pattern aware: reading the object immediately after the
        previously read one in the same fused file rides readahead (no
        seek); the first access to a file and any out-of-order access pay
        the full seek.  Restoring a fused file front to back (the Fig 7
        microbenchmark, push-shuffle merged runs) is therefore nearly
        sequential, while scattered reads of tiny blocks (simple shuffle
        at high partition counts) hit the seek wall.
        """
        slot = self._slots[object_id]
        file = slot.file
        sequential = file.next_index is not None and slot.index == file.next_index
        file.next_index = slot.index + 1
        read = self.node.disk.transfer(
            slot.size, latency=0.0 if sequential else None
        )
        return self._restore(
            object_id, slot.size, read, "disk_bytes_read", _LOCAL,
            sequential=sequential,
        )

    def shared_restore_read(self, object_id: ObjectId):
        """Charge the read bringing a shared-tier object to this node.

        Pays the node's NIC ingress and the shared store's bandwidth
        (plus its per-request latency); any node can issue this --
        including one that never wrote the object -- which is what makes
        the tier durable against node loss.
        """
        size = self.directory.sizes[object_id]
        read = self.env.all_of(
            [self.node.nic_in.transfer(size), self.shared.transfer(size)]
        )
        return self._restore(object_id, size, read, "shared_bytes_read", _SHARED)

    def _restore(
        self,
        object_id: ObjectId,
        size: int,
        read: "Event",
        counter: str,
        tag: Dict[str, object],
        **begin_attrs: object,
    ) -> "Event":
        """Charge ``read`` of a spilled copy and bracket it on the bus;
        ``tag`` marks both events, ``begin_attrs`` only the begin."""
        self.charge(object_id, "spill_bytes_read", size)
        self.counters.add(counter, size)
        bus = self.bus
        if bus is not None:
            node_id = self.node.node_id
            begin = bus.emit(
                "spill.restore.begin",
                node=node_id,
                obj=object_id,
                bytes=size,
                **begin_attrs,
                **tag,
            )
            read.add_callback(
                lambda _event: bus.emit(
                    "spill.restore.end",
                    node=node_id,
                    obj=object_id,
                    cause=begin,
                    **tag,
                )
            )
        return read

    # -- GC / failure ------------------------------------------------------
    def forget(self, object_id: ObjectId) -> None:
        """Release an object's spill slot (its refcount hit zero)."""
        slot = self._slots.pop(object_id, None)
        if slot is not None:
            slot.file.live_bytes -= slot.size
            self.directory.remove_spill_location(object_id, self.node.node_id)

    def clear(self) -> List[ObjectId]:
        """Node death: all local spill files are gone.

        Directory locations are deliberately left stale; the runtime's
        failure-detection handler removes them after the heartbeat timeout.
        Writes still in flight belong to the old epoch and record nothing.
        """
        lost = list(self._slots)
        self._slots.clear()
        self._in_flight = 0
        self._epoch += 1
        return lost
