"""Distributed futures: first-class references to eventual remote values.

An :class:`ObjectRef` is what ``.remote()`` returns and what tasks accept
as arguments.  The runtime reference-counts *instances*: each live
``ObjectRef`` pointing at an object keeps that object reachable, and
dropping the last one (``del map_results`` in the push-based shuffle,
Listing 3 L29) lets the runtime evict the object everywhere without
spilling it -- the write-amplification/recovery trade-off of §4.3.1.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.ids import ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from repro.futures.runtime import Runtime


class ObjectRef:
    """A handle to an object that may live anywhere in the cluster."""

    __slots__ = ("object_id", "_release", "_released", "__weakref__")

    def __init__(
        self,
        object_id: ObjectId,
        release: Optional[Callable[[ObjectId], None]] = None,
    ) -> None:
        self.object_id = object_id
        self._release = release
        self._released = False

    def release(self) -> None:
        """Explicitly drop this handle's count (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._release is not None:
            self._release(self.object_id)

    def __del__(self) -> None:
        try:
            self.release()
        except Exception:  # noqa: BLE001 - never raise during GC/shutdown
            pass

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectRef) and other.object_id == self.object_id

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __repr__(self) -> str:
        return f"ObjectRef({self.object_id})"


def weak_release(runtime: "Runtime") -> Callable[[ObjectId], None]:
    """The release callback every ref of ``runtime`` shares.

    It holds only a weak reference to the runtime so that dangling
    ``ObjectRef`` instances never keep a finished runtime alive.
    """
    runtime_ref = weakref.ref(runtime)

    def release(oid: ObjectId) -> None:
        live_runtime = runtime_ref()
        if live_runtime is not None:
            live_runtime.decref(oid)

    return release


def make_ref(runtime: "Runtime", object_id: ObjectId) -> ObjectRef:
    """Create a counted reference bound to ``runtime``."""
    runtime.incref(object_id)
    return ObjectRef(object_id, runtime.release_ref)
