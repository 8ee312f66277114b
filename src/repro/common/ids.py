"""Typed identifiers for nodes, tasks, and objects.

The runtime tracks per-task and per-object metadata explicitly (the paper's
"each task and object is an independent unit"), so identifiers appear in
nearly every subsystem and key its hottest dicts and sets.  Each id is an
``int`` subclass with no per-instance state: hashing, equality and ordering
are the integer's own C-level operations (``hash(ObjectId(7)) == 7``), and
only printing adds the type tag (``T00042``, ``O00317``, ``N003``).

Because comparison is plain integer comparison, ids of *different* kinds
compare by their integers: ``NodeId(3) == TaskId(3)``.  No container may
therefore mix kinds -- every dict and set in the runtime is keyed by one
kind only.  ``json.dumps`` also writes an id as a bare integer, so JSON
writers stringify ids first (the event bus does when an event is read,
for its attribution axes and id-valued attrs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar


class _BaseId(int):
    """An integer identity with a short printable prefix."""

    __slots__ = ()
    _PREFIX: ClassVar[str] = "?"
    _WIDTH: ClassVar[int] = 5

    @property
    def index(self) -> int:
        return int(self)

    def __str__(self) -> str:
        return "%s%0*d" % (self._PREFIX, self._WIDTH, self)

    __repr__ = __str__


class NodeId(_BaseId):
    __slots__ = ()
    _PREFIX = "N"
    _WIDTH = 3


class TaskId(_BaseId):
    __slots__ = ()
    _PREFIX = "T"


class ObjectId(_BaseId):
    __slots__ = ()
    _PREFIX = "O"


@dataclass
class IdGenerator:
    """Monotonic id factory, one per runtime instance.

    Keeping the counters on an instance (not module globals) makes runs
    reproducible: two runtimes constructed in the same process hand out the
    same id sequences.
    """

    _tasks: "itertools.count[int]" = field(default_factory=itertools.count)
    _objects: "itertools.count[int]" = field(default_factory=itertools.count)
    _nodes: "itertools.count[int]" = field(default_factory=itertools.count)

    def next_task_id(self) -> TaskId:
        return TaskId(next(self._tasks))

    def next_object_id(self) -> ObjectId:
        return ObjectId(next(self._objects))

    def next_node_id(self) -> NodeId:
        return NodeId(next(self._nodes))
