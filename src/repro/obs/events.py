"""The structured event bus: what happened, when, where, and why.

Every subsystem of the data plane publishes :class:`ObsEvent` records
into one per-runtime :class:`EventBus`.  An event is a *typed* fact --
its ``kind`` must come from the registered taxonomy
(:data:`EVENT_KINDS`), so a typo in an instrumentation hook fails fast
instead of silently producing an unreportable stream -- carrying the
simulated timestamp, the four attribution axes (``node``, ``job``,
``task``, ``object``), an optional *causal parent* (the ``seq`` of the
event that made this one happen: a chaos fault causes a node death,
which causes a task retry), and free-form ``attrs``.

Events are recorded in emission order (the simulated clock is
monotonic, so ``ts`` is non-decreasing and ``seq`` is a total order)
and can be streamed to subscribers, exported to JSONL, and re-loaded
for offline reporting (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.ids import NodeId, ObjectId, TaskId

#: The registered event taxonomy: kind -> one-line description.  The
#: span tracer and the run reporter key off these names; extend with
#: :meth:`EventBus.register_kind` before emitting a new kind.
EVENT_KINDS: Dict[str, str] = {
    # task lifecycle
    "task.submit": "driver submitted a task (attrs: fn, returns, deps)",
    "task.place": "scheduler chose a node for a dependency-ready task",
    "task.park": "fair-share scheduler queued the task behind its job",
    "task.run": "an attempt started executing on a core (attrs: attempt)",
    "task.finish": "an attempt finished successfully",
    "task.fail": "the task failed terminally (attrs: error)",
    "task.retry": "the task was resubmitted (cause: the triggering fault)",
    # policy plane
    "policy.decision": (
        "placement, dispatch, spill victims or re-planning chose among "
        "candidates (attrs: policy, decision, stage/candidates/... per kind)"
    ),
    # object lifecycle and movement
    "object.create": "an object became available (attrs: bytes)",
    "object.evict": "refcount hit zero; the object was evicted everywhere",
    "transfer.begin": "an inter-node object transfer started (attrs: src)",
    "transfer.end": "the transfer completed (cause: transfer.begin)",
    # spilling
    "spill.write.begin": "a spill write started (attrs: bytes, objects)",
    "spill.write.end": "the spill write completed (cause: its begin)",
    "spill.restore.begin": "a restore read started (attrs: bytes)",
    "spill.restore.end": "the restore completed (cause: its begin)",
    "spill.fallback": "allocation fell back to the filesystem (attrs: bytes)",
    "store.pressure": "an allocation parked in the store queue (attrs: bytes)",
    # direct disk I/O (output_to_disk task outputs; not spill traffic)
    "disk.write.begin": "a direct output write to disk started (attrs: bytes)",
    "disk.write.end": "the output write completed (cause: its begin)",
    # nodes, executors, drivers
    "node.death": "a node died (cause: the chaos fault, when injected)",
    "node.restart": "a crashed node came back",
    "cluster.membership": (
        "a node's lifecycle changed (attrs: action=join/drain/remove, "
        "active; remove adds casualties/lost_objects; cause: the "
        "triggering fault)"
    ),
    "executor.failure": "all executors on a node were killed, store intact",
    "driver.spawn": "a subdriver started (attrs: name; job = its label)",
    "driver.finish": "a subdriver returned (attrs: ok)",
    # multi-tenant job control plane
    "job.submit": "a job entered admission (attrs: tenant, name)",
    "job.reject": "admission rejected the job (attrs: error)",
    "job.admit": "the job was admitted and registered for fair sharing",
    "job.start": "the job's subdriver began running",
    "job.done": "the job completed successfully (cause: job.start)",
    "job.fail": "the job failed (cause: job.start; attrs: error)",
    "job.cancel": "a queued job was cancelled",
    # streaming tier (repro.streaming; absent from batch-only runs)
    "stream.window.open": (
        "a tumbling window received its first record "
        "(attrs: window, start, end)"
    ),
    "stream.window.close": (
        "the watermark passed the window's end and its repartition "
        "round was submitted (cause: its open; attrs: records, bytes)"
    ),
    "stream.agg.begin": (
        "the window's per-round aggregate task was submitted "
        "(cause: the window close)"
    ),
    "stream.agg.end": (
        "the window's aggregate became visible -- records are now "
        "queryable (cause: its begin; attrs: latency percentiles)"
    ),
    "stream.backpressure": (
        "the streaming job throttled its source (attrs: reason="
        "inflight_windows, inflight)"
    ),
    "stream.source.close": (
        "an unbounded source reached its horizon and closed "
        "(attrs: records, watermark)"
    ),
    # plan layer (repro.plan; emitted only with re-planning enabled)
    "plan.lower": (
        "an abstract shuffle expression was lowered to a concrete "
        "variant (attrs: variant, decided_by, label, shape)"
    ),
    "plan.replan": (
        "the remaining plan was re-lowered mid-job (cause: the original "
        "plan.lower or previous replan; attrs: boundary, "
        "variant_before/after and the sampled store_bytes, or the "
        "adjusted param for bound changes)"
    ),
    # chaos
    "chaos.fault": "the injector fired a fault (attrs: fault)",
    # synthetic
    "run.summary": "trailing export record: counters and per-job counters",
}


#: The optional fields of an event, in order: attribution axes and cause.
_AXES = ("node", "job", "task", "obj", "cause")


@dataclass(slots=True)
class ObsEvent:
    """One timestamped, attributed, causally linked fact about a run.

    Slotted and not frozen, because the bus builds one per recorded event
    and a frozen dataclass pays ``object.__setattr__`` per field.  Events
    are still read-only by contract: subscribers, recorders and readers
    share the same instance, so nothing may assign to one once built.
    """

    seq: int
    ts: float
    kind: str
    node: Optional[str] = None
    job: Optional[str] = None
    task: Optional[str] = None
    obj: Optional[str] = None
    cause: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dict (``None`` axes omitted)."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        for key in _AXES:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            int(data["seq"]), float(data["ts"]), str(data["kind"]),
            *map(data.get, _AXES), dict(data.get("attrs", {})),
        )

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{k}={getattr(self, k)}"
            for k in _AXES
            if getattr(self, k) is not None
        )
        return f"<ObsEvent #{self.seq} t={self.ts:g} {self.kind} {axes}>"


def causal_chain(event: ObsEvent, index: Dict[int, ObsEvent]) -> List[ObsEvent]:
    """The event plus its transitive causes, effect first; the walk
    stops at a cause missing from ``index`` (seq -> event)."""
    chain = [event]
    seen = {event.seq}
    while chain[-1].cause is not None:
        parent = index.get(chain[-1].cause)
        if parent is None or parent.seq in seen:
            break
        chain.append(parent)
        seen.add(parent.seq)
    return chain


def run_summary(events: Sequence[ObsEvent]) -> Dict[str, Any]:
    """The attrs of the last ``run.summary`` event ({} when absent)."""
    for event in reversed(events):
        if event.kind == "run.summary":
            return event.attrs
    return {}


#: The typed ids an attr value may hold; see :func:`_read_attr`.
_ID_TYPES = (NodeId, TaskId, ObjectId)

#: Flat items per retained record before its attr values: kind, node,
#: job, task, obj, cause, and the record's interned attr key tuple.
_HEAD = 7


def _read_attr(value: Any) -> Any:
    """An attr value as readers see it: an id as its string, a tuple of
    ids (the empty tuple included) as a list of strings, anything else
    unchanged."""
    if isinstance(value, _ID_TYPES):
        return str(value)
    if type(value) is tuple and all(isinstance(v, _ID_TYPES) for v in value):
        return [str(v) for v in value]
    return value


class EventBus:
    """Collects and fans out :class:`ObsEvent` records for one run.

    ``clock`` supplies timestamps (the runtime passes its simulated
    clock).  Emission is cheap: :meth:`emit` appends one compact record
    and returns its ``seq``; the :class:`ObsEvent` (with its stringified
    ids) is built the first time :attr:`events` is read, which a
    subscriber makes emission do at once to hand the event over.
    ``enabled=False`` switches the bus off wholesale for runs that want
    zero observability overhead.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self._kinds = dict(EVENT_KINDS)
        self._subscribers: List[Callable[[ObsEvent], None]] = []
        self._seq = 0
        #: Events already read, in seq order; :attr:`events` returns this
        #: very list, so a reader's reference keeps growing with the run.
        self._events: List[ObsEvent] = []
        #: Records emitted after the last read, none an object of its
        #: own.  The i-th has seq ``_first + i`` and ts ``_ts[i]``; its
        #: ``_HEAD`` items in ``_pending`` end with its attr key tuple
        #: (one shared tuple per key signature, see ``_keys``), and its
        #: attr values as passed follow.
        self._first = 0
        self._ts = array("d")
        self._pending: List[Any] = []
        self._keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- taxonomy -----------------------------------------------------------
    def register_kind(self, kind: str, description: str) -> None:
        """Extend the taxonomy (idempotent); required before emitting a
        kind absent from :data:`EVENT_KINDS`."""
        self._kinds[kind] = description

    # -- emission -----------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        node: Any = None,
        job: Optional[str] = None,
        task: Any = None,
        obj: Any = None,
        cause: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[int]:
        """Publish one event; returns its ``seq`` (a later event's
        ``cause``), or ``None`` when the bus is disabled.

        ``node``/``task``/``obj`` and attr values accept the typed ids
        (an attr also a tuple of them); they are kept as passed and
        stringified when the event is first read, for stable JSON.
        """
        if not self.enabled:
            return None
        if kind not in self._kinds:
            raise ValueError(
                f"unknown event kind {kind!r}; register it or use one of "
                f"the taxonomy in repro.obs.events.EVENT_KINDS"
            )
        seq = self._seq
        self._seq = seq + 1
        self._ts.append(self.clock())
        pending = self._pending
        if attrs:
            keys = tuple(attrs)
            pending += (kind, node, job, task, obj, cause,
                        self._keys.setdefault(keys, keys))
            pending += attrs.values()
        else:
            pending += (kind, node, job, task, obj, cause, ())
        if self._subscribers:
            event = self.events[-1]
            for subscriber in self._subscribers:
                subscriber(event)
        return seq

    def subscribe(self, fn: Callable[[ObsEvent], None]) -> Callable[[], None]:
        """Stream every future event to ``fn``; returns an unsubscribe
        callable."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

        return unsubscribe

    # -- queries ------------------------------------------------------------
    @property
    def events(self) -> List[ObsEvent]:
        """Every recorded event in seq order.

        Records emitted since the last read become :class:`ObsEvent`s
        here and are appended to the one cached list, which is returned;
        later reads extend that same list.
        """
        pending = self._pending
        if pending:
            append = self._events.append
            end = 0
            for seq, ts in enumerate(self._ts, self._first):
                head = end + _HEAD
                kind, node, job, task, obj, cause, keys = pending[end:head]
                end = head + len(keys)
                append(ObsEvent(
                    seq, ts, kind,
                    None if node is None else str(node), job,
                    None if task is None else str(task),
                    None if obj is None else str(obj), cause,
                    dict(zip(keys, map(_read_attr, pending[head:end]))),
                ))
            pending.clear()
            del self._ts[:]
            self._first = self._seq
        return self._events

    def __len__(self) -> int:
        return len(self._events) + self._seq - self._first

    @property
    def next_seq(self) -> int:
        """The seq the next emitted event would get (used by exporters
        appending synthetic trailing records)."""
        return self._seq

    def events_of(self, prefix: str) -> List[ObsEvent]:
        """Events whose kind equals ``prefix`` or starts with
        ``prefix + '.'`` (e.g. ``"task"`` matches every task event)."""
        dotted = prefix + "."
        return [
            e for e in self.events
            if e.kind == prefix or e.kind.startswith(dotted)
        ]

    def clear(self) -> None:
        """Drop recorded events (sequence numbers keep increasing)."""
        self._events.clear()
        self._pending.clear()
        del self._ts[:]
        self._first = self._seq

    # -- persistence ----------------------------------------------------------
    def to_jsonl(self, path: str, extra: Iterable[ObsEvent] = ()) -> int:
        """Write events (plus ``extra`` trailing records) as JSON lines;
        returns the number written."""
        written = 0
        with Path(path).open("w") as fh:
            for event in chain(self.events, extra):
                fh.write(json.dumps(event.to_dict()) + "\n")
                written += 1
        return written

    @staticmethod
    def load_jsonl(path: str) -> List[ObsEvent]:
        """Re-load events written by :meth:`to_jsonl`."""
        with Path(path).open() as fh:
            return [
                ObsEvent.from_dict(json.loads(line)) for line in fh if line.strip()
            ]

    def __repr__(self) -> str:
        return (
            f"<EventBus {len(self)} events, "
            f"{'enabled' if self.enabled else 'disabled'}>"
        )
