"""Fixed-interval time-series sampling of the event bus.

:class:`TimeSeriesSampler` turns the run's event stream into
ring-buffered, fixed-interval series -- the signal surface the terminal
dashboard, the HTML run explorer, and (eventually) an external
scheduler or adaptive re-planner consume.  It is a *pure consumer* of
:class:`~repro.obs.events.ObsEvent` records: the same object can be

- attached to a live runtime (``runtime.attach_sampler(sampler)``
  subscribes :meth:`on_event` to the bus), or
- replayed over a recorded ``record_run`` JSONL file
  (:meth:`TimeSeriesSampler.replay`),

and produces **bit-for-bit identical series** either way, because every
sample is a deterministic function of the event sequence alone.

Sampling semantics (the contract the golden digest test pins):

- sample boundaries sit at ``t0 + k * interval_s`` for ``k >= 1``,
  where ``t0`` is the timestamp of the first event seen;
- the sample at boundary ``b`` records the state after *every* event
  with ``ts <= b`` and before any event with ``ts > b`` -- exact
  last-sample semantics (events land on boundaries often in simulated
  time, and they count into the boundary they sit on);
- :meth:`finish` flushes the boundaries up to the end of the run (the
  trailing ``run.summary`` event's timestamp in a recorded file, the
  runtime clock on a live bus), so live and replayed runs close their
  series at the same instant;
- each series is a :class:`SeriesRing` of bounded capacity -- old
  samples fall off the front, but the retained window, its start
  index, and the totals stay identical between live and replay.

Series maintained (names are ``scope:key:track``):

- ``node:<id>:cpu`` -- executing task attempts on the node;
- ``node:<id>:disk`` -- in-flight disk requests (spill writes and
  restores plus direct ``output_to_disk`` writes);
- ``node:<id>:nic`` -- in-flight transfers touching the node;
- ``node:<id>:store`` -- object-store occupancy in bytes;
- ``node:<id>:spill_queue`` -- allocations parked under pressure;
- ``job:<id>:inflight`` -- submitted-but-unsettled tasks of the job;
- ``tenant:<name>:finished`` -- cumulative finished tasks (the
  fair-share signal);
- ``tenant:<name>:stalls`` -- cumulative backpressure stalls;
- ``cluster:inflight`` / ``cluster:stall_rate`` (stalls per interval)
  / ``cluster:faults`` / ``cluster:retries``.

The state behind those series lives in :class:`GaugeFold`, which
:func:`repro.obs.perf.derive_usage` replays too: the per-node usage
tracks and the ``node:*`` series are one derivation, one read point
by point and the other at interval boundaries.

Tenants are resolved from the ``tenant`` attr that the jobs control
plane stamps on ``job.*`` events and the streaming tier stamps on
``stream.backpressure``; tasks map to tenants through their job.

The sampler also keeps a bounded causal *fault feed* of
:class:`~repro.obs.trace.FaultEntry` lines -- fault / churn / death /
retry events with their causal chains resolved at arrival time, the
same lines as the run report's timeline -- which the dashboard scrolls
and the HTML explorer lists.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventBus, ObsEvent
from repro.obs.trace import FAULT_KINDS, FaultEntry

#: Per-node track names, in display order.
NODE_TRACKS = ("cpu", "disk", "nic", "store", "spill_queue")


class SeriesRing:
    """A fixed-capacity ring of samples with an absolute start index.

    ``push`` appends; once ``capacity`` is exceeded the oldest sample is
    dropped and :attr:`start` advances, so sample ``values()[i]`` always
    belongs to boundary index ``start + i`` regardless of how much
    history fell off.
    """

    __slots__ = ("capacity", "start", "_samples")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Absolute boundary index of the oldest retained sample.
        self.start = 0
        self._samples: Deque[float] = deque(maxlen=capacity)

    def push(self, value: float) -> None:
        """Append one sample, dropping the oldest beyond capacity."""
        if len(self._samples) == self.capacity:
            self.start += 1
        self._samples.append(value)

    def values(self) -> List[float]:
        """Retained samples, oldest first."""
        return list(self._samples)

    @property
    def last(self) -> float:
        """The most recent sample (0.0 before any samples exist)."""
        return self._samples[-1] if self._samples else 0.0

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"<SeriesRing {len(self._samples)}/{self.capacity} "
            f"start={self.start}>"
        )


class GaugeFold:
    """A run's current gauges, folded from its events one at a time.

    The one place task, disk, transfer, object-store and spill events
    become numbers: :class:`TimeSeriesSampler` samples :attr:`gauges`
    at interval boundaries, and :func:`repro.obs.perf.derive_usage`
    replays the same fold, recording each ``node:*`` write (reported
    through ``on_change(name, value)``) as a step point.
    """

    def __init__(
        self, on_change: Optional[Callable[[str, float], None]] = None
    ) -> None:
        #: Series name -> current value.
        self.gauges: Dict[str, float] = {}
        self.on_change = on_change
        self._running_on: Dict[str, str] = {}  # task -> node of live attempt
        self._disk_begin: Dict[int, str] = {}  # begin seq -> node
        self._nic_begin: Dict[int, Tuple[str, ...]] = {}  # begin seq -> nodes
        self._begin_bytes: Dict[int, float] = {}  # begin seq -> bytes
        self._residency: Dict[str, Dict[str, float]] = {}  # obj -> node -> B
        self._parked: Dict[str, List[str]] = {}  # node -> parked obj ids
        self._job_tenant: Dict[str, str] = {}  # job id -> tenant
        self._job_of_task: Dict[str, Optional[str]] = {}

    def _set(self, name: str, value: float) -> None:
        self.gauges[name] = value
        if self.on_change is not None:
            self.on_change(name, value)

    def _bump(self, name: str, delta: float) -> None:
        self._set(name, max(0.0, self.gauges.get(name, 0.0) + delta))

    def _tenant_of(self, event: ObsEvent) -> Optional[str]:
        tenant = event.attrs.get("tenant")
        if tenant is not None:
            return str(tenant)
        if event.job is not None:
            return self._job_tenant.get(event.job)
        return None

    def _end_of_attempt(self, task: Optional[str]) -> None:
        """Close the running attempt of ``task`` (if any) on its node."""
        if task is None:
            return
        node = self._running_on.pop(task, None)
        if node is not None:
            self._bump(f"node:{node}:cpu", -1.0)

    def _kill_node_attempts(self, node: Optional[str]) -> None:
        """A node died or was removed: its executing attempts vanish."""
        if node is None:
            return
        doomed = [t for t, n in self._running_on.items() if n == node]
        for task in doomed:
            del self._running_on[task]
        if doomed:
            self._set(f"node:{node}:cpu", 0.0)

    def _settle_task(self, event: ObsEvent) -> None:
        job = self._job_of_task.pop(event.task, None) if event.task else None
        self._bump("cluster:inflight", -1.0)
        if job is not None:
            self._bump(f"job:{job}:inflight", -1.0)

    def _store_add(
        self, node: Optional[str], obj: Optional[str], size: float
    ) -> None:
        if node is None or size <= 0:
            return
        if obj is not None:
            self._residency.setdefault(obj, {})[node] = size
        self._bump(f"node:{node}:store", size)

    def _unpark(self, node: Optional[str], obj: Optional[str]) -> None:
        parked = self._parked.get(node) if node is not None else None
        if parked and obj in parked:
            parked.remove(obj)
            self._bump(f"node:{node}:spill_queue", -1.0)

    def apply(self, event: ObsEvent) -> None:  # noqa: C901 - one dispatch
        """Fold one event into the gauges."""
        kind = event.kind
        attrs = event.attrs
        tenant = self._tenant_of(event)
        if kind == "task.submit":
            self._bump("cluster:inflight", +1.0)
            if event.task is not None:
                self._job_of_task[event.task] = event.job
            if event.job is not None:
                self._bump(f"job:{event.job}:inflight", +1.0)
        elif kind == "task.run":
            if event.task is not None and event.node is not None:
                self._end_of_attempt(event.task)  # superseded attempt
                self._running_on[event.task] = event.node
                self._bump(f"node:{event.node}:cpu", +1.0)
        elif kind == "task.finish":
            self._end_of_attempt(event.task)
            self._settle_task(event)
            if event.job is not None:
                self._bump(f"job:{event.job}:finished", +1.0)
            if tenant is not None:
                self._bump(f"tenant:{tenant}:finished", +1.0)
        elif kind == "task.fail":
            self._end_of_attempt(event.task)
            self._settle_task(event)
        elif kind == "task.retry":
            self._end_of_attempt(event.task)
            self._bump("cluster:retries", +1.0)
        elif kind == "chaos.fault":
            self._bump("cluster:faults", +1.0)
        elif kind in ("node.death", "executor.failure"):
            self._kill_node_attempts(event.node)
        elif kind == "cluster.membership":
            if attrs.get("action") == "remove":
                self._kill_node_attempts(event.node)
        elif kind in (
            "spill.write.begin", "spill.restore.begin", "disk.write.begin"
        ):
            if event.node is not None:
                self._disk_begin[event.seq] = event.node
                self._begin_bytes[event.seq] = float(attrs.get("bytes", 0.0))
                self._bump(f"node:{event.node}:disk", +1.0)
        elif kind in ("spill.write.end", "spill.restore.end", "disk.write.end"):
            node = self._disk_begin.pop(event.cause, None) or event.node
            size = self._begin_bytes.pop(event.cause, 0.0)
            if node is not None:
                self._bump(f"node:{node}:disk", -1.0)
            if kind == "spill.restore.end":
                self._store_add(event.node, event.obj, size)
            elif kind == "spill.write.end" and attrs.get("ok", True):
                if event.node is not None:
                    self._bump(f"node:{event.node}:store", -size)
        elif kind == "transfer.begin":
            nodes = tuple(
                n for n in (event.node, attrs.get("src")) if n is not None
            )
            self._nic_begin[event.seq] = tuple(str(n) for n in nodes)
            self._begin_bytes[event.seq] = float(attrs.get("bytes", 0.0))
            for node in nodes:
                self._bump(f"node:{node}:nic", +1.0)
        elif kind == "transfer.end":
            for node in self._nic_begin.pop(event.cause, ()):
                self._bump(f"node:{node}:nic", -1.0)
            size = self._begin_bytes.pop(event.cause, 0.0)
            if attrs.get("ok", True):
                self._store_add(event.node, event.obj, size)
        elif kind == "object.create":
            self._store_add(event.node, event.obj, float(attrs.get("bytes", 0.0)))
            self._unpark(event.node, event.obj)
        elif kind == "object.evict":
            if event.obj is not None:
                for node, size in self._residency.pop(event.obj, {}).items():
                    self._bump(f"node:{node}:store", -size)
        elif kind == "store.pressure":
            if event.node is not None:
                self._parked.setdefault(event.node, []).append(event.obj or "")
                self._bump(f"node:{event.node}:spill_queue", +1.0)
        elif kind == "spill.fallback":
            self._unpark(event.node, event.obj)
        elif kind == "stream.backpressure":
            self._bump("cluster:stalls", +1.0)
            if tenant is not None:
                self._bump(f"tenant:{tenant}:stalls", +1.0)
        elif kind in ("job.submit", "job.admit", "job.start"):
            if event.job is not None and attrs.get("tenant") is not None:
                self._job_tenant[event.job] = str(attrs["tenant"])


class TimeSeriesSampler:
    """Ring-buffered fixed-interval series derived from the event bus."""

    def __init__(
        self,
        interval_s: float = 0.25,
        capacity: int = 512,
        feed_capacity: int = 64,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.capacity = capacity
        #: First event timestamp (None until the first event arrives).
        self.t0: Optional[float] = None
        #: Timestamp sampling was finished at (None while open).
        self.t_end: Optional[float] = None
        #: Timestamp of the newest event consumed so far.
        self.last_event_ts = 0.0
        self.events_seen = 0
        self.series: Dict[str, SeriesRing] = {}
        self.feed: Deque[FaultEntry] = deque(maxlen=feed_capacity)
        #: node id -> spec capacities, from ``on_attach`` (live) or the
        #: trailing ``run.summary`` (replay); display-only -- never an
        #: input to the sampled values, so live/replay stay bit-equal.
        self.capacities: Dict[str, Dict[str, Any]] = {}
        self._clock: Optional[Any] = None
        self._next_boundary: Optional[float] = None
        self._boundary_index = 0
        #: The live state the series sample.
        self.fold = GaugeFold()
        self._stalls_sampled = 0.0  # cluster:stalls at the last boundary
        self._feed_index: Dict[int, ObsEvent] = {}  # seq -> feed-kind event

    # -- wiring ----------------------------------------------------------------
    def on_attach(self, runtime: Any) -> None:
        """Runtime hook (duck-typed): capture the clock for
        :meth:`finish` and the cluster capacities for display."""
        self._clock = runtime.bus.clock
        self.capacities = dict(runtime.cluster_snapshot())

    @classmethod
    def replay(
        cls,
        events: Sequence[ObsEvent],
        interval_s: float = 0.25,
        capacity: int = 512,
        feed_capacity: int = 64,
    ) -> "TimeSeriesSampler":
        """Sample a recorded event stream end to end.

        Produces series bit-for-bit identical to a live sampler that
        was attached for the whole run and finished at the recording
        time (the trailing ``run.summary``'s timestamp).
        """
        sampler = cls(
            interval_s=interval_s,
            capacity=capacity,
            feed_capacity=feed_capacity,
        )
        for event in events:
            sampler.on_event(event)
        sampler.finish()
        return sampler

    @classmethod
    def replay_file(cls, path: str, **kwargs: Any) -> "TimeSeriesSampler":
        """Sample a ``record_run`` JSONL file end to end."""
        return cls.replay(EventBus.load_jsonl(path), **kwargs)

    # -- sampling core ---------------------------------------------------------
    def on_event(self, event: ObsEvent) -> None:
        """Consume one event: flush any boundaries it crossed, then fold
        it into the live state (exact last-sample semantics)."""
        if self.t_end is not None:
            raise RuntimeError("sampler already finished")
        if self.t0 is None:
            self.t0 = event.ts
            self._next_boundary = self.t0 + self.interval_s
        while event.ts > self._next_boundary:
            self._emit_sample()
        self.fold.apply(event)
        if event.kind in FAULT_KINDS:
            # Chains resolve through feed events only, as at arrival.
            self._feed_index[event.seq] = event
            self.feed.append(FaultEntry.of(event, self._feed_index))
        elif event.kind == "run.summary":
            # Replay of a recorded file: adopt the capacities snapshot.
            cluster = event.attrs.get("cluster")
            if cluster and not self.capacities:
                self.capacities = dict(cluster)
        self.last_event_ts = event.ts
        self.events_seen += 1

    def finish(self, end: Optional[float] = None) -> float:
        """Flush samples up to the end of the run and close the sampler.

        ``end`` defaults to the attached clock (live) or the last event
        timestamp (replay); boundaries at or before ``end`` are emitted.
        Idempotent-safe: returns the closing timestamp.
        """
        if self.t_end is not None:
            return self.t_end
        if end is None:
            end = (
                self._clock() if self._clock is not None
                else self.last_event_ts
            )
        end = max(float(end), self.last_event_ts)
        if self.t0 is not None:
            while self._next_boundary <= end:
                self._emit_sample()
        self.t_end = end
        return end

    def _emit_sample(self) -> None:
        """Record one sample row at the current boundary for every
        series, then advance the boundary."""
        # The per-interval rate series samples even at zero.
        stalls = self.fold.gauges.get("cluster:stalls", 0.0)
        self._push("cluster:stall_rate", stalls - self._stalls_sampled)
        self._stalls_sampled = stalls
        for name, value in self.fold.gauges.items():
            self._push(name, value)
        self._boundary_index += 1
        self._next_boundary += self.interval_s

    def _push(self, name: str, value: float) -> None:
        ring = self.series.get(name)
        if ring is None:
            ring = self.series[name] = SeriesRing(self.capacity)
            # Backfill zeros so every ring is index-aligned: a series
            # born mid-run was zero at all earlier boundaries.
            for _ in range(min(self._boundary_index, self.capacity)):
                ring.push(0.0)
            ring.start = max(0, self._boundary_index - self.capacity)
        ring.push(value)

    # -- queries ---------------------------------------------------------------
    @property
    def samples_taken(self) -> int:
        """Boundary samples emitted so far (absolute, pre-ring)."""
        return self._boundary_index

    def sample_times(self, ring: SeriesRing) -> List[float]:
        """The boundary timestamps of a ring's retained samples."""
        t0 = self.t0 or 0.0
        return [
            t0 + (ring.start + i + 1) * self.interval_s
            for i in range(len(ring))
        ]

    def _scoped(self, scope: str) -> List[str]:
        """Keys with at least one ``scope:key:*`` series, sorted."""
        prefix = scope + ":"
        return sorted(
            {name.split(":", 2)[1] for name in self.series
             if name.startswith(prefix)}
        )

    def nodes(self) -> List[str]:
        """Node ids with at least one per-node series, sorted."""
        return self._scoped("node")

    def tenants(self) -> List[str]:
        """Tenant names with at least one per-tenant series, sorted."""
        return self._scoped("tenant")

    def jobs(self) -> List[str]:
        """Job ids with at least one per-job series, sorted."""
        return self._scoped("job")

    def get(self, name: str) -> SeriesRing:
        """A series ring by name (an empty ring when never sampled)."""
        return self.series.get(name) or SeriesRing(self.capacity)

    def current(self, name: str) -> float:
        """The *instantaneous* value of a gauge -- the state after the
        newest event, which the next boundary sample would record.  The
        dashboard's "now" numbers read this, so they never lag a
        partial interval behind the last flushed sample.  The
        per-interval ``cluster:stall_rate`` exists only as samples."""
        return self.fold.gauges.get(name, 0.0)

    # -- export ----------------------------------------------------------------
    def series_digest(self) -> str:
        """A stable SHA-256 digest of every series (name, start index,
        and exact sample values) plus the sampling parameters.

        Live-vs-replay equality of this digest is the determinism
        contract :mod:`tests.test_live_ops` pins with a golden value.
        """
        lines = [f"interval={self.interval_s!r}|t0={self.t0!r}"]
        for name in sorted(self.series):
            ring = self.series[name]
            values = ",".join(repr(v) for v in ring.values())
            lines.append(f"{name}|{ring.start}|{values}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data export: sampling parameters, every series (with
        its start index), the fault feed, and the capacities snapshot --
        what the HTML explorer inlines."""
        return {
            "interval_s": self.interval_s,
            "t0": self.t0,
            "t_end": self.t_end,
            "capacity": self.capacity,
            "samples_taken": self._boundary_index,
            "events_seen": self.events_seen,
            "nodes": self.nodes(),
            "tenants": self.tenants(),
            "jobs": self.jobs(),
            "series": {
                name: {"start": ring.start, "values": ring.values()}
                for name, ring in sorted(self.series.items())
            },
            "feed": [entry.to_dict() for entry in self.feed],
            "capacities": self.capacities,
            "digest": self.series_digest(),
        }

    def __repr__(self) -> str:
        return (
            f"<TimeSeriesSampler {len(self.series)} series, "
            f"{self._boundary_index} samples @ {self.interval_s}s>"
        )
