"""Per-node resource usage timelines derived from the event stream.

Every track is a step function reconstructed purely from recorded
events -- no runtime access needed, so the same analysis runs on a
live bus or a ``record_run`` JSONL file.  :class:`GaugeFold` turns the
events into gauges; its ``node:*`` gauges, kept point by point, are the
per-node tracks:

- ``cpu`` -- executing task attempts (``task.run`` opens, the
  attempt's finish, failure, retry or node death closes);
- ``disk`` -- in-flight disk requests: spill writes, spill restores,
  and direct ``output_to_disk`` writes (the simulated disk is a FIFO
  byte server, so coverage *is* utilization);
- ``nic`` -- in-flight transfers touching the node, as source or
  destination;
- ``store`` -- object-store occupancy in bytes, from
  ``object.create`` / ``transfer.end`` / ``spill.restore.end`` adds
  and ``spill.write.end`` / ``object.evict`` removals, clamped at zero
  and, point by point, at the recorded capacity.  An approximation:
  spill writes report file bytes rather than per-object residency,
  fallback allocations are counted at full size, and restores feeding
  remote reads never re-enter the store (see ``docs/perf.md``);
- ``spill_queue`` -- allocations parked under memory pressure
  (``store.pressure`` opens, the matching ``object.create`` or
  ``spill.fallback`` closes).

:class:`UsageTimeline` answers "how busy was each resource" (busy
fractions, slot utilizations against the recorded cluster spec) and
"what bound the run when" (:meth:`UsageTimeline.intervals` slices the
makespan and labels each slice with its *binding resource* --
saturated, or merely the busiest thing while the cluster sat
blocked).  The fold's cluster, tenant and job gauges are kept point by
point too (:attr:`UsageTimeline.gauges`).  :func:`usage_chrome_events`
renders every track and gauge as Chrome ``"ph": "C"`` counter rows next
to the span lanes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.metrics.tables import ResultTable
from repro.obs.events import ObsEvent, run_summary
from repro.obs.trace import Span, node_pids

#: Cluster utilization at or above this fraction marks a resource
#: *saturated* (the binding constraint, not just the busiest thing).
SATURATION_THRESHOLD = 0.85

#: Per-node track names, in display order.
NODE_TRACKS = ("cpu", "disk", "nic", "store", "spill_queue")


class GaugeFold:
    """A run's current gauges, folded from its events one at a time.

    The one place task, disk, transfer, object-store and spill events
    become numbers.  :func:`derive_usage` replays the fold and records
    each write (reported through ``on_change(name, value)``) as a step
    point.  Gauge names are ``scope:key:track``:

    - ``node:<id>:cpu`` / ``disk`` / ``nic`` / ``store`` /
      ``spill_queue`` -- the usage tracks (see the module docstring);
    - ``job:<id>:inflight`` -- submitted-but-unsettled tasks of the
      job, and ``job:<id>:finished`` its finished tasks;
    - ``tenant:<name>:finished`` -- cumulative finished tasks (the
      fair-share signal), and ``tenant:<name>:stalls`` cumulative
      backpressure stalls;
    - ``cluster:inflight`` / ``cluster:stalls`` / ``cluster:faults`` /
      ``cluster:retries``.

    Tenants come from the ``tenant`` attr that the jobs control plane
    stamps on ``job.*`` events and the streaming tier stamps on
    ``stream.backpressure``; tasks map to tenants through their job.
    """

    def __init__(self, on_change: Callable[[str, float], None]) -> None:
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


class StepTrack:
    """A right-continuous step function built from timestamped points."""

    def __init__(self) -> None:
        self._ts: List[float] = []
        self._values: List[float] = []

    def set(self, ts: float, value: float) -> None:
        if self._ts and ts <= self._ts[-1] + 1e-12:
            self._values[-1] = value
            return
        self._ts.append(ts)
        self._values.append(value)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._ts, self._values))

    def value_at(self, ts: float) -> float:
        i = bisect.bisect_right(self._ts, ts) - 1
        return self._values[i] if i >= 0 else 0.0

    def max_value(self) -> float:
        return max(self._values, default=0.0)

    def _steps(self, start: float, end: float) -> Iterator[Tuple[float, float]]:
        """``(value, seconds)`` for each constant piece of ``[start, end]``."""
        if end <= start or not self._ts:
            return
        value = self.value_at(start)
        cursor = start
        i = bisect.bisect_right(self._ts, start)
        while i < len(self._ts) and self._ts[i] < end:
            yield value, self._ts[i] - cursor
            cursor, value = self._ts[i], self._values[i]
            i += 1
        yield value, end - cursor

    def integral(self, start: float, end: float) -> float:
        """Integral of the track over ``[start, end]`` (value-seconds)."""
        total = 0.0
        for value, seconds in self._steps(start, end):
            total += value * seconds
        return total

    def busy_time(self, start: float, end: float) -> float:
        """Seconds in ``[start, end]`` where the value is positive."""
        total = 0.0
        for value, seconds in self._steps(start, end):
            if value > 0:
                total += seconds
        return total


@dataclass(frozen=True)
class UsageInterval:
    """One slice of the run, labeled with its binding resource."""

    start: float
    end: float
    #: ``cpu`` / ``disk`` / ``nic`` -- the busiest resource -- or
    #: ``idle`` when nothing ran at all.
    binding: str
    #: True when the binding resource's cluster utilization clears
    #: :data:`SATURATION_THRESHOLD`; False means the cluster was
    #: *blocked* (work existed but nothing was the bottleneck --
    #: barriers, queue waits, driver think time).
    saturated: bool
    #: Cluster utilization per resource over the slice, in [0, 1].
    utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        if self.binding == "idle":
            return "idle"
        state = "saturated" if self.saturated else "blocked"
        return f"{self.binding}-{state}"


class UsageTimeline:
    """Per-node step tracks plus the capacities to judge them against."""

    def __init__(
        self,
        t0: float,
        t1: float,
        tracks: Dict[str, Dict[str, StepTrack]],
        capacities: Dict[str, Dict[str, Any]],
        gauges: Dict[str, StepTrack],
    ) -> None:
        self.t0 = t0
        self.t1 = t1
        #: track name -> node -> step function.
        self.tracks = tracks
        #: node -> recorded spec fields (``cores``,
        #: ``object_store_bytes``, ...) from the run summary.
        self.capacities = capacities
        #: The fold's ``cluster:*``, ``tenant:*`` and ``job:*`` gauges by
        #: name, each a step function.
        self.gauges = gauges

    @property
    def nodes(self) -> List[str]:
        out = set()
        for per_node in self.tracks.values():
            out.update(per_node)
        return sorted(out)

    @property
    def makespan(self) -> float:
        return self.t1 - self.t0

    def track(self, name: str, node: str) -> StepTrack:
        return self.tracks.get(name, {}).get(node) or StepTrack()

    def busy_fraction(
        self,
        name: str,
        node: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> float:
        """Fraction of the window the node's track was positive."""
        start = self.t0 if start is None else start
        end = self.t1 if end is None else end
        if end <= start:
            return 0.0
        return self.track(name, node).busy_time(start, end) / (end - start)

    def cluster_utilization(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Cluster-wide utilization per resource over a window.

        ``cpu`` is executing slots over total cores (when the cluster
        spec was recorded; mean busy fraction otherwise); ``disk`` and
        ``nic`` are mean per-node busy fractions; ``store`` is the
        occupancy-weighted fill fraction.
        """
        start = self.t0 if start is None else start
        end = self.t1 if end is None else end
        width = end - start
        out = {name: 0.0 for name in ("cpu", "disk", "nic", "store")}
        nodes = self.nodes
        if width <= 0 or not nodes:
            return out
        total_cores = sum(
            int(self.capacities.get(n, {}).get("cores", 0)) for n in nodes
        )
        if total_cores > 0:
            busy_slot_s = sum(
                self.track("cpu", n).integral(start, end) for n in nodes
            )
            out["cpu"] = min(1.0, busy_slot_s / (total_cores * width))
        else:
            out["cpu"] = sum(
                self.busy_fraction("cpu", n, start, end) for n in nodes
            ) / len(nodes)
        for name in ("disk", "nic"):
            out[name] = sum(
                self.busy_fraction(name, n, start, end) for n in nodes
            ) / len(nodes)
        total_store = sum(
            int(self.capacities.get(n, {}).get("object_store_bytes", 0))
            for n in nodes
        )
        if total_store > 0:
            byte_s = sum(
                self.track("store", n).integral(start, end) for n in nodes
            )
            out["store"] = min(1.0, byte_s / (total_store * width))
        return out

    def intervals(self, bins: int = 40) -> List[UsageInterval]:
        """Slice the run into equal bins labeled with the binding
        resource; adjacent bins with the same label are merged."""
        if self.makespan <= 0 or bins <= 0:
            return []
        width = self.makespan / bins
        raw: List[UsageInterval] = []
        for i in range(bins):
            start = self.t0 + i * width
            end = self.t1 if i == bins - 1 else start + width
            util = self.cluster_utilization(start, end)
            active = any(
                self.track("cpu", n).busy_time(start, end) > 0
                or self.track("disk", n).busy_time(start, end) > 0
                or self.track("nic", n).busy_time(start, end) > 0
                for n in self.nodes
            )
            if not active:
                binding, saturated = "idle", False
            else:
                binding = max(
                    ("cpu", "disk", "nic"), key=lambda name: util[name]
                )
                saturated = util[binding] >= SATURATION_THRESHOLD
            raw.append(UsageInterval(start, end, binding, saturated, util))
        merged: List[UsageInterval] = []
        for interval in raw:
            if merged and merged[-1].label == interval.label:
                prev = merged[-1]
                w_prev, w_new = prev.duration, interval.duration
                total = w_prev + w_new
                merged[-1] = UsageInterval(
                    prev.start,
                    interval.end,
                    prev.binding,
                    prev.saturated,
                    {
                        k: (prev.utilization[k] * w_prev
                            + interval.utilization[k] * w_new) / total
                        for k in prev.utilization
                    },
                )
            else:
                merged.append(interval)
        return merged

    def binding_seconds(self, bins: int = 40) -> Dict[str, float]:
        """Seconds of the run attributed to each interval label."""
        out: Dict[str, float] = {}
        for interval in self.intervals(bins):
            out[interval.label] = out.get(interval.label, 0.0) + interval.duration
        return out

    def node_table(self) -> ResultTable:
        """Per-node busy fractions and store peaks."""
        table = ResultTable(
            "Per-node usage",
            [
                "node",
                "cpu_busy_frac",
                "cpu_slot_util",
                "disk_busy_frac",
                "nic_busy_frac",
                "store_peak_frac",
            ],
        )
        for node in self.nodes:
            cores = int(self.capacities.get(node, {}).get("cores", 0))
            slot_util = 0.0
            if cores > 0 and self.makespan > 0:
                slot_util = self.track("cpu", node).integral(
                    self.t0, self.t1
                ) / (cores * self.makespan)
            store_cap = int(
                self.capacities.get(node, {}).get("object_store_bytes", 0)
            )
            peak = self.track("store", node).max_value()
            table.add_row(
                node=node,
                cpu_busy_frac=self.busy_fraction("cpu", node),
                cpu_slot_util=slot_util,
                disk_busy_frac=self.busy_fraction("disk", node),
                nic_busy_frac=self.busy_fraction("nic", node),
                store_peak_frac=peak / store_cap if store_cap else 0.0,
            )
        return table

    def render(self, bins: int = 40) -> str:
        parts = [
            f"Usage over [{self.t0:.3f}s, {self.t1:.3f}s] "
            f"({self.makespan:.3f}s, {len(self.nodes)} nodes)",
            "",
            self.node_table().render(),
            "",
            "Binding resource over time",
        ]
        for interval in self.intervals(bins):
            util = ", ".join(
                f"{k}={v:.0%}" for k, v in sorted(interval.utilization.items())
            )
            parts.append(
                f"  {interval.start:9.3f}s .. {interval.end:9.3f}s  "
                f"{interval.label:<16} ({util})"
            )
        totals = self.binding_seconds(bins)
        if totals:
            top = max(totals, key=lambda k: totals[k])
            parts.append("")
            parts.append(
                f"dominant state: {top} "
                f"({totals[top]:.3f}s = {totals[top] / self.makespan:.0%})"
            )
        return "\n".join(parts)


def derive_usage(
    events: Sequence[ObsEvent],
    cluster: Optional[Dict[str, Dict[str, Any]]] = None,
) -> UsageTimeline:
    """Build the usage timeline for a recorded run.

    Replays :class:`GaugeFold` and records every gauge write as a step
    point: ``node:*`` gauges as the per-node tracks, the rest as
    :attr:`UsageTimeline.gauges`.  ``cluster`` overrides the
    capacities; by default they come from the trailing ``run.summary``
    event (recorded by ``record_run``).
    """
    capacities: Dict[str, Dict[str, Any]] = dict(
        cluster or run_summary(events).get("cluster", {})
    )
    tracks: Dict[str, Dict[str, StepTrack]] = {
        name: {} for name in NODE_TRACKS
    }
    gauges: Dict[str, StepTrack] = {}
    now = 0.0

    def record(name: str, value: float) -> None:
        if not name.startswith("node:"):
            if name not in gauges:
                gauges[name] = StepTrack()
            gauges[name].set(now, value)
            return
        node, _, track = name[len("node:"):].rpartition(":")
        if track == "store":
            # Occupancy is "how full", capped at the recorded capacity.
            cap = capacities.get(node, {}).get("object_store_bytes")
            if cap:
                value = min(value, float(cap))
        per_node = tracks[track]
        if node not in per_node:
            per_node[node] = StepTrack()
        per_node[node].set(now, value)

    fold = GaugeFold(on_change=record)
    for event in events:
        now = event.ts
        fold.apply(event)
    t0 = events[0].ts if events else 0.0
    t1 = max((e.ts for e in events), default=0.0)
    return UsageTimeline(t0, t1, tracks, capacities, gauges)


#: Counter-row display names (and the value key inside ``args``).
_COUNTER_NAMES = {
    "cpu": ("busy cores", "cores"),
    "disk": ("disk requests in flight", "requests"),
    "nic": ("transfers in flight", "transfers"),
    "store": ("object store bytes", "bytes"),
    "spill_queue": ("spill queue depth", "parked"),
}


def usage_chrome_events(
    events: Sequence[ObsEvent], spans: Optional[List[Span]] = None
) -> List[Dict[str, Any]]:
    """Chrome ``"ph": "C"`` counter rows for every usage track and gauge.

    Uses the same node -> pid mapping as the span exporter, so in
    Perfetto each node's counter rows sit directly under its span
    lanes (object-store occupancy next to the tasks that filled it).
    The cluster, tenant and job gauges, named as in :class:`GaugeFold`,
    ride on the first node's process (pid 0).  ``spans`` only feeds
    the mapping; pass them when already derived.
    """
    timeline = derive_usage(events)
    pid_of = node_pids(events, spans)
    rows: List[Tuple[str, int, str, StepTrack]] = []
    for name, per_node in timeline.tracks.items():
        display, key = _COUNTER_NAMES[name]
        for node, track in sorted(per_node.items()):
            if node in pid_of:
                rows.append((display, pid_of[node], key, track))
    if pid_of:
        rows.extend(
            (name, 0, "value", track)
            for name, track in sorted(timeline.gauges.items())
        )
    return [
        {
            "name": name,
            "cat": "usage",
            "ph": "C",
            "pid": pid,
            "tid": 0,
            "ts": ts * 1e6,
            "args": {key: value},
        }
        for name, pid, key, track in rows
        for ts, value in track.points
    ]
