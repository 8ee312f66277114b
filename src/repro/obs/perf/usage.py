"""Per-node resource usage timelines derived from the event stream.

Every track is a step function reconstructed purely from recorded
events -- no runtime access needed, so the same analysis runs on a
live bus or a ``record_run`` JSONL file.  The tracks are the ``node:*``
gauges of the live sampler's :class:`~repro.obs.live.sampler.GaugeFold`,
replayed and kept point by point instead of sampled at intervals:

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
blocked).  :func:`usage_chrome_events` renders every track as Chrome
``"ph": "C"`` counter rows next to the span lanes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.metrics.tables import ResultTable
from repro.obs.events import ObsEvent, run_summary
from repro.obs.live.sampler import NODE_TRACKS, GaugeFold
from repro.obs.trace import Span, node_pids

#: Cluster utilization at or above this fraction marks a resource
#: *saturated* (the binding constraint, not just the busiest thing).
SATURATION_THRESHOLD = 0.85


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
    ) -> None:
        self.t0 = t0
        self.t1 = t1
        #: track name -> node -> step function.
        self.tracks = tracks
        #: node -> recorded spec fields (``cores``,
        #: ``object_store_bytes``, ...) from the run summary.
        self.capacities = capacities

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
    """Build the per-node usage timeline for a recorded run.

    Replays the live sampler's :class:`~repro.obs.live.sampler.GaugeFold`
    and records every ``node:*`` gauge write as a step point, so these
    tracks and the sampler's series are one derivation.  ``cluster``
    overrides the capacities; by default they come from the trailing
    ``run.summary`` event (recorded by ``record_run``).
    """
    capacities: Dict[str, Dict[str, Any]] = dict(
        cluster or run_summary(events).get("cluster", {})
    )
    tracks: Dict[str, Dict[str, StepTrack]] = {
        name: {} for name in NODE_TRACKS
    }
    now = 0.0

    def record(name: str, value: float) -> None:
        if not name.startswith("node:"):
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
    return UsageTimeline(t0, t1, tracks, capacities)


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
    """Chrome ``"ph": "C"`` counter rows for every usage track.

    Uses the same node -> pid mapping as the span exporter, so in
    Perfetto each node's counter rows sit directly under its span
    lanes (object-store occupancy next to the tasks that filled it).
    ``spans`` only feeds that mapping; pass them when already derived.
    """
    timeline = derive_usage(events)
    pid_of = node_pids(events, spans)
    out: List[Dict[str, Any]] = []
    for name, per_node in timeline.tracks.items():
        display, key = _COUNTER_NAMES[name]
        for node, track in sorted(per_node.items()):
            pid = pid_of.get(node)
            if pid is None:
                continue
            for ts, value in track.points:
                out.append(
                    {
                        "name": display,
                        "cat": "usage",
                        "ph": "C",
                        "pid": pid,
                        "tid": 0,
                        "ts": ts * 1e6,
                        "args": {key: value},
                    }
                )
    return out
