"""Critical-path extraction and bottleneck attribution from a trace.

Following the blocked-time-analysis methodology (NSDI'15 "Making Sense
of Performance in Data Analytics Frameworks" / Monotasks), the run is
explained as one *chain* of causally linked intervals covering the
whole makespan: starting from the last-finishing span, walk backwards
through the thing that enabled it (the dependency task that finished
last, the transfer that delivered its input, the spill restore that
brought it off disk, ...) until the start of the run.  Every instant of
the makespan lands in exactly one :class:`PathSegment`, so the category
totals sum to the makespan *by construction* -- the property the
acceptance gate checks.

Categories:

- ``compute`` -- a task attempt actually executing;
- ``queue`` -- a submitted task waiting for placement, fair-share
  release, prefetch admission, or a core;
- ``driver`` -- the driver had not yet submitted the next stage (think
  time, ``wait``-loop pacing);
- ``transfer`` -- an inter-node object transfer on the path;
- ``spill_write`` / ``spill_restore`` -- spill I/O (memory-pressure
  writes, restores of spilled inputs);
- ``disk_write`` -- direct ``output_to_disk`` writes (external-sort
  output);
- ``fault_recovery`` -- dead time before a retried attempt (failure
  detection, backoff, rescheduling);
- ``other`` -- unattributed residue (source-side waits of transfers,
  disk-queue delays of spills).

The *disk I/O* figure the paper's HDD-bound regime predicts
(Fig 4a: run time tracks ``4D/B``) is ``spill_write + spill_restore +
disk_write`` -- :data:`DISK_CATEGORIES`.

What-if estimates are first-order: removing a category contracts the
path by exactly the time that category occupies on it.  They are lower
bounds on the truth only when the category is off the *new* critical
path too -- see ``docs/perf.md`` for when this lies to you.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.tables import ResultTable
from repro.obs.events import ObsEvent
from repro.obs.trace import Span, creators, derive_spans, task_submits

#: Attribution categories, in reporting order.
CATEGORIES = (
    "compute",
    "queue",
    "driver",
    "transfer",
    "spill_write",
    "spill_restore",
    "disk_write",
    "fault_recovery",
    "other",
)

#: The categories that together form "disk I/O" (the paper's binding
#: resource on HDD clusters, Fig 4a / §5.1.1).
DISK_CATEGORIES = ("spill_write", "spill_restore", "disk_write")

_EPS = 1e-9

#: Span categories that participate in the path (job spans are
#: summaries of the same time, not extra work).
_ELEMENT_CATS = ("task", "transfer", "spill", "disk")


def _element_category(span: Span) -> str:
    """The attribution category of a path element's own interval."""
    if span.cat == "task":
        return "compute"
    if span.cat == "transfer":
        return "transfer"
    if span.cat == "disk":
        return "disk_write"
    # spill spans carry their direction in the name.
    return "spill_restore" if span.name == "spill.restore" else "spill_write"


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path, attributed to a category."""

    start: float
    end: float
    category: str
    #: What occupies the interval: a task function, ``transfer``,
    #: ``spill.write``... or the wait description for gap segments.
    detail: str = ""
    node: Optional[str] = None
    task: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "start": self.start,
            "end": self.end,
            "category": self.category,
            "detail": self.detail,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.task is not None:
            out["task"] = self.task
        return out


@dataclass
class CriticalPath:
    """The attributed chain covering a run's makespan."""

    t0: float
    t1: float
    segments: List[PathSegment] = field(default_factory=list)
    #: Number of distinct spans the chain walked through.
    chain_length: int = 0

    @property
    def makespan(self) -> float:
        return self.t1 - self.t0

    def category_times(self) -> Dict[str, float]:
        """Seconds of critical-path time per category (all categories
        present, zero-filled)."""
        out = {cat: 0.0 for cat in CATEGORIES}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.duration
        return out

    def disk_seconds(self) -> float:
        """Critical-path time spent on disk I/O (spill + direct writes)."""
        times = self.category_times()
        return sum(times[cat] for cat in DISK_CATEGORIES)

    def coverage_error(self) -> float:
        """|sum of segments - makespan| / makespan (0 by construction;
        reported so the CLI can prove the invariant on real traces)."""
        if self.makespan <= 0:
            return 0.0
        total = sum(seg.duration for seg in self.segments)
        return abs(total - self.makespan) / self.makespan

    def what_if(self) -> Dict[str, Dict[str, float]]:
        """First-order what-if per category: estimated makespan and
        shrink fraction if that category's path time were free."""
        out: Dict[str, Dict[str, float]] = {}
        times = self.category_times()
        for cat in CATEGORIES:
            saved = times[cat]
            estimated = self.makespan - saved
            out[cat] = {
                "seconds_saved": saved,
                "estimated_makespan": estimated,
                "shrink_pct": (
                    100.0 * saved / self.makespan if self.makespan > 0 else 0.0
                ),
            }
        return out

    def table(self) -> ResultTable:
        """Category breakdown as a printable table."""
        table = ResultTable(
            "Critical-path attribution",
            ["category", "seconds", "share_pct", "whatif_shrink_pct"],
        )
        times = self.category_times()
        whatif = self.what_if()
        for cat in CATEGORIES:
            if times[cat] <= 0:
                continue
            table.add_row(
                category=cat,
                seconds=times[cat],
                share_pct=(
                    100.0 * times[cat] / self.makespan
                    if self.makespan > 0
                    else 0.0
                ),
                whatif_shrink_pct=whatif[cat]["shrink_pct"],
            )
        return table

    def top_segments(self, k: int = 10) -> List[PathSegment]:
        """The ``k`` longest individual segments on the path."""
        return sorted(self.segments, key=lambda s: -s.duration)[:k]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (embedded into ``BENCH_*.json`` by
        the benchmark harness so ``obs diff`` can attribute deltas)."""
        return {
            "makespan": self.makespan,
            "t0": self.t0,
            "t1": self.t1,
            "chain_length": self.chain_length,
            "categories": self.category_times(),
        }

    def render(self, top_k: int = 8) -> str:
        """The full textual report."""
        parts = [
            f"Critical path: makespan {self.makespan:.3f}s "
            f"({self.chain_length} spans on the chain, "
            f"coverage error {100 * self.coverage_error():.2f}%)",
            "",
            self.table().render(),
        ]
        disk = self.disk_seconds()
        if self.makespan > 0:
            parts.append(
                f"disk I/O (spill_write + spill_restore + disk_write): "
                f"{disk:.3f}s = {100 * disk / self.makespan:.1f}% of the path"
            )
        top = [s for s in self.top_segments(top_k) if s.duration > 0]
        if top:
            parts.append("")
            parts.append("Longest segments")
            for seg in top:
                where = f" on {seg.node}" if seg.node else ""
                parts.append(
                    f"  {seg.duration:9.3f}s  [{seg.category:<14}] "
                    f"{seg.detail}{where}  t={seg.start:.3f}"
                )
        return "\n".join(parts)


# -- internal: interval coverage ---------------------------------------------


def _cover(
    window: Tuple[float, float],
    candidates: Sequence[Tuple[float, float, str, str, Optional[str], Optional[str]]],
) -> Tuple[List[PathSegment], List[Tuple[float, float]]]:
    """Clip prioritized candidate intervals into a window.

    ``candidates`` are ``(start, end, category, detail, node, task)``
    tuples in priority order -- earlier candidates claim overlapping
    time first.  Returns the claimed segments plus the uncovered
    remainder of the window.
    """
    free = [window]
    segments: List[PathSegment] = []
    for start, end, category, detail, node, task in candidates:
        next_free: List[Tuple[float, float]] = []
        for f_start, f_end in free:
            c_start, c_end = max(start, f_start), min(end, f_end)
            if c_end - c_start > _EPS:
                segments.append(
                    PathSegment(c_start, c_end, category, detail, node, task)
                )
                if c_start - f_start > _EPS:
                    next_free.append((f_start, c_start))
                if f_end - c_end > _EPS:
                    next_free.append((c_end, f_end))
            else:
                next_free.append((f_start, f_end))
        free = next_free
    return segments, free


class _Index:
    """Event/span lookups shared by the walk."""

    def __init__(self, events: Sequence[ObsEvent], spans: List[Span]) -> None:
        self.elements = [s for s in spans if s.cat in _ELEMENT_CATS]
        self.submits = task_submits(events)
        self.creator_of = creators(self.submits)
        self.task_spans: Dict[str, List[Span]] = {}
        self.transfers_to: Dict[Tuple[str, str], List[Span]] = {}
        self.restores_on: Dict[Tuple[str, str], List[Span]] = {}
        self.disk_writes: Dict[str, List[Span]] = {}
        self.spill_writes_on: Dict[str, List[Span]] = {}
        #: Every disk request per node (spill writes/restores + direct
        #: writes): the FIFO disk's queue, in which the previous
        #: request's completion is what releases the next.
        self.disk_ops_on: Dict[str, List[Span]] = {}
        for span in self.elements:
            if span.cat == "task" and span.task:
                self.task_spans.setdefault(span.task, []).append(span)
            elif span.cat == "transfer" and span.obj and span.node:
                self.transfers_to.setdefault(
                    (span.obj, span.node), []
                ).append(span)
            elif span.cat == "spill" and span.name == "spill.restore":
                if span.obj and span.node:
                    self.restores_on.setdefault(
                        (span.obj, span.node), []
                    ).append(span)
            elif span.cat == "spill" and span.node:
                self.spill_writes_on.setdefault(span.node, []).append(span)
            elif span.cat == "disk" and span.obj:
                self.disk_writes.setdefault(span.obj, []).append(span)
            if span.cat in ("spill", "disk") and span.node:
                self.disk_ops_on.setdefault(span.node, []).append(span)
        #: Every element sorted by end time, for the generic fallback
        #: predecessor lookup.
        self.by_end = sorted(self.elements, key=lambda s: (s.end, s.start))
        self._ends = [s.end for s in self.by_end]

    def latest_ending_before(
        self, t: float, exclude: Span
    ) -> Optional[Span]:
        """The latest-ending element with ``end <= t`` (fallback pred)."""
        import bisect

        hi = bisect.bisect_right(self._ends, t + _EPS)
        for i in range(hi - 1, -1, -1):
            span = self.by_end[i]
            if span is not exclude:
                return span
        return None

    def submitted(self, span: Span, attr: str) -> Sequence[Any]:
        """``attr`` (``deps`` or ``returns``) of the span's task submit."""
        submit = self.submits.get(span.task or "")
        return submit.attrs.get(attr, ()) if submit is not None else ()

    def best(self, spans: Sequence[Span], before: float) -> Optional[Span]:
        """The latest-ending span finishing at or before ``before``."""
        best: Optional[Span] = None
        for span in spans:
            if span.end <= before + _EPS and (
                best is None or span.end > best.end
            ):
                best = span
        return best

    def dep_io_candidates(
        self, span: Span
    ) -> List[Tuple[float, float, str, str, Optional[str], Optional[str]]]:
        """Transfers/restores that delivered this task's inputs to its
        node -- coverage candidates for both its gap and its interior."""
        out = []
        for dep in self.submitted(span, "deps"):
            for t in self.transfers_to.get((dep, span.node or ""), []):
                out.append(
                    (t.start, t.end, "transfer", f"fetch {dep}", t.node, span.task)
                )
            for r in self.restores_on.get((dep, span.node or ""), []):
                out.append(
                    (r.start, r.end, "spill_restore", f"restore {dep}",
                     r.node, span.task)
                )
        return out


def _decompose_task_interval(span: Span, index: _Index) -> List[PathSegment]:
    """A task attempt's own interval: interior I/O first, rest compute.

    Inside the attempt window, disk-resident arguments stream in
    (restores), outputs persist (``output_to_disk`` writes), and
    memory-pressure spill writes on the node block its allocations; what
    remains is execution.  Same-node spill writes are an approximation:
    the FIFO disk serves one request at a time, so any overlapping write
    *is* occupying the device this task's output or allocation waits on,
    but it may have been triggered by a neighbour.
    """
    candidates = []
    for obj in map(str, index.submitted(span, "returns")):
        for w in index.disk_writes.get(obj, []):
            if w.node == span.node:
                candidates.append(
                    (w.start, w.end, "disk_write", f"write {obj}",
                     w.node, span.task)
                )
    candidates.extend(index.dep_io_candidates(span))
    for w in index.spill_writes_on.get(span.node or "", []):
        candidates.append(
            (w.start, w.end, "spill_write", "spill under pressure",
             w.node, span.task)
        )
    covered, free = _cover((span.start, span.end), candidates)
    for f_start, f_end in free:
        covered.append(
            PathSegment(
                f_start, f_end, "compute", span.name, span.node, span.task
            )
        )
    return covered


def _decompose_gap(
    span: Span, lo: float, hi: float, index: _Index
) -> List[PathSegment]:
    """The wait between a predecessor's end and ``span``'s start."""
    if hi - lo <= _EPS:
        return []
    candidates = []
    if span.cat == "task":
        candidates = index.dep_io_candidates(span)
    elif span.cat == "transfer" and span.obj:
        # The source may have restored the object off its disk first.
        src = str(span.attrs.get("src", ""))
        for r in index.restores_on.get((span.obj, src), []):
            candidates.append(
                (r.start, r.end, "spill_restore", f"restore {span.obj}",
                 r.node, None)
            )
    covered, free = _cover((lo, hi), candidates)
    for f_start, f_end in free:
        if span.cat == "task":
            # A task span's parent is the task.retry that re-ran it.
            retried = (
                span.parent is not None
                or int(span.attrs.get("attempt", 1)) > 1
            )
            if retried:
                covered.append(
                    PathSegment(
                        f_start, f_end, "fault_recovery",
                        f"recovering {span.task}", span.node, span.task,
                    )
                )
                continue
            submit_event = index.submits.get(span.task or "")
            if submit_event is None:
                covered.append(
                    PathSegment(f_start, f_end, "queue",
                                f"waiting {span.task}", span.node, span.task)
                )
                continue
            submit = submit_event.ts
            if f_start < submit - _EPS:
                covered.append(
                    PathSegment(
                        f_start, min(submit, f_end), "driver",
                        "driver not yet submitted", span.node, span.task,
                    )
                )
            if f_end > submit + _EPS:
                covered.append(
                    PathSegment(
                        max(submit, f_start), f_end, "queue",
                        f"queued {span.task}", span.node, span.task,
                    )
                )
        else:
            covered.append(
                PathSegment(
                    f_start, f_end, "other",
                    f"waiting for {span.name}", span.node, span.task,
                )
            )
    return covered


def _find_predecessor(span: Span, index: _Index) -> Optional[Span]:
    """The element whose completion enabled ``span`` (latest-ending).

    Specific causal candidates (lineage parents, input transfers and
    restores, the previous request in the node's FIFO disk queue)
    compete with the generic latest-ending-element fallback: the walk
    always takes the *latest* finisher at or before ``span`` starts, so
    the unexplained gap stays minimal and the time lands on whatever
    the cluster was genuinely doing.
    """
    candidates: List[Span] = []
    if span.cat in ("spill", "disk") and span.node:
        best = index.best(index.disk_ops_on.get(span.node, []), span.start)
        if best is not None and best is not span:
            candidates.append(best)
    if span.cat == "task":
        for parent in span.attrs.get("parents", ()):
            best = index.best(index.task_spans.get(parent, []), span.start)
            if best is not None:
                candidates.append(best)
        for dep in index.submitted(span, "deps"):
            best = index.best(
                index.transfers_to.get((dep, span.node or ""), []), span.start
            )
            if best is not None:
                candidates.append(best)
            best = index.best(
                index.restores_on.get((dep, span.node or ""), []), span.start
            )
            if best is not None:
                candidates.append(best)
    elif span.obj is not None:
        creator = index.creator_of.get(span.obj)
        if creator is not None:
            best = index.best(index.task_spans.get(creator, []), span.start)
            if best is not None:
                candidates.append(best)
        if span.cat == "transfer":
            src = str(span.attrs.get("src", ""))
            best = index.best(
                index.restores_on.get((span.obj, src), []), span.start
            )
            if best is not None:
                candidates.append(best)
    fallback = index.latest_ending_before(span.start, exclude=span)
    if fallback is not None:
        candidates.append(fallback)
    if candidates:
        return max(candidates, key=lambda s: (s.end, s.start))
    return None


def critical_path(
    events: Sequence[ObsEvent], spans: Optional[List[Span]] = None
) -> CriticalPath:
    """Extract and attribute the critical path of a recorded run.

    The makespan is the window from the first recorded event to the
    last-finishing span; the returned segments partition it exactly.
    """
    if spans is None:
        spans = derive_spans(events)
    index = _Index(events, spans)
    if not index.elements or not events:
        return CriticalPath(t0=0.0, t1=0.0)
    t0 = events[0].ts
    sink = max(index.elements, key=lambda s: (s.end, s.start))
    t1 = sink.end
    segments: List[PathSegment] = []
    cur: Optional[Span] = sink
    chain_length = 0
    # The walk strictly moves the frontier backwards (a predecessor ends
    # at or before the current span starts); the guard bounds pathological
    # traces of zero-length spans.
    for _guard in range(len(index.elements) * 4 + 64):
        if cur is None:
            break
        chain_length += 1
        if cur.cat == "task":
            segments.extend(_decompose_task_interval(cur, index))
        elif cur.duration > _EPS:
            segments.append(
                PathSegment(
                    cur.start, cur.end, _element_category(cur),
                    cur.name if not cur.obj else f"{cur.name} {cur.obj}",
                    cur.node, cur.task,
                )
            )
        if cur.start <= t0 + _EPS:
            cur = None
            break
        pred = _find_predecessor(cur, index)
        if pred is not None and pred.end > cur.start + _EPS:
            # A malformed candidate that does not precede us: fall back
            # to the global latest-ending element strictly before.
            pred = index.latest_ending_before(cur.start, exclude=cur)
            if pred is not None and pred.end > cur.start + _EPS:
                pred = None
        gap_lo = pred.end if pred is not None else t0
        segments.extend(_decompose_gap(cur, min(gap_lo, cur.start), cur.start, index))
        cur = pred
    segments = [s for s in segments if s.duration > _EPS]
    segments.sort(key=lambda s: (s.start, s.end))
    return CriticalPath(t0=t0, t1=t1, segments=segments, chain_length=chain_length)
