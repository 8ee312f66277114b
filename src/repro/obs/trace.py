"""Causal span derivation and Chrome-trace export from bus events.

A :class:`Span` is a closed interval derived from the event stream:

- **task attempts** -- ``task.run`` to ``task.finish``/``task.fail``
  (an attempt superseded by a newer one is closed at the interrupting
  fault and marked ``interrupted``); retried attempts carry a
  ``parent`` link to their ``task.retry`` event, whose causal chain
  walks back through ``node.death``/``executor.failure`` to the
  ``chaos.fault`` that killed the previous attempt;
- **transfers** -- ``transfer.begin``/``transfer.end`` pairs;
- **spill I/O** -- ``spill.write.begin``/``.end`` and
  ``spill.restore.begin``/``.end`` pairs;
- **jobs** -- ``job.submit`` to ``job.admit`` (queue wait) and
  ``job.start`` to ``job.done``/``job.fail`` (execution);
- **streaming windows** -- ``stream.window.open``/``.close``
  (event-time accumulation) and ``stream.agg.begin``/``.end`` (the
  round's processing tail until the aggregate is visible).

Task spans additionally carry ``parents``: the creating tasks of their
argument objects, reconstructed from the ``deps`` and ``returns`` of
``task.submit`` events -- the lineage graph, recovered purely from the
trace.

``span_chrome_events``/``write_chrome_trace`` render spans as standard
``chrome://tracing`` / Perfetto JSON: one process per node (plus a
``jobs`` pseudo-process), complete events ("ph": "X") packed into
lanes, instant events ("ph": "i") for faults and retries, and flow
events ("ph": "s"/"f") drawing the fault -> retried-attempt arrows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import ObsEvent, causal_chain

#: Fault / churn / death / retry kinds: the report's fault timeline.
FAULT_KINDS = (
    "chaos.fault",
    "cluster.membership",
    "node.death",
    "node.restart",
    "executor.failure",
    "task.retry",
)

#: Event kinds rendered as Chrome instant events: the fault kinds but
#: membership changes, plus filesystem fallbacks.
_INSTANT_KINDS = set(FAULT_KINDS) - {"cluster.membership"} | {"spill.fallback"}

#: Begin/end pairs derived into spans: begin kind -> (end kind, category).
_PAIRED_KINDS = {
    "transfer.begin": ("transfer.end", "transfer"),
    "spill.write.begin": ("spill.write.end", "spill"),
    "spill.restore.begin": ("spill.restore.end", "spill"),
    "disk.write.begin": ("disk.write.end", "disk"),
    # streaming tier: window open -> close (accumulation) and aggregate
    # submission -> visibility (the round's processing tail).
    "stream.window.open": ("stream.window.close", "stream.window"),
    "stream.agg.begin": ("stream.agg.end", "stream.agg"),
}


@dataclass
class Span:
    """One causal interval of work derived from the event stream."""

    name: str
    cat: str
    start: float
    end: float
    node: Optional[str] = None
    job: Optional[str] = None
    task: Optional[str] = None
    obj: Optional[str] = None
    #: ``seq`` of the causing event (e.g. the ``task.retry`` that
    #: re-submitted this attempt), when one exists.
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in (simulated) seconds."""
        return self.end - self.start


def task_submits(events: Sequence[ObsEvent]) -> Dict[str, ObsEvent]:
    """task id -> its ``task.submit`` event (the runtime emits one per
    task; a re-execution emits ``task.retry``)."""
    return {e.task: e for e in events if e.kind == "task.submit" and e.task}


def creators(submits: Dict[str, ObsEvent]) -> Dict[str, str]:
    """object id -> the task whose submit declared it as a return."""
    return {
        str(obj): task
        for task, submit in submits.items()
        for obj in submit.attrs.get("returns", ())
    }


def lineage_parents(events: Sequence[ObsEvent]) -> Dict[str, List[str]]:
    """task id -> creating tasks of its argument objects, from the trace.

    Reconstructed purely from ``task.submit`` (which records ``deps``
    and ``returns``) -- the same parent structure the runtime's lineage
    log holds, so a test can assert trace causality matches runtime
    truth.
    """
    submits = task_submits(events)
    creator_of = creators(submits)
    return {
        task: sorted(
            {creator_of[d] for d in submit.attrs.get("deps", ())
             if d in creator_of}
        )
        for task, submit in submits.items()
    }


def _close_interrupted(
    open_run: ObsEvent, interrupters: List[ObsEvent], fallback_ts: float
) -> Tuple[float, Optional[int]]:
    """When an attempt was superseded, find the fault that ended it."""
    for event in interrupters:
        if event.ts >= open_run.ts and (
            event.node is None or event.node == open_run.node
        ):
            return event.ts, event.seq
    return fallback_ts, None


def derive_spans(events: Sequence[ObsEvent]) -> List[Span]:
    """All causal spans in the stream, sorted by (start, category)."""
    spans: List[Span] = []
    parents = lineage_parents(events)
    retry_by_attempt: Dict[Tuple[str, int], ObsEvent] = {}
    interrupters = [
        e for e in events
        if e.kind in ("node.death", "executor.failure")
    ]
    for event in events:
        if event.kind == "task.retry" and event.task is not None:
            retry_by_attempt[(event.task, int(event.attrs.get("attempt", 0)))] = event

    # -- task attempt spans --------------------------------------------------
    open_runs: Dict[str, ObsEvent] = {}
    submit_by_task = task_submits(events)

    def close(run: ObsEvent, end_ts: float, status: str,
              interrupted_by: Optional[int] = None) -> None:
        task = run.task or ""
        attempt = int(run.attrs.get("attempt", 1))
        retry = retry_by_attempt.get((task, attempt))
        submit = submit_by_task.get(task)
        spans.append(
            Span(
                name=run.attrs.get("fn", task),
                cat="task",
                start=run.ts,
                end=end_ts,
                node=run.node,
                job=run.job,
                task=task,
                parent=retry.seq if retry is not None else None,
                attrs={
                    "attempt": attempt,
                    "status": status,
                    "parents": parents.get(task, []),
                    **({"queue_delay": run.ts - submit.ts} if submit else {}),
                    **(
                        {"interrupted_by": interrupted_by}
                        if interrupted_by is not None
                        else {}
                    ),
                },
            )
        )

    for event in events:
        if event.kind == "task.run" and event.task is not None:
            prior = open_runs.pop(event.task, None)
            if prior is not None:
                end_ts, fault_seq = _close_interrupted(
                    prior, interrupters, event.ts
                )
                close(prior, min(end_ts, event.ts), "interrupted", fault_seq)
            open_runs[event.task] = event
        elif event.kind in ("task.finish", "task.fail") and event.task:
            run = open_runs.pop(event.task, None)
            if run is not None:
                status = "ok" if event.kind == "task.finish" else "failed"
                close(run, event.ts, status)
    last_ts = events[-1].ts if events else 0.0
    for run in open_runs.values():
        end_ts, fault_seq = _close_interrupted(run, interrupters, last_ts)
        close(run, end_ts, "interrupted", fault_seq)

    # -- begin/end paired spans ----------------------------------------------
    begins: Dict[int, ObsEvent] = {
        e.seq: e for e in events if e.kind in _PAIRED_KINDS
    }
    for event in events:
        if event.cause is None:
            continue
        begin = begins.get(event.cause)
        if begin is None or _PAIRED_KINDS[begin.kind][0] != event.kind:
            continue
        cat = _PAIRED_KINDS[begin.kind][1]
        spans.append(
            Span(
                name=begin.kind.rsplit(".", 1)[0],
                cat=cat,
                start=begin.ts,
                end=event.ts,
                node=begin.node,
                job=begin.job,
                obj=begin.obj,
                parent=begin.seq,
                attrs=dict(begin.attrs),
            )
        )

    # -- job spans ------------------------------------------------------------
    job_marks: Dict[str, Dict[str, ObsEvent]] = {}
    for event in events:
        if event.kind.startswith("job.") and event.job is not None:
            job_marks.setdefault(event.job, {})[event.kind] = event
    for job, marks in job_marks.items():
        submit, admit = marks.get("job.submit"), marks.get("job.admit")
        if submit is not None and admit is not None:
            spans.append(
                Span(
                    name=f"{job} queued",
                    cat="job.wait",
                    start=submit.ts,
                    end=admit.ts,
                    job=job,
                    attrs={"tenant": submit.attrs.get("tenant")},
                )
            )
        start = marks.get("job.start")
        finish = marks.get("job.done") or marks.get("job.fail")
        if start is not None and finish is not None:
            spans.append(
                Span(
                    name=job,
                    cat="job",
                    start=start.ts,
                    end=finish.ts,
                    job=job,
                    parent=start.seq,
                    attrs={
                        "tenant": start.attrs.get("tenant"),
                        "status": "ok" if finish.kind == "job.done" else "failed",
                    },
                )
            )

    spans.sort(key=lambda s: (s.start, s.cat, s.name))
    return spans


def _pack_lanes(spans: List[Span]) -> List[int]:
    """Greedy first-fit packing of overlapping spans into display lanes."""
    lane_free_at: List[float] = []
    lanes: List[int] = []
    for span in spans:
        for lane, free_at in enumerate(lane_free_at):
            if span.start >= free_at - 1e-12:
                lane_free_at[lane] = span.end
                lanes.append(lane)
                break
        else:
            lane_free_at.append(span.end)
            lanes.append(len(lane_free_at) - 1)
    return lanes


def node_pids(
    events: Sequence[ObsEvent], spans: Optional[List[Span]] = None
) -> Dict[str, int]:
    """The stable node -> Chrome process id mapping used by every
    exporter (spans, instants, and the perf layer's counter tracks)."""
    if spans is None:
        spans = derive_spans(events)
    nodes = sorted(
        {s.node for s in spans if s.node is not None}
        | {e.node for e in events if e.kind in _INSTANT_KINDS and e.node}
    )
    return {node: pid for pid, node in enumerate(nodes)}


def span_chrome_events(
    events: Sequence[ObsEvent], spans: Optional[List[Span]] = None
) -> List[Dict[str, Any]]:
    """Chrome trace-event list: spans, instants, and causal flow arrows."""
    if spans is None:
        spans = derive_spans(events)
    index = {e.seq: e for e in events}
    pid_of = node_pids(events, spans)
    jobs_pid = len(pid_of)
    out: List[Dict[str, Any]] = []
    for node, pid in pid_of.items():
        out.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"node {node}"}}
        )
    if any(s.cat.startswith("job") for s in spans):
        out.append(
            {"name": "process_name", "ph": "M", "pid": jobs_pid,
             "args": {"name": "jobs"}}
        )

    by_process: Dict[int, List[Span]] = {}
    for span in spans:
        pid = jobs_pid if span.cat.startswith("job") else pid_of.get(span.node or "", jobs_pid)
        by_process.setdefault(pid, []).append(span)
    instant_tid: Dict[int, int] = {}
    for pid, process_spans in sorted(by_process.items()):
        process_spans.sort(key=lambda s: (s.start, s.cat, s.name))
        lanes = _pack_lanes(process_spans)
        instant_tid[pid] = max(lanes, default=-1) + 1
        for span, lane in zip(process_spans, lanes):
            args: Dict[str, Any] = {
                k: getattr(span, k) for k in ("job", "task", "obj", "parent")
                if getattr(span, k) is not None
            }
            if span.attrs:
                args["attrs"] = span.attrs
            out.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "pid": pid,
                    "tid": lane,
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "args": args,
                }
            )
            # Causal arrow: the retry event (and through it the fault)
            # flows into the re-executed attempt's span.
            if span.cat == "task" and span.parent is not None:
                out.append(
                    {
                        "name": "retry",
                        "cat": "causal",
                        "ph": "f",
                        "bp": "e",
                        "id": span.parent,
                        "pid": pid,
                        "tid": lane,
                        "ts": span.start * 1e6,
                    }
                )
    for event in events:
        if event.kind not in _INSTANT_KINDS:
            continue
        pid = pid_of.get(event.node or "", jobs_pid)
        tid = instant_tid.get(pid, 0)
        out.append(
            {
                "name": event.kind,
                "cat": "fault" if event.kind != "task.retry" else "retry",
                "ph": "i",
                "s": "p",
                "pid": pid,
                "tid": tid,
                "ts": event.ts * 1e6,
                "args": event.to_dict(),
            }
        )
        if event.kind == "task.retry":
            # Flow start at the retry instant; finishes at the retried
            # attempt's span (same id = the retry event's seq).
            out.append(
                {
                    "name": "retry",
                    "cat": "causal",
                    "ph": "s",
                    "id": event.seq,
                    "pid": pid,
                    "tid": tid,
                    "ts": event.ts * 1e6,
                    "args": {
                        "cause_chain": [
                            e.kind for e in causal_chain(event, index)
                        ],
                    },
                }
            )
    return out


def write_chrome_trace(
    events: Sequence[ObsEvent], path: str, counters: bool = True
) -> int:
    """Write the Chrome trace JSON for an event stream; returns the
    number of complete ("X") events written.

    With ``counters`` (the default), the perf layer's utilization
    counter tracks ("ph": "C": busy CPU slots, disk/NIC activity,
    object-store occupancy, spill-queue depth) ride along next to the
    span lanes, so Perfetto shows memory pressure against the tasks
    that caused it.
    """
    spans = derive_spans(events)
    chrome = span_chrome_events(events, spans)
    if counters:
        from repro.obs.perf.usage import usage_chrome_events

        chrome = chrome + usage_chrome_events(events, spans)
    Path(path).write_text(json.dumps({"traceEvents": chrome}))
    return sum(1 for e in chrome if e.get("ph") == "X")
