"""The run reporter: from a recorded event stream to a readable story.

``record_run`` exports a runtime's bus as JSONL with a trailing
synthetic ``run.summary`` event carrying the flat counters, the per-job
counters, and the dimensioned metric snapshot -- one file is the whole
run.  :class:`RunReport` loads that file (or a live event list) and
renders the sections behind ``python -m repro.obs``:

- phase breakdown (per task function: count, makespan, busy core-seconds,
  mean queue delay);
- top-k slowest task attempts;
- per-job/per-tenant summary with the max/min completion-ratio fairness
  figure of merit;
- spill amplification (spill bytes written per task output byte);
- policy decisions (per-policy counts from ``policy.decision`` events,
  with placement affinity honoured-vs-fell-through accounting);
- the planning story (``plan.lower`` / ``plan.replan`` events: what each
  expression lowered to, and any mid-job switches or bound adjustments
  with their estimated gains) when re-planning was enabled;
- the fault/retry timeline, each retry annotated with its causal chain
  back to the fault that triggered it;
- cluster churn accounting (joins / drains / removes and the lineage
  recomputes node departures forced);
- streaming record latency (global + per-tenant p50/p99/p999 from the
  summary's metric histograms, plus windows/records/backpressure-stall
  accounting from ``stream.*`` events) when the streaming tier ran.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.metrics.tables import ResultTable
from repro.obs.events import EventBus, ObsEvent, run_summary
from repro.obs.trace import FAULT_KINDS, FaultEntry, Span, derive_spans


def record_run(
    runtime: Any, path: str, profile: Optional[Dict[str, Any]] = None
) -> int:
    """Export a runtime's event bus to ``path`` as JSONL.

    Samples the per-node gauges first, then appends a synthetic
    ``run.summary`` event holding ``runtime.stats()``, the per-job
    counters, and the metric-registry snapshot, so the file is
    self-sufficient for offline reporting.  Returns the number of lines
    written.  ``runtime`` is duck-typed (needs ``bus``, ``stats``,
    ``job_stats``, ``metrics``, ``sample_gauges``).  A ``profile``
    (:meth:`repro.obs.profile.SelfProfiler.to_dict`) is stamped into
    the summary too; the reporter then renders an Engine section.
    """
    runtime.sample_gauges()
    bus: EventBus = runtime.bus
    attrs = {
        "stats": runtime.stats(),
        "job_stats": runtime.job_stats(),
        "metrics": runtime.metrics.snapshot(),
        "cluster": runtime.cluster_snapshot(),
    }
    if profile is not None:
        attrs["profile"] = profile
    summary = ObsEvent(
        seq=bus.next_seq,
        ts=float(bus.clock()),
        kind="run.summary",
        attrs=attrs,
    )
    return bus.to_jsonl(path, extra=[summary])


class RunReport:
    """Sections of a run story, derived from a recorded event stream."""

    def __init__(self, events: Sequence[ObsEvent]) -> None:
        self.events: List[ObsEvent] = list(events)
        self.spans: List[Span] = derive_spans(self.events)
        self._index = {e.seq: e for e in self.events}
        #: The trailing ``run.summary`` attrs ({} when absent).
        self.summary: Dict[str, Any] = run_summary(self.events)
        #: The recorded end of the run (the last event's time without one).
        self.t_end: float = self.summary.get("stats", {}).get(
            "time", max((e.ts for e in self.events), default=0.0)
        )
        #: job -> its admission wait (``job.submit`` -> ``job.admit``).
        self._job_waits: Dict[str, float] = {
            s.job: s.duration for s in self.spans if s.cat == "job.wait"
        }

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Build a report from a :func:`record_run` JSONL file."""
        return cls(EventBus.load_jsonl(path))

    # -- sections -------------------------------------------------------------
    def task_spans(self) -> List[Span]:
        """Completed task-attempt spans, sorted by start time."""
        return [s for s in self.spans if s.cat == "task"]

    def phase_table(self) -> ResultTable:
        """Per task function: count, makespan, busy core-s, mean waits.

        ``mean_queue_s`` is the submit-to-run delay of the task itself;
        ``admission_s`` is the owning job's admission wait (its
        ``job.submit`` -> ``job.admit`` span), averaged over the
        phase's tasks -- zero for tasks outside the job control plane.
        """
        grouped: Dict[str, List[Span]] = defaultdict(list)
        for span in self.task_spans():
            grouped[span.name].append(span)
        table = ResultTable(
            "Phase breakdown",
            [
                "phase",
                "tasks",
                "first_start",
                "last_end",
                "busy_core_s",
                "mean_queue_s",
                "admission_s",
            ],
        )
        for name in sorted(grouped):
            spans = grouped[name]
            waits = [s.attrs.get("queue_delay", 0.0) for s in spans]
            admissions = [self._job_waits.get(s.job, 0.0) for s in spans]
            table.add_row(
                phase=name,
                tasks=len(spans),
                first_start=min(s.start for s in spans),
                last_end=max(s.end for s in spans),
                busy_core_s=sum(s.duration for s in spans),
                mean_queue_s=sum(waits) / len(waits),
                admission_s=sum(admissions) / len(admissions),
            )
        return table

    def slowest_tasks(self, k: int = 10) -> ResultTable:
        """The ``k`` longest task attempts."""
        table = ResultTable(
            "Slowest tasks",
            ["task", "fn", "node", "job", "duration_s", "attempt", "status"],
        )
        ranked = sorted(
            self.task_spans(), key=lambda s: (-s.duration, s.task or "")
        )
        for span in ranked[:k]:
            table.add_row(
                task=span.task,
                fn=span.name,
                node=span.node,
                job=span.job or "-",
                duration_s=span.duration,
                attempt=span.attrs.get("attempt", 1),
                status=span.attrs.get("status", "?"),
            )
        return table

    def per_job_spill_bytes(self) -> Dict[str, float]:
        """Spill bytes written charged to each job bucket (from the
        recorded ``run.summary``)."""
        return {
            job_id: bucket.get("spill_bytes_written", 0.0)
            for job_id, bucket in self.summary.get("job_stats", {}).items()
        }

    def job_table(self) -> ResultTable:
        """One row per job seen on the bus: tenant, timings, key bytes."""
        job_stats: Dict[str, Dict[str, float]] = self.summary.get(
            "job_stats", {}
        )
        runs = {s.job: s for s in self.spans if s.cat == "job"}
        jobs = sorted(set(job_stats) | set(runs))
        table = ResultTable(
            "Jobs",
            [
                "job",
                "tenant",
                "status",
                "queue_wait_s",
                "duration_s",
                "tasks",
                "spill_bytes",
            ],
        )
        for job in jobs:
            span = runs.get(job)
            bucket = job_stats.get(job, {})
            table.add_row(
                job=job,
                tenant=(span.attrs.get("tenant") if span else None) or "-",
                status=(span.attrs.get("status") if span else None) or "-",
                queue_wait_s=self._job_waits.get(job, 0.0),
                duration_s=span.duration if span else 0.0,
                tasks=bucket.get("tasks_finished", 0.0),
                spill_bytes=bucket.get("spill_bytes_written", 0.0),
            )
        return table

    def fairness_ratio(self) -> Optional[float]:
        """Max/min completed-job duration ratio (None under two jobs)."""
        durations = [
            s.duration
            for s in self.spans
            if s.cat == "job" and s.attrs.get("status") == "ok" and s.duration
        ]
        if len(durations) < 2:
            return None
        return max(durations) / min(durations)

    def spill_amplification(self) -> Optional[float]:
        """Spill bytes written per task output byte (None without output)."""
        stats = self.summary.get("stats", {})
        output = stats.get("task_output_bytes", 0.0)
        if not output:
            return None
        return stats.get("spill_bytes_written", 0.0) / output

    def policy_decisions(self) -> Dict[str, Dict[str, int]]:
        """``policy.decision`` counts, grouped by policy then decision.

        Placement decisions additionally split by deciding *stage*
        (``place:affinity``, ``place:locality``, ...), which is what the
        affinity-honoured accounting below is derived from.
        """
        grouped: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for event in self.events:
            if event.kind != "policy.decision":
                continue
            policy = str(event.attrs.get("policy", "?"))
            decision = str(event.attrs.get("decision", "?"))
            stage = event.attrs.get("stage")
            if stage is not None:
                decision = f"{decision}:{stage}"
            grouped[policy][decision] += 1
        return {p: dict(d) for p, d in grouped.items()}

    def affinity_summary(self) -> Dict[str, int]:
        """Placement affinity accounting from ``policy.decision`` events.

        ``honoured``: the hint decided placement; ``fell_through``: a
        hint was set but another stage decided (dead/blacklisted hint);
        ``no_hint``: placements without an affinity hint.
        """
        honoured = fell_through = no_hint = 0
        for event in self.events:
            if event.kind != "policy.decision":
                continue
            if event.attrs.get("decision") != "place":
                continue
            if event.attrs.get("affinity") is None:
                no_hint += 1
            elif event.attrs.get("stage") == "affinity":
                honoured += 1
            else:
                fell_through += 1
        return {
            "honoured": honoured,
            "fell_through": fell_through,
            "no_hint": no_hint,
        }

    def policy_table(self) -> ResultTable:
        """One row per (policy, decision) pair seen on the bus."""
        table = ResultTable(
            "Policy decisions", ["policy", "decision", "count"]
        )
        grouped = self.policy_decisions()
        for policy in sorted(grouped):
            for decision in sorted(grouped[policy]):
                table.add_row(
                    policy=policy,
                    decision=decision,
                    count=grouped[policy][decision],
                )
        return table

    def plan_summary(self) -> Dict[str, Any]:
        """Planning-surface accounting from ``plan.lower`` /
        ``plan.replan`` events: per-variant lowered counts, mid-job
        variant switches, and in-flight bound adjustments ({} for runs
        without re-planning enabled, which emit no plan events)."""
        lowered: Dict[str, int] = {}
        switches = adjustments = 0
        for event in self.events:
            if event.kind == "plan.lower":
                variant = str(event.attrs.get("variant", "?"))
                lowered[variant] = lowered.get(variant, 0) + 1
            elif event.kind == "plan.replan":
                if event.attrs.get("param") is not None:
                    adjustments += 1
                else:
                    switches += 1
        if not lowered and not switches and not adjustments:
            return {}
        return {
            "lowered": lowered,
            "switches": switches,
            "bound_adjustments": adjustments,
        }

    def plan_table(self) -> ResultTable:
        """One row per planning event: lowers with the decided variant,
        rule, and estimate; replans with the before->after change and
        its estimated fractional gain."""
        table = ResultTable(
            "Plan",
            ["t", "job", "action", "variant", "decided_by", "est_s", "gain"],
        )
        for event in self.events:
            if event.kind == "plan.lower":
                table.add_row(
                    t=event.ts,
                    job=event.job or "-",
                    action="lower",
                    variant=str(event.attrs.get("variant", "?")),
                    decided_by=(
                        f"{event.attrs.get('rule', '?')}/"
                        f"{event.attrs.get('decided_by', '?')}"
                    ),
                    est_s=float(event.attrs.get("est_seconds", 0.0)),
                    gain=0.0,
                )
            elif event.kind == "plan.replan":
                if event.attrs.get("param") is not None:
                    change = (
                        f"{event.attrs['param']} "
                        f"{event.attrs.get('inflight_before')}->"
                        f"{event.attrs.get('inflight_after')}"
                    )
                    est_s = gain = 0.0
                else:
                    change = (
                        f"{event.attrs.get('variant_before')}->"
                        f"{event.attrs.get('variant_after')}"
                    )
                    est_s = float(event.attrs.get("est_after", 0.0))
                    gain = float(event.attrs.get("gain", 0.0))
                table.add_row(
                    t=event.ts,
                    job=event.job or "-",
                    action="replan",
                    variant=change,
                    decided_by=str(event.attrs.get("boundary", "?")),
                    est_s=est_s,
                    gain=gain,
                )
        return table

    def fault_timeline(self) -> List[str]:
        """Chronological fault / churn / death / retry lines with causal
        chains (membership changes are part of the same story: a drain
        fault causes a membership remove, which causes task retries)."""
        return [
            FaultEntry.of(e, self._index).render()
            for e in self.events
            if e.kind in FAULT_KINDS
        ]

    def membership_summary(self) -> Dict[str, int]:
        """Cluster-churn accounting from ``cluster.membership`` events
        plus the lineage-recompute count the elasticity work targets
        (``joins`` / ``drains`` / ``removes`` / ``reconstructions``)."""
        actions = {"join": 0, "drain": 0, "remove": 0}
        for event in self.events:
            if event.kind != "cluster.membership":
                continue
            action = str(event.attrs.get("action", "?"))
            if action in actions:
                actions[action] += 1
        stats = self.summary.get("stats", {})
        return {
            "joins": actions["join"],
            "drains": actions["drain"],
            "removes": actions["remove"],
            "reconstructions": int(stats.get("lineage_reconstructions", 0)),
        }

    def streaming_summary(self) -> Dict[str, Any]:
        """Streaming-tier accounting from ``stream.*`` events: windows
        closed, records windowed, sources closed, and backpressure
        stalls split by reason ({} for batch-only runs)."""
        windows = records = sources = 0
        stalls: Dict[str, int] = {}
        for event in self.events:
            if event.kind == "stream.window.close":
                windows += 1
                records += int(event.attrs.get("records", 0))
            elif event.kind == "stream.source.close":
                sources += 1
            elif event.kind == "stream.backpressure":
                reason = str(event.attrs.get("reason", "?"))
                stalls[reason] = stalls.get(reason, 0) + 1
        if not windows and not sources and not stalls:
            return {}
        return {
            "windows": windows,
            "records": records,
            "sources": sources,
            "backpressure_stalls": stalls,
        }

    def streaming_latency_table(self) -> ResultTable:
        """Global + per-tenant record-latency percentiles (p50/p99/p999)
        from the recorded ``run.summary`` metric histograms.

        Keys mirror :mod:`repro.streaming.job`'s metric names without
        importing the tier (obs sits below it in the layering order):
        the global series of ``stream.record_latency_s`` plus every
        tenant dimension of ``stream.tenant_latency_s``.
        """
        table = ResultTable(
            "Streaming record latency",
            ["scope", "records", "p50_s", "p99_s", "p999_s", "max_s"],
        )
        hists: Dict[str, Dict[str, float]] = self.summary.get(
            "metrics", {}
        ).get("histograms", {})

        def add(scope: str, summary: Dict[str, float]) -> None:
            table.add_row(
                scope=scope,
                records=int(summary.get("count", 0)),
                p50_s=summary.get("p50", 0.0),
                p99_s=summary.get("p99", 0.0),
                p999_s=summary.get("p999", 0.0),
                max_s=summary.get("max", 0.0),
            )

        global_summary = hists.get("stream.record_latency_s[<all>=<all>]")
        if global_summary:
            add("<global>", global_summary)
        tenant_prefix = "stream.tenant_latency_s[job="
        for key in sorted(hists):
            if key.startswith(tenant_prefix):
                add(key[len(tenant_prefix):-1], hists[key])
        return table

    def engine_summary(self, top_k: int = 5) -> Dict[str, Any]:
        """Self-profile of the *simulator itself* from the recorded
        ``run.summary`` (present when :func:`record_run` was given a
        :class:`repro.obs.profile.SelfProfiler` profile): wall seconds,
        simulated-events-per-wall-second throughput, and the top
        wall-time categories with their shares ({} otherwise)."""
        profile = self.summary.get("profile")
        if not profile:
            return {}
        categories = profile.get("categories", {})
        fractions = profile.get("fractions", {})
        top = [
            {
                "category": category,
                "seconds": seconds,
                "share": fractions.get(category, 0.0),
            }
            for category, seconds in sorted(
                categories.items(), key=lambda kv: -kv[1]
            )[:top_k]
        ]
        return {
            "wall_time_s": profile.get("wall_time_s", 0.0),
            "sim_time_s": profile.get("sim_time_s", 0.0),
            "events_processed": int(profile.get("events_processed", 0)),
            "events_per_wall_s": profile.get("events_per_wall_s", 0.0),
            "sim_s_per_wall_s": profile.get("sim_s_per_wall_s", 0.0),
            "coverage_error": profile.get("coverage_error", 0.0),
            "top_categories": top,
            "counters": profile.get("counters", {}),
        }

    def engine_table(self, top_k: int = 5) -> ResultTable:
        """The Engine section's category rows (empty without a profile)."""
        table = ResultTable(
            "Engine self-profile", ["category", "wall_s", "share_pct"]
        )
        engine = self.engine_summary(top_k)
        for row in engine.get("top_categories", []):
            table.add_row(
                category=row["category"],
                wall_s=row["seconds"],
                share_pct=100.0 * row["share"],
            )
        return table

    def engine_section(self) -> str:
        """The Engine section as printed: the category table plus its
        throughput line ("" without a profile)."""
        engine = self.engine_summary()
        if not engine:
            return ""
        return (
            f"{self.engine_table().render()}\n"
            f"engine: {engine['events_processed']} events in "
            f"{engine['wall_time_s']:.3f}s wall "
            f"({engine['events_per_wall_s']:,.0f} events/s, "
            f"{engine['sim_s_per_wall_s']:.2f} sim-s/wall-s)"
        )

    # -- export ---------------------------------------------------------------
    def to_dict(self, top_k: int = 10) -> Dict[str, Any]:
        """Every section as plain JSON-safe data -- the machine-readable
        twin of :meth:`render`, consumed by ``report --json`` and the
        HTML run explorer."""
        return {
            "events": len(self.events),
            "t_end": self.t_end,
            "stats": self.summary.get("stats", {}),
            "phase_table": self.phase_table().to_dict(),
            "slowest_tasks": self.slowest_tasks(top_k).to_dict(),
            "job_table": self.job_table().to_dict(),
            "fairness_ratio": self.fairness_ratio(),
            "spill_amplification": self.spill_amplification(),
            "per_job_spill_bytes": self.per_job_spill_bytes(),
            "policy_decisions": self.policy_decisions(),
            "affinity_summary": self.affinity_summary(),
            "policy_table": self.policy_table().to_dict(),
            "plan_summary": self.plan_summary(),
            "plan_table": self.plan_table().to_dict(),
            "fault_timeline": self.fault_timeline(),
            "membership_summary": self.membership_summary(),
            "streaming_summary": self.streaming_summary(),
            "streaming_latency_table": self.streaming_latency_table().to_dict(),
            "engine_summary": self.engine_summary(),
        }

    # -- rendering ------------------------------------------------------------
    def render(self, top_k: int = 10) -> str:
        """The full multi-section report as one printable string."""
        parts = [f"Run of {len(self.events)} events, t_end={self.t_end:g}s"]
        if self.task_spans():
            parts.append("")
            parts.append(self.phase_table().render())
            parts.append("")
            parts.append(self.slowest_tasks(top_k).render())
        job_table = self.job_table()
        if len(job_table):
            parts.append("")
            parts.append(job_table.render())
            ratio = self.fairness_ratio()
            if ratio is not None:
                parts.append(f"fairness (max/min job duration): {ratio:.2f}x")
        policy_table = self.policy_table()
        if len(policy_table):
            parts.append("")
            parts.append(policy_table.render())
            affinity = self.affinity_summary()
            if affinity["honoured"] or affinity["fell_through"]:
                parts.append(
                    "affinity: "
                    f"{affinity['honoured']} honoured, "
                    f"{affinity['fell_through']} fell through, "
                    f"{affinity['no_hint']} unhinted"
                )
        plan_table = self.plan_table()
        if len(plan_table):
            parts.append("")
            parts.append(plan_table.render())
            plan = self.plan_summary()
            parts.append(
                f"planning: {sum(plan['lowered'].values())} plans lowered, "
                f"{plan['switches']} mid-job switches, "
                f"{plan['bound_adjustments']} bound adjustments"
            )
        streaming = self.streaming_summary()
        if streaming:
            parts.append("")
            latency_table = self.streaming_latency_table()
            if len(latency_table):
                parts.append(latency_table.render())
            stalls = streaming["backpressure_stalls"]
            stall_s = (
                ", ".join(f"{n} x {r}" for r, n in sorted(stalls.items()))
                or "none"
            )
            parts.append(
                f"streaming: {streaming['records']} records over "
                f"{streaming['windows']} windows from "
                f"{streaming['sources']} sources; "
                f"backpressure stalls: {stall_s}"
            )
        amp = self.spill_amplification()
        if amp is not None:
            parts.append("")
            parts.append(
                f"spill amplification: {amp:.3f} bytes spilled per output byte"
            )
        membership = self.membership_summary()
        if membership["joins"] or membership["drains"] or membership["removes"]:
            parts.append("")
            parts.append(
                "cluster churn: "
                f"{membership['joins']} joins, "
                f"{membership['drains']} drains, "
                f"{membership['removes']} removes, "
                f"{membership['reconstructions']} lineage recomputes"
            )
        engine = self.engine_section()
        if engine:
            parts.append("")
            parts.append(engine)
        timeline = self.fault_timeline()
        if timeline:
            parts.append("")
            parts.append("Fault / retry timeline")
            parts.extend("  " + line for line in timeline)
        return "\n".join(parts)
