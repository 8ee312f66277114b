"""Closing the loop: re-lowering the remaining plan from live signals.

The :class:`AdaptivePlanner` is the session object behind
``variant="auto"``: call sites hand it abstract
:class:`~repro.plan.ir.ShuffleExpr` nodes and get concrete
:class:`~repro.plan.ir.ShufflePlan` objects back.  When re-planning is
enabled it also *watches the run*: subscribed to the event bus, it
accumulates the signals the obs plane already publishes -- spill write
spans (measured disk throughput and seek pressure), spill/restore and
object-creation byte counts (spill amplification), ``store.pressure``
parks and ``stream.backpressure`` stalls (memory pressure), chaos
faults and membership changes -- and at stage/round boundaries may
re-lower the remaining work against an *effective* profile that folds
those observations into the nominal hardware numbers.

Every verdict emits a ``policy.decision`` event; an accepted switch
additionally emits a causal ``plan.replan`` whose ``cause`` is the
original ``plan.lower`` (or the previous replan), so a run's planning
history reads as one chain.  With ``replan`` disabled (the default) the
planner never subscribes and never emits: runs are bit-for-bit
identical to the pre-plan-layer behaviour, which the golden digest
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.plan.cost import estimate_variant
from repro.plan.ir import ShuffleExpr, ShufflePlan
from repro.plan.profile import ClusterProfile, JobShape


@dataclass
class PlanSignals:
    """Mutable accumulator of the obs signals re-planning consumes."""

    #: Bytes written by spill (and direct disk) writes, and the summed
    #: begin->end span seconds behind them (measured disk throughput).
    disk_bytes: float = 0.0
    disk_busy_s: float = 0.0
    disk_writes: int = 0
    #: Bytes of objects created (the denominator of spill amplification).
    produced_bytes: float = 0.0
    #: Bytes that went through spill writes specifically.
    spill_bytes: float = 0.0
    #: Allocation parks in the store queue (memory pressure).
    store_pressure: int = 0
    #: Streaming backpressure throttles and windows closed.
    backpressure_stalls: int = 0
    windows_closed: int = 0
    #: Chaos faults observed, and how many were disk faults.
    faults: int = 0
    disk_faults: int = 0
    #: Node deaths + membership changes (the profile may be stale).
    membership_changes: int = 0

    def spill_amplification(self) -> Optional[float]:
        """Spilled bytes per produced byte (``None`` before any output)."""
        if self.produced_bytes <= 0:
            return None
        return self.spill_bytes / self.produced_bytes

    def measured_disk_bandwidth(self) -> Optional[float]:
        """Observed bytes/second across spill and disk write spans
        (``None`` until a write has completed)."""
        if self.disk_busy_s <= 0 or self.disk_writes == 0:
            return None
        return self.disk_bytes / self.disk_busy_s

    def stall_rate(self) -> float:
        """Backpressure stalls per closed window."""
        return self.backpressure_stalls / max(1, self.windows_closed)


class AdaptivePlanner:
    """The one planning surface behind ``variant="auto"`` everywhere.

    ``rule`` selects the default lowering rule: ``"default"`` keeps each
    call site's legacy rule (jobs lower with the cost model, the
    dataframe with the empirical crossover), while ``"cost"`` or
    ``"empirical"`` force one rule for every surface.  ``replan``
    enables signal accumulation and mid-job re-lowering; off (the
    default) the planner is a pure, silent lowering function.
    """

    def __init__(
        self,
        profile: ClusterProfile,
        *,
        rule: str = "default",
        replan: bool = False,
        bus: Optional[Any] = None,
        profile_source: Optional[Callable[[], ClusterProfile]] = None,
        min_gain: float = 0.05,
        stall_threshold: int = 2,
        pressure_threshold: int = 8,
    ) -> None:
        if rule not in ("default", "cost", "empirical"):
            raise ValueError(
                f"unknown planner rule {rule!r}; expected 'default', "
                f"'cost', or 'empirical'"
            )
        self.profile = profile
        self.rule = rule
        self.replan = replan
        self.bus = bus
        self.profile_source = profile_source
        #: Fractional improvement of the re-lowered estimate over the
        #: current variant's re-estimate required to switch mid-job.
        self.min_gain = min_gain
        #: Backpressure stalls since the last round boundary that count
        #: as memory pressure (shrink the in-flight window bound).
        self.stall_threshold = stall_threshold
        #: ``store.pressure`` parks since the last boundary that do.
        self.pressure_threshold = pressure_threshold
        self.signals = PlanSignals()
        #: Every plan this planner produced, in order (lowered + replanned).
        self.plans: List[ShufflePlan] = []
        self._plan_seq: Dict[int, Optional[int]] = {}
        self._write_begins: Dict[int, Any] = {}
        self._stalls_mark = 0
        self._pressure_mark = 0
        self._unsubscribe: Optional[Callable[[], None]] = None

    # -- wiring ---------------------------------------------------------------
    def attach(self, bus: Any) -> Callable[[], None]:
        """Subscribe to a bus for signal accumulation and event emission;
        returns the unsubscribe callable."""
        self.bus = bus
        self._unsubscribe = bus.subscribe(self.on_event)
        return self._unsubscribe

    def detach(self) -> None:
        """Stop watching the bus (plans already made stay valid)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- signal accumulation --------------------------------------------------
    def on_event(self, event: Any) -> None:
        """Fold one obs event into the running signals."""
        kind = event.kind
        s = self.signals
        if kind in ("spill.write.begin", "disk.write.begin"):
            self._write_begins[event.seq] = event
        elif kind in ("spill.write.end", "disk.write.end"):
            begin = (
                self._write_begins.pop(event.cause, None)
                if event.cause is not None
                else None
            )
            if begin is not None:
                bytes_written = float(begin.attrs.get("bytes", 0.0))
                s.disk_bytes += bytes_written
                s.disk_busy_s += max(0.0, event.ts - begin.ts)
                s.disk_writes += 1
                if kind == "spill.write.end":
                    s.spill_bytes += bytes_written
        elif kind == "object.create":
            s.produced_bytes += float(event.attrs.get("bytes", 0.0))
        elif kind == "store.pressure":
            s.store_pressure += 1
        elif kind == "stream.backpressure":
            s.backpressure_stalls += 1
        elif kind == "stream.window.close":
            s.windows_closed += 1
        elif kind == "chaos.fault":
            s.faults += 1
            if "disk" in str(event.attrs.get("fault", "")):
                s.disk_faults += 1
        elif kind in ("node.death", "cluster.membership"):
            s.membership_changes += 1

    # -- profiles -------------------------------------------------------------
    def effective_profile(self) -> ClusterProfile:
        """The nominal profile corrected by what the run has shown.

        Starts from a fresh sample of the (possibly shrunk) alive
        cluster when a ``profile_source`` was given, then folds in the
        measured disk throughput: when completed spill/disk writes ran
        slower than one nominal disk, both the aggregate bandwidth and
        the seek latency are scaled by the observed degradation --
        a stalled disk seeks as slowly as it streams.
        """
        profile = (
            self.profile_source() if self.profile_source is not None
            else self.profile
        )
        measured = self.signals.measured_disk_bandwidth()
        if measured is not None and profile.num_nodes > 0:
            per_node = profile.disk_bandwidth / profile.num_nodes
            if 0 < measured < per_node:
                scale = measured / per_node
                profile = replace(
                    profile,
                    disk_bandwidth=profile.disk_bandwidth * scale,
                    disk_seek_s=profile.disk_seek_s / scale,
                )
        return profile

    def _rule_for(self, default_rule: str) -> str:
        return default_rule if self.rule == "default" else self.rule

    # -- planning -------------------------------------------------------------
    def plan(
        self,
        expr: ShuffleExpr,
        *,
        default_rule: str = "cost",
        job: Optional[str] = None,
    ) -> ShufflePlan:
        """Lower an expression to a concrete plan.

        ``default_rule`` is the call site's legacy rule, used when the
        planner was built with ``rule="default"``.  With re-planning on,
        lowering runs against the effective (observed) profile and a
        ``plan.lower`` event records the decision; off, it runs against
        the static profile and emits nothing.
        """
        rule = self._rule_for(default_rule)
        profile = self.effective_profile() if self.replan else self.profile
        plan = expr.lower(profile, rule=rule)
        seq: Optional[int] = None
        if self.replan and self.bus is not None:
            seq = self.bus.emit("plan.lower", job=job, **plan.to_dict())
            self.bus.emit(
                "policy.decision",
                job=job,
                policy="planner",
                decision=plan.variant,
                rule=rule,
                decided_by=plan.decided_by,
                est_seconds=plan.estimate.est_seconds,
            )
        self.plans.append(plan)
        self._plan_seq[id(plan)] = seq
        return plan

    def maybe_replan(
        self,
        plan: ShufflePlan,
        *,
        remaining_shape: Optional[JobShape] = None,
        boundary: str = "stage",
        job: Optional[str] = None,
    ) -> Optional[ShufflePlan]:
        """Re-lower the remaining work at a stage/round boundary.

        Returns a new plan only when the re-lowered variant differs and
        its estimate beats re-estimating the *current* variant under the
        same observed conditions by at least ``min_gain``; otherwise
        ``None`` (keep going).  Either way the verdict is a
        ``policy.decision``; a switch also emits ``plan.replan`` caused
        by the plan's original ``plan.lower``.
        """
        if not self.replan:
            return None
        shape = remaining_shape if remaining_shape is not None else plan.shape
        profile = self.effective_profile()
        expr = ShuffleExpr(
            shape=shape,
            variants=plan.variants,
            merge_factor=plan.merge_factor,
            label=plan.label,
        )
        candidate = expr.lower(profile, rule=plan.rule)
        current = estimate_variant(
            profile, shape, plan.variant, plan.merge_factor
        )
        est_before = current.est_seconds
        est_after = candidate.estimate.est_seconds
        gain = (
            (est_before - est_after) / est_before if est_before > 0 else 0.0
        )
        switch = candidate.variant != plan.variant and gain >= self.min_gain
        if self.bus is not None:
            self.bus.emit(
                "policy.decision",
                job=job,
                policy="replan",
                decision="switch" if switch else "keep",
                boundary=boundary,
                variant_before=plan.variant,
                variant_after=candidate.variant,
                est_before=est_before,
                est_after=est_after,
                gain=gain,
            )
        if not switch:
            return None
        seq: Optional[int] = None
        if self.bus is not None:
            seq = self.bus.emit(
                "plan.replan",
                job=job,
                cause=self._plan_seq.get(id(plan)),
                boundary=boundary,
                variant_before=plan.variant,
                variant_after=candidate.variant,
                est_before=est_before,
                est_after=est_after,
                gain=gain,
                spill_amplification=self.signals.spill_amplification(),
                measured_disk_bandwidth=(
                    self.signals.measured_disk_bandwidth()
                ),
                membership_changes=self.signals.membership_changes,
                disk_faults=self.signals.disk_faults,
            )
        self.plans.append(candidate)
        self._plan_seq[id(candidate)] = seq
        return candidate

    def maybe_shrink_inflight(
        self,
        current: int,
        *,
        job: Optional[str] = None,
    ) -> Optional[int]:
        """Shrink a streaming job's in-flight window bound under memory
        pressure.

        Consulted at round boundaries: when the stalls or store parks
        since the last check cross their thresholds, returns the reduced
        bound (floor 1) and records the verdict; otherwise ``None``.
        """
        if not self.replan:
            return None
        stalls = self.signals.backpressure_stalls - self._stalls_mark
        parks = self.signals.store_pressure - self._pressure_mark
        self._stalls_mark = self.signals.backpressure_stalls
        self._pressure_mark = self.signals.store_pressure
        pressured = (
            stalls >= self.stall_threshold or parks >= self.pressure_threshold
        )
        shrink = pressured and current > 1
        if self.bus is not None:
            self.bus.emit(
                "policy.decision",
                job=job,
                policy="replan",
                decision="shrink_inflight" if shrink else "keep_inflight",
                boundary="round",
                inflight_before=current,
                inflight_after=current - 1 if shrink else current,
                stalls=stalls,
                store_pressure=parks,
            )
        if not shrink:
            return None
        if self.bus is not None:
            self.bus.emit(
                "plan.replan",
                job=job,
                boundary="round",
                param="max_inflight_windows",
                inflight_before=current,
                inflight_after=current - 1,
                stalls=stalls,
                store_pressure=parks,
            )
        return current - 1

    def on_stage_boundary(
        self,
        label: str,
        *,
        plan: Optional[ShufflePlan] = None,
        remaining_shape: Optional[JobShape] = None,
        job: Optional[str] = None,
        inflight: Optional[int] = None,
    ) -> Optional[Any]:
        """The duck-typed hook :meth:`repro.futures.Runtime.stage_boundary`
        calls: dispatches to :meth:`maybe_replan` (a ``plan`` was
        handed in) or :meth:`maybe_shrink_inflight` (an ``inflight``
        bound was)."""
        if plan is not None:
            return self.maybe_replan(
                plan, remaining_shape=remaining_shape, boundary=label, job=job
            )
        if inflight is not None:
            return self.maybe_shrink_inflight(inflight, job=job)
        return None

    def __repr__(self) -> str:
        return (
            f"<AdaptivePlanner rule={self.rule} replan={self.replan} "
            f"plans={len(self.plans)}>"
        )


def planner_for_runtime(rt: Any) -> AdaptivePlanner:
    """The runtime's planning surface, built from its config knobs.

    Returns the planner already attached to the runtime when one is
    (``rt.planner``); otherwise builds one from ``rt.config.planner`` /
    ``rt.config.replan``.  With ``replan="on"`` the planner subscribes
    to the bus and registers itself on the runtime's duck-typed slot so
    stage-boundary hooks find it; with the default ``"off"`` it stays
    detached and silent -- runs are bit-for-bit identical to a build
    without the plan layer.
    """
    existing = getattr(rt, "planner", None)
    if existing is not None:
        return existing
    config = getattr(rt, "config", None)
    rule = getattr(config, "planner", "default")
    replan = getattr(config, "replan", "off") == "on"
    planner = AdaptivePlanner(
        ClusterProfile.from_runtime(rt),
        rule=rule,
        replan=replan,
        profile_source=lambda: ClusterProfile.from_runtime(rt),
    )
    if replan:
        planner.attach(rt.bus)
        attach = getattr(rt, "attach_planner", None)
        if attach is not None:
            attach(planner)
    return planner
