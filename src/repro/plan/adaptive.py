"""Closing the loop: re-lowering the remaining plan from live signals.

The :class:`AdaptivePlanner` is the session object behind
``variant="auto"``: call sites hand it abstract
:class:`~repro.plan.ir.ShuffleExpr` nodes and get concrete
:class:`~repro.plan.ir.ShufflePlan` objects back.  When re-planning is
enabled it also *watches the run*: subscribed to the event bus, it
counts ``store.pressure`` parks and ``stream.backpressure`` stalls
(memory pressure), and at stage/round boundaries it may re-lower the
remaining work against a fresh sample of the alive cluster's store
capacity, or shrink a streaming job's in-flight window bound.

Every verdict emits a ``policy.decision`` event; an accepted switch
additionally emits a causal ``plan.replan`` whose ``cause`` is the
original ``plan.lower`` (or the previous replan), so a run's planning
history reads as one chain.  With ``replan`` disabled (the default) the
planner never subscribes and never emits: runs are bit-for-bit
identical to the pre-plan-layer behaviour, which the golden digest
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.plan.ir import ShuffleExpr, ShufflePlan
from repro.plan.profile import ClusterProfile, JobShape

#: Backpressure stalls since the last round boundary that count as
#: memory pressure (shrink the in-flight window bound).
STALL_THRESHOLD = 2

#: ``store.pressure`` parks since the last round boundary that do.
PRESSURE_THRESHOLD = 8


@dataclass
class PlanSignals:
    """Mutable accumulator of the obs signals re-planning consumes."""

    #: Allocation parks in the store queue (memory pressure).
    store_pressure: int = 0
    #: Streaming backpressure throttles.
    backpressure_stalls: int = 0


class AdaptivePlanner:
    """The one planning surface behind ``variant="auto"`` everywhere.

    ``replan`` enables signal accumulation and mid-job re-lowering;
    off (the default) the planner is a pure, silent lowering function.
    """

    def __init__(
        self,
        profile: ClusterProfile,
        *,
        replan: bool = False,
        bus: Optional[Any] = None,
        profile_source: Optional[Callable[[], ClusterProfile]] = None,
    ) -> None:
        self.profile = profile
        self.replan = replan
        self.bus = bus
        self.profile_source = profile_source
        self.signals = PlanSignals()
        #: Every plan this planner produced, in order (lowered + replanned).
        self.plans: List[ShufflePlan] = []
        self._plan_seq: Dict[int, Optional[int]] = {}
        self._stalls_mark = 0
        self._pressure_mark = 0

    # -- wiring ---------------------------------------------------------------
    def attach(self, bus: Any) -> Callable[[], None]:
        """Subscribe to a bus for signal accumulation and event emission;
        returns the unsubscribe callable."""
        self.bus = bus
        return bus.subscribe(self.on_event)

    # -- signal accumulation --------------------------------------------------
    def on_event(self, event: Any) -> None:
        """Fold one obs event into the running signals."""
        if event.kind == "store.pressure":
            self.signals.store_pressure += 1
        elif event.kind == "stream.backpressure":
            self.signals.backpressure_stalls += 1

    # -- profiles -------------------------------------------------------------
    def effective_profile(self) -> ClusterProfile:
        """A fresh sample of the (possibly shrunk) alive cluster when a
        ``profile_source`` was given, else the nominal profile."""
        if self.profile_source is not None:
            return self.profile_source()
        return self.profile

    # -- planning -------------------------------------------------------------
    def plan(
        self,
        expr: ShuffleExpr,
        *,
        job: Optional[str] = None,
    ) -> ShufflePlan:
        """Lower an expression to a concrete plan.

        With re-planning on, lowering runs against the effective
        (re-sampled) profile and a ``plan.lower`` event records the
        decision; off, it runs against the static profile and emits
        nothing.
        """
        profile = self.effective_profile() if self.replan else self.profile
        plan = expr.lower(profile)
        seq: Optional[int] = None
        if self.replan and self.bus is not None:
            seq = self.bus.emit("plan.lower", job=job, **plan.to_dict())
            self.bus.emit(
                "policy.decision",
                job=job,
                policy="planner",
                decision=plan.variant,
                decided_by=plan.decided_by,
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

        Returns a new plan when the rule, run against a fresh sample of
        the store capacity, picks a different variant; otherwise
        ``None`` (keep going).  Either way the verdict is a
        ``policy.decision``; a switch also emits ``plan.replan`` caused
        by the plan's original ``plan.lower``, carrying the sampled
        ``store_bytes`` the rule decided against.
        """
        if not self.replan:
            return None
        shape = remaining_shape if remaining_shape is not None else plan.shape
        profile = self.effective_profile()
        candidate = ShuffleExpr(shape=shape, label=plan.label).lower(profile)
        switch = candidate.variant != plan.variant
        if self.bus is not None:
            self.bus.emit(
                "policy.decision",
                job=job,
                policy="replan",
                decision="switch" if switch else "keep",
                boundary=boundary,
                variant_before=plan.variant,
                variant_after=candidate.variant,
                store_bytes=profile.store_bytes,
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
                store_bytes=profile.store_bytes,
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
        pressured = stalls >= STALL_THRESHOLD or parks >= PRESSURE_THRESHOLD
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
            f"<AdaptivePlanner replan={self.replan} "
            f"plans={len(self.plans)}>"
        )


def planner_for_runtime(rt: Any) -> AdaptivePlanner:
    """The runtime's planning surface, built from its config knobs.

    Returns the planner already attached to the runtime when one is
    (``rt.planner``); otherwise builds one from ``rt.config.replan``.
    With ``replan="on"`` the planner subscribes to the bus and registers
    itself on the runtime's duck-typed slot so stage-boundary hooks find
    it; with the default ``"off"`` it stays
    detached and silent -- runs are bit-for-bit identical to a build
    without the plan layer.
    """
    existing = getattr(rt, "planner", None)
    if existing is not None:
        return existing
    config = getattr(rt, "config", None)
    replan = getattr(config, "replan", "off") == "on"
    planner = AdaptivePlanner(
        ClusterProfile.from_runtime(rt),
        replan=replan,
        profile_source=lambda: ClusterProfile.from_runtime(rt),
    )
    if replan:
        planner.attach(rt.bus)
        attach = getattr(rt, "attach_planner", None)
        if attach is not None:
            attach(planner)
    return planner
