"""Default policy implementations: the seed data-plane behaviour, ported.

Every class here reproduces a decision rule that used to be hard-coded
in ``scheduler.py`` / ``spilling.py`` *exactly*
(the golden event-digest test is the proof), plus a few named
alternatives the ablation benchmarks select from the registry.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.rng import seeded_rng
from repro.futures.policies.base import (
    AutoscaleDecision,
    AutoscaleView,
    DispatchContext,
    DispatchOutcome,
    NodeCandidate,
    ParkNote,
    PlacementDecision,
    PlacementRequest,
    SpillCandidate,
)
from repro.futures.task import TaskPhase, TaskRecord


# -- placement stages --------------------------------------------------------
class BlacklistStage:
    """Filter out nodes inside their post-failure cooldown window.

    Availability beats hygiene: with every candidate blacklisted, pass
    them all through as if none were.
    """

    name = "blacklist"

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> Sequence[NodeCandidate]:
        """Keep non-blacklisted candidates; keep all if none remain."""
        preferred = [c for c in candidates if not c.blacklisted]
        return preferred if preferred else list(candidates)


class AffinityStage:
    """Honour the task's soft node-affinity hint when it is a candidate.

    Affinity is soft: a hinted node that is dead (not a candidate) or
    filtered by an earlier stage falls through to the next stage -- this
    is what lets shuffles survive node failures without library-level
    handling.
    """

    name = "affinity"

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> "NodeCandidate | Sequence[NodeCandidate]":
        """Decide the hinted node if present among candidates."""
        if request.affinity is not None:
            for candidate in candidates:
                if candidate.node_id == request.affinity:
                    return candidate
        return candidates


class LocalityStage:
    """Place where the most argument bytes already live, if anywhere.

    Ties break by load then node id for determinism.  When no candidate
    holds any argument bytes the stage passes through.
    """

    name = "locality"

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> "NodeCandidate | Sequence[NodeCandidate]":
        """Decide the byte-richest candidate, or pass when none hold data."""
        local = [c for c in candidates if c.arg_bytes > 0]
        if not local:
            return candidates
        return min(local, key=lambda c: (-c.arg_bytes, c.load, c.node_id))


class LeastLoadedStage:
    """Terminal stage: spread by queued-tasks-per-core, ties by node id."""

    name = "least-loaded"

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> NodeCandidate:
        """Decide the least-loaded candidate."""
        return min(candidates, key=lambda c: (c.load, c.node_id))


class RandomStage:
    """Terminal stage: a seeded uniform pick (deterministic per task)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def apply(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> NodeCandidate:
        """Decide a uniformly random candidate, keyed on (seed, task)."""
        ordered = sorted(candidates, key=lambda c: c.node_id)
        rng = seeded_rng(self.seed, "placement", request.task_id.index)
        return ordered[int(rng.integers(0, len(ordered)))]


class StagedPlacementPolicy:
    """A placement policy as a pipeline of composable stages.

    Each stage either decides (returns one candidate) or narrows the
    pool for the next stage; a stage that would empty the pool is
    ignored.  If no stage decides, the smallest node id wins.
    """

    def __init__(self, name: str, stages: Sequence[object]) -> None:
        self.name = name
        self.stages = list(stages)

    def place(
        self, request: PlacementRequest, candidates: Sequence[NodeCandidate]
    ) -> PlacementDecision:
        """Run the stages over ``candidates`` and return the decision."""
        pool: List[NodeCandidate] = list(candidates)
        for stage in self.stages:
            result = stage.apply(request, pool)
            if isinstance(result, NodeCandidate):
                return PlacementDecision(
                    node_id=result.node_id,
                    stage=stage.name,
                    policy=self.name,
                    candidates=len(candidates),
                )
            if result:
                pool = list(result)
        chosen = min(pool, key=lambda c: c.node_id)
        return PlacementDecision(
            node_id=chosen.node_id,
            stage="fallback",
            policy=self.name,
            candidates=len(candidates),
        )


# -- spilling ----------------------------------------------------------------
class FusedSpillPolicy:
    """The seed spill behaviour (§4.2.2): oldest-first victim selection
    protecting soon-needed blocks, sized to cover the backlog but at
    least ``fuse_min_bytes``, written as one fused file (or one
    seek-paying file per object when fusing is off)."""

    def __init__(
        self,
        fuse_min_bytes: int,
        fused: bool = True,
        name: str = "default",
    ) -> None:
        if fuse_min_bytes < 1:
            raise ValueError("fuse_min_bytes must be positive")
        self.fuse_min_bytes = fuse_min_bytes
        self.fused = fused
        self.name = name

    def target_bytes(self, backlog_bytes: int) -> int:
        """Cover the backlog, but never write files under the fuse
        minimum (tiny files pay the seek the fusing exists to avoid)."""
        return max(backlog_bytes, self.fuse_min_bytes)

    def select_victims(
        self,
        candidates: Sequence[SpillCandidate],
        target: int,
        last_resort: bool,
    ) -> List[SpillCandidate]:
        """Accumulate oldest-first until ``target`` bytes are covered.

        ``needed_soon`` candidates are skipped (without counting toward
        the target) unless ``last_resort``.  Already-``spilled``
        candidates count toward the target -- dropping their memory copy
        relieves the same pressure -- but are not written again.
        """
        chosen: List[SpillCandidate] = []
        total = 0
        for candidate in candidates:
            if total >= target:
                break
            if not last_resort and candidate.needed_soon:
                continue
            total += candidate.size
            if not candidate.spilled:
                chosen.append(candidate)
        return chosen

    def make_batches(
        self, victims: Sequence[SpillCandidate]
    ) -> List[List[SpillCandidate]]:
        """One fused batch, or one single-object batch per victim."""
        victims = list(victims)
        if not victims:
            return []
        if self.fused:
            return [victims]
        return [[victim] for victim in victims]


# -- autoscaling ---------------------------------------------------------------
class NoAutoscalePolicy:
    """The seed behaviour: the cluster shape is fixed for the run."""

    name = "none"

    def decide(self, view: AutoscaleView) -> AutoscaleDecision:
        """Always hold."""
        return AutoscaleDecision(action="hold", reason="autoscaling disabled")


class ThresholdAutoscalePolicy:
    """Grow under queue pressure, shrink when idle, between bounds.

    Pressure is queued work (dependency-ready tasks plus backlogged
    store allocations) per available task slot.  Above
    ``grow_pressure`` the policy adds one node per decision point; at
    or below ``shrink_pressure`` (0 means fully idle) it drains one.
    One node per decision keeps the loop stable: each change must take
    effect (and the debounce interval pass) before the next.
    """

    name = "threshold"

    def __init__(
        self, grow_pressure: float = 2.0, shrink_pressure: float = 0.0
    ) -> None:
        if grow_pressure <= shrink_pressure:
            raise ValueError("grow_pressure must exceed shrink_pressure")
        if shrink_pressure < 0:
            raise ValueError("shrink_pressure must be non-negative")
        self.grow_pressure = grow_pressure
        self.shrink_pressure = shrink_pressure

    def pressure(self, view: AutoscaleView) -> float:
        """Queued work per available task slot."""
        queued = view.pending_tasks + view.queued_allocations
        return queued / max(view.total_slots, 1)

    def decide(self, view: AutoscaleView) -> AutoscaleDecision:
        """Grow above the high-water mark, shrink when idle enough."""
        pressure = self.pressure(view)
        if (
            pressure > self.grow_pressure
            and view.max_nodes
            and view.active_nodes + view.draining_nodes < view.max_nodes
        ):
            return AutoscaleDecision(
                action="grow",
                count=1,
                reason=f"pressure {pressure:.2f} > {self.grow_pressure:.2f}",
            )
        if (
            pressure <= self.shrink_pressure
            and view.draining_nodes == 0
            and view.active_nodes > view.min_nodes
        ):
            return AutoscaleDecision(
                action="shrink",
                count=1,
                reason=f"pressure {pressure:.2f} <= {self.shrink_pressure:.2f}",
            )
        return AutoscaleDecision(
            action="hold", reason=f"pressure {pressure:.2f} within band"
        )


# -- dispatch ----------------------------------------------------------------
class FifoDispatchPolicy:
    """The seed behaviour: every dependency-ready task launches
    immediately, in arrival order.  Knows nothing about jobs."""

    name = "fifo"
    supports_jobs = False

    def submit(
        self,
        record: TaskRecord,
        job_id: Optional[str],
        ctx: DispatchContext,
    ) -> DispatchOutcome:
        """Launch immediately."""
        return DispatchOutcome(launch=[record])

    def task_done(
        self, record: TaskRecord, ctx: DispatchContext
    ) -> DispatchOutcome:
        """No dispatch state to update."""
        return DispatchOutcome()

    def register_job(
        self,
        job_id: str,
        *,
        weight: float = 1.0,
        tenant: Optional[str] = None,
        tenant_task_slots: Optional[int] = None,
    ) -> None:
        """FIFO manages no job queues; registering is an error."""
        raise ValueError(
            "the 'fifo' dispatch policy does not manage jobs; run them "
            "through repro.jobs.JobManager, which installs 'fair-share'"
        )

    def unregister_job(
        self, job_id: str, ctx: DispatchContext
    ) -> DispatchOutcome:
        """Nothing registered, nothing to do."""
        return DispatchOutcome()

    def queued_tasks(self, job_id: str) -> int:
        """FIFO never parks tasks."""
        return 0

    def inflight_tasks(self, job_id: str) -> int:
        """FIFO tracks no per-job slots."""
        return 0


class FairShareDispatchPolicy:
    """Weighted virtual-time fair queueing across concurrent jobs.

    Tasks from *registered* jobs park in per-job FIFO queues; the
    context's slot budget is shared among them by virtual-time weighted
    fair queueing: each launch advances the job's virtual time by
    ``1 / weight``, and the job with the smallest virtual time launches
    next.  A briefly idle job rejoins at the current virtual clock
    rather than catching up on "missed" service.  Tenancy composes on
    top via shared concurrent-slot caps.  Unregistered work (plain
    single-driver runs, retried in-flight tasks) bypasses fairness and
    launches immediately.

    Backlogged jobs wait in a heap ordered by ``(vtime, job_id)``, so each
    launch costs O(log n) in the number of jobs.
    """

    name = "fair-share"
    supports_jobs = True

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[TaskRecord]] = {}
        self._weights: Dict[str, float] = {}
        self._tenant_of: Dict[str, Optional[str]] = {}
        self._tenant_caps: Dict[str, int] = {}
        self._vtime: Dict[str, float] = {}
        self._vclock = 0.0
        self._inflight: Dict[TaskRecord, str] = {}
        self._inflight_by_job: Dict[str, int] = defaultdict(int)
        self._inflight_by_tenant: Dict[str, int] = defaultdict(int)
        #: Lazy heap of ``(vtime, job_id)``: one live entry per job with a
        #: non-empty queue.  An entry whose job is gone or whose key no
        #: longer matches the job's virtual time is stale; pops skip it.
        self._ready: List[Tuple[float, str]] = []

    # -- job registry -------------------------------------------------------
    def register_job(
        self,
        job_id: str,
        *,
        weight: float = 1.0,
        tenant: Optional[str] = None,
        tenant_task_slots: Optional[int] = None,
    ) -> None:
        """Enrol a job in fair sharing; its tasks queue until launched.

        ``weight`` scales the job's share of task slots.  ``tenant``
        groups jobs under a shared concurrent-slot cap
        (``tenant_task_slots``; unlimited when ``None``).
        """
        if weight <= 0:
            raise ValueError(f"job weight must be positive, got {weight}")
        if job_id in self._queues:
            raise ValueError(f"job {job_id!r} already registered")
        self._queues[job_id] = deque()
        self._weights[job_id] = weight
        self._tenant_of[job_id] = tenant
        if tenant is not None and tenant_task_slots is not None:
            self._tenant_caps[tenant] = tenant_task_slots
        # Join at the current virtual clock: no retroactive catch-up.
        self._vtime[job_id] = self._vclock

    def unregister_job(
        self, job_id: str, ctx: DispatchContext
    ) -> DispatchOutcome:
        """Remove a finished job; stragglers launch immediately."""
        queue = self._queues.pop(job_id, None)
        if queue is None:
            return DispatchOutcome()
        self._weights.pop(job_id, None)
        self._tenant_of.pop(job_id, None)
        self._vtime.pop(job_id, None)
        if not self._inflight_by_job.get(job_id):
            self._inflight_by_job.pop(job_id, None)
        stragglers = [
            record
            for record in queue
            if record.phase not in (TaskPhase.FINISHED, TaskPhase.FAILED)
        ]
        pumped = self._pump(ctx)
        return DispatchOutcome(
            launch=stragglers + pumped.launch, picks=pumped.picks
        )

    def queued_tasks(self, job_id: str) -> int:
        """How many of a job's tasks are parked awaiting a slot."""
        queue = self._queues.get(job_id)
        return len(queue) if queue is not None else 0

    def inflight_tasks(self, job_id: str) -> int:
        """How many of a job's tasks currently occupy slots."""
        return self._inflight_by_job.get(job_id, 0)

    # -- dispatch -----------------------------------------------------------
    def submit(
        self,
        record: TaskRecord,
        job_id: Optional[str],
        ctx: DispatchContext,
    ) -> DispatchOutcome:
        """Park a registered job's task for fair release; everything
        else (unregistered jobs, retries of slot-holding tasks) launches
        immediately."""
        if job_id is None or job_id not in self._queues:
            return DispatchOutcome(launch=[record])
        if record in self._inflight:
            # A retry of a task that still holds its slot (executor or
            # node failure): re-launch without re-charging.
            return DispatchOutcome(launch=[record])
        queue = self._queues[job_id]
        queue.append(record)
        if len(queue) == 1:
            heapq.heappush(self._ready, (self._vtime[job_id], job_id))
        note = ParkNote(job_id=job_id, queued=len(queue))
        outcome = self._pump(ctx)
        outcome.parked = note
        return outcome

    def task_done(
        self, record: TaskRecord, ctx: DispatchContext
    ) -> DispatchOutcome:
        """Free the task's slot (terminal phase) and release more work."""
        job_id = self._inflight.pop(record, None)
        if job_id is None:
            return DispatchOutcome()
        count = self._inflight_by_job[job_id] - 1
        if count or job_id in self._queues:
            self._inflight_by_job[job_id] = count
        else:
            del self._inflight_by_job[job_id]  # the job is gone
        tenant = self._tenant_of.get(job_id)
        if tenant is not None and self._inflight_by_tenant.get(tenant, 0) > 0:
            self._inflight_by_tenant[tenant] -= 1
        return self._pump(ctx)

    def _pump(self, ctx: DispatchContext) -> DispatchOutcome:
        """Release queued tasks while slots remain, smallest virtual
        time first (ties broken by job id for determinism)."""
        launch: List[TaskRecord] = []
        picks: List[str] = []
        ready = self._ready
        capped: List[Tuple[float, str]] = []
        while ready and len(self._inflight) < ctx.total_slots:
            entry = heapq.heappop(ready)
            vtime, job = entry
            queue = self._queues.get(job)
            if not queue or self._vtime[job] != vtime:
                continue  # stale
            tenant = self._tenant_of[job]
            if tenant is not None:
                cap = self._tenant_caps.get(tenant)
                if cap is not None and self._inflight_by_tenant.get(tenant, 0) >= cap:
                    # In-flight counts only grow during a pump, so the job
                    # stays capped until it ends.
                    capped.append(entry)
                    continue
            record = queue.popleft()
            if record.phase in (TaskPhase.FINISHED, TaskPhase.FAILED):
                # Failed while parked (e.g. a lost dependency); drop it.
                if queue:
                    heapq.heappush(ready, entry)
                continue
            self._vclock = vtime
            vtime += 1.0 / self._weights[job]
            self._vtime[job] = vtime
            if queue:
                heapq.heappush(ready, (vtime, job))
            self._inflight[record] = job
            self._inflight_by_job[job] += 1
            if tenant is not None:
                self._inflight_by_tenant[tenant] += 1
            launch.append(record)
            picks.append(job)
        for entry in capped:
            heapq.heappush(ready, entry)
        return DispatchOutcome(launch=launch, picks=tuple(picks))
