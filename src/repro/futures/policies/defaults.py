"""Fair-share dispatch: when a dependency-ready task launches.

The scheduler asks :class:`FairShareDispatchPolicy` *when* each task
launches and enacts the :class:`DispatchOutcome` it returns.  The policy
is a pure rule over task records and job ids (no runtime state, no
event bus), so ``tests/test_policies.py`` checks it against a
brute-force reference without building a runtime.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.futures.task import TaskPhase, TaskRecord


@dataclass(frozen=True)
class ParkNote:
    """Record of a task parked behind its job's fair-share queue."""

    job_id: str
    #: Queue depth right after parking (what ``task.park`` reports).
    queued: int


@dataclass
class DispatchOutcome:
    """What a dispatch-policy call decided: launches and/or a park."""

    #: Records to launch now, in order.
    launch: List[TaskRecord] = field(default_factory=list)
    #: Set when the triggering record was parked instead of launched.
    parked: Optional[ParkNote] = None
    #: Job ids picked by fair queueing this round, in launch order
    #: (empty when nothing queued was released).
    picks: Tuple[str, ...] = ()


# -- dispatch ----------------------------------------------------------------
class FairShareDispatchPolicy:
    """Weighted virtual-time fair queueing across concurrent jobs: the
    runtime's only dispatch policy (every :class:`Scheduler` builds one).

    Tasks from *registered* jobs park in per-job FIFO queues; the
    caller's ``total_slots`` budget is shared among them by virtual-time
    weighted fair queueing: each launch advances the job's virtual time by
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

    def unregister_job(self, job_id: str, total_slots: int) -> DispatchOutcome:
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
        pumped = self._pump(total_slots)
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
        total_slots: int,
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
        outcome = self._pump(total_slots)
        outcome.parked = note
        return outcome

    def task_done(self, record: TaskRecord, total_slots: int) -> DispatchOutcome:
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
        return self._pump(total_slots)

    def _pump(self, total_slots: int) -> DispatchOutcome:
        """Release queued tasks while slots remain, smallest virtual
        time first (ties broken by job id for determinism)."""
        launch: List[TaskRecord] = []
        picks: List[str] = []
        ready = self._ready
        capped: List[Tuple[float, str]] = []
        while ready and len(self._inflight) < total_slots:
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
