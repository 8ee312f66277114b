"""Fair-share dispatch, the one data-plane rule kept apart from its
mechanism.

:class:`FairShareDispatchPolicy` orders the launches of tasks from jobs
registered by :class:`repro.jobs.JobManager` (weighted virtual-time fair
sharing of task slots); unregistered work launches at once.  Placement
and spill-victim selection are fixed rules that live with their
mechanisms (:func:`repro.futures.scheduler.choose_node` and
:meth:`repro.futures.spilling.SpillManager.kick`).

This package imports only task/id value types (enforced by
``tools/check_layering.py``), so the policy is unit-tested without a
runtime.  See ``docs/data_plane.md`` ("Placement and spill rules").
"""

from repro.futures.policies.defaults import (
    DispatchOutcome,
    FairShareDispatchPolicy,
    ParkNote,
)

__all__ = ["DispatchOutcome", "FairShareDispatchPolicy", "ParkNote"]
