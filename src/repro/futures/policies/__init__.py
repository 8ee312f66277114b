"""Pluggable data-plane policies (the Exoshuffle thesis, applied inward).

Placement and spill batching are typed :class:`~typing.Protocol`
seams, each selected by one ``RuntimeConfig.<kind>_policy`` name from a
fixed table (:data:`PLACEMENT_POLICIES`, :data:`SPILL_POLICIES`).
Dispatch ordering has one implementation, which every scheduler builds:

- :class:`PlacementPolicy` -- blacklist / affinity / locality / load as
  composable stages (:class:`StagedPlacementPolicy`);
- :class:`SpillPolicy` -- victim selection, target sizing, write fusing;
- :class:`FairShareDispatchPolicy` -- weighted virtual-time fair sharing
  of task slots among jobs registered by :class:`repro.jobs.JobManager`;
  unregistered work launches at once.

This package is pure by construction: it imports only task/ref/id value
types (enforced by ``tools/check_layering.py``), so policies can be
unit-tested without a runtime and cannot re-tangle with the mechanism
layers.  See ``docs/data_plane.md`` ("Policy plane") for the interface
table and how to add a policy.
"""

from repro.futures.policies.base import (
    DispatchOutcome,
    NodeCandidate,
    ParkNote,
    PlacementDecision,
    PlacementPolicy,
    PlacementRequest,
    PlacementStage,
    SpillCandidate,
    SpillPolicy,
)
from repro.futures.policies.defaults import (
    PLACEMENT_POLICIES,
    SPILL_POLICIES,
    AffinityStage,
    BlacklistStage,
    FairShareDispatchPolicy,
    FusedSpillPolicy,
    LeastLoadedStage,
    LocalityStage,
    StagedPlacementPolicy,
)

__all__ = [
    # protocols & views
    "PlacementPolicy",
    "PlacementStage",
    "PlacementRequest",
    "PlacementDecision",
    "NodeCandidate",
    "SpillPolicy",
    "SpillCandidate",
    "DispatchOutcome",
    "ParkNote",
    # defaults
    "StagedPlacementPolicy",
    "BlacklistStage",
    "AffinityStage",
    "LocalityStage",
    "LeastLoadedStage",
    "FusedSpillPolicy",
    "FairShareDispatchPolicy",
    # names
    "PLACEMENT_POLICIES",
    "SPILL_POLICIES",
]
