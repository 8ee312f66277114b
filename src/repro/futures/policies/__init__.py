"""Pluggable data-plane policies (the Exoshuffle thesis, applied inward).

Placement, spill batching, dispatch ordering and autoscaling are typed
:class:`~typing.Protocol` seams.  Placement, spill and autoscale are
registry kinds (:data:`POLICY_KINDS`), each selected by one
``RuntimeConfig.<kind>_policy`` name; only the dispatch policy is
handed to the scheduler at construction:

- :class:`PlacementPolicy` -- blacklist / affinity / locality / load as
  composable stages (:class:`StagedPlacementPolicy`);
- :class:`SpillPolicy` -- victim selection, target sizing, write fusing;
- :class:`AutoscalePolicy` -- when the cluster grows or shrinks between
  configured bounds (``"none"`` holds the seed fixed-shape behaviour);
- :class:`DispatchPolicy` -- FIFO, or weighted virtual-time fair sharing
  once :class:`repro.jobs.JobManager` installs it.

This package is pure by construction: it imports only task/ref/id value
types (enforced by ``tools/check_layering.py``), so policies can be
unit-tested without a runtime and cannot re-tangle with the mechanism
layers.  See ``docs/data_plane.md`` ("Policy plane") for the interface
table and how to add a policy.
"""

from repro.futures.policies.base import (
    AutoscaleDecision,
    AutoscalePolicy,
    AutoscaleView,
    DispatchContext,
    DispatchOutcome,
    DispatchPolicy,
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
    AffinityStage,
    BlacklistStage,
    FairShareDispatchPolicy,
    FifoDispatchPolicy,
    FusedSpillPolicy,
    LeastLoadedStage,
    LocalityStage,
    NoAutoscalePolicy,
    RandomStage,
    StagedPlacementPolicy,
    ThresholdAutoscalePolicy,
)
from repro.futures.policies.registry import (
    POLICY_KINDS,
    PolicyStack,
    available_policies,
    create_policy,
    register_policy,
    resolve_policies,
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
    "DispatchPolicy",
    "DispatchContext",
    "DispatchOutcome",
    "ParkNote",
    "AutoscalePolicy",
    "AutoscaleView",
    "AutoscaleDecision",
    # defaults
    "StagedPlacementPolicy",
    "BlacklistStage",
    "AffinityStage",
    "LocalityStage",
    "LeastLoadedStage",
    "RandomStage",
    "FusedSpillPolicy",
    "FifoDispatchPolicy",
    "FairShareDispatchPolicy",
    "NoAutoscalePolicy",
    "ThresholdAutoscalePolicy",
    # registry
    "POLICY_KINDS",
    "PolicyStack",
    "register_policy",
    "create_policy",
    "available_policies",
    "resolve_policies",
]
