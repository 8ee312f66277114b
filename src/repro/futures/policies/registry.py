"""The string-keyed policy registry and config-driven resolution.

Policies are registered under ``(kind, name)`` where ``kind`` is one of
:data:`POLICY_KINDS`, and ``RuntimeConfig.<kind>_policy`` names the one
a runtime uses -- the only place each of those decisions is selected.
A factory receives the runtime config (duck typed -- this package never
imports ``RuntimeConfig``) and returns a policy instance.

Usage::

    from repro.futures.policies import register_policy

    register_policy("placement", "my-policy", lambda config: MyPolicy())

    rt = Runtime.create(spec, n, config=RuntimeConfig(
        placement_policy="my-policy",
    ))

The ablation benchmarks select arms purely by these names -- no per-arm
branching reaches the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.futures.policies import defaults
from repro.futures.policies.base import (
    AutoscalePolicy,
    PlacementPolicy,
    SpillPolicy,
)

#: The config-selected decision points of the data plane, each named by
#: ``RuntimeConfig.<kind>_policy``.
POLICY_KINDS: Tuple[str, ...] = ("placement", "spill", "autoscale")

#: A policy factory: config in (duck typed), policy instance out.
PolicyFactory = Callable[[Any], Any]

_REGISTRY: Dict[Tuple[str, str], PolicyFactory] = {}


def register_policy(kind: str, name: str, factory: PolicyFactory) -> None:
    """Register (or replace) a named policy factory for ``kind``."""
    if kind not in POLICY_KINDS:
        raise ValueError(
            f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}"
        )
    if not name:
        raise ValueError("policy name must be non-empty")
    _REGISTRY[(kind, name)] = factory


def available_policies(kind: Optional[str] = None) -> Dict[str, List[str]]:
    """Registered policy names, keyed by kind (optionally one kind)."""
    kinds = (kind,) if kind is not None else POLICY_KINDS
    return {
        k: sorted(name for (rk, name) in _REGISTRY if rk == k) for k in kinds
    }


def create_policy(kind: str, name: str, config: Any) -> Any:
    """Instantiate the registered ``(kind, name)`` policy for ``config``."""
    factory = _REGISTRY.get((kind, name))
    if factory is None:
        known = ", ".join(available_policies(kind)[kind]) or "<none>"
        raise ValueError(
            f"unknown {kind} policy {name!r}; registered: {known}"
        )
    return factory(config)


@dataclass
class PolicyStack:
    """The resolved policy instances one runtime runs with."""

    placement: PlacementPolicy
    spill: SpillPolicy
    autoscale: AutoscalePolicy


def resolve_policies(config: Any) -> PolicyStack:
    """Build the runtime's policy stack from ``config.<kind>_policy``."""
    return PolicyStack(
        **{
            kind: create_policy(kind, getattr(config, f"{kind}_policy"), config)
            for kind in POLICY_KINDS
        }
    )


# -- built-in registrations ---------------------------------------------------
def _default_placement(config: Any) -> defaults.StagedPlacementPolicy:
    return defaults.StagedPlacementPolicy(
        "default",
        [
            defaults.BlacklistStage(),
            defaults.AffinityStage(),
            defaults.LocalityStage(),
            defaults.LeastLoadedStage(),
        ],
    )


def _load_only_placement(config: Any) -> defaults.StagedPlacementPolicy:
    return defaults.StagedPlacementPolicy(
        "load-only", [defaults.BlacklistStage(), defaults.LeastLoadedStage()]
    )


def _random_placement(config: Any) -> defaults.StagedPlacementPolicy:
    return defaults.StagedPlacementPolicy(
        "random",
        [defaults.BlacklistStage(), defaults.RandomStage(config.seed)],
    )


def _default_spill(config: Any) -> defaults.FusedSpillPolicy:
    return defaults.FusedSpillPolicy(config.fuse_min_bytes, name="default")


def _unfused_spill(config: Any) -> defaults.FusedSpillPolicy:
    return defaults.FusedSpillPolicy(
        config.fuse_min_bytes, fused=False, name="unfused"
    )


def _threshold_autoscale(config: Any) -> defaults.ThresholdAutoscalePolicy:
    return defaults.ThresholdAutoscalePolicy(
        grow_pressure=config.autoscale_grow_pressure,
        shrink_pressure=config.autoscale_shrink_pressure,
    )


register_policy("placement", "default", _default_placement)
register_policy("placement", "load-only", _load_only_placement)
register_policy("placement", "random", _random_placement)
register_policy("spill", "default", _default_spill)
register_policy("spill", "unfused", _unfused_spill)
register_policy(
    "autoscale", "none", lambda config: defaults.NoAutoscalePolicy()
)
register_policy("autoscale", "threshold", _threshold_autoscale)
