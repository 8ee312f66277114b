"""The expression-level shuffle planning layer.

``repro.plan`` is the single surface every ``variant="auto"`` decision
flows through: :class:`JobSpec <repro.jobs.JobSpec>` resolution, the
dataframe's repartition/join/sort shuffles, the aggregation app, and
streaming jobs.  Applications build an abstract :class:`ShuffleExpr`,
optionally :meth:`~PlanNode.simplify` it, and lower it against a
:class:`ClusterProfile` to a concrete :class:`ShufflePlan`.  The paper's
empirical two-way rule (:func:`empirical_variant`) and the six-variant
cost model (:func:`rank_variants` / :func:`cheapest_feasible`) are this
layer's two *lowering rules*; callers that want a bare decision call
those functions directly -- there is no other planning surface.

The :class:`AdaptivePlanner` closes the loop: subscribed to the event
bus, it can re-lower the remaining plan at stage/round boundaries when
observed spill throughput, memory pressure, or membership changes say
the original estimates were wrong -- emitting a causal ``plan.replan``
chain.  See ``docs/planner.md``.

Layering: this package consumes profiles and obs *events* only -- it
never imports the futures runtime, and the shuffle variants never
import it (``tools/check_layering.py check_plan_isolation``).
"""

from repro.plan.adaptive import AdaptivePlanner, PlanSignals, planner_for_runtime
from repro.plan.cost import (
    DEFAULT_MERGE_FACTOR,
    PLAN_VARIANTS,
    PlanEstimate,
    cheapest_feasible,
    empirical_variant,
    estimate_variant,
    rank_variants,
)
from repro.plan.ir import LOWERING_RULES, PlanNode, ShuffleExpr, ShufflePlan
from repro.plan.profile import (
    MEMORY_HEADROOM,
    PARTITION_CROSSOVER,
    ClusterProfile,
    JobShape,
    fits_in_memory,
)

__all__ = [
    "AdaptivePlanner",
    "ClusterProfile",
    "DEFAULT_MERGE_FACTOR",
    "JobShape",
    "LOWERING_RULES",
    "MEMORY_HEADROOM",
    "PARTITION_CROSSOVER",
    "PLAN_VARIANTS",
    "PlanEstimate",
    "PlanNode",
    "PlanSignals",
    "ShuffleExpr",
    "ShufflePlan",
    "cheapest_feasible",
    "empirical_variant",
    "estimate_variant",
    "fits_in_memory",
    "planner_for_runtime",
    "rank_variants",
]
