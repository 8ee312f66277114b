"""The expression-level shuffle planning layer.

``repro.plan`` is the single surface every ``variant="auto"`` decision
flows through: :class:`JobSpec <repro.jobs.JobSpec>` resolution, the
dataframe's repartition/join/sort shuffles, the aggregation app, and
streaming jobs.  Applications build an abstract :class:`ShuffleExpr`,
optionally :meth:`~PlanNode.simplify` it, and lower it against a
:class:`ClusterProfile` to a concrete :class:`ShufflePlan`.  Lowering
runs one rule, the paper's empirical two-way crossover
(:func:`empirical_variant`): simple when the data fits in memory and
partitions are few, push otherwise.  ``benchmarks/bench_lowering_regret.py``
scores that rule against the simulator.  Callers that want a bare
decision call :func:`empirical_variant` directly -- there is no other
planning surface.

The :class:`AdaptivePlanner` closes the loop: subscribed to the event
bus, it can re-lower the remaining plan at stage/round boundaries
against a fresh sample of the alive cluster's store capacity, and
shrink a streaming job's in-flight bound under memory pressure --
emitting a causal ``plan.replan`` chain.  See ``docs/planner.md``.

Layering: this package consumes profiles and obs *events* only -- it
never imports the futures runtime, and the shuffle variants never
import it (``tools/check_layering.py check_plan_isolation``).
"""

from repro.plan.adaptive import AdaptivePlanner, PlanSignals, planner_for_runtime
from repro.plan.ir import PlanNode, ShuffleExpr, ShufflePlan
from repro.plan.profile import (
    MEMORY_HEADROOM,
    PARTITION_CROSSOVER,
    PLAN_VARIANTS,
    ClusterProfile,
    JobShape,
    empirical_variant,
    fits_in_memory,
)

__all__ = [
    "AdaptivePlanner",
    "ClusterProfile",
    "JobShape",
    "MEMORY_HEADROOM",
    "PARTITION_CROSSOVER",
    "PLAN_VARIANTS",
    "PlanNode",
    "PlanSignals",
    "ShuffleExpr",
    "ShufflePlan",
    "empirical_variant",
    "fits_in_memory",
    "planner_for_runtime",
]
