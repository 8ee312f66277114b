"""The expression IR: abstract shuffles, rewrites, and lowering.

A tiny dask-expr-style layer (SNIPPETS.md Snippet 1): applications build
an *abstract* :class:`ShuffleExpr` -- "shuffle this shape, backend
unspecified" -- call :meth:`~PlanNode.simplify` to apply cheap algebraic
rewrites (e.g. a repartition feeding another shuffle is dead layout
work), and :meth:`ShuffleExpr.lower` against a
:class:`~repro.plan.profile.ClusterProfile` to obtain a concrete
:class:`ShufflePlan` naming one executable variant plus the ranked
estimates that justified it.

Lowering is where the two planning rules live side by side:
``rule="cost"`` runs the six-variant cost model
(:func:`~repro.plan.cost.rank_variants`), ``rule="empirical"`` runs
the paper's two-way crossover
(:func:`~repro.plan.cost.empirical_variant`).  A non-``"auto"``
``backend`` pins the variant explicitly and skips both.

The IR is deliberately pure: nodes are frozen dataclasses, lowering is
a function of (expression, profile), and nothing here touches the
runtime -- which is what lets the :class:`~repro.plan.adaptive.
AdaptivePlanner` re-lower the *remaining* work mid-job against an
updated profile without re-entering the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.plan.cost import (
    DEFAULT_MERGE_FACTOR,
    PLAN_VARIANTS,
    PlanEstimate,
    cheapest_feasible,
    empirical_variant,
    estimate_variant,
    rank_variants,
)
from repro.plan.profile import ClusterProfile, JobShape

#: The lowering rules an expression can be lowered with.
LOWERING_RULES = ("cost", "empirical")


@dataclass(frozen=True)
class PlanNode:
    """Base class of every IR node: immutable, rewritable, lowerable."""

    def children(self) -> Tuple["PlanNode", ...]:
        """This node's input expressions (leaves return none)."""
        return ()

    def _rewrite(self) -> "PlanNode":
        """One local rewrite step; return ``self`` when at fixpoint."""
        return self

    def simplify(self) -> "PlanNode":
        """Apply rewrites bottom-up until the expression stops changing."""
        node = self._simplify_children()
        while True:
            rewritten = node._rewrite()
            if rewritten is node:
                return node
            node = rewritten._simplify_children()

    def _simplify_children(self) -> "PlanNode":
        """Return a copy with simplified children (leaves: ``self``)."""
        return self


@dataclass(frozen=True)
class ShuffleExpr(PlanNode):
    """An abstract all-to-all exchange awaiting a concrete variant.

    ``backend`` is ``"auto"`` (let lowering decide) or an explicit
    :data:`~repro.plan.cost.PLAN_VARIANTS` name.  ``variants`` restricts
    the candidate set to what the call site can actually execute (the
    dataframe only wires simple and push operators).  ``input`` is an
    optional upstream expression, giving rewrites like repartition
    collapse something to act on; ``label`` names the operation for
    rewrites and reports (``"repartition"`` marks pure layout changes).
    """

    shape: JobShape
    backend: str = "auto"
    variants: Optional[Tuple[str, ...]] = None
    merge_factor: int = DEFAULT_MERGE_FACTOR
    label: str = "shuffle"
    input: Optional[PlanNode] = None

    def __post_init__(self) -> None:
        if self.backend != "auto" and self.backend not in PLAN_VARIANTS:
            raise ValueError(
                f"unknown shuffle backend {self.backend!r}; expected 'auto' "
                f"or one of {PLAN_VARIANTS}"
            )
        if self.variants is not None:
            unknown = [v for v in self.variants if v not in PLAN_VARIANTS]
            if unknown or not self.variants:
                raise ValueError(
                    f"unsupported variant restriction {self.variants!r}"
                )

    def children(self) -> Tuple[PlanNode, ...]:
        """The upstream expression, when one was attached."""
        return () if self.input is None else (self.input,)

    def _simplify_children(self) -> "ShuffleExpr":
        if self.input is None:
            return self
        simplified = self.input.simplify()
        return self if simplified is self.input else replace(self, input=simplified)

    def _rewrite(self) -> PlanNode:
        inner = self.input
        # Repartition collapse: a pure layout change feeding another
        # shuffle is dead work -- the outer exchange destroys the inner
        # one's partitioning anyway, so read the original input directly.
        if isinstance(inner, ShuffleExpr) and inner.label == "repartition":
            merged = JobShape(
                total_bytes=inner.shape.total_bytes,
                num_maps=inner.shape.num_maps,
                num_reduces=self.shape.num_reduces,
                streaming=self.shape.streaming,
            )
            return replace(self, shape=merged, input=inner.input)
        return self

    def lower(
        self, profile: ClusterProfile, rule: str = "cost"
    ) -> "ShufflePlan":
        """Choose a concrete variant for this profile.

        ``rule`` picks the lowering rule for ``backend="auto"``
        expressions; an explicit backend wins outright.  The chosen
        variant's estimate is computed under the cost model either way,
        so every plan can explain itself.
        """
        if rule not in LOWERING_RULES:
            raise ValueError(
                f"unknown lowering rule {rule!r}; expected one of "
                f"{LOWERING_RULES}"
            )
        expr = self.simplify()
        assert isinstance(expr, ShuffleExpr)
        shape = expr.shape
        ranking: Tuple[PlanEstimate, ...] = ()
        if expr.backend != "auto":
            variant = expr.backend
            decided_by = "explicit"
        elif rule == "empirical":
            variant = empirical_variant(
                profile.store_bytes,
                shape.total_bytes,
                max(shape.num_maps, shape.num_reduces),
            )
            decided_by = "empirical"
        else:
            ranked = rank_variants(
                profile, shape, expr.merge_factor, expr.variants
            )
            variant = cheapest_feasible(ranked).variant
            decided_by = "cost"
            ranking = tuple(ranked)
        if expr.variants is not None and variant not in expr.variants:
            raise ValueError(
                f"lowering chose {variant!r} but this expression only "
                f"supports {expr.variants}"
            )
        return ShufflePlan(
            variant=variant,
            shape=shape,
            profile=profile,
            estimate=estimate_variant(
                profile, shape, variant, expr.merge_factor
            ),
            ranking=ranking,
            decided_by=decided_by,
            rule=rule,
            variants=expr.variants,
            merge_factor=expr.merge_factor,
            label=expr.label,
        )


@dataclass(frozen=True)
class ShufflePlan(PlanNode):
    """A lowered, executable plan: one variant plus its justification."""

    variant: str
    shape: JobShape
    profile: ClusterProfile
    #: The chosen variant's cost-model estimate (always computed, even
    #: for empirical/explicit decisions, so plans can explain themselves).
    estimate: PlanEstimate
    #: The full ranking that drove a ``decided_by="cost"`` decision
    #: (empty for empirical/explicit plans).
    ranking: Tuple[PlanEstimate, ...] = ()
    #: How the variant was chosen: ``"cost"``, ``"empirical"``, or
    #: ``"explicit"``.
    decided_by: str = "cost"
    #: The lowering rule the plan was produced under (what a re-lowering
    #: of the remaining work should use).
    rule: str = "cost"
    variants: Optional[Tuple[str, ...]] = None
    merge_factor: int = DEFAULT_MERGE_FACTOR
    label: str = "shuffle"

    def explain(self) -> Dict[str, Dict[str, float]]:
        """Per-variant cost breakdowns keyed by variant name (the
        chosen variant alone when no ranking was computed)."""
        ranked = self.ranking or (self.estimate,)
        return {
            est.variant: dict(est.breakdown, total=est.est_seconds)
            for est in ranked
        }

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe summary (event attrs, reports, explorer data)."""
        return {
            "variant": self.variant,
            "decided_by": self.decided_by,
            "rule": self.rule,
            "label": self.label,
            "est_seconds": self.estimate.est_seconds,
            "shape": {
                "total_bytes": self.shape.total_bytes,
                "num_maps": self.shape.num_maps,
                "num_reduces": self.shape.num_reduces,
                "streaming": self.shape.streaming,
            },
            "ranking": [
                {
                    "variant": est.variant,
                    "est_seconds": est.est_seconds,
                    "feasible": est.feasible,
                }
                for est in self.ranking
            ],
        }

    def __repr__(self) -> str:
        return (
            f"<ShufflePlan {self.variant} ({self.decided_by}) "
            f"~{self.estimate.est_seconds:.3f}s {self.label}>"
        )
