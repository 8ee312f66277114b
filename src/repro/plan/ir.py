"""The expression IR: abstract shuffles, rewrites, and lowering.

A tiny dask-expr-style layer (SNIPPETS.md Snippet 1): applications build
an *abstract* :class:`ShuffleExpr` -- "shuffle this shape, backend
unspecified" -- call :meth:`~PlanNode.simplify` to apply cheap algebraic
rewrites (e.g. a repartition feeding another shuffle is dead layout
work), and :meth:`ShuffleExpr.lower` against a
:class:`~repro.plan.profile.ClusterProfile` to obtain a concrete
:class:`ShufflePlan` naming one executable variant.

Lowering runs one rule: ``backend="auto"`` takes the paper's two-way
crossover (:func:`~repro.plan.profile.empirical_variant`), and any
other ``backend`` pins the variant explicitly.

The IR is deliberately pure: nodes are frozen dataclasses, lowering is
a function of (expression, profile), and nothing here touches the
runtime -- which is what lets the :class:`~repro.plan.adaptive.
AdaptivePlanner` re-lower the *remaining* work mid-job against an
updated profile without re-entering the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.plan.profile import (
    PLAN_VARIANTS,
    ClusterProfile,
    JobShape,
    empirical_variant,
)


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
    :data:`~repro.plan.profile.PLAN_VARIANTS` name.  ``input`` is an
    optional upstream expression, giving rewrites like repartition
    collapse something to act on; ``label`` names the operation for
    rewrites and reports (``"repartition"`` marks pure layout changes).
    """

    shape: JobShape
    backend: str = "auto"
    label: str = "shuffle"
    input: Optional[PlanNode] = None

    def __post_init__(self) -> None:
        if self.backend != "auto" and self.backend not in PLAN_VARIANTS:
            raise ValueError(
                f"unknown shuffle backend {self.backend!r}; expected 'auto' "
                f"or one of {PLAN_VARIANTS}"
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

    def lower(self, profile: ClusterProfile) -> "ShufflePlan":
        """Choose a concrete variant for this profile: an explicit
        backend wins outright, ``"auto"`` takes the empirical rule."""
        expr = self.simplify()
        assert isinstance(expr, ShuffleExpr)
        shape = expr.shape
        if expr.backend != "auto":
            variant = expr.backend
            decided_by = "explicit"
        else:
            variant = empirical_variant(
                profile.store_bytes,
                shape.total_bytes,
                max(shape.num_maps, shape.num_reduces),
            )
            decided_by = "empirical"
        return ShufflePlan(
            variant=variant,
            shape=shape,
            profile=profile,
            decided_by=decided_by,
            label=expr.label,
        )


@dataclass(frozen=True)
class ShufflePlan(PlanNode):
    """A lowered, executable plan: one variant and how it was chosen."""

    variant: str
    shape: JobShape
    profile: ClusterProfile
    #: How the variant was chosen: ``"empirical"`` or ``"explicit"``.
    decided_by: str = "empirical"
    label: str = "shuffle"

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe summary (event attrs, reports, explorer data)."""
        return {
            "variant": self.variant,
            "decided_by": self.decided_by,
            "label": self.label,
            "shape": {
                "total_bytes": self.shape.total_bytes,
                "num_maps": self.shape.num_maps,
                "num_reduces": self.shape.num_reduces,
                "streaming": self.shape.streaming,
            },
        }

    def __repr__(self) -> str:
        return f"<ShufflePlan {self.variant} ({self.decided_by}) {self.label}>"
