"""Runtime configuration knobs.

Each field corresponds to a mechanism in §4 of the paper.  A data-plane
decision is selected in exactly one place: placement and spilling by
their ``<kind>_policy`` names (each the default rule or its ablation
arm, :data:`PLACEMENT_POLICIES` and :data:`SPILL_POLICIES`), prefetching
by ``enable_prefetching``.  Some mechanisms are fixed, not knobs: task
dispatch is fair sharing among registered jobs; every store
evicts cached copies oldest first and admits its allocation queue
strictly FIFO; prefetch admission keeps pinned bytes under half the
store (``PREFETCH_CAPACITY_FRACTION`` in the node manager); a lost
object is always rebuilt from lineage, re-executing its creator at once
after the failure-detection delay, and a task that runs
``MAX_TASK_ATTEMPTS`` times (in the lineage manager) fails; and every
``variant="auto"`` call site lowers with the plan layer's one rule.  The
cost model's constants live beside their readers: per-task and
per-object overheads, CPU throughput and the fetch retry backoff in the
node manager, the shared spill store's bandwidth and latency in the
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MB

#: ``RuntimeConfig.placement_policy`` names: the default rule, then the
#: scheduling ablation's arm (least loaded, no affinity or locality).
PLACEMENT_POLICIES = ("default", "load-only")

#: ``RuntimeConfig.spill_policy`` names: the default rule, then the
#: Fig 7 and memory ablations' arm (one file per spilled object).
SPILL_POLICIES = ("default", "unfused")


@dataclass
class RuntimeConfig:
    """Tunable behaviour of the distributed-futures data plane."""

    # -- object store ---------------------------------------------------------
    #: Coalesce spilled objects into files of at least this size (§4.2.2,
    #: "Ray fuses objects into at least 100 MB files").
    fuse_min_bytes: int = 100 * MB

    #: Fetch arguments of queued tasks ahead of execution using spare store
    #: memory (§4.2.2).  The Fig 7 "prefetch off" ablation disables this.
    enable_prefetching: bool = True

    #: Maximum number of in-flight argument prefetches per node.
    prefetch_concurrency: int = 8

    # -- fault tolerance ------------------------------------------------------
    #: Seconds between a node dying and the runtime noticing (heartbeat
    #: timeout).  Contributes to the 20-50 s recovery delta in §5.1.5.
    failure_detection_s: float = 10.0

    # -- placement and spilling ---------------------------------------------
    #: Placement rule (:data:`PLACEMENT_POLICIES`).  ``"default"`` avoids
    #: draining nodes, then honours soft node affinity (§4.3.2), then
    #: data locality, then least load; the ablation arm ``"load-only"``
    #: keeps only the first and last steps.
    placement_policy: str = "default"

    #: Spill rule (:data:`SPILL_POLICIES`).  ``"default"`` writes each
    #: round's victims as one fused file; ``"unfused"`` writes every
    #: spilled object as its own file, paying a seek each (the Fig 7
    #: "fusing off" ablation).
    spill_policy: str = "default"

    # -- spill backend --------------------------------------------------------
    #: Where spilled objects live: ``"local"`` writes to the owning
    #: node's disk (lost with the node, as in the paper); ``"shared"``
    #: writes through a disaggregated store so spilled bytes survive
    #: node loss without lineage recompute.
    spill_backend: str = "local"

    # -- planning -------------------------------------------------------------
    #: Adaptive mid-job re-planning: ``"off"`` (plans are final; runs
    #: are bit-for-bit identical to builds without the plan layer) or
    #: ``"on"`` (the planner subscribes to the event bus, may re-lower
    #: the remaining plan at stage/round boundaries, and emits
    #: ``plan.lower`` / ``plan.replan`` events).
    replan: str = "off"

    def __post_init__(self) -> None:
        if self.fuse_min_bytes < 1:
            raise ValueError("fuse_min_bytes must be positive")
        if self.prefetch_concurrency < 1:
            raise ValueError("prefetch concurrency must be >= 1")
        if self.failure_detection_s < 0:
            raise ValueError("failure detection delay must be non-negative")
        for kind, name, names in (
            ("placement", self.placement_policy, PLACEMENT_POLICIES),
            ("spill", self.spill_policy, SPILL_POLICIES),
        ):
            if name not in names:
                raise ValueError(
                    f"unknown {kind} policy {name!r}; known: "
                    f"{', '.join(names)}"
                )
        if self.replan not in ("off", "on"):
            raise ValueError("replan must be 'off' or 'on'")
        if self.spill_backend not in ("local", "shared"):
            raise ValueError("spill_backend must be 'local' or 'shared'")
