"""Runtime configuration knobs.

Each field corresponds to a mechanism in §4 of the paper.  A data-plane
decision is selected in exactly one place: placement and spilling by
their ``<kind>_policy`` registry names, prefetching by
``enable_prefetching``.  Some mechanisms are fixed, not knobs: task
dispatch is a protocol the scheduler takes at construction; every store
evicts cached copies oldest first and admits its allocation queue
strictly FIFO; prefetch admission keeps pinned bytes under half the
store (``PREFETCH_CAPACITY_FRACTION`` in the node manager); a lost
object is always rebuilt from lineage; and each ``variant="auto"`` call
site names its own lowering rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import MB
from repro.futures.policies.registry import POLICY_KINDS
from repro.futures.retry import RetryPolicy


@dataclass
class RuntimeConfig:
    """Tunable behaviour of the distributed-futures data plane."""

    # -- compute cost model -------------------------------------------------
    #: Bytes of task input+output one core processes per second when a task
    #: declares no explicit compute cost.  Calibrated so that sort-style
    #: record processing is somewhat faster than a d3 node's disk, making
    #: disk the bottleneck as the paper observes (§5.1.1).
    cpu_throughput_bytes_per_sec: float = 500 * MB

    #: Fixed scheduling/launch overhead per task, seconds.  Models RPC and
    #: worker lease costs.
    task_overhead_s: float = 2e-3

    #: Metadata cost per task argument and per return object, seconds.  A
    #: distributed-futures system tracks every object individually, so a
    #: simple shuffle's M x R blocks cost O(M x R) metadata work -- the
    #: paper's main scalability limitation (§7) and a driver of ES-simple's
    #: degradation at high partition counts (§5.1.2).  Monolithic systems
    #: share per-stage metadata and do not pay this.
    per_object_overhead_s: float = 0.1e-3

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

    #: Backoff before retrying a fetch whose source died mid-transfer.
    fetch_retry_backoff_s: float = 1.0

    #: How task re-executions are paced and bounded.  The default policy
    #: is transparent (unlimited immediate retries, no deadline); chaos
    #: and production-style runs tighten it.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)

    #: Seconds for which the scheduler avoids placing new tasks on a node
    #: that just failed (even after it restarts), so a flapping node does
    #: not keep swallowing work.  0 disables blacklisting.
    blacklist_cooldown_s: float = 0.0

    # -- policy plane -------------------------------------------------------
    #: Registry name of the placement policy (``repro.futures.policies``).
    #: The built-in ``"default"`` stacks blacklist / soft node affinity
    #: (§4.3.2) / data locality / least-loaded stages; the ablation arm
    #: selects ``"load-only"`` here.
    placement_policy: str = "default"

    #: Registry name of the spill policy (victim selection, target
    #: sizing, write fusing).  ``"unfused"`` writes every spilled object
    #: as its own file, paying a seek each (the Fig 7 "fusing off"
    #: ablation).
    spill_policy: str = "default"

    # -- spill backend --------------------------------------------------------
    #: Where spilled objects live: ``"local"`` writes to the owning
    #: node's disk (lost with the node, as in the paper); ``"shared"``
    #: writes through a disaggregated store so spilled bytes survive
    #: node loss without lineage recompute.
    spill_backend: str = "local"

    #: Aggregate bandwidth of the shared spill store, bytes/second.
    shared_store_bandwidth_bytes_per_sec: float = 1000 * MB

    #: Per-operation latency of the shared spill store, seconds (models
    #: the request round-trip of a remote blob/object service).
    shared_store_latency_s: float = 10e-3

    # -- planning -------------------------------------------------------------
    #: Adaptive mid-job re-planning: ``"off"`` (plans are final; runs
    #: are bit-for-bit identical to builds without the plan layer) or
    #: ``"on"`` (the planner subscribes to the event bus, may re-lower
    #: the remaining plan at stage/round boundaries, and emits
    #: ``plan.lower`` / ``plan.replan`` events).
    replan: str = "off"

    def __post_init__(self) -> None:
        if self.cpu_throughput_bytes_per_sec <= 0:
            raise ValueError("cpu throughput must be positive")
        if self.task_overhead_s < 0 or self.per_object_overhead_s < 0:
            raise ValueError("task overheads must be non-negative")
        if self.fuse_min_bytes < 1:
            raise ValueError("fuse_min_bytes must be positive")
        if self.prefetch_concurrency < 1:
            raise ValueError("prefetch concurrency must be >= 1")
        if self.failure_detection_s < 0:
            raise ValueError("failure detection delay must be non-negative")
        if self.blacklist_cooldown_s < 0:
            raise ValueError("blacklist cooldown must be non-negative")
        for kind in POLICY_KINDS:
            if not getattr(self, f"{kind}_policy"):
                raise ValueError(f"{kind}_policy must be a non-empty name")
        if self.replan not in ("off", "on"):
            raise ValueError("replan must be 'off' or 'on'")
        if self.spill_backend not in ("local", "shared"):
            raise ValueError("spill_backend must be 'local' or 'shared'")
        if self.shared_store_bandwidth_bytes_per_sec <= 0:
            raise ValueError("shared store bandwidth must be positive")
        if self.shared_store_latency_s < 0:
            raise ValueError("shared store latency must be non-negative")
