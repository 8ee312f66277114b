"""The open-loop multi-tenant load generator.

Builds fleets of streaming jobs -- one per tenant by default, each fed
by Poisson sources whose per-tenant rates are jittered deterministically
around a base rate -- and runs them through the existing
:class:`~repro.jobs.manager.JobManager`: every job passes admission
control, registers for weighted fair sharing, and runs as a labeled
subdriver.  Because each source's arrival timeline is pre-drawn from the
seed (open loop), the offered load is identical whatever the cluster
does with it; record latency is where congestion surfaces.

:func:`run_open_loop` returns an :class:`OpenLoopReport` with exact
global and per-tenant latency percentiles (p50/p99/p999) pulled from the
runtime's metric histograms -- the numbers the obs report's streaming
section and ``bench_streaming_shuffle`` print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import DiskSpec, NicSpec, NodeSpec
from repro.common.rng import named_rng, register_stream
from repro.common.units import GIB, MIB
from repro.futures import Runtime
from repro.jobs.manager import JobManager
from repro.jobs.spec import (
    Job,
    JobSpec,
    JobState,
    StreamSpec,
    TenantQuota,
    TenantSpec,
)
from repro.streaming.job import RECORD_LATENCY_METRIC, TENANT_LATENCY_METRIC

#: Per-tenant rate jitter draws (registered once; split per tenant index).
LOADGEN_STREAM = "streaming/loadgen"
register_stream(LOADGEN_STREAM, "streaming", "loadgen")


def streaming_node_spec() -> NodeSpec:
    """The homogeneous node shape streaming runs build clusters from
    (same scale as the chaos harness nodes: small store, modest I/O)."""
    return NodeSpec(
        name="stream-node",
        cores=4,
        memory_bytes=8 * GIB,
        object_store_bytes=256 * MIB,
        disk=DiskSpec(bandwidth_bytes_per_sec=200e6, seek_latency_s=5e-3),
        nic=NicSpec(bandwidth_bytes_per_sec=125e6),
    )


def streaming_tenants(
    count: int, *, max_concurrent_jobs: int = 2
) -> List[TenantSpec]:
    """Equal-weight tenants sized for one long-lived stream each."""
    quota = TenantQuota(max_concurrent_jobs=max_concurrent_jobs)
    return [
        TenantSpec(name=f"stream-tenant-{i:03d}", weight=1.0, quota=quota)
        for i in range(count)
    ]


def open_loop_workload(
    seed: int,
    num_tenants: int,
    *,
    rate_hz: float = 1.5,
    rate_jitter: float = 0.5,
    duration_s: float = 30.0,
    window_s: float = 6.0,
    keys: int = 16,
    bytes_per_record: int = 64,
    num_sources: int = 1,
    num_reduces: int = 2,
    max_inflight_windows: int = 2,
    backpressure: bool = True,
) -> Tuple[List[TenantSpec], List[JobSpec]]:
    """One streaming job per tenant, rates jittered deterministically.

    ``rate_jitter`` spreads tenant rates uniformly over
    ``rate_hz * [1 - jitter, 1 + jitter]`` so the fleet is heterogeneous
    but exactly reproducible from ``seed``.
    """
    if not 0 <= rate_jitter < 1:
        raise ValueError("rate_jitter must be in [0, 1)")
    tenants = streaming_tenants(num_tenants)
    rng = named_rng(seed, LOADGEN_STREAM)
    factors = 1.0 + rate_jitter * (2.0 * rng.random(num_tenants) - 1.0)
    specs = [
        JobSpec(
            name=f"stream-{i:03d}",
            tenant=tenants[i].name,
            num_maps=num_sources,
            num_reduces=num_reduces,
            seed=seed + i,
            stream=StreamSpec(
                rate_hz=rate_hz * float(factors[i]),
                duration_s=duration_s,
                window_s=window_s,
                keys=keys,
                bytes_per_record=bytes_per_record,
                max_inflight_windows=max_inflight_windows,
                backpressure=backpressure,
            ),
        )
        for i in range(num_tenants)
    ]
    return tenants, specs


@dataclass
class OpenLoopReport:
    """What one open-loop run produced."""

    jobs: List[Job]
    #: Simulated makespan (last job terminal).
    duration: float
    #: ``runtime.stats()`` snapshot (includes ``store_peak_bytes``).
    stats: Dict[str, Any]
    #: Global record-latency summary (count/mean/.../p999).
    latency: Dict[str, float]
    #: Exact per-tenant latency summaries, keyed by tenant name.
    tenant_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Total source->visible records across the fleet.
    records: int = 0
    #: Total backpressure stalls across the fleet.
    backpressure_stalls: int = 0
    #: Largest in-flight window count any job observed.
    peak_inflight_windows: int = 0

    @property
    def all_done(self) -> bool:
        """True when every streaming job finished successfully."""
        return all(job.state is JobState.DONE for job in self.jobs)


def summarize_latency(rt: Runtime) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """(global, per-tenant) record-latency summaries from the runtime's
    metric histograms (exact percentiles, not merged snapshots)."""
    global_hist = rt.metrics.histogram(RECORD_LATENCY_METRIC)
    per_tenant: Dict[str, Dict[str, float]] = {}
    snapshot = rt.metrics.snapshot()["histograms"]
    prefix = f"{TENANT_LATENCY_METRIC}[job="
    for key, summary in snapshot.items():
        if key.startswith(prefix):
            per_tenant[key[len(prefix):-1]] = summary
    return (
        global_hist.snapshot() if global_hist.count else {},
        per_tenant,
    )


def run_open_loop(
    specs: List[JobSpec],
    tenants: List[TenantSpec],
    *,
    num_nodes: int = 4,
    runtime: Optional[Runtime] = None,
) -> OpenLoopReport:
    """Run an open-loop fleet through a fresh cluster (blocking).

    Submits every spec through admission, drives the manager until all
    jobs are terminal, and summarises latency from the metric registry.
    Pass ``runtime`` to reuse an existing (un-run) cluster.
    """
    rt = runtime
    if rt is None:
        rt = Runtime.create(streaming_node_spec(), num_nodes)
    manager = JobManager(rt)
    for tenant in tenants:
        manager.add_tenant(tenant)
    for spec in specs:
        manager.submit(spec)
    jobs = manager.run()
    duration = rt.now
    rt.env.run()  # quiesce trailing visibility callbacks
    latency, tenant_latency = summarize_latency(rt)
    results = [job.output for job in jobs if job.output is not None]
    return OpenLoopReport(
        jobs=jobs,
        duration=duration,
        stats=rt.stats(),
        latency=latency,
        tenant_latency=tenant_latency,
        records=sum(r.records for r in results),
        backpressure_stalls=sum(r.backpressure_stalls for r in results),
        peak_inflight_windows=max(
            (r.peak_inflight_windows for r in results), default=0
        ),
    )
