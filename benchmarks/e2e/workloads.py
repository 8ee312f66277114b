"""The five end-to-end workloads, built only from public ``repro`` names.

Each workload is the paper's own experimental axes at a scale where one
run takes one to two seconds of wall time: shuffle variant x partition count x
data:memory ratio (Fig 4c/4d), real payloads, an open-loop streaming
fleet, and failure recovery (§5.1.5).  A builder ``fn(seed, smoke)``
makes the inputs (the cluster, the job specs, the Poisson timelines, the
failure victim) from the seed and returns the run; the program under
test only ever sees those inputs.  ``smoke`` shrinks every workload to
about a tenth of its engine events.

The benchmark checks each run's output itself: sorts through the sort
application's valsort-style validation of every output block (records,
key ranges, order, content checksum), the fleet against record counts
recomputed here from the same pre-drawn source timelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import default_node_spec
from repro.cluster import D3_2XLARGE, I3_2XLARGE, FailurePlan, NodeSpec
from repro.futures import Runtime
from repro.jobs import JobState
from repro.sort import SortJobConfig, run_sort
from repro.streaming import (
    make_sources,
    open_loop_workload,
    run_open_loop,
    streaming_node_spec,
)

#: The paper's instance types with object stores shrunk tenfold, so the
#: data:memory ratios below bite at laptop scale (as in the figure benches).
STORE_SCALE = 10


@dataclass
class Outcome:
    """What one run of a workload produced, and what is wrong with it."""

    runtime: Runtime
    #: Simulated job completion time (sort) or fleet makespan.
    sim_s: float
    #: Record latency (median, p999) in simulated seconds.  A batch sort
    #: makes every record visible when the job completes, so both equal
    #: ``sim_s`` there.
    latency: Tuple[float, float]
    records: int = 0
    backpressure_stalls: int = 0
    #: Empty when the output is correct.
    problems: List[str] = field(default_factory=list)


def _scaled(base: NodeSpec) -> NodeSpec:
    return base.with_object_store(base.object_store_bytes // STORE_SCALE)


def _sort(
    seed: int,
    node: NodeSpec,
    num_nodes: int,
    variant: str,
    partitions: int,
    data_bytes: int,
    *,
    virtual: bool = True,
    output_to_disk: bool,
    failure: Optional[Tuple[float, float]] = None,
) -> Callable[[], Outcome]:
    rt = Runtime.create(node, num_nodes)
    failures: Tuple[FailurePlan, ...] = ()
    if failure is not None:
        at_time, downtime = failure
        # Any worker but node 0, which hosts the driver.
        victim = random.Random(seed).randrange(1, num_nodes)
        failures = (FailurePlan(at_time=at_time, downtime=downtime, node_index=victim),)
    config = SortJobConfig(
        variant=variant,
        num_partitions=partitions,
        partition_bytes=data_bytes // partitions,
        virtual=virtual,
        output_to_disk=output_to_disk,
        failures=failures,
        seed=seed,
    )

    def run() -> Outcome:
        result = run_sort(rt, config)
        stats = rt.stats()
        problems = []
        if not result.validated:
            problems.append("sort output was not validated")
        if stats.get("tasks_finished", 0) < stats.get("tasks_submitted", 0):
            problems.append(
                f"{stats.get('tasks_submitted', 0) - stats.get('tasks_finished', 0):.0f}"
                " submitted tasks never finished"
            )
        latency = (result.sort_seconds, result.sort_seconds)
        return Outcome(rt, result.sort_seconds, latency, problems=problems)

    return run


def sort_inmem_fine(seed: int, smoke: bool) -> Callable[[], Outcome]:
    """A Fig 4c cell: ``simple``, fine partitions, data 0.3x the store.

    10k map-output blocks make the per-block control plane (engine,
    directory, fetch path, store allocate/free, bus) do the work; spill,
    lineage, driver and payload sit idle.
    """
    node = _scaled(I3_2XLARGE)
    return _sort(
        seed, node, 10, "simple", 32 if smoke else 100,
        int(0.3 * node.object_store_bytes * 10), output_to_disk=False,
    )


def sort_spill(seed: int, smoke: bool) -> Callable[[], Outcome]:
    """fig4d's ES arm in small: ``push*``, data 5.3x the store, to disk.

    The same object store used the other way: under pressure it evicts,
    spills and restores.  Few nodes with many partitions keep many
    cached entries per store, which is what the eviction scan pays for.
    """
    node = _scaled(D3_2XLARGE)
    num_nodes = 2 if smoke else 3
    return _sort(
        seed, node, num_nodes, "push*", 40 if smoke else 120,
        int(5.3 * node.object_store_bytes * num_nodes), output_to_disk=True,
    )


def sort_real(seed: int, smoke: bool) -> Callable[[], Outcome]:
    """Real numpy records, so the payload (argsort, searchsorted, merge)
    does the work and the engine does little: a control-plane change
    should not move it, an extra payload copy would."""
    return _sort(
        seed, default_node_spec(), 8, "push*", 16 if smoke else 128,
        50 * 10**6 if smoke else 500 * 10**6, virtual=False, output_to_disk=True,
    )


def sort_recover(seed: int, smoke: bool) -> Callable[[], Outcome]:
    """The fault-on twin of :func:`sort_inmem_fine`: one worker (chosen
    from the seed) dies 1 s into the sort for 5 s, so lineage
    reconstruction and retry dispatch do work.  ``simple``, because
    ``push``/``push*`` on the spill shape deadlock under a crash."""
    node = _scaled(I3_2XLARGE)
    return _sort(
        seed, node, 10, "simple", 30 if smoke else 80,
        int(0.3 * node.object_store_bytes * 10), output_to_disk=False,
        failure=(1.0, 5.0),
    )


def stream_fleet(seed: int, smoke: bool) -> Callable[[], Outcome]:
    """An open loop: one Poisson-fed streaming job per tenant (3 Hz each,
    jittered +-50%), each its own subdriver, so driver hand-off,
    admission, fair-share dispatch and streaming rounds do the work.
    Latency counts from the scheduled event time, so stalls show; 12.6k
    records leave 12 samples beyond the p999."""
    num_tenants, duration_s = (20, 20.0) if smoke else (100, 40.0)
    tenants, specs = open_loop_workload(
        seed, num_tenants, rate_hz=3.0, duration_s=duration_s, window_s=6.0
    )
    # Every record the pre-drawn timelines will emit, counted independently
    # of the streaming tier's own accounting.
    expected = sum(
        source.num_records
        for spec in specs
        for source in make_sources(
            seed=spec.seed,
            num_sources=spec.num_maps,
            rate_hz=spec.stream.rate_hz,
            duration_s=spec.stream.duration_s,
            keys=spec.stream.keys,
            bytes_per_record=spec.stream.bytes_per_record,
        )
    )
    rt = Runtime.create(streaming_node_spec(), 4)

    def run() -> Outcome:
        report = run_open_loop(specs, tenants, runtime=rt)
        problems = [
            f"job {job.job_id} ended {job.state.value}"
            for job in report.jobs
            if job.state is not JobState.DONE
        ]
        if report.records != expected:
            problems.append(f"{expected - report.records} of {expected} records lost")
        observed = int(report.latency.get("count", 0))
        if observed != expected:
            problems.append(f"latency recorded for {observed} of {expected} records")
        latency = (report.latency.get("p50", 0.0), report.latency.get("p999", 0.0))
        return Outcome(
            rt, report.duration, latency, report.records,
            report.backpressure_stalls, problems,
        )

    return run


#: Name -> builder, in the order the full benchmark runs them.
WORKLOADS: Dict[str, Callable[[int, bool], Callable[[], Outcome]]] = {
    "sort-inmem-fine": sort_inmem_fine,
    "sort-spill": sort_spill,
    "stream-fleet": stream_fleet,
    "sort-real": sort_real,
    "sort-recover": sort_recover,
}
