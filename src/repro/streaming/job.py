"""Long-lived streaming jobs: windowed repartition + aggregation.

:func:`run_streaming_job` is the driver body of one streaming job.  It
walks the job's tumbling windows in event-time order; for each non-empty
window it sleeps until the watermark (the sources emit in order, so the
watermark passes a window's end exactly at the last pre-horizon arrival
or the window boundary), asks the :class:`BackpressureController` for
admission, submits the window's repartition round on the
:class:`RoundDriver`, and chains an asynchronous aggregate task over the
round's reducer states.  When the aggregate becomes *visible* the
window's records are queryable, and each record's end-to-end latency --
source event time to aggregate visibility -- lands in the runtime's
metric histograms (per job, per tenant, and global).

The body runs equally as a :class:`~repro.jobs.manager.JobManager`
subdriver (the registered ``"streaming"`` runner) or directly under
``rt.run`` for single-job experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.futures import ObjectRef, Runtime
from repro.jobs.spec import JobSpec
from repro.metrics.core import Histogram
from repro.shuffle import RoundDriver
from repro.streaming.backpressure import BackpressureController
from repro.streaming.records import RecordBatch
from repro.streaming.source import make_sources

if TYPE_CHECKING:
    import numpy as np

#: Metric holding every record's source->visible latency, dimensioned by
#: job id (plus the undimensioned global series).
RECORD_LATENCY_METRIC = "stream.record_latency_s"

#: The same samples dimensioned by *tenant* (the job axis carries the
#: tenant name), so per-tenant percentiles are exact, not merged
#: approximations.
TENANT_LATENCY_METRIC = "stream.tenant_latency_s"


class KeyCounts:
    """Per-reducer accumulated record counts by key, with declared size."""

    __slots__ = ("counts", "size_bytes")

    def __init__(self, counts: Dict[int, int]) -> None:
        self.counts = counts
        self.size_bytes = max(1, 24 * len(counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def make_partitioner(num_reduces: int):
    """The repartition map side: split a window batch by key."""

    def partition_window(batch: RecordBatch) -> List[RecordBatch]:
        return list(batch.partition(num_reduces))

    return partition_window


def fold_counts(state: Optional[KeyCounts], *batches: RecordBatch) -> KeyCounts:
    """The stateful reduce: fold one window's batches into the state."""
    import numpy as np

    counts: Dict[int, int] = dict(state.counts) if state is not None else {}
    for batch in batches:
        keys, tallies = np.unique(batch.keys, return_counts=True)
        for key, tally in zip(keys.tolist(), tallies.tolist()):
            counts[key] = counts.get(key, 0) + tally
    return KeyCounts(counts)


def aggregate_counts(*states: KeyCounts) -> Dict[str, int]:
    """The per-window aggregate: a small queryable summary."""
    total = sum(state.total for state in states)
    distinct = len({key for state in states for key in state.counts})
    return {"records": total, "distinct_keys": distinct}


@dataclass
class StreamingJobResult:
    """What one streaming job hands back as its output."""

    job_id: Optional[str]
    tenant: str
    records: int
    windows: int
    backpressure_stalls: int
    peak_inflight_windows: int
    watermark: float
    #: Per-job latency summary (count/mean/.../p999), empty if no records.
    latency: Dict[str, float] = field(default_factory=dict)


def run_streaming_job(
    rt: Runtime,
    spec: JobSpec,
    *,
    job_id: Optional[str] = None,
    map_options: Optional[Dict[str, Any]] = None,
    reduce_options: Optional[Dict[str, Any]] = None,
    aggregate_options: Optional[Dict[str, Any]] = None,
) -> StreamingJobResult:
    """Run one streaming job to source close + full drain (blocking).

    Must be called from driver context (``rt.run`` or a spawned
    subdriver).  The ``*_options`` dicts override task options (e.g.
    ``compute`` costs) for experiments that need slow reducers.
    """
    import numpy as np

    stream = spec.stream
    if stream is None:
        raise ValueError(f"job spec {spec.name!r} has no stream arm")
    bus = rt.bus
    sources = make_sources(
        seed=spec.seed,
        num_sources=spec.num_maps,
        rate_hz=stream.rate_hz,
        duration_s=stream.duration_s,
        keys=stream.keys,
        bytes_per_record=stream.bytes_per_record,
    )
    num_windows = sources[0].num_windows(stream.window_s)
    controller = BackpressureController(
        rt,
        max_inflight_windows=stream.max_inflight_windows,
        job_id=job_id,
        tenant=spec.tenant,
        enabled=stream.backpressure,
    )
    rounds = RoundDriver(
        rt,
        make_partitioner(spec.num_reduces),
        fold_counts,
        spec.num_reduces,
        map_options=map_options,
        reduce_options=reduce_options,
        # The controller (aggregate visibility) is the binding throttle
        # when backpressure is on; align the reduce-side bound with it.
        # Off means *no* bound anywhere -- the contrast arm.
        max_inflight_rounds=(
            stream.max_inflight_windows
            if stream.backpressure
            else num_windows + 1
        ),
    )
    aggregate_task = rt.remote(aggregate_counts, **(aggregate_options or {}))
    keepalive: List[ObjectRef] = []
    total_records = 0
    windows_run = 0

    for w in range(num_windows):
        window_end = (w + 1) * stream.window_s
        batches = [src.batch_for(w, stream.window_s) for src in sources]
        records = sum(len(batch) for batch in batches)
        if records == 0:
            # No source contributed: nothing opens, closes, or reduces.
            continue
        first_arrival = min(
            float(batch.event_times.min()) for batch in batches if len(batch)
        )
        if rt.now < first_arrival:
            rt.sleep(first_arrival - rt.now)
        open_seq = bus.emit(
            "stream.window.open",
            job=job_id,
            window=w,
            start=w * stream.window_s,
            end=window_end,
        )
        # The watermark (latest emitted event time) passes the window's
        # end once simulated time does: sources emit in event-time order.
        if rt.now < window_end:
            rt.sleep(window_end - rt.now)
        controller.admit()
        close_seq = bus.emit(
            "stream.window.close",
            job=job_id,
            cause=open_seq,
            window=w,
            records=records,
            bytes=sum(batch.size_bytes for batch in batches),
        )
        state_refs = rounds.submit_round(batches)
        agg_ref = aggregate_task.remote(*state_refs)
        keepalive.append(agg_ref)
        begin_seq = bus.emit(
            "stream.agg.begin",
            job=job_id,
            cause=close_seq,
            window=w,
        )
        event_times = np.concatenate([batch.event_times for batch in batches])
        _track_visibility(
            rt,
            controller,
            window_index=w,
            aggregate_ref=agg_ref,
            event_times=event_times,
            begin_seq=begin_seq,
            job_id=job_id,
            tenant=spec.tenant,
        )
        controller.track(w, agg_ref)
        total_records += records
        windows_run += 1
        if stream.backpressure:
            # Round-boundary re-planning hook: under memory pressure the
            # attached AdaptivePlanner (rt.config.replan="on") may shrink
            # the in-flight window bound; a no-op otherwise.
            shrunk = rt.stage_boundary(
                "round", inflight=rounds.max_inflight_rounds, job=job_id
            )
            if shrunk is not None:
                rounds.max_inflight_rounds = shrunk
                controller.max_inflight_windows = shrunk

    # Close the sources at the horizon, then drain in-flight windows.
    if rt.now < stream.duration_s:
        rt.sleep(stream.duration_s - rt.now)
    for source in sources:
        bus.emit(
            "stream.source.close",
            job=job_id,
            records=source.num_records,
            watermark=source.watermark(rt.now),
        )
    controller.drain()
    if windows_run:
        final_states = [ref for ref in rounds.finish() if ref is not None]
        rt.wait(final_states, num_returns=len(final_states))
    latency = rt.metrics.histogram(RECORD_LATENCY_METRIC, job=job_id)
    return StreamingJobResult(
        job_id=job_id,
        tenant=spec.tenant,
        records=total_records,
        windows=windows_run,
        backpressure_stalls=controller.stalls,
        peak_inflight_windows=controller.peak_inflight,
        watermark=max(source.watermark(rt.now) for source in sources),
        latency=latency.snapshot() if latency.count else {},
    )


def _track_visibility(
    rt: Runtime,
    controller: BackpressureController,
    *,
    window_index: int,
    aggregate_ref: ObjectRef,
    event_times: np.ndarray,
    begin_seq: Optional[int],
    job_id: Optional[str],
    tenant: str,
) -> None:
    """Arm the on-ready hook that stamps record latencies when the
    window's aggregate becomes visible."""

    def on_visible(_oid: Any, error: Optional[BaseException]) -> None:
        controller.mark_visible(window_index)
        if error is not None:
            return
        visible_at = rt.env.now
        latencies = [visible_at - event_time for event_time in event_times.tolist()]
        rt.metrics.observe_many(RECORD_LATENCY_METRIC, latencies, job=job_id)
        rt.metrics.observe_many(TENANT_LATENCY_METRIC, latencies, job=tenant)
        window_hist = Histogram("window_latency")
        window_hist.extend(latencies)
        rt.bus.emit(
            "stream.agg.end",
            job=job_id,
            cause=begin_seq,
            window=window_index,
            records=window_hist.count,
            latency_p50=window_hist.p50,
            latency_p99=window_hist.p99,
            latency_p999=window_hist.p999,
        )

    rt.on_ready(aggregate_ref, on_visible)


def streaming_job_runner(manager: Any, job: Any) -> StreamingJobResult:
    """The :func:`repro.jobs.register_job_runner` body for ``"streaming"``
    jobs: runs inside the job's labeled subdriver."""
    return run_streaming_job(manager.runtime, job.spec, job_id=job.job_id)
