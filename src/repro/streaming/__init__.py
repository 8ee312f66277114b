"""The streaming shuffle tier: continuous windowed repartition.

The paper's online-aggregation workload (§3.2.1) shows that
shuffle-as-a-library can surface partial results long before a job
finishes; this tier grows that seed into a continuous, multi-tenant
service in the shape ShuffleBench measures -- stream repartition +
aggregation judged by *record-latency percentiles*, not makespan:

- :mod:`repro.streaming.source` -- open-loop Poisson record sources
  with event-time watermarks, pre-drawn from the seed so offered load
  never reacts to system speed;
- :mod:`repro.streaming.rounds` -- :class:`RoundDriver`, the
  incremental generalisation of
  :func:`repro.shuffle.streaming_shuffle` (bit-for-bit identical at
  one in-flight round) that the aggregation app also re-bases on;
- :mod:`repro.streaming.backpressure` -- bounded in-flight windows
  with source throttling, published as ``stream.backpressure`` events;
- :mod:`repro.streaming.job` -- the long-lived job body: windows close
  at the watermark, repartition through the shuffle operators, and
  record source->window-close->aggregate-visible latency per record;
- :mod:`repro.streaming.loadgen` -- hundreds of tenants admitted
  through the :class:`~repro.jobs.admission.AdmissionController` and
  dispatched under fair share, reported as global + per-tenant
  p50/p99/p999.

Importing this package registers the ``"streaming"`` job runner with
the jobs control plane, so a :class:`~repro.jobs.spec.JobSpec` carrying
a :class:`~repro.jobs.spec.StreamSpec` dispatches here; the data-plane
core never imports this tier (enforced by ``tools/check_layering.py``),
keeping it optional and zero-cost when unused.

See ``docs/streaming.md`` for the full tour.
"""

from repro.jobs.manager import register_job_runner
from repro.streaming.backpressure import BackpressureController
from repro.streaming.job import (
    RECORD_LATENCY_METRIC,
    TENANT_LATENCY_METRIC,
    StreamingJobResult,
    run_streaming_job,
    streaming_job_runner,
)
from repro.streaming.loadgen import (
    OpenLoopReport,
    open_loop_workload,
    run_open_loop,
    streaming_node_spec,
    streaming_tenants,
    summarize_latency,
)
from repro.streaming.records import RecordBatch, Window, window_of
from repro.streaming.rounds import RoundDriver, drive_rounds
from repro.streaming.source import PoissonSource, make_sources

# A JobSpec with a StreamSpec arm dispatches to this tier's runner; the
# registration lives here so merely importing the tier wires it up.
register_job_runner("streaming", streaming_job_runner)

__all__ = [
    "BackpressureController",
    "OpenLoopReport",
    "PoissonSource",
    "RECORD_LATENCY_METRIC",
    "RecordBatch",
    "RoundDriver",
    "StreamingJobResult",
    "TENANT_LATENCY_METRIC",
    "Window",
    "drive_rounds",
    "make_sources",
    "open_loop_workload",
    "run_open_loop",
    "run_streaming_job",
    "streaming_job_runner",
    "streaming_node_spec",
    "streaming_tenants",
    "summarize_latency",
    "window_of",
]
