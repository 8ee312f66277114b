"""Run-wide observability plane: event bus, span tracer, metric registry.

The paper's central claim -- shuffle-as-a-library matching monolithic
shuffle systems -- is only checkable if the data plane is *visible*:
spill/restore traffic, pipelined prefetching, scheduler placement, and
recovery after faults (Exoshuffle §5, Figs 4-9).  This package is the
measurement substrate the runtime, scheduler, object store, spilling
layer, node manager, jobs control plane, and chaos injector all publish
into:

- :class:`~repro.obs.events.EventBus` -- typed, timestamped, causally
  linked events with node/job/task/object attribution (one bus per
  :class:`~repro.futures.Runtime`);
- :mod:`repro.obs.trace` -- derives causal spans (task lifecycle,
  transfers, spill/restore I/O, job admission-to-completion) from the
  bus and exports Chrome-trace JSON;
- :class:`~repro.obs.registry.MetricRegistry` -- counters, gauges, and
  histograms with per-node and per-job dimensions plus snapshot/delta
  reports;
- :mod:`repro.obs.report` -- the run reporter behind
  ``python -m repro.obs``: phase breakdowns, top-k slowest tasks,
  per-tenant fairness, spill amplification, fault/retry timelines;
- :mod:`repro.obs.perf` -- the analysis tier on top of the spans:
  critical-path extraction and bottleneck attribution
  (``python -m repro.obs critpath``), per-node utilization timelines
  (``usage``), and the benchmark baseline/regression gate (``diff``);
- :mod:`repro.obs.live` -- the live ops plane: fixed-interval
  time-series sampling of the bus (live or replayed, bit-for-bit
  identical), the terminal dashboard (``python -m repro.obs live``),
  and the single-file offline HTML run explorer (``html``);
- :mod:`repro.obs.profile` -- the self-observability tier: the
  simulator measuring its *own* wall-clock time
  (:class:`~repro.obs.profile.SelfProfiler` scoped attribution,
  hot-loop counters, events-per-wall-second throughput, flamegraph
  export; ``python -m repro.obs profile``).

See ``docs/observability.md`` for the event taxonomy and span model,
``docs/perf.md`` for the analysis methodology, ``docs/live.md``
for the live ops plane, and ``docs/profiling.md`` for the
self-profiler.
"""

from repro.obs.events import EVENT_KINDS, EventBus, ObsEvent
from repro.obs.live import (
    LiveDashboard,
    TimeSeriesSampler,
    render_html,
    write_html,
)
from repro.obs.perf import (
    CriticalPath,
    DiffReport,
    UsageTimeline,
    compare_benches,
    critical_path,
    derive_usage,
)
from repro.obs.profile import SelfProfiler
from repro.obs.registry import GLOBAL_DIM, MetricRegistry
from repro.obs.report import RunReport, record_run
from repro.obs.trace import (
    Span,
    derive_spans,
    span_chrome_events,
    write_chrome_trace,
)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "ObsEvent",
    "MetricRegistry",
    "GLOBAL_DIM",
    "RunReport",
    "record_run",
    "Span",
    "derive_spans",
    "span_chrome_events",
    "write_chrome_trace",
    "CriticalPath",
    "critical_path",
    "UsageTimeline",
    "derive_usage",
    "DiffReport",
    "compare_benches",
    "TimeSeriesSampler",
    "LiveDashboard",
    "render_html",
    "write_html",
    "SelfProfiler",
]
