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
  and the run's cluster, tenant and job gauges (``usage``, and counter
  rows in every Chrome trace), and the benchmark baseline/regression
  gate (``diff``);
- :mod:`repro.obs.profile` -- the self-observability tier: the
  simulator measuring its *own* wall-clock time
  (:class:`~repro.obs.profile.SelfProfiler` scoped attribution,
  hot-loop counters, events-per-wall-second throughput, flamegraph
  export; ``pytest benchmarks/... --profile``).

See ``docs/observability.md`` for the event taxonomy and span model,
``docs/perf.md`` for the analysis methodology, and
``docs/profiling.md`` for the self-profiler.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the submodule defining it.  Each loads on first use, so
#: a run that only publishes to the bus never imports the readers.
_EXPORTS = {
    "EVENT_KINDS": "events",
    "EventBus": "events",
    "ObsEvent": "events",
    "MetricRegistry": "registry",
    "GLOBAL_DIM": "registry",
    "RunReport": "report",
    "record_run": "report",
    "Span": "trace",
    "derive_spans": "trace",
    "span_chrome_events": "trace",
    "write_chrome_trace": "trace",
    "CriticalPath": "perf",
    "critical_path": "perf",
    "UsageTimeline": "perf",
    "derive_usage": "perf",
    "DiffReport": "perf",
    "compare_benches": "perf",
    "SelfProfiler": "profile",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
