"""Self-observability: the simulator measures its own wall-clock time.

Every other tier of :mod:`repro.obs` explains *simulated* time -- where
the modelled cluster spent its seconds.  This tier explains *host* time:
where the discrete-event engine, the futures runtime, and the obs hot
paths spend the real wall-clock seconds a run costs, so "make simcore
fast" is a measured campaign instead of guesswork (the ROADMAP's
raw-speed item).

- :class:`~repro.obs.profile.core.SelfProfiler` -- scoped wall-clock
  accounting with exclusive-time attribution (event-queue pop, handler
  dispatch keyed by subsystem, event-bus publish, metrics charging,
  driver handoffs), hot-loop counters (events processed, bus
  publications, metric charges), and the first-class *simulated-events-per-wall-second*
  throughput metric.  The per-category breakdown plus the
  ``untracked`` residue sums to the measured total wall time --
  ``coverage_error()`` mirrors
  :meth:`repro.obs.perf.critpath.CriticalPath.coverage_error`.
- :mod:`~repro.obs.profile.flame` -- collapsed-stack (folded) export
  from the profiler's scope paths and a standalone single-file SVG
  flamegraph renderer.  Function-level detail is ``python -m
  cProfile``'s job.

Installation is strictly one-directional: ``SelfProfiler.install()``
patches hot methods on their *classes* (``Environment.step``,
``EventBus.emit``, ...) and ``uninstall()`` restores the originals, so
:mod:`repro.simcore` and :mod:`repro.futures` never import this package
(enforced by ``tools/check_layering.py``) and profiling is zero-cost
when off -- the golden event digests pin that the observer does not
perturb the observed.

See ``docs/profiling.md`` for the methodology; ``pytest
benchmarks/... --profile`` writes each bench's profile and flamegraph.
"""

from repro.obs.profile.core import SelfProfiler, render_profile
from repro.obs.profile.flame import (
    folded_from_profiler,
    render_flamegraph_svg,
    write_flamegraph,
)

__all__ = [
    "SelfProfiler",
    "folded_from_profiler",
    "render_profile",
    "render_flamegraph_svg",
    "write_flamegraph",
]
