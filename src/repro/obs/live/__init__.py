"""The live ops plane: streaming telemetry over the event bus.

Three layers, each a pure consumer of :class:`~repro.obs.events.ObsEvent`
records (the layering lint forbids the data plane from importing this
package back):

- :class:`TimeSeriesSampler` -- fixed-interval ring-buffered series
  per node/tenant/job with exact last-sample semantics, identical when
  attached live or replayed from a ``record_run`` JSONL file;
- :class:`LiveDashboard` -- terminal frames (sparkline utilization
  tracks, fair-share bars, pressure gauges, the causal fault feed)
  behind ``python -m repro.obs live``;
- :func:`render_html` -- the single-file offline HTML run explorer
  behind ``python -m repro.obs html``.
"""

from repro.obs.live.dashboard import (
    LiveDashboard,
    follow_runtime,
    replay_frames,
)
from repro.obs.live.html import explorer_data, render_html, write_html
from repro.obs.live.sampler import (
    NODE_TRACKS,
    SeriesRing,
    TimeSeriesSampler,
)

__all__ = [
    "NODE_TRACKS",
    "LiveDashboard",
    "SeriesRing",
    "TimeSeriesSampler",
    "explorer_data",
    "follow_runtime",
    "render_html",
    "replay_frames",
    "write_html",
]
