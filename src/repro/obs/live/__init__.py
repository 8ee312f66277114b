"""The live ops plane: streaming telemetry over the event bus.

Two layers, each a pure consumer of :class:`~repro.obs.events.ObsEvent`
records (the layering lint forbids the data plane from importing this
package back):

- :class:`TimeSeriesSampler` -- fixed-interval whole-run series per
  node/tenant/job with exact last-sample semantics, identical when fed
  from a runtime's bus or replayed from a ``record_run`` JSONL file;
- :func:`render_html` -- the single-file offline HTML run explorer
  behind ``python -m repro.obs html``.
"""

from repro.obs.live.html import explorer_data, render_html, write_html
from repro.obs.live.sampler import NODE_TRACKS, TimeSeriesSampler

__all__ = [
    "NODE_TRACKS",
    "TimeSeriesSampler",
    "explorer_data",
    "render_html",
    "write_html",
]
