"""Terminal dashboard over a :class:`TimeSeriesSampler`.

:class:`LiveDashboard` renders one *frame* -- a full-screen block of
text panels -- from the sampler's current series:

- a header line (clock, frame counter, event/sample totals);
- per-node utilization tracks (cpu/disk/nic sparklines plus an
  object-store fill gauge, scaled by the capacities snapshot when one
  is available);
- tenant fair-share bars (cumulative finished tasks per tenant);
- spill / backpressure gauges (queue depth, stall rate, fault and
  retry counters);
- the scrolling causal fault -> retry feed.

Frames are pure functions of the sampler state plus a pluggable
``clock``, so tests (and ``repro.obs live TRACE``) drive rendering
deterministically frame by frame; the interactive path simply calls
:meth:`LiveDashboard.render_frame` on a timer.  :func:`follow_runtime`
attaches a sampler to an in-process runtime and snapshots frames at
fixed simulated-time marks while the workload runs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.metrics.ascii_charts import bar_chart, gauge, sparkline
from repro.obs.live.sampler import TimeSeriesSampler

#: Clear-screen-and-home escape prefix used between interactive frames.
ANSI_CLEAR = "\x1b[2J\x1b[H"


class LiveDashboard:
    """Renders sampler state as fixed-layout text frames."""

    def __init__(
        self,
        sampler: TimeSeriesSampler,
        clock: Optional[Callable[[], float]] = None,
        window: int = 48,
        feed_lines: int = 8,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.sampler = sampler
        #: Frame-timestamp source; defaults to "latest sample boundary".
        self.clock = clock or self._sample_clock
        #: How many trailing samples each sparkline shows.
        self.window = window
        self.feed_lines = feed_lines
        self.frames_rendered = 0

    def _sample_clock(self) -> float:
        sampler = self.sampler
        if sampler.t0 is None:
            return 0.0
        return sampler.t0 + sampler.samples_taken * sampler.interval_s

    def _tail(self, name: str) -> List[float]:
        return self.sampler.get(name).values()[-self.window:]

    # -- panels ----------------------------------------------------------------
    def header_panel(self) -> str:
        """One status line: clock, frame, event and sample totals."""
        sampler = self.sampler
        return (
            f"== repro live ops ==  t={self.clock():.3f}s  "
            f"frame {self.frames_rendered}  |  "
            f"{sampler.events_seen} events  |  "
            f"{sampler.samples_taken} samples @ {sampler.interval_s}s"
        )

    def node_panel(self) -> str:
        """Per-node cpu/disk/nic sparklines plus a store fill gauge."""
        sampler = self.sampler
        lines = ["-- node utilization " + "-" * 40]
        nodes = sampler.nodes()
        if not nodes:
            lines.append("  (no per-node series yet)")
            return "\n".join(lines)
        name_width = max(len(node) for node in nodes)
        for node in nodes:
            caps = sampler.capacities.get(node, {})
            cores = float(caps.get("cores", 0) or 0)
            store_cap = float(caps.get("object_store_bytes", 0) or 0)
            cpu = self._tail(f"node:{node}:cpu")
            disk = self._tail(f"node:{node}:disk")
            nic = self._tail(f"node:{node}:nic")
            store_now = sampler.current(f"node:{node}:store")
            cpu_now = sampler.current(f"node:{node}:cpu")
            cpu_note = (
                f"{cpu_now:.0f}/{cores:.0f}" if cores else f"{cpu_now:.0f}"
            )
            lines.append(
                f"  {node:>{name_width}s}"
                f"  cpu {sparkline(cpu, lo=0.0, hi=cores or None):<{self.window}s}"
                f" {cpu_note:>5s}"
                f"  disk {sparkline(disk, lo=0.0):<{self.window}s}"
                f"  nic {sparkline(nic, lo=0.0):<{self.window}s}"
                f"  store {gauge(store_now, store_cap, width=12)}"
            )
        return "\n".join(lines)

    def tenant_panel(self) -> str:
        """Fair-share bars: cumulative finished tasks per tenant."""
        sampler = self.sampler
        tenants = sampler.tenants()
        if not tenants:
            return "-- tenant fair share " + "-" * 39 + "\n  (no tenants)"
        labels = []
        values = []
        for tenant in tenants:
            labels.append(tenant)
            values.append(sampler.current(f"tenant:{tenant}:finished"))
        return bar_chart(
            "-- tenant fair share (tasks finished) --",
            labels,
            values,
            width=32,
            unit="",
        )

    def pressure_panel(self) -> str:
        """Spill-queue and backpressure gauges plus fault counters."""
        sampler = self.sampler
        lines = ["-- pressure " + "-" * 48]
        queue_series = [
            sum(values)
            for values in zip(
                *(
                    self._tail(f"node:{node}:spill_queue")
                    for node in sampler.nodes()
                )
            )
        ] if sampler.nodes() else []
        queue_now = queue_series[-1] if queue_series else 0.0
        queue_peak = max(queue_series) if queue_series else 0.0
        lines.append(
            f"  spill queue {gauge(queue_now, max(queue_peak, 1.0), width=16)}"
            f"  {sparkline(queue_series, lo=0.0)}"
        )
        stall_series = self._tail("cluster:stall_rate")
        stall_now = stall_series[-1] if stall_series else 0.0
        stall_peak = max(stall_series) if stall_series else 0.0
        lines.append(
            f"  backpressure stalls/interval "
            f"{gauge(stall_now, max(stall_peak, 1.0), width=16)}"
            f"  {sparkline(stall_series, lo=0.0)}"
        )
        lines.append(
            f"  inflight tasks {sampler.current('cluster:inflight'):.0f}"
            f"   faults {sampler.current('cluster:faults'):.0f}"
            f"   retries {sampler.current('cluster:retries'):.0f}"
            f"   stalls total {sampler.current('cluster:stalls'):.0f}"
        )
        return "\n".join(lines)

    def feed_panel(self) -> str:
        """The scrolling causal fault -> retry feed (newest last)."""
        lines = ["-- fault feed " + "-" * 46]
        entries = list(self.sampler.feed)[-self.feed_lines:]
        if not entries:
            lines.append("  (quiet)")
        for entry in entries:
            lines.append("  " + entry.render())
        return "\n".join(lines)

    # -- frames ----------------------------------------------------------------
    def render_frame(self) -> str:
        """Render one full frame and advance the frame counter."""
        self.frames_rendered += 1
        return "\n".join(
            [
                self.header_panel(),
                self.node_panel(),
                self.tenant_panel(),
                self.pressure_panel(),
                self.feed_panel(),
            ]
        )


def replay_frames(
    events: Sequence[Any],
    frames: int = 4,
    interval_s: float = 0.25,
    window: int = 48,
) -> List[str]:
    """Stride through a recorded event stream, rendering ``frames``
    evenly spaced dashboard frames plus a final post-:meth:`finish`
    frame.  This is the deterministic core of ``repro.obs live``.
    """
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    sampler = TimeSeriesSampler(interval_s=interval_s)
    dashboard = LiveDashboard(sampler, window=window)
    marks = {
        max(1, round(len(events) * (i + 1) / frames)) - 1
        for i in range(frames - 1)
    }
    out: List[str] = []
    for index, event in enumerate(events):
        sampler.on_event(event)
        if index in marks:
            out.append(dashboard.render_frame())
    sampler.finish()
    out.append(dashboard.render_frame())
    return out


def follow_runtime(
    runtime: Any,
    run: Callable[[], Any],
    stride: int = 200,
    interval_s: float = 0.25,
    window: int = 48,
    on_frame: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Attach a sampler to ``runtime``, execute ``run()`` (a blocking
    driver-side workload), and render a dashboard frame every
    ``stride`` bus events while it progresses -- the ``--follow`` mode.

    Event count is deterministic for a deterministic workload, so the
    frame sequence is too; ``on_frame`` (e.g. ``print``) observes each
    frame as it renders.  Returns all frames, including the final
    post-:meth:`~TimeSeriesSampler.finish` one.
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    sampler = TimeSeriesSampler(interval_s=interval_s)
    detach = runtime.attach_sampler(sampler)
    dashboard = LiveDashboard(
        sampler, clock=runtime.bus.clock, window=window
    )
    out: List[str] = []
    countdown = {"left": stride}

    def emit_frame() -> None:
        frame = dashboard.render_frame()
        out.append(frame)
        if on_frame is not None:
            on_frame(frame)

    def tick(_event: Any) -> None:
        countdown["left"] -= 1
        if countdown["left"] <= 0:
            countdown["left"] = stride
            emit_frame()

    # A second subscription (ordered after the sampler's) drives cadence.
    untick = runtime.bus.subscribe(tick)
    try:
        run()
    finally:
        untick()
        detach()
    sampler.finish()
    emit_frame()
    return out
