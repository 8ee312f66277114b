"""Open-loop Poisson record sources with event-time watermarks.

A :class:`PoissonSource` pre-draws its entire arrival timeline at
construction: exponential inter-arrival gaps at ``rate_hz`` until the
``duration_s`` horizon, each record carrying a Zipf-ish key.  That makes
the load *open-loop* in the queueing-theory sense -- arrival times are
fixed by the seed and never react to how fast the system drains, so any
slowdown downstream shows up as record latency rather than as a
politely reduced offered load.  (ShuffleBench measures its stream
workloads the same way.)

The source's *watermark* is the event time of the latest record at or
before the current simulated time; sources emit in event-time order, so
the watermark is exact, and once simulated time passes the horizon the
source is closed and its watermark is the horizon itself.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import register_stream, seeded_rng
from repro.streaming.records import RecordBatch, window_of

#: The registered RNG stream for streaming arrival timelines; split
#: further per (job seed, source index).
STREAM_ARRIVAL_STREAM = "streaming/arrival"
register_stream(STREAM_ARRIVAL_STREAM, "streaming", "arrival")


class PoissonSource:
    """One unbounded-until-horizon keyed record source.

    ``seed`` and ``index`` pick an independent substream of the
    registered arrival stream, so a job's sources are mutually
    independent and exactly reproducible.
    """

    def __init__(
        self,
        *,
        seed: int,
        index: int,
        rate_hz: float,
        duration_s: float,
        keys: int,
        bytes_per_record: int,
    ) -> None:
        import numpy as np

        if rate_hz <= 0 or duration_s <= 0:
            raise ValueError("rate_hz and duration_s must be positive")
        self.index = index
        self.duration_s = float(duration_s)
        self.bytes_per_record = int(bytes_per_record)
        rng = seeded_rng(seed, "streaming", "arrival", index)
        # Pre-draw past the horizon, then truncate: the expected count is
        # rate*duration, and 4 sigma of headroom makes truncation the
        # overwhelmingly common case; top up in the rare tail.
        expect = rate_hz * duration_s
        draw = int(expect + 4 * np.sqrt(expect) + 8)
        times = np.cumsum(rng.exponential(1.0 / rate_hz, size=draw))
        while times.size and times[-1] < duration_s:  # pragma: no cover - rare tail
            times = np.concatenate(
                [times, times[-1] + np.cumsum(rng.exponential(1.0 / rate_hz, size=draw))]
            )
        self.arrival_times = times[times < duration_s]
        self.keys = rng.integers(0, int(keys), size=self.arrival_times.size)

    @property
    def num_records(self) -> int:
        """Records this source will emit before closing."""
        return int(self.arrival_times.size)

    def watermark(self, now: float) -> float:
        """Latest event time emitted at or before ``now`` (0.0 before the
        first record; the horizon once closed)."""
        if now >= self.duration_s:
            return self.duration_s
        emitted = self.arrival_times[self.arrival_times <= now]
        return float(emitted[-1]) if emitted.size else 0.0

    def closed(self, now: float) -> bool:
        """True once simulated time passed the horizon."""
        return now >= self.duration_s

    def num_windows(self, window_s: float) -> int:
        """Tumbling windows the horizon spans (the last may be partial)."""
        return window_of(self.duration_s - 1e-12, window_s).index + 1

    def batch_for(self, window_index: int, window_s: float) -> RecordBatch:
        """The records this source contributes to one tumbling window."""
        start = window_index * window_s
        end = start + window_s
        mask = (self.arrival_times >= start) & (self.arrival_times < end)
        return RecordBatch(
            self.keys[mask], self.arrival_times[mask], self.bytes_per_record
        )

    def __repr__(self) -> str:
        return (
            f"<PoissonSource #{self.index} n={self.num_records} "
            f"horizon={self.duration_s:g}s>"
        )


def make_sources(
    *,
    seed: int,
    num_sources: int,
    rate_hz: float,
    duration_s: float,
    keys: int,
    bytes_per_record: int,
) -> List[PoissonSource]:
    """Independent sources for one streaming job."""
    return [
        PoissonSource(
            seed=seed,
            index=i,
            rate_hz=rate_hz,
            duration_s=duration_s,
            keys=keys,
            bytes_per_record=bytes_per_record,
        )
        for i in range(num_sources)
    ]
