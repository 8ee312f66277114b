"""The streaming data model: keyed records, batches, and windows.

A streaming job's unit of transfer is the :class:`RecordBatch` -- the
records one source contributed to one tumbling window, stored as
parallel numpy arrays (keys and event times) with a declared byte size
so the simulated object store charges realistic footprints.  A
:class:`Window` is pure event-time bookkeeping: the half-open interval
``[start, end)`` at index ``index`` under a fixed window width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Window:
    """One tumbling event-time window: ``[start, end)``."""

    index: int
    start: float
    end: float

    def contains(self, event_time: float) -> bool:
        """True when ``event_time`` falls inside this window."""
        return self.start <= event_time < self.end


def window_of(event_time: float, window_s: float) -> Window:
    """The tumbling window an event time falls into."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    index = int(event_time // window_s)
    return Window(index, index * window_s, (index + 1) * window_s)


class RecordBatch:
    """Records one source contributed to one window.

    ``keys`` and ``event_times`` are parallel arrays; ``size_bytes``
    declares the simulated store footprint (records x bytes-per-record),
    which :func:`repro.futures.sizing.size_of` honours.
    """

    __slots__ = ("keys", "event_times", "size_bytes")

    def __init__(
        self,
        keys: np.ndarray,
        event_times: np.ndarray,
        bytes_per_record: int,
    ) -> None:
        import numpy as np

        if len(keys) != len(event_times):
            raise ValueError("keys and event_times must be parallel arrays")
        self.keys = np.asarray(keys, dtype=np.int64)
        self.event_times = np.asarray(event_times, dtype=np.float64)
        self.size_bytes = max(1, len(self.keys) * int(bytes_per_record))

    def __len__(self) -> int:
        return len(self.keys)

    @staticmethod
    def empty(bytes_per_record: int) -> "RecordBatch":
        """A zero-record batch (a source that sat out the window)."""
        import numpy as np

        return RecordBatch(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            bytes_per_record,
        )

    def partition(self, num_partitions: int) -> Sequence["RecordBatch"]:
        """Split by ``key % num_partitions`` (the repartition map side)."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        per_record = self.size_bytes // max(1, len(self))
        assignments = self.keys % num_partitions
        return [
            RecordBatch(
                self.keys[assignments == p],
                self.event_times[assignments == p],
                per_record,
            )
            for p in range(num_partitions)
        ]

    def __repr__(self) -> str:
        return f"<RecordBatch n={len(self)} bytes={self.size_bytes}>"
