"""Counters, distributions, and time series collected during simulated runs.

Every figure in the paper is either a bar of job-completion times, a line
over simulated time, or a byte count; :class:`Counters` and
:class:`TimeSeries` cover those.  :class:`Histogram` adds exact
percentiles (p50/p95/p99) for per-job latency distributions -- queue
waits and task durations in the multi-tenant control plane
(:mod:`repro.jobs`) -- and is equally useful standalone in benchmarks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Counters:
    """Named monotonic counters (bytes spilled, tasks executed, ...)."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter."""
        self._values[name] += amount

    def get(self, name: str) -> float:
        """Current value (0 for never-touched counters)."""
        return self._values.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """A snapshot copy of all counters."""
        return dict(self._values)

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of all counters (delegates to
        :meth:`as_dict`; named for the snapshot/reset idiom of interval
        measurement)."""
        return self.as_dict()

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one (summing shared keys)."""
        for name, amount in other.as_dict().items():
            self._values[name] += amount

    def reset(self) -> Dict[str, float]:
        """Zero every counter; returns the values held just before the
        reset so ``delta = c.reset()`` closes a measurement interval."""
        values = dict(self._values)
        self._values.clear()
        return values

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"


class TimeSeries:
    """(time, value) samples, e.g. reduce-progress for Fig 5."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample; time must not go backwards."""
        if self._samples and time < self._samples[-1][0]:
            raise ValueError("time series samples must be non-decreasing in time")
        self._samples.append((time, value))

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    @property
    def times(self) -> List[float]:
        return [t for t, _ in self._samples]

    @property
    def values(self) -> List[float]:
        return [v for _, v in self._samples]

    def value_at(self, time: float) -> float:
        """Step-function lookup: latest sample at or before ``time``."""
        if not self._samples or time < self._samples[0][0]:
            raise ValueError(f"no sample at or before t={time}")
        result = self._samples[0][1]
        for t, v in self._samples:
            if t > time:
                break
            result = v
        return result

    def first_time_reaching(self, threshold: float) -> float:
        """Earliest sample time with value >= threshold (inf if never)."""
        for t, v in self._samples:
            if v >= threshold:
                return t
        return float("inf")

    def __len__(self) -> int:
        return len(self._samples)


class Histogram:
    """An exact value distribution with percentile queries.

    Simulated runs record at most tens of thousands of samples, so the
    histogram keeps them all and computes percentiles exactly (linear
    interpolation between order statistics, the numpy default) instead of
    approximating with buckets.  The sorted view is cached between
    records, so repeated percentile reads are cheap.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        """Add one sample."""
        self._values.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Add samples in order; the same as :meth:`record` on each."""
        self._values.extend(map(float, values))
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self.total / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``), interpolating
        linearly between adjacent order statistics; 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._values)
        ordered = self._sorted
        rank = (len(ordered) - 1) * q / 100.0
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = rank - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99)

    @property
    def p999(self) -> float:
        """99.9th percentile -- the streaming tier's tail-latency figure
        of merit (ShuffleBench reports record latency at p999)."""
        return self.percentile(99.9)

    def snapshot(self) -> Dict[str, float]:
        """Summary dict (count/mean/min/max/p50/p95/p99/p999) for tables."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one."""
        self._values.extend(other._values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, p50={self.p50:g}, "
            f"p95={self.p95:g}, p99={self.p99:g})"
        )
