"""Dimensioned metrics: counters, gauges, and histograms by node and job.

The registry is the runtime's one accounting store.  Every counter
lives in one :class:`~repro.metrics.core.Counters` for the global
series plus one per dimension value (``node`` or ``job``); the
runtime's flat ``rt.counters`` *is* the global series and
``rt.job_stats()`` reads the job axis, so both are views, not copies.
A dimensioned write (``counter(name, node=..., job=...)``) adds to the
global series and to each populated dimension at once, so per-dimension
values sum exactly to the global for every populated axis -- the
accounting invariant the chaos checker's metric-dimension family
asserts.  A bare ``rt.counters.add`` charges the global series only.

``snapshot()`` captures everything as plain nested dicts and
``delta()`` closes a measurement interval against a previous snapshot,
which is how the run reporter prints phase-scoped counter movement.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.core import Counters, Histogram

#: The dimension key used for the undimensioned (global) series.
GLOBAL_DIM = "<all>"

#: Job dimension for work not attributed to any job (plain single-driver
#: runs, or background restores not tied to any task).
UNATTRIBUTED = "<unattributed>"

_AXES = ("node", "job")


def _dims(node: Any, job: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    """Normalised (axis, value) pairs for the populated dimensions."""
    out: List[Tuple[str, str]] = []
    if node is not None:
        out.append(("node", str(node)))
    if job is not None:
        out.append(("job", str(job)))
    return tuple(out)


class MetricRegistry:
    """Per-run metric store with node and job dimensions."""

    def __init__(self) -> None:
        #: The global series of every counter (the runtime's
        #: ``rt.counters``).
        self.counters = Counters()
        # axis ("node"/"job") -> dim value -> that value's counters
        self._by_dim: Dict[str, Dict[str, Counters]] = {
            axis: {} for axis in _AXES
        }
        self._gauges: Dict[str, Dict[str, Dict[str, float]]] = {}
        # (name, axis, dim value) -> Histogram
        self._histograms: Dict[Tuple[str, str, str], Histogram] = {}

    # -- counters ------------------------------------------------------------
    def counter(
        self,
        name: str,
        amount: float = 1.0,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Add to a monotonic counter, charging the global series and
        every populated dimension axis together."""
        self.counters.add(name, amount)
        if node is not None:
            self._series("node", node).add(name, amount)
        if job is not None:
            self._series("job", job).add(name, amount)

    def _series(self, axis: str, value: Any) -> Counters:
        """The counters of one dimension value (created on first write)."""
        values = self._by_dim[axis]
        key = str(value)
        series = values.get(key)
        if series is None:
            series = values[key] = Counters()
        return series

    def _axis(self, axis: str) -> Dict[str, Counters]:
        if axis not in _AXES:
            raise ValueError(f"unknown axis {axis!r}; expected one of {_AXES}")
        return self._by_dim[axis]

    def counter_total(self, name: str) -> float:
        """The global value of a counter (0 if never touched)."""
        return self.counters.get(name)

    def counter_by(self, name: str, axis: str) -> Dict[str, float]:
        """One axis of a counter (``"node"`` or ``"job"``) as a dict."""
        return {
            value: series.get(name)
            for value, series in self._axis(axis).items()
            if name in series
        }

    def counters_by(self, axis: str) -> Dict[str, Dict[str, float]]:
        """Every counter of each value on one axis, ``{value: {name:
        amount}}`` (the shape of ``rt.job_stats()``)."""
        return {
            value: series.snapshot() for value, series in self._axis(axis).items()
        }

    def counter_names(self) -> List[str]:
        """Every counter name ever written, sorted."""
        return sorted(self.counters)

    # -- gauges --------------------------------------------------------------
    def gauge_set(
        self,
        name: str,
        value: float,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Set a point-in-time gauge (store occupancy, queue depth).

        The global series holds the *sum* over the most specific
        populated dimension, recomputed on every write, so per-node
        gauges aggregate the way occupancy should.
        """
        series = self._gauges.setdefault(name, {})
        dims = _dims(node, job)
        if not dims:
            series.setdefault(GLOBAL_DIM, {})[GLOBAL_DIM] = float(value)
            return
        for axis, dim_value in dims:
            series.setdefault(axis, {})[dim_value] = float(value)
        # Re-derive the global as the sum over the first populated axis.
        axis = dims[0][0]
        series.setdefault(GLOBAL_DIM, {})[GLOBAL_DIM] = sum(
            series[axis].values()
        )

    def gauge(self, name: str, *, node: Any = None, job: Optional[str] = None) -> float:
        """Read a gauge (the global sum when no dimension is given)."""
        series = self._gauges.get(name, {})
        dims = _dims(node, job)
        if not dims:
            return series.get(GLOBAL_DIM, {}).get(GLOBAL_DIM, 0.0)
        axis, value = dims[0]
        return series.get(axis, {}).get(value, 0.0)

    # -- histograms ------------------------------------------------------------
    def observe(
        self,
        name: str,
        value: float,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Record one sample (see :meth:`observe_many`)."""
        self.observe_many(name, (value,), node=node, job=job)

    def observe_many(
        self,
        name: str,
        values: Iterable[float],
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Record samples, in order, into the global histogram and each
        populated dimension's histogram; no values is a no-op."""
        values = list(values)
        if not values:
            return
        keys = [(name, GLOBAL_DIM, GLOBAL_DIM)]
        keys.extend((name, axis, dim) for axis, dim in _dims(node, job))
        for key in keys:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    f"{key[0]}[{key[1]}={key[2]}]"
                )
            hist.extend(values)

    def histogram(
        self, name: str, *, node: Any = None, job: Optional[str] = None
    ) -> Histogram:
        """The histogram for one series (empty if never observed)."""
        dims = _dims(node, job)
        key = (name, *dims[0]) if dims else (name, GLOBAL_DIM, GLOBAL_DIM)
        return self._histograms.get(key) or Histogram(name)

    # -- snapshot / delta ------------------------------------------------------
    def _counter_series(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """name -> axis (``"<all>"``/``"node"``/``"job"``) -> dim value ->
        amount; axes a counter never populated are absent."""
        out = {
            name: {GLOBAL_DIM: {GLOBAL_DIM: total}}
            for name, total in self.counters.as_dict().items()
        }
        for axis, values in self._by_dim.items():
            for value, series in values.items():
                for name, amount in series.as_dict().items():
                    out[name].setdefault(axis, {})[value] = amount
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Everything as nested plain dicts (JSON-serialisable)."""
        return {
            "counters": self._counter_series(),
            "gauges": {
                name: {axis: dict(vals) for axis, vals in series.items()}
                for name, series in self._gauges.items()
            },
            "histograms": {
                f"{name}[{axis}={dim}]": hist.snapshot()
                for (name, axis, dim), hist in self._histograms.items()
            },
        }

    def delta(self, previous: Dict[str, Any]) -> Dict[str, Any]:
        """Counter movement since ``previous`` (a :meth:`snapshot`).

        Gauges and histograms are point-in-time / cumulative summaries,
        so the delta reports only counters; untouched series drop out.
        """
        prev = previous.get("counters", {})
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name, series in self._counter_series().items():
            for axis, values in series.items():
                for dim, value in values.items():
                    before = prev.get(name, {}).get(axis, {}).get(dim, 0.0)
                    moved = value - before
                    if moved:
                        out.setdefault(name, {}).setdefault(axis, {})[dim] = moved
        return {"counters": out}

    def __repr__(self) -> str:
        return (
            f"<MetricRegistry counters={len(self.counter_names())} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
