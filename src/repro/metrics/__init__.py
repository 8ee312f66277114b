"""Measurement: counters, histograms, time series, and result tables."""

from repro.metrics.core import Counters, Histogram, TimeSeries
from repro.metrics.tables import ResultTable

__all__ = [
    "Counters",
    "Histogram",
    "TimeSeries",
    "ResultTable",
]
