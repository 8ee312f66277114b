"""Text renderings of the paper's figures.

Benchmarks print these next to the numeric tables so the reproduced
*shape* of each figure -- who wins, where the crossover falls -- is
visible in the terminal without plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "s",
) -> str:
    """Horizontal bars, one per label, scaled to the maximum value.

    Labels are right-aligned into one column and values into another
    (bars are padded to ``width``), so mixed-width labels still render
    as three clean columns.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return title
    peak = max(values)
    label_width = max(len(str(label)) for label in labels)
    value_texts = [f"{value:.1f}{unit}" for value in values]
    value_width = max(len(text) for text in value_texts)
    lines = [title, "-" * len(title)]
    for label, value, text in zip(labels, values, value_texts):
        bar = "#" * max(1, round(width * value / peak)) if peak > 0 else ""
        lines.append(
            f"{str(label):>{label_width}s} | {bar:<{width}s} "
            f"{text:>{value_width}s}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    title: str,
    groups: Mapping[str, Mapping[object, float]],
    width: int = 40,
    unit: str = "s",
) -> str:
    """One bar block per x value, one bar per series within it.

    ``groups`` maps series name -> {x: value}; x values are unioned and
    ordered; missing cells are skipped.
    """
    xs: List[object] = []
    for per_x in groups.values():
        for x in per_x:
            if x not in xs:
                xs.append(x)
    xs.sort(key=lambda v: (str(type(v)), v))
    peak = max(
        (value for per_x in groups.values() for value in per_x.values()),
        default=0.0,
    )
    series_width = max((len(name) for name in groups), default=1)
    lines = [title, "=" * len(title)]
    for x in xs:
        lines.append(f"[{x}]")
        for name, per_x in groups.items():
            if x not in per_x:
                continue
            value = per_x[x]
            bar = "#" * max(1, round(width * value / peak)) if peak > 0 else ""
            lines.append(
                f"  {name:>{series_width}s} | {bar} {value:.1f}{unit}"
            )
    return "\n".join(lines)


def line_chart(
    title: str,
    series: Mapping[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    markers: Optional[str] = None,
) -> str:
    """A character-grid plot of one or more (x, y) series."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return title
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    marker_cycle = markers or "*+ox@%"
    legend: Dict[str, str] = {}
    for index, (name, pts) in enumerate(series.items()):
        mark = marker_cycle[index % len(marker_cycle)]
        legend[name] = mark
        for x, y in pts:
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            grid[row][col] = mark
    lines = [title, "-" * len(title)]
    for row_index, row in enumerate(grid):
        y_label = (
            f"{y_hi:>8.3g} |" if row_index == 0
            else f"{y_lo:>8.3g} |" if row_index == height - 1
            else "         |"
        )
        lines.append(y_label + "".join(row))
    lines.append("         +" + "-" * width)
    lines.append(f"          {x_lo:<10.3g}{'':{max(0, width - 20)}}{x_hi:>10.3g}")
    lines.append(
        "legend: " + ", ".join(f"{mark}={name}" for name, mark in legend.items())
    )
    return "\n".join(lines)


#: Eight-level block ramp used by :func:`sparkline`, lowest first.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-character-per-sample block sparkline of a value series.

    Scaling is ``[lo, hi]`` when given (samples clamped into the range),
    else the series' own min/max; a flat series renders as its lowest
    block so "all zero" and "all saturated" don't look alike when a
    shared ``hi`` is supplied.
    """
    if not values:
        return ""
    floor = min(values) if lo is None else lo
    ceil = max(values) if hi is None else hi
    span = ceil - floor
    out = []
    for value in values:
        if span <= 0:
            index = 0
        else:
            frac = (value - floor) / span
            index = round(min(1.0, max(0.0, frac)) * (len(SPARK_BLOCKS) - 1))
        out.append(SPARK_BLOCKS[index])
    return "".join(out)


def gauge(value: float, maximum: float, width: int = 24) -> str:
    """A bracketed fill gauge: ``[#####...........]  31%``.

    ``maximum <= 0`` renders an empty gauge at 0% rather than dividing
    by zero; overfull values clamp at 100%.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    frac = 0.0 if maximum <= 0 else min(1.0, max(0.0, value / maximum))
    filled = round(frac * width)
    return f"[{'#' * filled}{'.' * (width - filled)}] {frac:4.0%}"
