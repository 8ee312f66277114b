"""Text renderings of the paper's figures.

Benchmarks print these next to the numeric tables so the reproduced
*shape* of each figure -- who wins, where the crossover falls -- is
visible in the terminal without plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


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
