"""Collapsed-stack (folded) export and standalone SVG flamegraphs.

:func:`folded_from_profiler` turns the
:class:`~repro.obs.profile.core.SelfProfiler`'s exclusive seconds per
*scope path* (category stacks like ``engine.dispatch.task;bus.publish``)
into the folded format -- one ``parent;child;leaf value`` line per
stack, the Brendan Gregg convention every flamegraph tool reads -- so
the export is exact.  For function-level detail use ``python -m
cProfile`` and an external flamegraph tool.

:func:`render_flamegraph_svg` draws the folded data as a single
self-contained SVG string -- inline styles, embedded JS for hover
titles via ``<title>`` only, zero external references -- so the file
opens standalone from disk, matching the offline contract the HTML run
explorer pins.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Fraction of root time below which a frame is dropped from the SVG.
MIN_FRAME_FRACTION = 1e-4


def folded_from_profiler(profiler: Any) -> Dict[Tuple[str, ...], float]:
    """Exact folded stacks (exclusive seconds per category path) from a
    :class:`~repro.obs.profile.core.SelfProfiler`, plus its untracked
    residue as a root-level frame so the flame sums to total wall time."""
    folded: Dict[Tuple[str, ...], float] = {
        path: secs for path, secs in profiler.folded.items() if secs > 0
    }
    untracked = profiler.untracked_s()
    if untracked > 0:
        folded[("untracked",)] = folded.get(("untracked",), 0.0) + untracked
    return folded


def folded_lines(folded: Mapping[Tuple[str, ...], float]) -> List[str]:
    """The folded mapping as canonical ``a;b;c value`` text lines
    (microsecond integer values, sorted), ready for any external
    flamegraph tool."""
    lines = []
    for path, secs in sorted(folded.items()):
        micros = int(round(secs * 1e6))
        if micros <= 0:
            continue
        lines.append(";".join(path) + f" {micros}")
    return lines


class _Frame:
    """One box in the flamegraph: a path prefix with aggregate time."""

    __slots__ = ("name", "value", "children", "self_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.self_value = 0.0
        self.children: Dict[str, "_Frame"] = {}


def _build_tree(folded: Mapping[Tuple[str, ...], float]) -> _Frame:
    root = _Frame("all")
    for path, secs in folded.items():
        if secs <= 0:
            continue
        root.value += secs
        node = root
        for part in path:
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = _Frame(part)
            child.value += secs
            node = child
        node.self_value += secs
    return root


#: Colour palette keyed by top-level category stem (engine / bus /
#: metrics / driver / obs / untracked / other), warm flame hues.
_PALETTE = {
    "engine": "#e4593b",
    "bus": "#e99c3b",
    "metrics": "#d4b13c",
    "driver": "#c4533a",
    "span": "#e07a45",
    "trace": "#cc8550",
    "untracked": "#b8b2a7",
}


def _color(name: str, depth: int) -> str:
    stem = name.split(".", 1)[0].split(":", 1)[0].split("(", 1)[0]
    base = _PALETTE.get(stem)
    if base is None:
        base = "#e9773e" if depth % 2 else "#f0934b"
    return base


def render_flamegraph_svg(
    folded: Mapping[Tuple[str, ...], float],
    title: str = "repro self-profile",
    width: int = 1200,
) -> str:
    """Render folded stacks as a single standalone SVG document.

    Pure inline SVG: embedded ``<style>``, per-frame ``<title>`` hover
    tooltips (name, seconds, share), no scripts and no external
    references -- the file opens directly from disk in any browser,
    the same offline contract the live HTML explorer pins.
    """
    root = _build_tree(folded)
    total = root.value
    row_h, pad, header = 17, 2, 38
    boxes: List[Tuple[float, float, int, _Frame]] = []  # x, w, depth, frame

    def layout(frame: _Frame, x: float, depth: int, scale: float) -> int:
        max_depth = depth
        cursor = x
        for name in sorted(frame.children):
            child = frame.children[name]
            w = child.value * scale
            if total > 0 and child.value / total >= MIN_FRAME_FRACTION:
                boxes.append((cursor, w, depth, child))
                max_depth = max(max_depth, layout(child, cursor, depth + 1, scale))
            cursor += w
        return max_depth

    scale = (width - 2 * pad) / total if total > 0 else 0.0
    depth = layout(root, pad, 0, scale) if total > 0 else 0
    height = header + (depth + 1) * (row_h + 1) + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="Menlo, Consolas, monospace" font-size="11">',
        "<style>.f rect{stroke:#fff;stroke-width:0.5;rx:1}"
        ".f text{fill:#1b1b1b;pointer-events:none}"
        ".f:hover rect{stroke:#000}</style>",
        f'<rect width="{width}" height="{height}" fill="#fbf7f2"/>',
        f'<text x="{pad + 2}" y="16" font-size="14" font-weight="bold">'
        f"{html.escape(title)}</text>",
        f'<text x="{pad + 2}" y="31" fill="#666">total '
        f"{total:.4f}s wall &#183; hover a frame for its share</text>",
    ]
    for x, w, d, frame in boxes:
        if w < 0.5:
            w = 0.5
        y = header + d * (row_h + 1)
        share = 100.0 * frame.value / total if total > 0 else 0.0
        tooltip = html.escape(
            f"{frame.name}: {frame.value:.4f}s ({share:.2f}% of total)"
        )
        label = ""
        if w > 40:
            chars = max(1, int(w / 6.4) - 1)
            label = (
                f'<text x="{x + 3:.1f}" y="{y + 12}">'
                f"{html.escape(frame.name[:chars])}</text>"
            )
        parts.append(
            f'<g class="f"><title>{tooltip}</title>'
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{row_h}" '
            f'fill="{_color(frame.name, d)}"/>{label}</g>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_flamegraph(
    folded: Mapping[Tuple[str, ...], float],
    svg_path: Path,
    title: str = "repro self-profile",
    folded_path: Optional[Path] = None,
) -> Path:
    """Write the standalone SVG (and optionally the raw folded text
    beside it) and return the SVG path."""
    svg_path = Path(svg_path)
    svg_path.parent.mkdir(parents=True, exist_ok=True)
    svg_path.write_text(render_flamegraph_svg(folded, title=title))
    if folded_path is not None:
        Path(folded_path).write_text(
            "\n".join(folded_lines(folded)) + "\n"
        )
    return svg_path
