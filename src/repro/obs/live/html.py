"""Self-contained HTML run explorer.

:func:`render_html` turns a recorded run (plus its sampled series)
into **one** HTML file with every byte inline -- no external scripts,
stylesheets, fonts, or network fetches -- so a CI artifact or an
emailed file opens offline and still shows:

- per-node utilization (cpu / disk / nic / store) as SVG line charts
  over the sampled series;
- tenant fair-share bars;
- spill-queue depth and backpressure stall rate;
- the run report's fault / retry timeline, each line with its causal
  chain;
- the critical-path category breakdown and the report's phase table;
- the Engine self-profile, printed by
  :func:`repro.obs.profile.render_profile`, when the run was recorded
  with a :class:`repro.obs.profile.SelfProfiler` profile.

The data payload is ``sampler.to_dict()`` + ``RunReport.to_dict()`` +
``critical_path(...).to_dict()`` + the rendered profile, serialised
into a ``const DATA`` block; a few hundred lines of vanilla JS render
it.  Colors follow the validated reference palette (categorical slots
in fixed order, text in ink tokens, one axis per chart, dark mode as
its own stepped values behind ``prefers-color-scheme`` and a
``data-theme`` override).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.obs.events import ObsEvent
from repro.obs.live.sampler import TimeSeriesSampler
from repro.obs.perf.critpath import critical_path
from repro.obs.profile.core import render_profile
from repro.obs.report import RunReport


def explorer_data(
    events: Sequence[ObsEvent],
    sampler: Optional[TimeSeriesSampler] = None,
    title: str = "repro run explorer",
    top_k: int = 10,
) -> Dict[str, Any]:
    """The explorer's full data payload as plain JSON-safe data.

    ``sampler`` defaults to a fresh replay of ``events`` at the default
    interval, so a recorded JSONL file alone is enough input.
    """
    if sampler is None:
        sampler = TimeSeriesSampler.replay(events)
    elif sampler.t_end is None:
        sampler.finish()
    report = RunReport(events)
    return {
        "title": title,
        "sampler": sampler.to_dict(),
        "report": report.to_dict(top_k=top_k),
        "critpath": critical_path(events).to_dict(),
        "engine": render_profile(report.summary.get("profile", {})),
    }


def render_html(
    events: Sequence[ObsEvent],
    sampler: Optional[TimeSeriesSampler] = None,
    title: str = "repro run explorer",
) -> str:
    """Render the single-file HTML explorer for a recorded run."""
    data = explorer_data(events, sampler=sampler, title=title)
    # "</" must not appear inside an inline <script> payload.
    payload = json.dumps(data, sort_keys=True).replace("</", "<\\/")
    return _TEMPLATE.replace(
        "__TITLE__", html.escape(title, quote=False)
    ).replace("__DATA__", payload)


def write_html(
    events: Sequence[ObsEvent],
    path: str,
    sampler: Optional[TimeSeriesSampler] = None,
    title: str = "repro run explorer",
) -> str:
    """Write the explorer next to a run; returns the path written."""
    Path(path).write_text(
        render_html(events, sampler=sampler, title=title)
    )
    return path


#: The document shell.  Palette hexes are the validated reference
#: palette (categorical slots in fixed order; chart chrome from the ink
#: roles; dark mode is its own stepped values, not an automatic flip).
_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --series-6: #008300;
  --series-7: #4a3aa7;
  --series-8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
    --series-6: #008300;
    --series-7: #9085e9;
    --series-8: #e66767;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
  --series-4: #c98500;
  --series-5: #d55181;
  --series-6: #008300;
  --series-7: #9085e9;
  --series-8: #e66767;
}
* { box-sizing: border-box; }
body {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.panel {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 14px;
  margin: 8px 0 16px;
}
.legend { margin: 4px 0 0; font-size: 12px; color: var(--text-secondary); }
.legend span.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 4px 0 10px; vertical-align: baseline;
}
svg text { fill: var(--muted); font-size: 10px; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg polyline { fill: none; stroke-width: 2; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 3px 10px 3px 0; }
th { color: var(--text-secondary); font-weight: 600;
     border-bottom: 1px solid var(--baseline); }
td { border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar-row { display: grid; grid-template-columns: 140px 1fr 70px;
           align-items: center; gap: 8px; margin: 3px 0; }
.bar-row .label { color: var(--text-secondary); text-align: right;
                  overflow: hidden; text-overflow: ellipsis; }
.bar-track { background: transparent; height: 14px; }
.bar-fill { height: 14px; border-radius: 0 4px 4px 0; min-width: 2px; }
.bar-row .value { font-variant-numeric: tabular-nums; }
.lines { font: 12px/1.6 ui-monospace, monospace; white-space: pre;
        overflow-x: auto; color: var(--text-secondary); }
.tip {
  position: fixed; pointer-events: none; display: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 8px; font-size: 12px;
  color: var(--text-primary); box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
.quiet { color: var(--muted); }
</style>
</head>
<body>
<main>
  <h1>__TITLE__</h1>
  <p class="sub" id="runline"></p>
  <h2>Per-node utilization</h2>
  <div id="nodes"></div>
  <h2>Tenant fair share (tasks finished)</h2>
  <div class="panel" id="tenants"></div>
  <h2>Spill pressure &amp; backpressure</h2>
  <div id="pressure"></div>
  <h2>Fault &rarr; retry timeline</h2>
  <div class="panel lines" id="faults"></div>
  <h2>Critical path by category</h2>
  <div class="panel" id="critpath"></div>
  <h2>Phase table</h2>
  <div class="panel" id="phases"></div>
  <h2>Engine self-profile</h2>
  <div class="panel lines" id="engine"></div>
</main>
<div class="tip" id="tip"></div>
<script>
const DATA = __DATA__;

const SERIES_VARS = [1, 2, 3, 4, 5, 6, 7, 8].map(
  (i) => `var(--series-${i})`);
const fmt = (v) => {
  if (Math.abs(v) >= 1e9) return (v / 1e9).toFixed(2) + "G";
  if (Math.abs(v) >= 1e6) return (v / 1e6).toFixed(2) + "M";
  if (Math.abs(v) >= 1e3) return (v / 1e3).toFixed(1) + "k";
  return Math.abs(v % 1) < 1e-9 ? String(v) : v.toFixed(2);
};

function seriesPoints(name) {
  const s = DATA.sampler.series[name];
  if (!s) return [];
  const dt = DATA.sampler.interval_s, t0 = DATA.sampler.t0 || 0;
  return s.map((v, i) => [t0 + (i + 1) * dt, v]);
}

function sumSeries(names) {
  const all = names.map(seriesPoints).filter((p) => p.length);
  if (!all.length) return [];
  const byT = new Map();
  for (const pts of all)
    for (const [t, v] of pts) byT.set(t, (byT.get(t) || 0) + v);
  return [...byT.entries()].sort((a, b) => a[0] - b[0]);
}

function lineChart(parent, title, namedSeries, unit) {
  const entries = Object.entries(namedSeries)
    .filter(([, pts]) => pts.length > 0);
  const panel = document.createElement("div");
  panel.className = "panel";
  parent.appendChild(panel);
  if (!entries.length) {
    panel.innerHTML = `<div class="quiet">${title}: no samples</div>`;
    return;
  }
  const W = 960, H = 170, L = 48, R = 8, T = 18, B = 22;
  let xLo = Infinity, xHi = -Infinity, yHi = 0;
  for (const [, pts] of entries)
    for (const [x, y] of pts) {
      xLo = Math.min(xLo, x); xHi = Math.max(xHi, x);
      yHi = Math.max(yHi, y);
    }
  if (xHi <= xLo) xHi = xLo + 1;
  if (yHi <= 0) yHi = 1;
  const sx = (x) => L + (x - xLo) / (xHi - xLo) * (W - L - R);
  const sy = (y) => T + (1 - y / yHi) * (H - T - B);
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("viewBox", `0 0 ${W} ${H}`);
  svg.setAttribute("width", "100%");
  let inner =
    `<text x="${L}" y="11">${title}</text>` +
    `<line class="axis" x1="${L}" y1="${sy(0)}" x2="${W - R}" y2="${sy(0)}"/>`;
  for (const f of [0.5, 1.0]) {
    const y = sy(yHi * f);
    inner += `<line class="gridline" x1="${L}" y1="${y}" x2="${W - R}" y2="${y}"/>` +
      `<text x="${L - 4}" y="${y + 3}" text-anchor="end">${fmt(yHi * f)}${unit || ""}</text>`;
  }
  inner += `<text x="${L}" y="${H - 6}">${fmt(xLo)}s</text>` +
    `<text x="${W - R}" y="${H - 6}" text-anchor="end">${fmt(xHi)}s</text>`;
  entries.forEach(([, pts], i) => {
    const path = pts.map(([x, y]) => `${sx(x)},${sy(y)}`).join(" ");
    inner += `<polyline points="${path}" stroke="${SERIES_VARS[i % 8]}"/>`;
  });
  svg.innerHTML = inner;
  panel.appendChild(svg);
  if (entries.length >= 2) {
    const legend = document.createElement("div");
    legend.className = "legend";
    legend.innerHTML = "legend:" + entries.map(([name], i) =>
      `<span class="swatch" style="background:${SERIES_VARS[i % 8]}"></span>${name}`
    ).join("");
    panel.appendChild(legend);
  }
  const tip = document.getElementById("tip");
  svg.addEventListener("mousemove", (ev) => {
    const box = svg.getBoundingClientRect();
    const x = xLo + (ev.clientX - box.left) / box.width * (xHi - xLo);
    const rows = entries.map(([name, pts], i) => {
      let best = pts[0];
      for (const p of pts)
        if (Math.abs(p[0] - x) < Math.abs(best[0] - x)) best = p;
      return `${name}: ${fmt(best[1])}${unit || ""}`;
    });
    tip.style.display = "block";
    tip.style.left = (ev.clientX + 14) + "px";
    tip.style.top = (ev.clientY + 10) + "px";
    tip.textContent = `t=${fmt(x)}s  ` + rows.join("  ");
  });
  svg.addEventListener("mouseleave", () => { tip.style.display = "none"; });
}

function barRows(parent, rows, unit) {
  const peak = Math.max(...rows.map(([, v]) => v), 1e-12);
  rows.forEach(([label, value], i) => {
    const row = document.createElement("div");
    row.className = "bar-row";
    const pct = Math.max(0.5, value / peak * 100);
    row.innerHTML =
      `<div class="label">${label}</div>` +
      `<div class="bar-track"><div class="bar-fill" ` +
      `style="width:${pct}%;background:${SERIES_VARS[i % 8]}"></div></div>` +
      `<div class="value">${fmt(value)}${unit || ""}</div>`;
    parent.appendChild(row);
  });
}

function renderTable(parent, tableData) {
  if (!tableData.rows.length) {
    parent.innerHTML = '<div class="quiet">empty</div>';
    return;
  }
  const cols = tableData.columns;
  const numeric = cols.map((c) =>
    tableData.rows.every((r) => typeof r[c] === "number" || r[c] == null));
  let html = "<table><thead><tr>" + cols.map((c, i) =>
    `<th class="${numeric[i] ? "num" : ""}">${c}</th>`).join("") +
    "</tr></thead><tbody>";
  for (const row of tableData.rows) {
    html += "<tr>" + cols.map((c, i) => {
      const v = row[c];
      const text = v == null ? "-" :
        typeof v === "number" ? fmt(v) : String(v);
      return `<td class="${numeric[i] ? "num" : ""}">${text}</td>`;
    }).join("") + "</tr>";
  }
  parent.innerHTML = html + "</tbody></table>";
}

(function main() {
  const S = DATA.sampler, R = DATA.report;
  document.getElementById("runline").textContent =
    `${R.events} events | ${S.samples_taken} samples @ ${S.interval_s}s | ` +
    `t ∈ [${fmt(S.t0 || 0)}s, ${fmt(S.t_end || 0)}s] | ` +
    `${S.nodes.length} nodes | digest ${S.digest.slice(0, 12)}`;

  const nodes = document.getElementById("nodes");
  for (const track of ["cpu", "disk", "nic", "store"]) {
    const series = {};
    for (const n of S.nodes)
      series[n] = seriesPoints(`node:${n}:${track}`);
    lineChart(nodes, `node ${track}` + (track === "store" ? " (bytes)" : ""),
      series, track === "store" ? "B" : "");
  }

  const tenants = document.getElementById("tenants");
  const tenantRows = S.tenants.map((t) => {
    const pts = seriesPoints(`tenant:${t}:finished`);
    return [t, pts.length ? pts[pts.length - 1][1] : 0];
  });
  if (tenantRows.length) barRows(tenants, tenantRows, "");
  else tenants.innerHTML = '<div class="quiet">no tenants recorded</div>';

  const pressure = document.getElementById("pressure");
  lineChart(pressure, "spill queue depth (all nodes)", {
    "spill queue": sumSeries(S.nodes.map((n) => `node:${n}:spill_queue`)),
  }, "");
  lineChart(pressure, "backpressure stalls per interval", {
    "stall rate": seriesPoints("cluster:stall_rate"),
  }, "");

  document.getElementById("faults").textContent =
    R.fault_timeline.join("\\n") || "(quiet)";

  const crit = document.getElementById("critpath");
  const cats = Object.entries(DATA.critpath.categories || {})
    .filter(([, v]) => v > 0).sort((a, b) => b[1] - a[1]);
  if (cats.length) barRows(crit, cats, "s");
  else crit.innerHTML = '<div class="quiet">no critical path recorded</div>';

  renderTable(document.getElementById("phases"), R.phase_table);

  document.getElementById("engine").textContent = DATA.engine ||
    "run recorded without a self-profiler (attach one via benchmarks " +
    "--profile)";
})();
</script>
</body>
</html>
"""
