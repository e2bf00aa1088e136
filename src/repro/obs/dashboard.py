"""Self-contained HTML dashboard for run telemetry.

``render_dashboard`` turns one telemetry aggregate (see
:mod:`repro.obs.telemetry`), the bench history and an optional sentinel
verdict into a **single HTML file with zero external references** — no
CDN scripts, no fonts, no images. Every chart is server-rendered inline
SVG; styling is one embedded stylesheet with light and dark modes; the
raw aggregate JSON is embedded in a ``<script type="application/json">``
block so the artifact doubles as a machine-readable export.

Sections:

* stat tiles — runs, frames presented, mean FPS, kernel events;
* per-(emulator × app) rollup table;
* a simulated-time flamegraph (two-level icicle) from the self-profiler;
* prefetch mispredict-rate and per-link bus-utilization timelines;
* the bus-utilization matrix as a heatmap;
* bench trends with the sentinel's EWMA baseline band (α = 0.5).

Everything is stdlib; the renderer is pure (dict in, string out).
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import percentile

#: Categorical series slots (light, dark) — fixed assignment order.
_SERIES = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
)

#: Sequential blue ramp (light → dark) for the utilization heatmap.
_RAMP = ("#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
         "#256abf", "#1c5cab", "#184f95", "#0d366b")

_TOKENS_LIGHT = """  color-scheme: light dark;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --good: #006300; --bad: #d03b3b;
"""
_TOKENS_DARK = """    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --good: #0ca30c; --bad: #e66767;
"""

_LAYOUT = """
* { box-sizing: border-box; }
body { margin: 0; background: var(--page); color: var(--ink);
       font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.card { background: var(--surface); border: 1px solid var(--ring);
        border-radius: 10px; padding: 14px 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile { flex: 1 1 140px; background: var(--surface);
        border: 1px solid var(--ring); border-radius: 10px;
        padding: 10px 14px 12px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .l { color: var(--ink-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; color: var(--ink-2); font-weight: 500;
     font-size: 12px; border-bottom: 1px solid var(--axis);
     padding: 4px 10px 6px 0; }
td { padding: 5px 10px 5px 0; border-bottom: 1px solid var(--grid);
     font-variant-numeric: tabular-nums; }
svg text { fill: var(--muted); font: 11px system-ui, sans-serif; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
svg .axisline { stroke: var(--axis); stroke-width: 1; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px; margin-top: 6px;
          color: var(--ink-2); font-size: 12px; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
                border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.flame { margin-top: 4px; }
.flame .row { display: flex; gap: 2px; height: 30px; margin-bottom: 2px; }
.flame .seg { border-radius: 4px; min-width: 2px; overflow: hidden;
              color: #fff; font-size: 11px; line-height: 30px;
              padding: 0 6px; white-space: nowrap; }
.flame .seg.lite { color: #0b0b0b; }
.heat td.cell { text-align: center; border-radius: 4px; padding: 6px 8px;
                border-bottom: none; }
.heat { border-spacing: 2px; border-collapse: separate; }
.verdict-ok { color: var(--good); }
.verdict-bad { color: var(--bad); font-weight: 600; }
.note { color: var(--muted); font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _series_css() -> str:
    light = "".join(f"  --s{i}: {pair[0]};\n" for i, pair in enumerate(_SERIES))
    dark = "".join(f"    --s{i}: {pair[1]};\n" for i, pair in enumerate(_SERIES))
    return (
        ":root {\n" + _TOKENS_LIGHT + light + "}\n"
        + "@media (prefers-color-scheme: dark) {\n  :root {\n"
        + _TOKENS_DARK + dark + "  }\n}\n"
        + _LAYOUT
        + "".join(
            f"svg .s{i} {{ stroke: var(--s{i}); }} "
            f".fill-s{i} {{ background: var(--s{i}); }}\n"
            for i in range(len(_SERIES))
        )
    )


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

def _ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _line_chart(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 960,
    height: int = 200,
    y_fmt: str = "{:.2f}",
    x_fmt: str = "{:.0f}",
    x_label: str = "simulated ms",
    bands: Sequence[Tuple[str, Sequence[Tuple[float, float, float]]]] = (),
) -> str:
    """Inline-SVG line chart. ``bands`` are (label, [(x, lo, hi)]) areas."""
    pad_l, pad_r, pad_t, pad_b = 52, 12, 8, 26
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    points = [p for _, pts in series for p in pts]
    points += [(x, lo) for _, b in bands for x, lo, _ in b]
    points += [(x, hi) for _, b in bands for x, _, hi in b]
    if not points:
        return ('<p class="note">no samples recorded for this chart</p>')
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0) * 0.1
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    out: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'preserveAspectRatio="xMidYMid meet" role="img">'
    ]
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        out.append(f'<line class="gridline" x1="{pad_l}" y1="{y:.1f}" '
                   f'x2="{width - pad_r}" y2="{y:.1f}"/>')
        out.append(f'<text x="{pad_l - 6}" y="{y + 3.5:.1f}" '
                   f'text-anchor="end">{y_fmt.format(tick)}</text>')
    out.append(f'<line class="axisline" x1="{pad_l}" y1="{pad_t + plot_h}" '
               f'x2="{width - pad_r}" y2="{pad_t + plot_h}"/>')
    out.append(f'<text x="{pad_l}" y="{height - 8}">{x_fmt.format(x_lo)}</text>')
    out.append(f'<text x="{width - pad_r}" y="{height - 8}" text-anchor="end">'
               f'{x_fmt.format(x_hi)} {_esc(x_label)}</text>')
    for index, (label, band) in enumerate(bands):
        if len(band) < 2:
            continue
        upper = [f"{sx(x):.1f},{sy(hi):.1f}" for x, _lo, hi in band]
        lower = [f"{sx(x):.1f},{sy(lo):.1f}" for x, lo, _hi in reversed(band)]
        out.append(f'<polygon points="{" ".join(upper + lower)}" '
                   f'fill="var(--s{index % len(_SERIES)})" opacity="0.18" '
                   f'stroke="none"><title>{_esc(label)}</title></polygon>')
    for index, (label, pts) in enumerate(series):
        if not pts:
            continue
        slot = index % len(_SERIES)
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        out.append(f'<polyline class="s{slot}" points="{coords}" fill="none" '
                   f'stroke-width="2" stroke-linejoin="round"/>')
        stride = max(1, len(pts) // 24)
        for x, y in pts[::stride]:
            out.append(
                f'<circle class="s{slot}" cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                f'r="2.5" fill="var(--surface)" stroke-width="1.5">'
                f'<title>{_esc(label)}: {y_fmt.format(y)} at '
                f'{x_fmt.format(x)}</title></circle>'
            )
    out.append("</svg>")
    legend = "".join(
        f'<span><span class="chip fill-s{i % len(_SERIES)}"></span>'
        f'{_esc(label)}</span>'
        for i, (label, _pts) in enumerate(series)
    )
    if len(series) > 1:
        out.append(f'<div class="legend">{legend}</div>')
    return "".join(out)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def _counter_total(rollup: Dict[str, Any], name: str) -> float:
    return sum(c["value"] for c in rollup.get("counters", ())
               if c["name"] == name)


def _tiles(aggregate: Dict[str, Any]) -> str:
    fleet = aggregate.get("fleet", {})
    profile = fleet.get("profile", {})
    groups = aggregate.get("groups", {})
    fps_values: List[float] = []
    for group in groups.values():
        for meta in group.get("meta", ()):  # one meta dict per run
            try:
                fps_values.append(float(meta.get("fps", "")))
            except (TypeError, ValueError):
                pass
    tiles = [
        ("runs", f"{aggregate.get('runs', 0)}"),
        ("emulator × app cells", f"{len(groups)}"),
        ("frames presented", f"{_counter_total(fleet, 'frames.presented'):.0f}"),
        ("mean FPS", f"{sum(fps_values) / len(fps_values):.1f}"
         if fps_values else "–"),
        ("kernel events", f"{profile.get('events_dispatched', 0):,}"),
        ("simulated time attributed",
         f"{sum(profile.get('subsystem_ms', {}).values()):,.0f} ms"),
    ]
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="l">{_esc(label)}</div></div>'
        for label, v in tiles
    )
    return f'<div class="tiles">{body}</div>'


def _group_table(aggregate: Dict[str, Any]) -> str:
    rows: List[str] = []
    for key, group in sorted(aggregate.get("groups", {}).items()):
        metas = group.get("meta", [])
        fps = [float(m["fps"]) for m in metas if "fps" in m]
        presented = _counter_total(group, "frames.presented")
        dropped = _counter_total(group, "frames.dropped")
        access = [h for h in group.get("histograms", ())
                  if h["name"] == "svm.access_latency_ms"]
        samples = sorted(s for h in access for s in h.get("samples", ()))
        p50 = percentile(samples, 50, default=None)
        p95 = percentile(samples, 95, default=None)
        mispredict = [g for g in group.get("gauges", ())
                      if g["name"] == "prefetch.mispredict_rate"]
        mis = mispredict[0]["mean"] if mispredict and mispredict[0]["count"] else None
        cells = [
            f"<td>{_esc(key)}</td>",
            f"<td>{len(metas)}</td>",
            f"<td>{sum(fps) / len(fps):.1f}</td>" if fps else "<td>–</td>",
            f"<td>{presented:.0f}</td>",
            f"<td>{dropped:.0f}</td>",
            f"<td>{p50:.3f}</td>" if p50 is not None else "<td>–</td>",
            f"<td>{p95:.3f}</td>" if p95 is not None else "<td>–</td>",
            f"<td>{100 * mis:.1f}%</td>" if mis is not None else "<td>–</td>",
        ]
        rows.append(f'<tr>{"".join(cells)}</tr>')
    return (
        '<div class="card"><table><thead><tr>'
        "<th>emulator / app</th><th>runs</th><th>FPS</th>"
        "<th>presented</th><th>dropped</th>"
        "<th>access p50 ms</th><th>access p95 ms</th>"
        "<th>mispredict</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table></div>'
    )


def _flamegraph(aggregate: Dict[str, Any]) -> str:
    """Two-level icicle of simulated time per subsystem (self-profile)."""
    subsystem_ms = aggregate.get("fleet", {}).get("profile", {}) \
                            .get("subsystem_ms", {})
    total = sum(subsystem_ms.values())
    if not total:
        return '<p class="note">no self-profile captured</p>'
    heads: Dict[str, float] = {}
    children: Dict[str, Dict[str, float]] = {}
    for name, ms in subsystem_ms.items():
        head, sep, tail = name.partition(":")
        heads[head] = heads.get(head, 0.0) + ms
        if sep:
            children.setdefault(head, {})[tail] = ms
    ordered = sorted(heads.items(), key=lambda kv: (-kv[1], kv[0]))
    slot_of = {head: i for i, (head, _ms) in enumerate(ordered)}

    def seg(label: str, ms: float, share: float, slot: int) -> str:
        lite = " lite" if slot in (2, 3, 4) else ""  # aqua/yellow/magenta
        return (
            f'<div class="seg fill-s{slot % len(_SERIES)}{lite}" '
            f'style="flex:{share:.6f} 1 0%" '
            f'title="{_esc(label)}: {ms:,.0f} ms ({100 * share:.1f}%)">'
            f"{_esc(label)}</div>"
        )

    top = "".join(
        seg(head, ms, ms / total, slot_of[head]) for head, ms in ordered
    )
    rows = [f'<div class="row">{top}</div>']
    detail_parts: List[str] = []
    for head, ms in ordered:
        kids = children.get(head)
        slot = slot_of[head]
        if kids:
            inner = "".join(
                seg(f"{head}:{tail}", kid_ms, kid_ms / total, slot)
                for tail, kid_ms in sorted(kids.items(),
                                           key=lambda kv: (-kv[1], kv[0]))
            )
        else:
            inner = (f'<div class="seg" style="flex:{ms / total:.6f} 1 0%;'
                     'background:var(--grid);color:var(--muted)"></div>')
        detail_parts.append(
            f'<div style="display:flex;gap:2px;flex:{ms / total:.6f} 1 0%">'
            f"{inner}</div>"
        )
    rows.append(f'<div class="row">{"".join(detail_parts)}</div>')
    return (
        f'<div class="card flame">{"".join(rows)}'
        f'<div class="note">total attributed: {total:,.0f} simulated ms '
        "(top: subsystem; bottom: per-executor detail)</div></div>"
    )


#: Fixed category → color-slot assignment for the budget bars, so the
#: same category is the same color in every cell's bar.
_BUDGET_SLOTS = {
    "coherence_copy": 0,
    "prefetch_penalty": 1,
    "bus_transfer": 2,
    "device_compute": 3,
    "recovery_stall": 7,
    "sched_slack": 6,
}


def _budget_bars(aggregate: Dict[str, Any]) -> str:
    """Per-(emulator × app) stacked latency-budget bars.

    Runs executed with attribution carry their per-(category × device)
    budget totals as ``budget.ms`` counters (see
    :func:`repro.obs.telemetry.derive_run_metrics`), so they arrive here through
    the ordinary telemetry rollup — no bespoke plumbing. Sections render only
    when at least one run attributed.
    """
    groups = aggregate.get("groups", {})
    per_group: Dict[str, Dict[str, float]] = {}
    for key, group in sorted(groups.items()):
        by_category: Dict[str, float] = {}
        for counter in group.get("counters", ()):
            if counter.get("name") != "budget.ms":
                continue
            category = counter.get("labels", {}).get("category", "?")
            by_category[category] = by_category.get(category, 0.0) \
                + float(counter.get("value", 0.0))
        if by_category:
            per_group[key] = by_category
    if not per_group:
        return ""
    rows: List[str] = []
    for key, by_category in per_group.items():
        total = sum(by_category.values())
        if total <= 0:
            continue
        segs = []
        for category, ms in sorted(by_category.items(),
                                   key=lambda kv: (-kv[1], kv[0])):
            slot = _BUDGET_SLOTS.get(category, 4)
            lite = " lite" if slot in (2, 3, 4) else ""
            segs.append(
                f'<div class="seg fill-s{slot}{lite}" '
                f'style="flex:{ms / total:.6f} 1 0%" '
                f'title="{_esc(category)}: {ms:,.0f} ms '
                f'({100 * ms / total:.1f}%)">{_esc(category)}</div>'
            )
        rows.append(f'<div class="note">{_esc(key)} '
                    f"({total:,.0f} ms attributed)</div>"
                    f'<div class="row">{"".join(segs)}</div>')
    legend = "".join(
        f'<span><span class="chip fill-s{slot}"></span>{_esc(category)}</span>'
        for category, slot in _BUDGET_SLOTS.items()
    )
    return (
        "<h2>Latency budget per cell (attribution)</h2>"
        f'<div class="card flame">{"".join(rows)}'
        f'<div class="legend">{legend}</div>'
        '<div class="note">each bar partitions the cell\'s total frame '
        "latency into attribution categories (conservation: cells sum to "
        "measured latency; see <code>python -m repro.experiments explain"
        "</code>)</div></div>"
    )


def _timelines(aggregate: Dict[str, Any]) -> str:
    groups = aggregate.get("groups", {})
    mis_series = []
    for key, group in sorted(groups.items()):
        for gauge in group.get("gauges", ()):
            if gauge["name"] == "prefetch.mispredict_rate" and gauge["timeline"]:
                mis_series.append((key, [(t, 100 * v)
                                         for t, v in gauge["timeline"]]))
    bus_series = []
    fleet = aggregate.get("fleet", {})
    for gauge in fleet.get("gauges", ()):
        if gauge["name"] == "bus.utilization" and gauge["timeline"]:
            link = gauge["labels"].get("link", "?")
            bus_series.append((link, [(t, 100 * v)
                                      for t, v in gauge["timeline"]]))
    out = ["<h2>Prefetch mispredict rate over simulated time</h2>",
           '<div class="card">',
           _line_chart(mis_series, y_fmt="{:.1f}%"),
           "</div>",
           "<h2>Bus utilization over simulated time (all runs)</h2>",
           '<div class="card">',
           _line_chart(bus_series, y_fmt="{:.1f}%"),
           "</div>"]
    return "".join(out)


def _heatmap(aggregate: Dict[str, Any]) -> str:
    matrix = aggregate.get("matrices", {}).get("bus.utilization", {})
    rows, cols = matrix.get("rows", []), matrix.get("cols", [])
    values = matrix.get("values", [])
    if not rows or not cols:
        return '<p class="note">no bus-utilization matrix</p>'
    flat = [v for row in values for v in row if v is not None]
    peak = max(flat) if flat else 1.0
    body: List[str] = []
    for r, row_key in enumerate(rows):
        cells = [f"<td>{_esc(row_key)}</td>"]
        for c in range(len(cols)):
            v = values[r][c] if r < len(values) and c < len(values[r]) else None
            if v is None:
                cells.append('<td class="cell">–</td>')
                continue
            step = min(len(_RAMP) - 1, int((v / peak) * len(_RAMP))) if peak else 0
            ink = "#ffffff" if step >= 4 else "#0b0b0b"
            cells.append(
                f'<td class="cell" style="background:{_RAMP[step]};color:{ink}" '
                f'title="{_esc(row_key)} × {_esc(cols[c])}">'
                f"{100 * v:.1f}%</td>"
            )
        body.append(f'<tr>{"".join(cells)}</tr>')
    head = "".join(f"<th>{_esc(c)}</th>" for c in cols)
    return (
        '<div class="card"><table class="heat"><thead>'
        f"<tr><th>emulator / app</th>{head}</tr></thead>"
        f'<tbody>{"".join(body)}</tbody></table>'
        '<div class="note">mean per-link utilization; darker = busier '
        "(single-hue scale)</div></div>"
    )


def _ewma_series(values: Sequence[float], alpha: float = 0.5
                 ) -> Tuple[List[float], List[float]]:
    """Replayed EWMA levels + running RMS one-step errors per point."""
    levels: List[float] = []
    stds: List[float] = []
    level: Optional[float] = None
    err_sq_sum, err_n = 0.0, 0
    for value in values:
        if level is None:
            level = value
        else:
            error = value - level
            err_sq_sum += error * error
            err_n += 1
            level = alpha * value + (1.0 - alpha) * level
        levels.append(level)
        stds.append((err_sq_sum / err_n) ** 0.5 if err_n else 0.0)
    return levels, stds


def _bench_trend(history: List[Dict[str, Any]],
                 sentinel: Optional[Dict[str, Any]]) -> str:
    out: List[str] = ["<h2>Bench trend with EWMA baseline (α = 0.5)</h2>"]
    if not history:
        out.append('<div class="card"><p class="note">no bench history yet — '
                   "run <code>python -m repro.experiments bench</code> to start "
                   "the trajectory</p></div>")
    else:
        for metric, fmt in (("kernel.speedup", "{:.2f}x"),
                            ("single_run.wall_s", "{:.3f}s"),
                            ("suites.emerging.serial_s", "{:.2f}s")):
            values = [record["metrics"][metric] for record in history
                      if metric in record.get("metrics", {})]
            if not values:
                continue
            levels, stds = _ewma_series(values)
            pts = list(enumerate(values))
            band = [(i, levels[i] - stds[i], levels[i] + stds[i])
                    for i in range(len(levels))]
            chart = _line_chart(
                [(metric, pts), ("EWMA", list(enumerate(levels)))],
                height=160, y_fmt=fmt, x_fmt="{:.0f}", x_label="run #",
                bands=[("EWMA ± std error", band)],
            )
            out.append(f"<h2>{_esc(metric)}</h2>"
                       f'<div class="card">{chart}</div>')
    if sentinel is not None:
        rows = []
        for verdict in sentinel.get("verdicts", ()):
            status = verdict.get("status", "?")
            css = "verdict-bad" if status == "regression" else "verdict-ok"
            baseline = verdict.get("baseline")
            rel = verdict.get("rel_change")
            rows.append(
                "<tr>"
                f"<td>{_esc(verdict.get('metric'))}</td>"
                f"<td>{verdict.get('value'):.4g}</td>"
                + (f"<td>{baseline:.4g}</td>" if baseline is not None
                   else "<td>–</td>")
                + (f"<td>{100 * rel:+.1f}%</td>" if rel is not None
                   else "<td>–</td>")
                + f'<td class="{css}">{_esc(status)}</td></tr>'
            )
        out.append(
            "<h2>Regression sentinel</h2>"
            '<div class="card"><table><thead><tr><th>metric</th><th>value</th>'
            "<th>EWMA baseline</th><th>Δ</th><th>status</th></tr></thead>"
            f'<tbody>{"".join(rows)}</tbody></table>'
            f'<div class="note">history: {sentinel.get("history_len", 0)} runs; '
            f'tolerance ±{100 * sentinel.get("tolerance", 0):.0f}%</div></div>'
        )
    return "".join(out)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def render_dashboard(
    aggregate: Dict[str, Any],
    history: Optional[List[Dict[str, Any]]] = None,
    sentinel: Optional[Dict[str, Any]] = None,
    title: str = "vSoC run telemetry",
) -> str:
    """One self-contained HTML page from the telemetry aggregate."""
    history = history or []
    payload = json.dumps(aggregate, sort_keys=True, separators=(",", ":"))
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_series_css()}</style>",
        "</head><body><main>",
        f"<h1>{_esc(title)}</h1>",
        '<p class="sub">cross-process telemetry rollup — '
        f'{aggregate.get("runs", 0)} runs, '
        f'{len(aggregate.get("groups", {}))} emulator × app cells; '
        "deterministic aggregate (parallel ≡ serial ≡ warm cache)</p>",
        _tiles(aggregate),
        "<h2>Per-cell rollup</h2>",
        _group_table(aggregate),
        "<h2>Where simulated time goes (self-profile flamegraph)</h2>",
        _flamegraph(aggregate),
        _budget_bars(aggregate),
        _timelines(aggregate),
        "<h2>Bus utilization matrix</h2>",
        _heatmap(aggregate),
        _bench_trend(history, sentinel),
        '<script type="application/json" id="fleet-aggregate">',
        payload.replace("</", "<\\/"),
        "</script>",
        "</main></body></html>",
    ]
    return "\n".join(parts)


def write_dashboard(path: str, html_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(html_text)
