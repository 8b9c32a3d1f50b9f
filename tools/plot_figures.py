#!/usr/bin/env python3
"""Render the benchmark CSVs (bench --csv PREFIX) and the schema-v4
flight-recorder timeseries (bench --timeline S --json PATH) as standalone
SVG line charts -- no third-party dependencies, just the Python standard
library.

Usage:
    ./build/bench/referbench fig04 --csv out/fig
    tools/plot_figures.py out/fig_fig04.csv          # -> out/fig_fig04.svg
    tools/plot_figures.py out/*.csv

    ./build/bench/referbench fig_app --timeline 5 --json out/app.json
    tools/plot_figures.py out/app.json   # -> out/app_timeline_<metric>.svg
"""

import csv
import json
import math
import pathlib
import sys

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 30, 50
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def nice_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step / 2:
        ticks.append(t)
        t += step
    return ticks


def fmt(v):
    if abs(v) >= 1e6:
        return f"{v/1e6:g}M"
    if abs(v) >= 1e3:
        return f"{v/1e3:g}k"
    return f"{v:g}"


def plot(path: pathlib.Path) -> pathlib.Path:
    with open(path) as f:
        rows = list(csv.reader(f))
    header, data = rows[0], rows[1:]
    x_label = header[0]
    series_names = [h[:-5] for h in header[1:] if h.endswith("_mean")]
    xs = [float(r[0]) for r in data]
    series = {}
    for i, name in enumerate(series_names):
        col = 1 + 2 * i
        series[name] = (
            [float(r[col]) for r in data],       # mean
            [float(r[col + 1]) for r in data],   # ci
        )

    all_vals = [m + c for vals in series.values() for m, c in zip(*vals)]
    all_vals += [max(0.0, m - c) for vals in series.values()
                 for m, c in zip(*vals)]
    y_lo, y_hi = 0.0, max(all_vals) * 1.05 or 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (
            WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # Axes + grid.
    for t in nice_ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" '
                   f'x2="{WIDTH-MARGIN_R}" y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{MARGIN_L-6}" y="{y+4:.1f}" '
                   f'text-anchor="end">{fmt(t)}</text>')
    for t in nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-9 or t > x_hi + 1e-9:
            continue
        x = sx(t)
        out.append(f'<text x="{x:.1f}" y="{HEIGHT-MARGIN_B+18}" '
                   f'text-anchor="middle">{fmt(t)}</text>')
    out.append(f'<line x1="{MARGIN_L}" y1="{sy(y_lo):.1f}" '
               f'x2="{WIDTH-MARGIN_R}" y2="{sy(y_lo):.1f}" stroke="#333"/>')
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" '
               f'x2="{MARGIN_L}" y2="{sy(y_lo):.1f}" stroke="#333"/>')
    out.append(f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" '
               f'y="{HEIGHT-10}" text-anchor="middle">{x_label}</text>')

    # Series: CI band (vertical whiskers) + line + markers + legend.
    for i, (name, (means, cis)) in enumerate(series.items()):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.1f},{sy(m):.1f}" for x, m in zip(xs, means))
        for x, m, c in zip(xs, means, cis):
            if c > 0:
                out.append(
                    f'<line x1="{sx(x):.1f}" y1="{sy(max(y_lo, m-c)):.1f}" '
                    f'x2="{sx(x):.1f}" y2="{sy(min(y_hi, m+c)):.1f}" '
                    f'stroke="{color}" stroke-opacity="0.4" '
                    f'stroke-width="3"/>')
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="2"/>')
        for x, m in zip(xs, means):
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(m):.1f}" r="3.5" '
                       f'fill="{color}"/>')
        ly = MARGIN_T + 16 + i * 18
        lx = WIDTH - MARGIN_R + 12
        out.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx+28}" y="{ly}">{name}</text>')

    out.append("</svg>")
    dest = path.with_suffix(".svg")
    dest.write_text("\n".join(out))
    return dest


# Per-bucket series plotted from a results document's timeseries, with
# y-axis labels.
TIMESERIES_METRICS = [
    ("qos_kbps", "QoS throughput (kbit/s)"),
    ("delivery_ratio", "delivery ratio"),
    ("queue_wait_mean_us", "mean MAC queue wait (us)"),
    ("channel_busy_fraction", "channel busy fraction"),
    ("energy_rate_w", "energy drain rate (W)"),
]
MAX_TIMELINE_SERIES = 8


def render_lines(dest: pathlib.Path, x_label, y_label, series):
    """Plain multi-line chart: series = {name: (xs, ys)}."""
    all_y = [y for xs, ys in series.values() for y in ys]
    all_x = [x for xs, ys in series.values() for x in xs]
    y_lo, y_hi = 0.0, (max(all_y) * 1.05 if all_y and max(all_y) > 0 else 1.0)
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (
            WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for t in nice_ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" '
                   f'x2="{WIDTH-MARGIN_R}" y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{MARGIN_L-6}" y="{y+4:.1f}" '
                   f'text-anchor="end">{fmt(t)}</text>')
    for t in nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-9 or t > x_hi + 1e-9:
            continue
        out.append(f'<text x="{sx(t):.1f}" y="{HEIGHT-MARGIN_B+18}" '
                   f'text-anchor="middle">{fmt(t)}</text>')
    out.append(f'<line x1="{MARGIN_L}" y1="{sy(y_lo):.1f}" '
               f'x2="{WIDTH-MARGIN_R}" y2="{sy(y_lo):.1f}" stroke="#333"/>')
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" '
               f'x2="{MARGIN_L}" y2="{sy(y_lo):.1f}" stroke="#333"/>')
    out.append(f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" '
               f'y="{HEIGHT-10}" text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="16" y="{MARGIN_T-10}">{y_label}</text>')

    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="2"/>')
        ly = MARGIN_T + 16 + i * 18
        lx = WIDTH - MARGIN_R + 12
        out.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx+28}" y="{ly}">{name}</text>')

    out.append("</svg>")
    dest.write_text("\n".join(out))
    return dest


def plot_timeseries(path: pathlib.Path):
    """One SVG per TIMESERIES_METRICS entry from a results JSON (the
    per-job `timeseries` section, schema v4 and later)."""
    doc = json.loads(path.read_text())
    jobs = doc.get("jobs_run", [])
    outs, skipped = [], 0
    for key, y_label in TIMESERIES_METRICS:
        series = {}
        for job in jobs:
            if job.get("rep", 0) != 0:
                continue  # one rep per (system, x): reps are re-seeds
            ts = job.get("metrics", {}).get("timeseries")
            if ts is None or key not in ts:
                continue
            ys, bucket, t0 = ts[key], ts["bucket_s"], ts["start_s"]
            if not ys or not bucket:
                continue
            if len(series) >= MAX_TIMELINE_SERIES:
                skipped += 1
                continue
            xs = [t0 + (i + 1) * bucket for i in range(len(ys))]
            series[f'{job.get("system", "?")} x={job.get("x", 0):g}'] = (
                xs, ys)
        if series:
            outs.append(render_lines(
                path.with_name(f"{path.stem}_timeline_{key}.svg"),
                "t (s)", y_label, series))
    if skipped:
        print(f"  (legend capped at {MAX_TIMELINE_SERIES} series per "
              f"chart; {skipped} job/metric lines dropped)")
    return outs


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    for arg in argv[1:]:
        path = pathlib.Path(arg)
        if not path.exists():
            print(f"skip (missing): {path}")
            continue
        if path.suffix == ".json":
            dests = plot_timeseries(path)
            if dests:
                for dest in dests:
                    print(f"{path} -> {dest}")
            else:
                print(f"skip (no timeseries in document): {path}")
            continue
        print(f"{path} -> {plot(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
