"""Minimal self-contained SVG line plots; no plotting dependency."""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 28
MARGIN_BOTTOM = 44
WIDTH = 720
HEIGHT = 460


@dataclass(frozen=True)
class Series:
    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("series x/y length mismatch")
        if not self.xs:
            raise ValueError("empty series")


def _ticks(lo: float, hi: float, count: int = 6):
    if hi == lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * abs(step):
        out.append(0.0 if abs(t) < 1e-12 * abs(step) else t)
        t += step
    return out or [lo, hi]


def write_line_chart(path, series, *, title, xlabel, ylabel, hlines, logx):
    """Write series as SVG polylines; hlines is a list of (label, y) asymptotes."""
    if not series:
        raise ValueError("nothing to plot")

    def tx(v):
        if logx:
            if v <= 0:
                raise ValueError("log x-axis requires positive x")
            return math.log10(v)
        return v

    xs_all = [tx(x) for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys] + [y for _, y in hlines]
    ys_all = [y for y in ys_all if math.isfinite(y)]
    if not ys_all:
        raise ValueError("no finite y values to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v):
        return MARGIN_LEFT + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]

    # axes frame
    out.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="black"/>')

    x_tick_vals = _ticks(x_lo, x_hi)
    for t in x_tick_vals:
        x = MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * plot_w
        label = f"{10 ** t:.3g}" if logx else f"{t:.4g}"
        out.append(f'<line x1="{x:.1f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.1f}" '
                   f'y2="{MARGIN_TOP + plot_h + 4}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{MARGIN_TOP + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{MARGIN_LEFT - 4}" y1="{y:.1f}" x2="{MARGIN_LEFT}" '
                   f'y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_LEFT - 7}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{t:.4g}</text>')
    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 8}" '
               f'text-anchor="middle">{xlabel}</text>')
    cy = MARGIN_TOP + plot_h / 2
    out.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {cy:.1f})">{ylabel}</text>')

    for label, y in hlines:
        yy = py(y)
        out.append(f'<line x1="{MARGIN_LEFT}" y1="{yy:.1f}" '
                   f'x2="{MARGIN_LEFT + plot_w}" y2="{yy:.1f}" stroke="gray" '
                   f'stroke-dasharray="6 4"/>')
        out.append(f'<text x="{MARGIN_LEFT + plot_w - 4}" y="{yy - 5:.1f}" '
                   f'text-anchor="end" fill="gray">{label}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)
                       if math.isfinite(y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')
        lx = MARGIN_LEFT + 12
        ly = MARGIN_TOP + 16 + 16 * idx
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{s.name}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
