"""Minimal deterministic SVG line-plot writer (no plotting dependency).

Output is a pure function of the data series: fixed canvas, fixed palette,
fixed float formatting, so re-rendering identical data reproduces identical
bytes.
"""
from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
TICKS = 6


def _ticks(lo: float, hi: float) -> list[float]:
    """Round ticks on [lo, hi], a range ``write_svg`` widens where hi == lo."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_svg(path, series: Sequence[tuple],
              x_label: str, y_label: str, title: str) -> None:
    """series: list of (name, xs, ys) or (name, xs, ys, "dashed").

    Draws axes, polylines, a legend and, unless it is empty, the title.
    """
    xs_all = [x for item in series for x in item[1]]
    ys_all = [y for item in series for y in item[2]]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    # a constant range widens by 1, or by 2^-40 of |lo| from 2^40 on
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, abs(x_lo) * 2.0 ** -40)
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo) * 2.0 ** -40)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T

    def sx(x):
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y):
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="18" font-size="14" '
                   f'text-anchor="middle" font-family="sans-serif">{title}</text>')

    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{py0}" x2="{x:.2f}" y2="{py1}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{py0 + 16}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{px0}" y1="{y:.2f}" x2="{px1}" y2="{y:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 6}" y="{y + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')

    out.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" '
               f'height="{py0 - py1}" fill="none" stroke="black"/>')
    out.append(f'<text x="{(px0 + px1) // 2}" y="{HEIGHT - 8}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif">{x_label}</text>')
    out.append(f'<text x="16" y="{(py0 + py1) // 2}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 16 {(py0 + py1) // 2})">{y_label}</text>')

    for idx, item in enumerate(series):
        name, xs, ys = item[0], item[1], item[2]
        dashed = len(item) > 3 and item[3] == "dashed"
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = MARGIN_T + 14 + 16 * idx
        out.append(f'<line x1="{px1 - 150}" y1="{ly - 4}" x2="{px1 - 126}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{px1 - 120}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{name}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
