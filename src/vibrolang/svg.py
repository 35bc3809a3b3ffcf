"""Minimal dependency-free SVG line plots for CLI artifacts."""

from __future__ import annotations

import math

import numpy as np

from .text import point_pairs

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 25, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v):
    if v == 0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        return f"{v:g}"
    return f"{v:.1e}"


def _points(x, y, px, py):
    """Polyline "x,y" pairs to two decimals (`text.point_pairs`)."""
    return point_pairs(px(x), py(y))


def line_plot(curves, xlabel="", ylabel="", logy=False):
    """Render `curves` = [(x, y, label), ...] as an SVG string.

    `logy` plots log10 of the positive ordinates (non-positive points are
    dropped), with decade tick labels.
    """
    plotted = []
    for x, y, label in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
        if len(x):
            plotted.append((x, y, label))
    if not plotted:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    else:
        x_lo = min(float(np.min(x)) for x, _, _ in plotted)
        x_hi = max(float(np.max(x)) for x, _, _ in plotted)
        y_lo = min(float(np.min(y)) for _, y, _ in plotted)
        y_hi = max(float(np.max(y)) for _, y, _ in plotted)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    for tv in _ticks(x_lo, x_hi):
        xp = px(tv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{_H - _MB}" x2="{xp:.1f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{_H - _MB + 18}" '
            f'text-anchor="middle">{_fmt(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        yp = py(tv)
        label = f"1e{tv:g}" if logy else _fmt(tv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{yp:.1f}" x2="{_ML}" y2="{yp:.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{yp + 4:.1f}" '
            f'text-anchor="end">{label}</text>'
        )
    for i, (x, y, label) in enumerate(plotted):
        color = _COLORS[i % len(_COLORS)]
        pts = _points(x, y, px, py)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if label:
            yl = _MT + 16 + 16 * i
            parts.append(
                f'<line x1="{_W - _MR - 110}" y1="{yl - 4}" '
                f'x2="{_W - _MR - 90}" y2="{yl - 4}" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{_W - _MR - 85}" y="{yl}">{label}</text>')
    if xlabel:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
