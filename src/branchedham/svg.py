"""Minimal standalone SVG line charts; no plotting dependency.

Byte-deterministic for fixed input: fixed style, fixed color cycle, fixed
coordinate formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, EmptyDatasetError

__all__ = ["Series", "PlotStyle", "render_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf", "#000000")
_WIDTH, _HEIGHT, _MARGIN = 640, 480, 54
_N_TICKS = 6


@dataclass
class Series:
    name: str
    points: Sequence[tuple[float, float]]
    color: str | None = None


@dataclass
class PlotStyle:
    title: str = ""
    x_label: str = "x"
    y_label: str = "y"
    legend: bool = True


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / (_N_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def render_svg(series: Sequence[Series], style: PlotStyle | None = None) -> str:
    """Standalone SVG document with axes, the polylines and a legend."""
    style = style or PlotStyle()
    series = [s for s in series if len(s.points) > 0]
    if not series:
        raise EmptyDatasetError("render_svg: no points to draw")

    xs = [p[0] for s in series for p in s.points if math.isfinite(p[0])]
    ys = [p[1] for s in series for p in s.points if math.isfinite(p[1])]
    if not xs or not ys:
        raise EmptyDatasetError("render_svg: no finite points to draw")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):  # a tick step must register
        if not 64 * math.ulp(max(abs(lo), abs(hi))) < hi - lo < math.inf:
            raise DomainError(f"render_svg: cannot draw the range [{lo!r}, {hi!r}]")

    w, h, m = _WIDTH, _HEIGHT, _MARGIN

    def sx(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(y):
        return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    if style.title:
        out.append(f'<text x="{w // 2}" y="{m // 2}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{_esc(style.title)}</text>')

    # axes box and ticks
    out.append(f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
               'fill="none" stroke="#888" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{h - m}" x2="{_fmt(px)}" '
                   f'y2="{h - m + 5}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(px)}" y="{h - m + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{m - 5}" y1="{_fmt(py)}" x2="{m}" '
                   f'y2="{_fmt(py)}" stroke="#444"/>')
        out.append(f'<text x="{m - 8}" y="{_fmt(py + 3)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{t:g}</text>')
    out.append(f'<text x="{w // 2}" y="{h - 8}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{_esc(style.x_label)}</text>')
    out.append(f'<text x="14" y="{h // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 {h // 2})">{_esc(style.y_label)}</text>')

    # polylines, split at non-finite points
    for i, s in enumerate(series):
        color = s.color or _COLORS[i % len(_COLORS)]
        chunks: list[list[str]] = [[]]
        for x, y in s.points:
            if math.isfinite(x) and math.isfinite(y):
                chunks[-1].append(f"{_fmt(sx(x))},{_fmt(sy(y))}")
            elif chunks[-1]:
                chunks.append([])
        for chunk in chunks:
            if len(chunk) < 2:
                if len(chunk) == 1:
                    cx, cy = chunk[0].split(",")
                    out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
                continue
            out.append(f'<polyline points="{" ".join(chunk)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.3"/>')

    if style.legend:
        ly = m + 12
        for i, s in enumerate(series):
            color = s.color or _COLORS[i % len(_COLORS)]
            out.append(f'<line x1="{w - m - 110}" y1="{ly}" x2="{w - m - 90}" '
                       f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{w - m - 84}" y="{ly + 4}" '
                       f'font-family="sans-serif" font-size="11">{_esc(s.name)}</text>')
            ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
