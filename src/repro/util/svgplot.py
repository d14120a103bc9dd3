"""Dependency-free SVG charts: line plots, bar charts, heatmaps.

matplotlib is unavailable offline, so the laboratory writes its figures as
hand-built SVG — adequate for the paper's figure types (scaling curves on
log axes, grouped bars with percent labels, the all-pairs bandwidth map).
``repro-lab figures <dir>`` draws each figure experiment's
:class:`~repro.harness.experiment.Figure` record this way
(:mod:`repro.harness.figures_svg`).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.util.errors import ConfigurationError

#: paper convention: CTE-Arm red, MareNostrum 4 blue; extras distinct.
PALETTE = ["#c0392b", "#2471a3", "#e67e22", "#16a085", "#8e44ad", "#2c3e50",
           "#d35400", "#27ae60"]

_MARGIN = dict(left=64, right=24, top=36, bottom=46)


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


class _Canvas:
    def __init__(self, width: int, height: int, title: str):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="sans-serif" font-size="11">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        if title:
            self.text(width / 2, 18, title, anchor="middle", size=13,
                      bold=True)

    def line(self, x1, y1, x2, y2, color="#888", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>')

    def polyline(self, points, color, width=1.6):
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{color}"/>')

    def rect(self, x, y, w, h, color, stroke="none"):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{color}" stroke="{stroke}"/>')

    def text(self, x, y, content, *, anchor="start", size=11, color="#222",
             bold=False, rotate=None):
        weight = ' font-weight="bold"' if bold else ""
        transform = (f' transform="rotate({rotate} {x:.1f} {y:.1f})"'
                     if rotate is not None else "")
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
            f'font-size="{size}" fill="{color}"{weight}{transform}>'
            f'{_esc(content)}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


class _Axis:
    """Maps data coordinates to pixels, linear or log10."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float, log: bool):
        if log:
            if lo <= 0 or hi <= 0:
                raise ConfigurationError("log axis needs positive bounds")
            lo, hi = math.log10(lo), math.log10(hi)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi, self.p0, self.p1, self.log = lo, hi, p0, p1, log

    def __call__(self, v: float) -> float:
        x = math.log10(v) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.p0 + frac * (self.p1 - self.p0)

    def ticks(self, n: int = 5) -> list[float]:
        if self.log:
            lo, hi = math.floor(self.lo), math.ceil(self.hi)
            decades = list(range(int(lo), int(hi) + 1))
            step = max(1, len(decades) // n)
            return [10.0**d for d in decades[::step]]
        span = self.hi - self.lo
        raw = span / max(1, n)
        mag = 10 ** math.floor(math.log10(raw)) if raw > 0 else 1
        step = mag * min((m for m in (1, 2, 5, 10) if m * mag >= raw),
                         default=1)
        first = math.ceil(self.lo / step) * step
        out = []
        v = first
        while v <= self.hi + 1e-12:
            out.append(v)
            v += step
        return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        return f"{v:.0e}"
    return f"{v:g}"


def line_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
    width: int = 560,
    height: int = 380,
) -> str:
    """Multi-series scatter+line chart as an SVG string."""
    if not series or all(not pts for pts in series.values()):
        raise ConfigurationError("nothing to plot")
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    c = _Canvas(width, height, title)
    m = _MARGIN
    ax = _Axis(min(xs), max(xs), m["left"], width - m["right"], logx)
    ay = _Axis(min(ys), max(ys), height - m["bottom"], m["top"], logy)
    # frame + grid
    for tx in ax.ticks():
        px = ax(tx)
        c.line(px, m["top"], px, height - m["bottom"], color="#eee")
        c.text(px, height - m["bottom"] + 14, _fmt(tx), anchor="middle")
    for ty in ay.ticks():
        py = ay(ty)
        c.line(m["left"], py, width - m["right"], py, color="#eee")
        c.text(m["left"] - 6, py + 4, _fmt(ty), anchor="end")
    c.line(m["left"], height - m["bottom"], width - m["right"],
           height - m["bottom"], color="#333")
    c.line(m["left"], m["top"], m["left"], height - m["bottom"], color="#333")
    if xlabel:
        c.text(width / 2, height - 10, xlabel, anchor="middle")
    if ylabel:
        c.text(14, height / 2, ylabel, anchor="middle", rotate=-90)
    # series
    for (name, pts), color in zip(series.items(), PALETTE):
        pixel_pts = sorted((ax(x), ay(y)) for x, y in pts)
        if len(pixel_pts) > 1:
            c.polyline(pixel_pts, color)
        for px, py in pixel_pts:
            c.circle(px, py, 3.0, color)
    # legend
    ly = m["top"] + 4
    for (name, _), color in zip(series.items(), PALETTE):
        c.rect(width - m["right"] - 150, ly - 8, 10, 10, color)
        c.text(width - m["right"] - 136, ly, name)
        ly += 16
    return c.render()


def bar_chart(
    groups: Sequence[str],
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    ylabel: str = "",
    labels: Mapping[str, Sequence[str]] | None = None,
    width: int = 620,
    height: int = 380,
) -> str:
    """Grouped bar chart (Fig. 1 / Fig. 7 style) with optional bar labels."""
    if not groups or not series:
        raise ConfigurationError("nothing to plot")
    for name, vals in series.items():
        if len(vals) != len(groups):
            raise ConfigurationError(f"series {name!r} arity mismatch")
    c = _Canvas(width, height, title)
    m = _MARGIN
    top = max(v for vals in series.values() for v in vals)
    ay = _Axis(0.0, top * 1.15, height - m["bottom"], m["top"], False)
    for ty in ay.ticks():
        py = ay(ty)
        c.line(m["left"], py, width - m["right"], py, color="#eee")
        c.text(m["left"] - 6, py + 4, _fmt(ty), anchor="end")
    plot_w = width - m["left"] - m["right"]
    group_w = plot_w / len(groups)
    bar_w = group_w * 0.8 / len(series)
    for gi, group in enumerate(groups):
        gx = m["left"] + gi * group_w
        for si, ((name, vals), color) in enumerate(
                zip(series.items(), PALETTE)):
            x = gx + group_w * 0.1 + si * bar_w
            y = ay(vals[gi])
            c.rect(x, y, bar_w - 2, (height - m["bottom"]) - y, color)
            if labels and name in labels:
                c.text(x + bar_w / 2, y - 4, labels[name][gi],
                       anchor="middle", size=9)
        c.text(gx + group_w / 2, height - m["bottom"] + 14, group,
               anchor="middle")
    c.line(m["left"], height - m["bottom"], width - m["right"],
           height - m["bottom"], color="#333")
    if ylabel:
        c.text(14, height / 2, ylabel, anchor="middle", rotate=-90)
    ly = m["top"] + 4
    for (name, _), color in zip(series.items(), PALETTE):
        c.rect(width - m["right"] - 150, ly - 8, 10, 10, color)
        c.text(width - m["right"] - 136, ly, name)
        ly += 16
    return c.render()


def heatmap(
    matrix: np.ndarray,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 560,
    height: int = 560,
) -> str:
    """Matrix heatmap (Fig. 4 style); NaN cells rendered light grey."""
    mtx = np.asarray(matrix, dtype=float)
    if mtx.ndim != 2:
        raise ConfigurationError("heatmap requires a 2-D array")
    c = _Canvas(width, height, title)
    m = _MARGIN
    plot_w = width - m["left"] - m["right"]
    plot_h = height - m["top"] - m["bottom"]
    finite = mtx[np.isfinite(mtx)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = (hi - lo) or 1.0
    ch = plot_h / mtx.shape[0]
    cw = plot_w / mtx.shape[1]

    def color(v: float) -> str:
        if not np.isfinite(v):
            return "#dddddd"
        f = (v - lo) / span
        # light green (low) -> dark blue (high), like the paper's map.
        r = int(200 * (1 - f) + 20 * f)
        g = int(230 * (1 - f) + 40 * f)
        b = int(180 * (1 - f) + 140 * f)
        return f"#{r:02x}{g:02x}{b:02x}"

    for i in range(mtx.shape[0]):
        for j in range(mtx.shape[1]):
            c.rect(m["left"] + j * cw, m["top"] + i * ch, cw + 0.5, ch + 0.5,
                   color(mtx[i, j]))
    if xlabel:
        c.text(width / 2, height - 10, xlabel, anchor="middle")
    if ylabel:
        c.text(14, height / 2, ylabel, anchor="middle", rotate=-90)
    c.text(m["left"], height - m["bottom"] + 16,
           f"scale: {_fmt(lo)} (light) .. {_fmt(hi)} (dark)")
    return c.render()
