"""Terminal plots: line plots, heatmaps, histograms.

matplotlib is unavailable offline, so the harness draws each experiment's
line and heatmap figures as ASCII art — enough to see the shapes the paper
reports (scaling slopes, torus diagonal banding in Fig. 4, the bimodal
size x bandwidth map of Fig. 5).  The histogram serves the examples.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

_SHADES = " .:-=+*#%@"


def _axis_limits(values: Sequence[float], log: bool) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if log:
        arr = arr[arr > 0]
        if arr.size == 0:
            raise ValueError("log axis requires positive values")
        lo, hi = float(np.log10(arr.min())), float(np.log10(arr.max()))
    else:
        lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    return lo, hi


def _project(v: float, lo: float, hi: float, n: int, log: bool) -> int:
    x = math.log10(v) if log else v
    frac = (x - lo) / (hi - lo)
    return min(n - 1, max(0, int(round(frac * (n - 1)))))


def ascii_line_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 20,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Plot named (x, y) series on a shared canvas, one marker per series."""
    markers = "ox+*sdv^<>"
    all_x = [p[0] for pts in series.values() for p in pts]
    all_y = [p[1] for pts in series.values() for p in pts]
    if not all_x:
        raise ValueError("nothing to plot")
    xlo, xhi = _axis_limits(all_x, logx)
    ylo, yhi = _axis_limits(all_y, logy)
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            col = _project(x, xlo, xhi, width, logx)
            row = height - 1 - _project(y, ylo, yhi, height, logy)
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    ytop = f"{10**yhi:.3g}" if logy else f"{yhi:.3g}"
    ybot = f"{10**ylo:.3g}" if logy else f"{ylo:.3g}"
    margin = max(len(ytop), len(ybot), len(ylabel)) + 1
    for r, row in enumerate(grid):
        if r == 0:
            label = ytop
        elif r == height - 1:
            label = ybot
        elif r == height // 2 and ylabel:
            label = ylabel
        else:
            label = ""
        lines.append(label.rjust(margin) + "|" + "".join(row))
    lines.append(" " * margin + "+" + "-" * width)
    xleft = f"{10**xlo:.3g}" if logx else f"{xlo:.3g}"
    xright = f"{10**xhi:.3g}" if logx else f"{xhi:.3g}"
    axis = xleft + xlabel.center(width - len(xleft) - len(xright)) + xright
    lines.append(" " * (margin + 1) + axis)
    legend = "  ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)


def ascii_heatmap(
    matrix: np.ndarray,
    *,
    title: str = "",
    max_width: int = 96,
    max_height: int = 48,
) -> str:
    """Render a 2-D array as shaded characters (used for Fig. 4's node map).

    Large matrices are downsampled by block averaging so a 192x192 node map
    fits in a terminal while preserving diagonal banding.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("heatmap requires a 2-D array")
    rh = max(1, math.ceil(m.shape[0] / max_height))
    rw = max(1, math.ceil(m.shape[1] / max_width))
    if rh > 1 or rw > 1:
        H = m.shape[0] // rh * rh
        W = m.shape[1] // rw * rw
        m = m[:H, :W].reshape(H // rh, rh, W // rw, rw).mean(axis=(1, 3))
    ok = np.isfinite(m)
    finite = m[ok]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo or 1.0
    idx = (np.where(ok, m, lo) - lo) / span * (len(_SHADES) - 1)
    chars = np.where(ok, np.array(list(_SHADES))[idx.astype(int)], "?")
    lines = [title] if title else []
    lines.extend("".join(row) for row in chars)
    lines.append(f"scale: '{_SHADES[0]}'={lo:.3g} .. '{_SHADES[-1]}'={hi:.3g}")
    return "\n".join(lines)


def ascii_histogram(
    samples: Sequence[float],
    *,
    bins: int = 24,
    width: int = 48,
    title: str = "",
    logx: bool = False,
) -> str:
    """Horizontal-bar histogram (Fig. 5 per-message-size distributions)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("histogram of empty sample set")
    if logx:
        arr = arr[arr > 0]
        edges = np.logspace(np.log10(arr.min()), np.log10(arr.max()), bins + 1)
    else:
        edges = np.linspace(arr.min(), arr.max(), bins + 1)
    hist, edges = np.histogram(arr, bins=edges)
    top = hist.max() or 1
    lines = [title] if title else []
    for count, left, right in zip(hist, edges[:-1], edges[1:]):
        bar = "#" * int(round(count / top * width))
        lines.append(f"{left:12.4g} - {right:12.4g} | {bar} {count}")
    return "\n".join(lines)
