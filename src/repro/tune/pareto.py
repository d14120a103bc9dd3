"""Exact 2-D Pareto frontiers over (time, energy), both minimized.

Point ``i`` is *dominated* by ``j`` when ``t_j <= t_i`` and
``e_j <= e_i`` with at least one inequality strict.  The frontier is the
set of non-dominated points; points that tie a frontier point on BOTH
coordinates are kept (they are alternative configurations with
identical cost, which is exactly what a tuner should surface).

The sweep is O(n log n) with no per-point loop: an O(n) box drops the
points a fastest or a greenest point dominates, the rest are lexsorted
by (time, energy), and a running minimum over equal-time groups gives
the best energy at strictly smaller time.  A group survives iff its
minimum beats that bound (the first group always does), and within it
only the minimum-energy members survive.  NaN has no place in either
order, so it is rejected rather than guessed at.

Chunked/parallel tuning relies on the standard merge property:
``frontier(A ∪ B) ⊆ frontier(A) ∪ frontier(B)`` — a point dominated
within its own chunk is dominated in the union — so per-chunk frontiers
can be computed worker-side and merged exactly with one final pass,
independent of chunking and worker count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dominates", "pareto_indices"]


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when cost pair ``a`` dominates ``b`` (minimizing both)."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def pareto_indices(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points, in ascending index order.

    ``times`` and ``energies`` are equal-length 1-D arrays.  Exact
    duplicates of a frontier coordinate pair are all returned; the
    ascending-index order makes the result deterministic regardless of
    how the inputs were produced (chunk merges preserve global indices).
    A NaN in either array raises :class:`ValueError` naming its index.
    """
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(energies, dtype=np.float64)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError(
            f"times/energies must be equal-length 1-D, got {t.shape} "
            f"and {e.shape}"
        )
    if t.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    fast, green = t.argmin(), e.argmin()     # argmin stops at a NaN
    if math.isnan(t[fast]) or math.isnan(e[green]):
        first = int(np.argmax(np.isnan(t) | np.isnan(e)))
        raise ValueError(f"times/energies must not be NaN, got NaN at "
                         f"index {first}")
    # points with more energy than a fastest point, or more time than a
    # greenest point, are dominated by it
    box = np.flatnonzero((e <= e[fast]) & (t <= t[green]))
    t, e = t[box], e[box]
    order = np.lexsort((e, t))  # primary: time, secondary: energy
    ts, es = t[order], e[order]
    start = np.concatenate(([True], ts[1:] != ts[:-1]))
    gid = np.cumsum(start) - 1                # time group of each point
    gmin = es[start]                          # group minima (e ascending)
    # a group survives iff its minimum beats every group at smaller time;
    # the first has none, so it survives even at +inf energy
    survive = np.concatenate(
        ([True], gmin[1:] < np.minimum.accumulate(gmin[:-1])))
    keep = survive[gid] & (es == gmin[gid])
    return box[np.sort(order[keep])]
