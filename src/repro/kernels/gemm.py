"""Cache-blocked dense matrix multiply — the kernel inside HPL's update.

``blocked_gemm`` tiles C += A @ B so that a working set of three tiles
fits the chosen cache level; ``choose_block`` derives the tile size from a
:class:`~repro.machine.cache.CacheLevel`.  The trailing-matrix update of
:func:`repro.kernels.lu.blocked_lu` is exactly this operation, and the
HPL performance model's DGEMM-efficiency constants assume an implementation
of this shape.
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.cache import CacheLevel
from repro.util.errors import ConfigurationError


def choose_block(cache: CacheLevel, *, dtype_bytes: int = 8,
                 occupancy: float = 0.8) -> int:
    """Largest square tile with three tiles resident in ``cache``.

    3 * b^2 * dtype_bytes <= occupancy * size  =>  b = sqrt(occ*S / (3*w)).
    Rounded down to a multiple of 8 (SIMD-friendly), minimum 8.
    """
    if not 0 < occupancy <= 1:
        raise ConfigurationError("occupancy must be in (0, 1]")
    b = int(math.sqrt(occupancy * cache.size_bytes / (3.0 * dtype_bytes)))
    return max(8, b - b % 8)


def blocked_gemm(
    a: np.ndarray, b: np.ndarray, *, block: int = 64,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """C (+)= A @ B with square cache tiles.

    Shapes: a is (m, k), b is (k, n); returns c of shape (m, n) (allocated
    zeroed unless ``out`` is given, in which case it accumulates).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError("incompatible GEMM shapes")
    if block <= 0:
        raise ConfigurationError("block size must be positive")
    m, k = a.shape
    _, n = b.shape
    c = np.zeros((m, n), dtype=np.result_type(a, b)) if out is None else out
    if c.shape != (m, n):
        raise ConfigurationError("output shape mismatch")
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        for k0 in range(0, k, block):
            k1 = min(k0 + block, k)
            a_tile = a[i0:i1, k0:k1]
            for j0 in range(0, n, block):
                j1 = min(j0 + block, n)
                c[i0:i1, j0:j1] += a_tile @ b[k0:k1, j0:j1]
    return c


def gemm_flops(m: int, k: int, n: int) -> float:
    """2*m*k*n flops for C += A @ B."""
    return 2.0 * m * k * n


def gemm_traffic_blocked(
    m: int, k: int, n: int, *, block: int, dtype_bytes: int = 8
) -> float:
    """Memory traffic with square-tile blocking: each operand tile is read
    once per tile-triple => total ~ 2*m*k*n/b + m*n."""
    if block <= 0:
        raise ConfigurationError("block size must be positive")
    return dtype_bytes * (2.0 * m * k * n / block + m * n)
