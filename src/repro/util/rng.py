"""Deterministic random-number management.

Every stochastic component of the laboratory (network noise, fault injection,
workload generators) takes an explicit seed and derives child seeds by
hashing a stable string path, so that experiments are exactly reproducible
and independent components draw from independent streams.
"""

from __future__ import annotations

import hashlib

from numpy.random import Generator, default_rng

DEFAULT_SEED = 0xA64F


def derive_seed(base: int, *path: object) -> int:
    """Derive a child seed from ``base`` and a path of labels.

    Uses SHA-256 over the textual path so the mapping is stable across Python
    versions and processes (unlike ``hash()``).
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode())
    for item in path:
        h.update(b"/")
        h.update(str(item).encode())
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int | None = None, *path: object) -> Generator:
    """Create a numpy Generator from a base seed and an optional label path."""
    base = DEFAULT_SEED if seed is None else int(seed)
    if path:
        base = derive_seed(base, *path)
    return default_rng(base)
