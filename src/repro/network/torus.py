"""k-ary n-cube torus topologies, including the TofuD 6-D arrangement.

TofuD organizes nodes as a 6-D torus with coordinates (X, Y, Z, a, b, c);
the unit group (a, b, c) = (2, 3, 2) contains 12 nodes, and unit groups tile
a 3-D (X, Y, Z) torus.  Dimension-order routing gives the hop count as the
sum of per-dimension ring distances — this produces the diagonal banding of
Fig. 4: node pairs at equal index offsets recur at equal hop distances.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.topology import Topology
from repro.util.errors import ConfigurationError


class TorusTopology(Topology):
    """An n-dimensional torus with mixed radices.

    Node ids map to coordinates in row-major order (last dimension fastest),
    matching how the CTE-Arm scheduler enumerates nodes rack by rack.
    """

    def __init__(self, dims: tuple[int, ...]):
        if not dims or any(d <= 0 for d in dims):
            raise ConfigurationError(f"invalid torus dimensions {dims}")
        self.dims = tuple(int(d) for d in dims)
        super().__init__(math.prod(self.dims))
        self._strides = []
        stride = 1
        for d in reversed(self.dims):
            self._strides.append(stride)
            stride *= d
        self._strides.reverse()

    def coords(self, node: int) -> tuple[int, ...]:
        """Node id -> torus coordinates."""
        self.check_node(node)
        out = []
        for d, s in zip(self.dims, self._strides):
            out.append((node // s) % d)
        return tuple(out)

    def node_at(self, coords: tuple[int, ...]) -> int:
        """Torus coordinates -> node id."""
        if len(coords) != len(self.dims):
            raise ConfigurationError(
                f"expected {len(self.dims)} coordinates, got {len(coords)}"
            )
        node = 0
        for c, d, s in zip(coords, self.dims, self._strides):
            if not 0 <= c < d:
                raise ConfigurationError(f"coordinate {c} out of range for radix {d}")
            node += c * s
        return node

    @property
    def fabric_key(self) -> tuple:
        return ("torus", self.dims)

    @staticmethod
    def _ring_distance(a: int, b: int, radix: int) -> int:
        d = abs(a - b)
        return min(d, radix - d)

    def hops(self, a: int, b: int) -> int:
        ca, cb = self.coords(a), self.coords(b)
        return sum(
            self._ring_distance(x, y, d) for x, y, d in zip(ca, cb, self.dims)
        )

    def hops_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self.node_array(a), self.node_array(b)
        total = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for d, s in zip(self.dims, self._strides):
            delta = np.abs(a // s % d - b // s % d)
            total += np.minimum(delta, d - delta)
        return total

    def neighbors(self, node: int) -> list[int]:
        c = list(self.coords(node))
        out = []
        for axis, radix in enumerate(self.dims):
            if radix == 1:
                continue
            for step in (-1, 1):
                nc = c.copy()
                nc[axis] = (nc[axis] + step) % radix
                nb = self.node_at(tuple(nc))
                if nb != node and nb not in out:
                    out.append(nb)
        return out

    @property
    def diameter(self) -> int:
        return sum(d // 2 for d in self.dims)


#: TofuD unit-group radices (a, b, c).
TOFU_UNIT = (2, 3, 2)


def tofu_d(n_nodes: int) -> TorusTopology:
    """Build a TofuD-style 6-D torus for ``n_nodes`` endpoints.

    ``n_nodes`` must be a multiple of 12 (the unit-group size); the XYZ
    group grid is chosen as close to cubic as possible.  CTE-Arm's 192
    nodes become (4, 2, 2) x (2, 3, 2).
    """
    unit = math.prod(TOFU_UNIT)
    if n_nodes % unit != 0:
        raise ConfigurationError(
            f"TofuD node count must be a multiple of {unit}, got {n_nodes}"
        )
    groups = n_nodes // unit
    best: tuple[int, int, int] | None = None
    for x in range(1, groups + 1):
        if groups % x:
            continue
        rest = groups // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            cand = tuple(sorted((x, y, z), reverse=True))
            if best is None or _spread(cand) < _spread(best):
                best = cand
    assert best is not None
    return TorusTopology(best + TOFU_UNIT)


def _spread(dims: tuple[int, ...]) -> int:
    return max(dims) - min(dims)
