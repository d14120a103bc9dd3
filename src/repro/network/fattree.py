"""Two-level fat-tree topology (MareNostrum 4's OmniPath fabric).

Compute nodes attach to leaf (edge) switches; leaves connect to a spine
layer.  Hop counts: same node 0, same leaf 2 (up to the switch and down),
different leaves 4 (leaf-spine-leaf plus endpoint links).  An
oversubscription factor models tapered uplinks — MareNostrum 4's fabric
tapers, but the paper's single-pair tests never saturate uplinks, so the
default taper only matters for the contention extension experiments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.topology import Topology
from repro.util.errors import ConfigurationError


class FatTreeTopology(Topology):
    """Two-level fat tree with fixed leaf radix."""

    def __init__(
        self,
        n_nodes: int,
        nodes_per_leaf: int = 24,
        oversubscription: float = 1.0,
    ):
        super().__init__(n_nodes)
        if nodes_per_leaf <= 0:
            raise ConfigurationError("nodes_per_leaf must be positive")
        if oversubscription < 1.0:
            raise ConfigurationError("oversubscription factor must be >= 1")
        self.nodes_per_leaf = nodes_per_leaf
        self.oversubscription = oversubscription
        self.n_leaves = math.ceil(n_nodes / nodes_per_leaf)

    @property
    def fabric_key(self) -> tuple:
        return ("fattree", self.n_nodes, self.nodes_per_leaf,
                self.oversubscription)

    def leaf_of(self, node: int) -> int:
        self.check_node(node)
        return node // self.nodes_per_leaf

    def hops(self, a: int, b: int) -> int:
        self.check_node(a)
        self.check_node(b)
        if a == b:
            return 0
        if self.leaf_of(a) == self.leaf_of(b):
            return 2
        return 4

    def hops_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self.node_array(a), self.node_array(b)
        same_leaf = a // self.nodes_per_leaf == b // self.nodes_per_leaf
        return np.where(a == b, 0, np.where(same_leaf, 2, 4))

    def neighbors(self, node: int) -> list[int]:
        """Same-leaf peers (the only single-switch-reachable endpoints)."""
        leaf = self.leaf_of(node)
        lo = leaf * self.nodes_per_leaf
        hi = min(lo + self.nodes_per_leaf, self.n_nodes)
        return [n for n in range(lo, hi) if n != node]

    @property
    def diameter(self) -> int:
        return 2 if self.n_leaves == 1 else 4

    def uplink_share(self, concurrent_flows: int) -> float:
        """Fraction of link bandwidth per flow when ``concurrent_flows``
        leave the same leaf (extension experiments).

        A leaf's aggregate uplink capacity is ``nodes_per_leaf /
        oversubscription`` link-equivalents; a single flow always gets a
        full link, and flows beyond the taper share fairly.
        """
        if concurrent_flows <= 0:
            raise ConfigurationError("flow count must be positive")
        capacity = self.nodes_per_leaf / self.oversubscription
        return min(1.0, capacity / concurrent_flows)
