"""Topology base class.

A topology knows how many endpoints (compute nodes) it connects and the hop
count between any two of them.  Concrete classes: :class:`TorusTopology`
(TofuD) and :class:`FatTreeTopology` (OmniPath).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.util.errors import ConfigurationError


class Topology(abc.ABC):
    """Abstract interconnect topology over ``n_nodes`` endpoints."""

    def __init__(self, n_nodes: int):
        if n_nodes <= 0:
            raise ConfigurationError("topology needs at least one node")
        self.n_nodes = n_nodes

    def check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(
                f"node {node} out of range 0..{self.n_nodes - 1}"
            )

    def node_array(self, nodes) -> np.ndarray:
        """Node ids as an int64 array, range-checked like :meth:`check_node`."""
        nodes = np.asarray(nodes, dtype=np.int64)
        for node in (nodes.min(), nodes.max()) if nodes.size else ():
            self.check_node(int(node))
        return nodes

    @property
    @abc.abstractmethod
    def fabric_key(self) -> tuple:
        """Content key of everything the hop counts depend on (keys memos
        that outlive the object, so in-place edits change the key)."""

    @abc.abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Switch/router hops on the route from node ``a`` to node ``b``."""

    @abc.abstractmethod
    def hops_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`hops` over broadcast int arrays of node ids."""

    @abc.abstractmethod
    def neighbors(self, node: int) -> list[int]:
        """Directly connected endpoints."""

    @property
    @abc.abstractmethod
    def diameter(self) -> int:
        """Maximum hop count between any pair."""

    def average_hops(self) -> float:
        """Mean hops over all ordered pairs (excluding self-pairs)."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        nodes = np.arange(n)
        # Self-pairs contribute 0 hops; one row at a time bounds memory.
        total = sum(int(self.hops_many(a, nodes).sum())
                    for a in range(n))
        return total / (n * (n - 1))
