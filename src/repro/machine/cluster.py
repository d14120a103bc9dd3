"""Cluster model: N identical nodes plus an interconnect descriptor.

The network *behaviour* lives in :mod:`repro.network`; this class holds the
inventory (Table I's bottom rows) and convenience aggregates used by the
LINPACK/HPCG drivers (cluster peak, total memory).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.machine.node import NodeModel
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ClusterModel:
    """A production cluster as evaluated in the paper."""

    name: str
    integrator: str
    node: NodeModel
    n_nodes: int
    interconnect_name: str
    plot_color: str = "black"  # paper: CTE-Arm red, MareNostrum 4 blue
    metadata: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError("cluster needs at least one node")

    @cached_property
    def fingerprint(self) -> bytes:
        """Digest of the frozen tree's repr, once per object (batch keys)."""
        return hashlib.sha256(repr(self).encode()).digest()

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.node.cores

    @property
    def peak_flops(self) -> float:
        """Whole-cluster double-precision peak."""
        return self.n_nodes * self.node.peak_flops

    def peak_flops_nodes(self, n_nodes: int) -> float:
        """Peak of an ``n_nodes`` partition (Fig. 6's dashed peak lines)."""
        self._check_nodes(n_nodes)
        return n_nodes * self.node.peak_flops

    def total_memory_bytes(self, n_nodes: int | None = None) -> int:
        n = self.n_nodes if n_nodes is None else n_nodes
        self._check_nodes(n)
        return n * self.node.memory_bytes

    def _check_nodes(self, n_nodes: int) -> None:
        if not 1 <= n_nodes <= self.n_nodes:
            raise ConfigurationError(
                f"{self.name} has {self.n_nodes} nodes; requested {n_nodes}"
            )
