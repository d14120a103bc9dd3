"""Compute-node model: NUMA domains + on-chip interconnect + NIC attachment."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.machine.cache import CacheHierarchy
from repro.machine.core import CoreModel
from repro.machine.numa import NUMADomain, OnChipInterconnect
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class NodeModel:
    """One compute node.

    A64FX node: 1 socket, 4 CMG domains x 12 cores, 32 GB HBM2.
    MareNostrum 4 node: 2 Skylake sockets x 24 cores, 96 GB DDR4.
    """

    name: str
    sockets: int
    domains: tuple[NUMADomain, ...]
    caches: CacheHierarchy
    interconnect: OnChipInterconnect
    nic_bandwidth: float  # peak injection bandwidth to the cluster network
    nic_latency_s: float = 1.0e-6

    def __post_init__(self) -> None:
        if not self.domains:
            raise ConfigurationError("node needs at least one NUMA domain")
        if self.nic_bandwidth <= 0:
            raise ConfigurationError("NIC bandwidth must be positive")
        indices = [d.index for d in self.domains]
        if indices != list(range(len(self.domains))):
            raise ConfigurationError("NUMA domain indices must be 0..n-1")

    @cached_property
    def cores(self) -> int:
        return sum(d.cores for d in self.domains)

    @cached_property
    def core_domains(self) -> tuple[int, ...]:
        """Domain index of each node-local core, in core order."""
        return tuple(d.index for d in self.domains for _ in range(d.cores))

    @property
    def core_model(self) -> CoreModel:
        """The node's core model (homogeneous nodes on both systems)."""
        return self.domains[0].core_model

    @property
    def memory_bytes(self) -> int:
        return sum(d.memory.capacity_bytes for d in self.domains)

    @property
    def peak_flops(self) -> float:
        """Node double-precision peak (Table I: 3379.2 / 3225.6 GFlop/s)."""
        return sum(d.peak_flops for d in self.domains)

    @property
    def peak_memory_bandwidth(self) -> float:
        """Node peak memory bandwidth (Table I: 1024 / 256 GB/s)."""
        return sum(d.memory.peak_bandwidth for d in self.domains)

    @property
    def sustainable_memory_bandwidth(self) -> float:
        """All-domains-local sustainable bandwidth (the Fig. 3 hybrid roof)."""
        return sum(d.memory.sustainable_bandwidth for d in self.domains)

    def domain_of_core(self, core: int) -> NUMADomain:
        """Map a node-local core id to its NUMA domain."""
        if not 0 <= core < self.cores:
            raise ConfigurationError(f"core {core} out of range 0..{self.cores - 1}")
        return self.domains[self.core_domains[core]]

    def cores_of_domain(self, index: int) -> range:
        """Node-local core ids belonging to domain ``index``."""
        if index not in range(len(self.domains)):
            raise ConfigurationError(f"no NUMA domain with index {index}")
        start = self.core_domains.index(index)
        return range(start, start + self.domains[index].cores)
