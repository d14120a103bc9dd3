"""LogGP-style point-to-point timing and MPI protocol effects.

Time for one message of ``s`` bytes over ``h`` hops:

    t(s, h) = L0 + h * Lh + o(s) + s / B_eff(s)
    B_eff(s) = B_peak * s / (s + s_half)            (saturating ramp)

plus a *protocol factor* on the bandwidth term that models eager/rendezvous
behaviour.  The paper observed (Fig. 5) a **bimodal** bandwidth distribution
for 1 kB-256 kB messages and **high variability** above 1 MB on TofuD,
without explaining either; we reproduce both phenomenologically: mid-size
messages fall deterministically (per pair and size class) into a fast or a
slow protocol path, and large transfers carry hash-seeded jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_seed
from repro.util.errors import ConfigurationError
from repro.util.units import KIB, MIB


def _unit_hash(seed: int, *path: object) -> float:
    """Deterministic uniform [0, 1) from a label path."""
    return (derive_seed(seed, *path) % (2**53)) / float(2**53)


@dataclass(frozen=True)
class ProtocolModel:
    """Eager/rendezvous protocol behaviour of the MPI implementation.

    ``bimodal_lo``/``bimodal_hi`` bound the message-size window where the
    slow path may be chosen; ``slow_factor`` is its bandwidth penalty;
    ``slow_probability`` the fraction of (pair, size-class) combinations
    that land on it.  ``large_jitter`` is the +/- relative spread above
    ``large_threshold``.
    """

    bimodal_lo: int = 1 * KIB
    bimodal_hi: int = 256 * KIB
    slow_factor: float = 0.60
    slow_probability: float = 0.40
    large_threshold: int = 1 * MIB
    large_jitter: float = 0.35
    seed: int = 0x70F0

    def factor(self, src: int, dst: int, size: int) -> float:
        """Deterministic bandwidth multiplier for (pair, size)."""
        if size <= 0:
            raise ConfigurationError("message size must be positive")
        if self.bimodal_lo <= size < self.bimodal_hi:
            u = _unit_hash(self.seed, "mode", src, dst, size.bit_length())
            return self.slow_factor if u < self.slow_probability else 1.0
        if size >= self.large_threshold:
            u = _unit_hash(self.seed, "jitter", src, dst, size.bit_length())
            return 1.0 - self.large_jitter * u
        return 1.0

    def factors(self, src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
        """:meth:`factor` over 1-D pair arrays; per-pair draws only inside
        the bimodal and large-message windows."""
        if self.bimodal_lo <= size < self.bimodal_hi or size >= self.large_threshold:
            return np.array([self.factor(a, b, size)
                             for a, b in zip(src.tolist(), dst.tolist())])
        return np.ones(len(src))


#: Protocol behaviour for Intel MPI on OmniPath: no observed bimodality in
#: the paper's reference machine; keep mild large-message jitter.
OMNIPATH_PROTOCOL = ProtocolModel(
    slow_probability=0.0, large_jitter=0.08, seed=0x0F0A
)


@dataclass(frozen=True)
class LinkModel:
    """Timing parameters of one network technology."""

    name: str
    bandwidth: float  # peak per-direction link/injection bandwidth, B/s
    latency_s: float  # end-to-end zero-hop software+NIC latency
    per_hop_latency_s: float  # router traversal time
    s_half: int = 16 * KIB  # size at which B_eff reaches half of peak
    protocol: ProtocolModel = ProtocolModel()
    #: large messages crossing many hops share links with themselves
    #: (pipelining inefficiency); bandwidth derates by this per extra hop.
    hop_bw_derate: float = 0.015
    #: intra-node (shared-memory) transport
    shm_bandwidth: float = 12.0e9
    shm_latency_s: float = 0.35e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency_s < 0:
            raise ConfigurationError("invalid link model parameters")

    def effective_bandwidth(self, size: int, hops: int, src: int = 0, dst: int = 1) -> float:
        """Bandwidth of the transfer term for one message (B/s)."""
        if size <= 0:
            raise ConfigurationError("message size must be positive")
        ramp = size / (size + self.s_half)
        proto = self.protocol.factor(src, dst, size)
        derate = max(0.5, 1.0 - self.hop_bw_derate * max(0, hops - 1))
        return self.bandwidth * ramp * proto * derate

    def p2p_time(self, size: int, hops: int, src: int = 0, dst: int = 1) -> float:
        """One-way time for one message of ``size`` bytes over ``hops``."""
        if hops == 0:
            return self.shm_latency_s + size / self.shm_bandwidth
        bw = self.effective_bandwidth(size, hops, src, dst)
        return self.latency_s + hops * self.per_hop_latency_s + size / bw

    def p2p_times(self, size: int, hops: np.ndarray, src: np.ndarray,
                  dst: np.ndarray) -> np.ndarray:
        """:meth:`p2p_time` over equal-shape hop and pair arrays, in the
        same expression order (bit-identical lane by lane)."""
        if size <= 0:
            raise ConfigurationError("message size must be positive")
        out = np.empty(hops.shape)
        shm = hops == 0
        out[shm] = self.shm_latency_s + size / self.shm_bandwidth
        fabric = ~shm
        h = hops[fabric]
        ramp = size / (size + self.s_half)
        proto = self.protocol.factors(src[fabric], dst[fabric], size)
        derate = np.maximum(0.5, 1.0 - self.hop_bw_derate * np.maximum(0, h - 1))
        bw = self.bandwidth * ramp * proto * derate
        out[fabric] = self.latency_s + h * self.per_hop_latency_s + size / bw
        return out


#: TofuD: 6.8 GB/s injection (Ajima et al. [7]), sub-microsecond put latency.
TOFUD_LINK = LinkModel(
    name="TofuD",
    bandwidth=6.8e9,
    latency_s=0.9e-6,
    per_hop_latency_s=0.10e-6,
    s_half=16 * KIB,
    protocol=ProtocolModel(),
    shm_bandwidth=24.0e9,  # HBM-backed shared memory transport
    shm_latency_s=0.45e-6,
)

#: OmniPath: 100 Gbit/s = 12.0 GB/s (Table I), fat-tree hop latency ~110 ns.
OMNIPATH_LINK = LinkModel(
    name="OmniPath",
    bandwidth=12.0e9,
    latency_s=1.1e-6,
    per_hop_latency_s=0.11e-6,
    s_half=24 * KIB,
    protocol=OMNIPATH_PROTOCOL,
    shm_bandwidth=16.0e9,
    shm_latency_s=0.30e-6,
)
