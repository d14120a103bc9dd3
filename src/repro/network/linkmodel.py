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

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.units import KIB, MIB


def _unit_draws(seed: int, tag: str, src: np.ndarray | list[int],
                dst: np.ndarray | list[int], size: int) -> np.ndarray:
    """Uniform [0, 1) per (src, dst) lane: ``derive_seed(seed, tag, src,
    dst, size.bit_length()) % 2**53 / 2**53``, bit for bit.  SHA-256
    streams its input, so the constant ``"{seed}/{tag}/"`` prefix is
    hashed once and each lane extends a ``copy()``."""
    prefix = hashlib.sha256(f"{int(seed)}/{tag}/".encode())
    tail = f"/{int(size).bit_length()}"
    src, dst = np.asarray(src).tolist(), np.asarray(dst).tolist()
    lanes = [prefix.copy() for _ in src]
    for h, a, b in zip(lanes, src, dst):
        h.update(f"{a}/{b}{tail}".encode())
    # a digest's first 8 bytes are every 4th u8 of the 32-byte digests
    keys = np.frombuffer(b"".join([h.digest() for h in lanes]), "<u8")[::4]
    return (keys % np.uint64(2**53)).astype(np.float64) / float(2**53)


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

    def _draw(self, src: np.ndarray | list[int], dst: np.ndarray | list[int],
              size: int) -> np.ndarray | None:
        """Per-lane multipliers inside the draw windows, None outside."""
        if size <= 0:
            raise ConfigurationError("message size must be positive")
        if self.bimodal_lo <= size < self.bimodal_hi:
            u = _unit_draws(self.seed, "mode", src, dst, size)
            return np.where(u < self.slow_probability, self.slow_factor, 1.0)
        if size < self.large_threshold:
            return None
        u = _unit_draws(self.seed, "jitter", src, dst, size)
        return 1.0 - self.large_jitter * u

    def factor(self, src: int, dst: int, size: int) -> float:
        """Deterministic bandwidth multiplier for (pair, size)."""
        f = self._draw([src], [dst], size)
        return 1.0 if f is None else float(f[0])

    def factors(self, src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
        """:meth:`factor` over equal-length 1-D pair arrays; per-pair draws
        only inside the bimodal and large-message windows."""
        src, dst = np.asarray(src), np.asarray(dst)
        if src.ndim != 1 or dst.shape != src.shape:
            raise ConfigurationError("pair arrays must be 1-D and of equal "
                                     f"length, got {src.shape} and {dst.shape}")
        f = self._draw(src, dst, size)
        return np.ones(len(src)) if f is None else f


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

    def p2p_time(self, size: int, hops: int, src: int = 0, dst: int = 1) -> float:
        """One-way time for one message of ``size`` bytes over ``hops``."""
        if hops == 0:
            return self.shm_latency_s + size / self.shm_bandwidth
        proto = self.protocol.factor(src, dst, size)  # rejects size <= 0
        ramp = size / (size + self.s_half)
        derate = max(0.5, 1.0 - self.hop_bw_derate * max(0, hops - 1))
        bw = self.bandwidth * ramp * proto * derate
        return self.latency_s + hops * self.per_hop_latency_s + size / bw

    def p2p_times(self, size: int, hops: np.ndarray, src: np.ndarray,
                  dst: np.ndarray) -> np.ndarray:
        """:meth:`p2p_time` over equal-shape hop and pair arrays, in the
        same expression order (bit-identical lane by lane)."""
        fabric = hops != 0
        # factors() rejects size <= 0
        proto = self.protocol.factors(src[fabric], dst[fabric], size)
        out = np.empty(hops.shape)
        out[~fabric] = self.shm_latency_s + size / self.shm_bandwidth
        h = hops[fabric]
        ramp = size / (size + self.s_half)
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
