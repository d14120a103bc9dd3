"""NetworkModel facade: topology + link timing + faults for one cluster.

This is the object the simulated MPI and the OSU-style benchmark drivers
talk to.  It answers "how long does a message of s bytes from node a to
node b take?" and "what bandwidth would the OSU loop report for this pair?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.machine.cluster import ClusterModel
from repro.network.faults import FaultModel, cte_arm_faults
from repro.network.fattree import FatTreeTopology
from repro.network.linkmodel import LinkModel, OMNIPATH_LINK, TOFUD_LINK
from repro.network.topology import Topology
from repro.network.torus import tofu_d
from repro.util.errors import ConfigurationError


#: Entry cap of the per-model (src, dst, size) timing cache, which serves
#: per-message callers (the DES, the batch pricer); all-pairs sweeps go
#: through :meth:`NetworkModel.p2p_times` and never fill it.  On overflow
#: the cache is dropped wholesale (recomputation is cheap, an eviction
#: policy is not worth the bookkeeping on this hot path).
_P2P_CACHE_MAX = 1 << 18


@dataclass
class NetworkModel:
    """Point-to-point timing for one cluster's fabric.

    ``p2p_time``/``hops`` memoize per (src, dst, size): topology routing
    and the LogGP arithmetic are pure in everything but the fault state,
    so the *pre-fault* base time is cached and the fault factor applied
    live — mutating :attr:`faults` (``degrade_receiver``/...) takes
    effect immediately, while rebinding :attr:`topology` or :attr:`link`
    invalidates the caches.  ``p2p_times`` prices whole pair arrays for
    sweeps, bit-identical to the scalar calls, without touching the memo.
    """

    topology: Topology
    link: LinkModel
    faults: FaultModel = field(default_factory=FaultModel)

    def __post_init__(self) -> None:
        self._base_cache: dict[tuple[int, int, int], float] = {}
        self._hops_cache: dict[tuple[int, int], int] = {}
        self._fault_epoch = 0

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("topology", "link") and getattr(self, "_base_cache", None) is not None:
            self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop memoized hop counts and timings (after in-place edits of
        the topology or link objects; rebinding the attributes does this
        automatically)."""
        self._base_cache.clear()
        self._hops_cache.clear()

    @property
    def fault_epoch(self) -> int:
        """Monotone counter of mid-run fault transitions.

        The p2p memo stores *pre-fault* base times, so a transition does
        not stale it — but any consumer that caches *effective* timings
        (an analytic collective schedule, a campaign-level table) must key
        on this epoch and recompute when it advances.
        """
        return self._fault_epoch

    def apply_fault_transition(self, mutate: Callable[[FaultModel], object]) -> None:
        """Mutate the live fault state and advance :attr:`fault_epoch`.

        This is the official channel for *time-varying* faults (the
        resilience layer's link degradation/recovery and node crashes):
        ``mutate(self.faults)`` runs in place, takes effect on the very
        next ``p2p_time`` call, and the epoch bump invalidates any
        downstream memo of effective timings.
        """
        mutate(self.faults)
        self._fault_epoch += 1

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def p2p_time(self, src: int, dst: int, size: int) -> float:
        """One-way message time between two *nodes* (seconds).

        A degraded endpoint slows both the bandwidth term and the
        latency term (a sick receiver drains its NIC slowly at every
        message size — that is why Fig. 4 shows the weak node even at
        256 B messages).
        """
        cache = self._base_cache
        key = (src, dst, size)
        base = cache.get(key)
        if base is None:
            self.topology.check_node(src)
            self.topology.check_node(dst)
            if size <= 0:
                raise ConfigurationError("message size must be positive")
            hops = self.hops(src, dst)
            base = self.link.p2p_time(size, hops, src, dst)
            if len(cache) >= _P2P_CACHE_MAX:
                cache.clear()
            cache[key] = base
        factor = self.faults.pair_factor(src, dst)
        if factor <= 0.0:
            return math.inf  # dead link or crashed endpoint: unreachable
        return base / factor

    def p2p_times(self, src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
        """:meth:`p2p_time` over broadcast arrays of node ids.

        Bit-identical to the scalar call lane by lane.  The fault factors
        are read from :attr:`faults` at call time (keys outside the
        fabric are ignored); the scalar memo is neither read nor filled.
        """
        src, dst = np.broadcast_arrays(np.asarray(src, dtype=np.int64),
                                       np.asarray(dst, dtype=np.int64))
        hops = self.topology.hops_many(src, dst)
        base = self.link.p2p_times(size, hops, src, dst)
        factor = (self._factor_vector(self.faults.send_factors)[src]
                  * self._factor_vector(self.faults.recv_factors)[dst])
        with np.errstate(divide="ignore"):
            # dead link or crashed endpoint: unreachable
            return np.where(factor <= 0.0, math.inf, base / factor)

    def _factor_vector(self, factors: dict[int, float]) -> np.ndarray:
        out = np.ones(self.n_nodes)
        for node, f in factors.items():
            if 0 <= node < self.n_nodes:
                out[node] = f
        return out

    def sendrecv_time(self, a: int, b: int, size: int) -> float:
        """One MPI_Sendrecv iteration between nodes a and b.

        Both directions proceed concurrently on full-duplex links; the
        iteration completes when the slower direction completes.
        """
        return max(self.p2p_time(a, b, size), self.p2p_time(b, a, size))

    def measured_bandwidth(self, src: int, dst: int, size: int) -> float:
        """Bandwidth the paper's OSU-style loop reports: B = s*N / t_total.

        The loop timestamps N sendrecv iterations; N cancels out of the
        ratio, so one iteration suffices.
        """
        return size / self.p2p_time(src, dst, size)

    def hops(self, a: int, b: int) -> int:
        cache = self._hops_cache
        key = (a, b)
        h = cache.get(key)
        if h is None:
            h = cache[key] = self.topology.hops(a, b)
        return h


def network_for(
    cluster: ClusterModel,
    *,
    n_nodes: int | None = None,
    faults: FaultModel | None = None,
    healthy: bool = False,
) -> NetworkModel:
    """Build the fabric model matching a cluster preset.

    ``healthy=True`` suppresses the documented CTE-Arm weak-receiver fault
    (for ablations); ``faults`` overrides the fault state entirely.
    """
    n = cluster.n_nodes if n_nodes is None else n_nodes
    if n <= 0:
        raise ConfigurationError("network needs at least one node")
    name = cluster.name.lower()
    if "arm" in name or cluster.interconnect_name.lower().startswith("tofu"):
        # The fabric exists at allocation granularity: TofuD unit groups
        # hold 12 nodes, so partitions round up to the next multiple of 12.
        fabric_nodes = max(12, -(-n // 12) * 12)
        topo: Topology = tofu_d(fabric_nodes)
        link = TOFUD_LINK
        default_faults = FaultModel() if healthy else cte_arm_faults()
        weak = max(default_faults.degraded_nodes, default=-1)
        if weak >= n:
            default_faults = FaultModel()  # weak node outside the partition
    else:
        topo = FatTreeTopology(n, nodes_per_leaf=24)
        link = OMNIPATH_LINK
        default_faults = FaultModel()
    return NetworkModel(
        topology=topo,
        link=link,
        faults=default_faults if faults is None else faults,
    )
