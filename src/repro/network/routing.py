"""Explicit routes and per-link utilization on the torus.

The latency model in :mod:`repro.network.linkmodel` only needs hop counts;
this module computes the actual dimension-order routes so traffic patterns
can be folded onto physical links — which links a pattern saturates, how
unbalanced the load is, and how a scattered allocation inflates it (the
quantitative face of the paper's scheduler-topology discussion).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.network.torus import TorusTopology
from repro.util.errors import ConfigurationError

#: a directed physical link: (node, axis, direction) with direction +/-1.
Link = tuple[int, int, int]


def dimension_order_route(topo: TorusTopology, src: int, dst: int) -> list[Link]:
    """The sequence of directed links a packet traverses, X-first.

    Each ring is traversed the short way (ties broken toward +).
    """
    topo.check_node(src)
    topo.check_node(dst)
    links: list[Link] = []
    coords = list(topo.coords(src))
    target = topo.coords(dst)
    for axis, radix in enumerate(topo.dims):
        while coords[axis] != target[axis]:
            fwd = (target[axis] - coords[axis]) % radix
            step = 1 if fwd <= radix - fwd else -1
            here = topo.node_at(tuple(coords))
            links.append((here, axis, step))
            coords[axis] = (coords[axis] + step) % radix
    return links


def valiant_route(
    topo: TorusTopology, src: int, dst: int, *, seed: int = 0
) -> list[Link]:
    """Valiant (randomized two-phase) route: src -> random waypoint -> dst.

    The classic congestion-spreading alternative to dimension-order
    routing: worst-case patterns lose their hotspots at the cost of up to
    2x the link traffic.  The waypoint is drawn deterministically per
    (src, dst, seed) so analyses are reproducible.
    """
    from repro.util.rng import make_rng

    if src == dst:
        return []
    rng = make_rng(seed, "valiant", src, dst)
    waypoint = int(rng.integers(0, topo.n_nodes))
    return (dimension_order_route(topo, src, waypoint)
            + dimension_order_route(topo, waypoint, dst))


def link_loads(
    topo: TorusTopology,
    flows: list[tuple[int, int, float]],
    *,
    routing: str = "dimension-order",
    seed: int = 0,
) -> Counter:
    """Fold traffic onto links: flows are (src, dst, bytes).

    ``routing`` selects "dimension-order" (default) or "valiant".
    Returns Counter[link] = total bytes crossing that directed link, keyed
    in first-use order (flow by flow, along each route).
    """
    if routing not in ("dimension-order", "valiant"):
        raise ConfigurationError(f"unknown routing {routing!r}")
    flows = list(flows)
    if any(volume < 0 for _, _, volume in flows):
        raise ConfigurationError("flow volume must be non-negative")
    if routing == "dimension-order":
        return _dimension_order_loads(topo, flows)
    loads: Counter = Counter()
    for src, dst, volume in flows:
        for link in valiant_route(topo, src, dst, seed=seed):
            loads[link] += volume
    return loads


def _dimension_order_loads(topo: TorusTopology,
                           flows: list[tuple[int, int, float]]) -> Counter:
    """Dimension-order :func:`link_loads` as array passes.

    Every flow's ring steps are laid out in route order (flow, then axis,
    then step), each step becomes the link id ``(node * ndim + axis) * 2 +
    (step > 0)``, one in-order ``np.bincount`` sums the volumes, and the
    Counter is built in first-occurrence order — the same keys, order and
    float sums as adding each route's links one by one.
    """
    if not flows:
        return Counter()
    src, dst, volume = zip(*flows)
    dims = np.asarray(topo.dims)
    ndim = len(dims)
    cs = np.stack(np.unravel_index(topo.node_array(src), topo.dims), axis=1)
    cd = np.stack(np.unravel_index(topo.node_array(dst), topo.dims), axis=1)
    fwd = (cd - cs) % dims
    up = fwd <= dims - fwd  # the short way round, ties toward +
    counts = np.where(up, fwd, dims - fwd).ravel()  # steps per (flow, axis)
    # one element per traversed link, in route order
    flow = np.repeat(np.arange(len(flows)).repeat(ndim), counts)
    axis = np.repeat(np.tile(np.arange(ndim), len(flows)), counts)
    step = np.where(up.ravel(), 1, -1).repeat(counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    # axes before the moving one are already at the target
    coords = np.where(np.arange(ndim) < axis[:, None], cd[flow], cs[flow])
    coords[np.arange(len(axis)), axis] = (cs[flow, axis] + k * step) % dims[axis]
    ids = (np.ravel_multi_index(coords.T, topo.dims) * ndim + axis) * 2 \
        + (step > 0)
    sums = np.bincount(ids, weights=np.asarray(volume, dtype=float)[flow])
    keys = ids[np.sort(np.unique(ids, return_index=True)[1])]
    node, rest = np.divmod(keys, 2 * ndim)
    links = zip(node.tolist(), (rest // 2).tolist(),
                np.where(rest % 2, 1, -1).tolist())
    return Counter(dict(zip(links, sums[keys].tolist())))


@dataclass(frozen=True)
class CongestionReport:
    """Utilization statistics of one traffic pattern."""

    max_load: float
    mean_load: float
    hot_links: list[Link]
    n_links_used: int
    #: bytes x hops over all links (``sum`` of the loads, in link order).
    total_load: float

    @property
    def imbalance(self) -> float:
        """max/mean load over used links — 1.0 is perfectly balanced."""
        return self.max_load / self.mean_load if self.mean_load else 0.0


def analyze_congestion(
    topo: TorusTopology,
    flows: list[tuple[int, int, float]],
    *,
    hot_fraction: float = 0.95,
) -> CongestionReport:
    """Hotspot analysis of a traffic pattern on the torus."""
    loads = link_loads(topo, flows)
    if not loads:
        return CongestionReport(0.0, 0.0, [], 0, 0.0)
    values = np.array(list(loads.values()), dtype=float)
    max_load = float(values.max())
    hot = [link for link, load in loads.items()
           if load >= hot_fraction * max_load]
    return CongestionReport(
        max_load=max_load,
        mean_load=float(values.mean()),
        hot_links=sorted(hot),
        n_links_used=len(loads),
        total_load=sum(loads.values()),
    )


def alltoall_flows(nodes: list[int], volume_per_pair: float = 1.0
                   ) -> list[tuple[int, int, float]]:
    """The all-to-all traffic pattern among an allocation's nodes."""
    return [(a, b, volume_per_pair) for a in nodes for b in nodes if a != b]


def halo_flows(
    topo: TorusTopology, nodes: list[int], volume_per_face: float = 1.0
) -> list[tuple[int, int, float]]:
    """Nearest-neighbour traffic: each node to its closest allocated peers.

    'Closest' = minimum hop distance within the allocation, up to 6 peers —
    what a stencil application's rank grid induces after placement.
    """
    ids = np.asarray(nodes)
    hops = topo.hops_many(ids[:, None], ids[None, :])
    flows = []
    for row, a in enumerate(nodes):
        peers = np.flatnonzero(ids != a)
        # stable sort by (hops, b)
        closest = peers[np.lexsort((ids[peers], hops[row, peers]))[:6]]
        flows.extend((a, nodes[i], volume_per_face) for i in closest.tolist())
    return flows
