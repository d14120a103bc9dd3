"""Memory-page placement policies and the thread->page locality matrix.

``page_locality`` answers: for each thread, what fraction of its data lives
on each NUMA domain's memory?  The answer depends on the OS paging policy:

* ``FIRST_TOUCH`` (Linux demand paging + parallel initialization): each
  thread's chunk is backed by its own domain — fully local.
* ``PREPAGE_INTERLEAVE`` (Fujitsu XOS default on CTE-Arm): pages are
  materialized at allocation, round-robin across domains, so every thread's
  data is spread uniformly — mostly remote.
* ``PREPAGE_MASTER``: all pages land on the allocating (master) thread's
  domain — serial initialization on demand-paged Linux behaves the same.
* ``INTERLEAVE``: explicit round-robin (numactl --interleave); same fractions
  as PREPAGE_INTERLEAVE but chosen deliberately.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.smp.binding import ThreadPlacement


class PagePolicy(enum.Enum):
    FIRST_TOUCH = "first-touch"
    PREPAGE_INTERLEAVE = "prepage-interleave"
    PREPAGE_MASTER = "prepage-master"
    INTERLEAVE = "interleave"


def page_locality(placement: ThreadPlacement, policy: PagePolicy) -> np.ndarray:
    """Locality matrix ``L[t, d]``: fraction of thread t's data on domain d.

    Rows sum to one.  The contention solver consumes this matrix.
    """
    n_threads = placement.n_threads
    n_domains = len(placement.node.domains)
    L = np.zeros((n_threads, n_domains))
    if policy is PagePolicy.FIRST_TOUCH:
        L[np.arange(n_threads), placement.thread_domains()] = 1.0
    elif policy in (PagePolicy.PREPAGE_INTERLEAVE, PagePolicy.INTERLEAVE):
        L[:, :] = 1.0 / n_domains
    elif policy is PagePolicy.PREPAGE_MASTER:
        L[:, placement.domain_of_thread(0)] = 1.0
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(f"unhandled policy {policy}")
    return L


def remote_fraction(placement: ThreadPlacement, policy: PagePolicy) -> float:
    """Aggregate fraction of traffic that crosses the on-chip interconnect."""
    L = page_locality(placement, policy)
    local = L[np.arange(placement.n_threads), placement.thread_domains()]
    return 1.0 - local.cumsum()[-1] / placement.n_threads  # left to right
