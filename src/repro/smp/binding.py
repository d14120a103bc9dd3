"""OpenMP thread-to-core binding policies.

``spread`` distributes threads round-robin across NUMA domains (what the
paper used for STREAM, see Fig. 2's caption); ``close`` packs them into the
first domain before spilling to the next.  An explicit core list supports
arbitrary pinning (the hybrid runs pin each rank's threads inside one CMG).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.machine.node import NodeModel
from repro.util.errors import ConfigurationError


class ThreadBinding(enum.Enum):
    SPREAD = "spread"
    CLOSE = "close"


@dataclass(frozen=True)
class ThreadPlacement:
    """Threads pinned to node-local cores."""

    node: NodeModel
    cores: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cores:
            raise ConfigurationError("placement needs at least one thread")
        seen = set()
        for c in self.cores:
            if not 0 <= c < self.node.cores:
                raise ConfigurationError(f"core {c} out of range")
            if c in seen:
                raise ConfigurationError(f"core {c} pinned twice (SMT is disabled)")
            seen.add(c)

    @property
    def n_threads(self) -> int:
        return len(self.cores)

    def thread_domains(self) -> tuple[int, ...]:
        """NUMA domain index of each thread, in thread order."""
        table = self.node.core_domains
        return tuple(table[c] for c in self.cores)

    def domain_counts(self) -> dict[int, int]:
        """Threads per NUMA domain index, in first-thread order."""
        return dict(Counter(self.thread_domains()))

    def domain_of_thread(self, thread: int) -> int:
        return self.node.core_domains[self.cores[thread]]


def bind_threads(
    node: NodeModel,
    n_threads: int,
    binding: ThreadBinding = ThreadBinding.SPREAD,
    *,
    domain: int | None = None,
) -> ThreadPlacement:
    """Pin ``n_threads`` according to a binding policy.

    ``domain`` restricts placement to one NUMA domain (hybrid runs pin one
    rank's threads inside one CMG/socket).
    """
    if n_threads <= 0:
        raise ConfigurationError("need at least one thread")
    if domain is not None:
        pool = list(node.cores_of_domain(domain))
        if n_threads > len(pool):
            raise ConfigurationError(
                f"domain {domain} has {len(pool)} cores, requested {n_threads}"
            )
        return ThreadPlacement(node, tuple(pool[:n_threads]))
    if n_threads > node.cores:
        raise ConfigurationError(
            f"node has {node.cores} cores, requested {n_threads} (SMT disabled)"
        )
    if binding is ThreadBinding.CLOSE:
        return ThreadPlacement(node, tuple(range(n_threads)))
    # SPREAD: round-robin over domains, filling each domain's cores in order.
    per_domain = [list(node.cores_of_domain(d.index)) for d in node.domains]
    cores: list[int] = []
    cursor = [0] * len(per_domain)
    d = 0
    while len(cores) < n_threads:
        if cursor[d] < len(per_domain[d]):
            cores.append(per_domain[d][cursor[d]])
            cursor[d] += 1
        d = (d + 1) % len(per_domain)
    return ThreadPlacement(node, tuple(cores))
