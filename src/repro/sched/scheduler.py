"""Node allocation policies over a cluster's topology.

``COMPACT`` allocation walks the torus/fat-tree in index order from a free
region, which on the TofuD mapping yields coordinate-contiguous blocks —
this is what the CTE-Arm scheduler's topology awareness amounts to.
``SCATTER`` draws nodes uniformly at random (the ablation case: what an
unaware scheduler would do to message latency).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.machine.cluster import ClusterModel
from repro.network.topology import Topology
from repro.sched.jobs import Job
from repro.util.errors import AllocationError, OutOfMemoryError
from repro.util.rng import make_rng


class AllocationPolicy(enum.Enum):
    COMPACT = "compact"
    SCATTER = "scatter"


class Scheduler:
    """Allocates cluster nodes to jobs and enforces memory feasibility."""

    def __init__(self, cluster: ClusterModel, topology: Topology | None = None,
                 *, seed: int | None = None):
        self.cluster = cluster
        self.topology = topology
        self._seed = seed
        # Lazy: only SCATTER paths draw randomness, and feasibility-only
        # schedulers (one per sweep point) never should pay for seeding.
        self._rng_state = None
        self._busy: set[int] = set()
        self._failed: set[int] = set()

    @property
    def _rng(self):
        if self._rng_state is None:
            self._rng_state = make_rng(self._seed, "scheduler",
                                       self.cluster.name)
        return self._rng_state

    def _allocatable(self) -> list[int]:
        return [n for n in range(self.cluster.n_nodes)
                if n not in self._busy and n not in self._failed]

    @property
    def free_nodes(self) -> int:
        return len(self._allocatable())

    @property
    def failed_nodes(self) -> set[int]:
        return set(self._failed)

    # -- node health --------------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Take a node out of service (crash / drained by operations).

        A failed node is never handed out by :meth:`allocate`; jobs
        currently holding it must be repaired via :meth:`reallocate`.
        """
        if not 0 <= node < self.cluster.n_nodes:
            raise AllocationError(
                f"node {node} out of range 0..{self.cluster.n_nodes - 1}"
            )
        self._failed.add(node)

    def repair_node(self, node: int) -> None:
        """Return a failed node to service."""
        self._failed.discard(node)

    def reallocate(
        self,
        job: Job,
        nodes: list[int],
        policy: AllocationPolicy = AllocationPolicy.COMPACT,
    ) -> list[int]:
        """Replace an allocation's failed members, keeping the survivors.

        The checkpoint/restart cost of actually moving the job is priced
        separately (:class:`repro.resilience.CheckpointModel`); this method
        only answers *where* the job restarts.  Returns the new node list
        (sorted); raises :class:`AllocationError` when not enough healthy
        nodes remain.
        """
        dead = [n for n in nodes if n in self._failed]
        if not dead:
            return sorted(nodes)
        survivors = [n for n in nodes if n not in self._failed]
        for n in dead:
            self._busy.discard(n)
        free = self._allocatable()
        if len(dead) > len(free):
            raise AllocationError(
                f"{job.name}: {len(dead)} replacement node(s) needed, "
                f"{len(free)} healthy free on {self.cluster.name}"
            )
        if policy is AllocationPolicy.COMPACT:
            replacements = free[: len(dead)]
        else:
            idx = self._rng.choice(len(free), size=len(dead), replace=False)
            replacements = sorted(free[i] for i in idx)
        self._busy.update(replacements)
        return sorted(survivors + replacements)

    def check_memory(self, job: Job) -> None:
        """Raise OutOfMemoryError if the job does not fit per-node memory.

        This is the mechanism behind Table IV's "NP" entries: Alya's
        TestCaseB needs >= 12 A64FX nodes, NEMO's BENCH >= 8, OpenIFS's
        TC0511L91 >= 32, purely from the 32 GB/node HBM capacity.
        """
        capacity = self.cluster.node.memory_bytes
        if job.memory_per_node_bytes > capacity:
            min_nodes = -(-job.total_memory_bytes // capacity)
            raise OutOfMemoryError(
                f"{job.name}: needs {job.memory_per_node_bytes / 1e9:.1f} GB/node "
                f"but {self.cluster.name} nodes have {capacity / 1e9:.0f} GB; "
                f"minimum feasible nodes: {min_nodes}"
            )

    def allocate(
        self, job: Job, policy: AllocationPolicy = AllocationPolicy.COMPACT
    ) -> list[int]:
        """Pick nodes for a job; returns the allocated node indices."""
        self.check_memory(job)
        if job.n_nodes > self.free_nodes:
            raise AllocationError(
                f"{job.name}: {job.n_nodes} nodes requested, "
                f"{self.free_nodes} free on {self.cluster.name}"
            )
        free = self._allocatable()
        if policy is AllocationPolicy.COMPACT:
            chosen = free[: job.n_nodes]
        else:
            idx = self._rng.choice(len(free), size=job.n_nodes, replace=False)
            chosen = sorted(free[i] for i in idx)
        self._busy.update(chosen)
        return chosen

    def release(self, nodes: list[int]) -> None:
        for n in nodes:
            self._busy.discard(n)

    def allocation_diameter(self, nodes: list[int]) -> int:
        """Worst-case hop count inside an allocation (needs a topology)."""
        if self.topology is None:
            raise AllocationError("scheduler has no topology attached")
        if len(nodes) < 2:
            return 0
        ids = np.asarray(nodes)
        return int(self.topology.hops_many(ids[:, None], ids[None, :]).max())

    def min_feasible_nodes(self, job: Job) -> int:
        """Smallest node count at which the job fits in memory."""
        capacity = self.cluster.node.memory_bytes
        return max(1, -(-job.total_memory_bytes // capacity))
