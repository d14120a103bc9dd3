"""Application workload models: phases, per-step timing, strong scaling.

An application declares, per time step, a list of :class:`PhaseWork` items
(total flops, total main-memory bytes, per-rank communication operations).
``program`` compiles them — once — into the engine-agnostic
:class:`repro.ir.Program`; ``time_step`` evaluates that program under a
pluggable backend (default: the ``analytic`` tape engine):

* per-phase compute follows the roofline
  ``max(flops / aggregate_rate, bytes / aggregate_bandwidth)`` where the
  aggregate rate uses the *toolchain-model* sustained per-core rate of the
  phase's kernel class — this is where the GNU-SVE vectorization deficit
  and the A64FX scalar/irregular penalties enter;
* communication uses the analytic collective costs over the cluster's
  network model;
* an optional serial component models replicated/rank-0 work (Amdahl).

``scaling`` sweeps node counts, marking memory-infeasible points as NP
exactly like Table IV.  ``build_log`` replays the deployment story of
Section V (which compilers were tried, how they failed).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.context import current
from repro.ir.backend import Backend, get_backend
from repro.ir.ops import CommOp
from repro.ir.program import Program, compile_phases
from repro.machine.cluster import ClusterModel
from repro.network.model import NetworkModel
from repro.sched.jobs import Job
from repro.sched.scheduler import Scheduler
from repro.simmpi.mapping import RankMapping
from repro.toolchain.compiler import Binary, CompilerProfile
from repro.toolchain.kernels import KernelClass
from repro.toolchain.profiles import FUJITSU_1_2_26B, default_compiler_for
from repro.util.errors import (
    ConfigurationError,
    OutOfMemoryError,
    ToolchainError,
)
from repro.util.memo import Memo

__all__ = [
    "AppModel",
    "AppPoint",
    "CommOp",
    "PhaseWork",
    "StepTiming",
]


@dataclass(frozen=True)
class PhaseWork:
    """Work of one phase of one time step (totals across all ranks)."""

    name: str
    kernel: KernelClass
    flops: float
    bytes_moved: float = 0.0
    comm: tuple[CommOp, ...] = ()
    serial_seconds: float = 0.0
    imbalance: float = 1.0


@dataclass
class StepTiming:
    """Per-phase breakdown of one time step."""

    cluster: str
    n_nodes: int
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_compute: dict[str, float] = field(default_factory=dict)
    phase_comm: dict[str, float] = field(default_factory=dict)
    #: the two roofline terms behind phase_compute (before imbalance):
    phase_flops_time: dict[str, float] = field(default_factory=dict)
    phase_bytes_time: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.phase_seconds.values())


def _step_timing(result) -> StepTiming:
    """A fresh per-step breakdown copied from a backend
    :class:`~repro.ir.RunResult` (or another :class:`StepTiming`)."""
    return StepTiming(
        cluster=result.cluster,
        n_nodes=result.n_nodes,
        phase_seconds=dict(result.phase_seconds),
        phase_compute=dict(result.phase_compute),
        phase_comm=dict(result.phase_comm),
        phase_flops_time=dict(result.phase_flops_time),
        phase_bytes_time=dict(result.phase_bytes_time),
    )


@dataclass
class AppPoint:
    """One point of a strong-scaling figure."""

    cluster: str
    n_nodes: int
    seconds_per_step: float | None  # None == NP (infeasible)
    timing: StepTiming | None = None

    @property
    def feasible(self) -> bool:
        return self.seconds_per_step is not None


def _resolve_backend(backend: str | Backend | None) -> Backend:
    if backend is None:
        backend = current().backend
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


#: entry bound of the sweep memo (a cold paper suite fills 12).
SWEEP_MEMO_ENTRIES = 4096

#: sweep-level result memo for the analytic (tape-engine) path.  Keyed
#: on everything the evaluation is a pure function of: the app class and
#: instance state, the declared model attributes, a content fingerprint
#: of the cluster and of the binary (so vec_table what-ifs never
#: collide), the run context's pricing model, and the requested node
#: counts.  Stored timings are copied on hit so callers can never mutate
#: a cached entry.
_SWEEP_MEMO: Memo[dict[int, "StepTiming | None"]] = Memo(
    "apps.sweeps", SWEEP_MEMO_ENTRIES)


class AppModel(abc.ABC):
    """Base class for the five application workload models."""

    #: application name as used in Table III/IV.
    name: str = "app"
    #: source language (feeds the compiler language factor).
    language: str = "fortran"
    #: kernel classes the application's code contains.
    kernels: tuple[KernelClass, ...] = ()
    #: MPI ranks per node and OpenMP threads per rank.
    ranks_per_node: int = 48
    threads_per_rank: int = 1
    #: replicated (per-rank) memory and decomposed (total) memory footprint.
    replicated_bytes_per_rank: int = 0
    distributed_bytes_total: int = 0

    # -- deployment ---------------------------------------------------------

    def compilers_tried(self, cluster: ClusterModel) -> list[CompilerProfile]:
        """The toolchains attempted, in order (Fujitsu first on CTE-Arm)."""
        final = default_compiler_for(self.name, cluster.name)
        if "arm" in cluster.name.lower():
            return [FUJITSU_1_2_26B, final]
        return [final]

    def build(self, cluster: ClusterModel) -> Binary:
        """Build with the toolchain the paper ended up using."""
        compiler = default_compiler_for(self.name, cluster.name)
        return compiler.build(self.name, self.kernels, language=self.language)

    def build_log(self, cluster: ClusterModel) -> list[tuple[str, str]]:
        """Replay the build attempts: [(compiler label, outcome), ...]."""
        log = []
        for compiler in self.compilers_tried(cluster):
            try:
                binary = compiler.build(self.name, self.kernels,
                                        language=self.language)
                try:
                    binary.check_runnable()
                    log.append((compiler.label, "ok"))
                    break
                except ToolchainError as exc:
                    log.append((compiler.label, f"runtime failure: {exc}"))
            except ToolchainError as exc:
                log.append((compiler.label, f"compile failure: {exc}"))
        return log

    # -- resources ----------------------------------------------------------

    def job(self, n_nodes: int) -> Job:
        per_node = (
            self.replicated_bytes_per_rank * self.ranks_per_node
            + self.distributed_bytes_total // n_nodes
        )
        return Job(
            name=self.name,
            n_nodes=n_nodes,
            memory_per_node_bytes=per_node,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
        )

    def min_nodes(self, cluster: ClusterModel) -> int:
        """Smallest node count whose per-node footprint fits (NP boundary)."""
        capacity = cluster.node.memory_bytes
        fixed = self.replicated_bytes_per_rank * self.ranks_per_node
        if fixed >= capacity:
            raise OutOfMemoryError(
                f"{self.name}: replicated footprint alone exceeds "
                f"{cluster.name} node memory"
            )
        avail = capacity - fixed
        return max(1, -(-self.distributed_bytes_total // avail))

    def check_feasible(self, cluster: ClusterModel, n_nodes: int) -> None:
        Scheduler(cluster).check_memory(self.job(n_nodes))

    # -- workload -----------------------------------------------------------

    @abc.abstractmethod
    def phases(self, mapping: RankMapping) -> list[PhaseWork]:
        """Per-time-step work items for one configuration."""

    def mapping(self, cluster: ClusterModel, n_nodes: int) -> RankMapping:
        return RankMapping(
            cluster,
            n_nodes=n_nodes,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
        )

    def _scaled_phases(
        self, mapping: RankMapping, work_scale: float
    ) -> list[PhaseWork]:
        """Phases with the global problem scaled by ``work_scale``.

        Volume terms (flops, bytes) scale linearly; per-rank message sizes
        scale with the subdomain surface, ~ work_scale^(2/3) for 3-D
        decompositions; replicated serial work stays constant.  This is the
        weak-scaling transform (the paper only measures strong scaling).
        """
        import dataclasses

        phases = self.phases(mapping)
        if work_scale == 1.0:
            return phases
        if work_scale <= 0:
            raise ConfigurationError("work_scale must be positive")
        surface = work_scale ** (2.0 / 3.0)
        return [
            dataclasses.replace(
                ph,
                flops=ph.flops * work_scale,
                bytes_moved=ph.bytes_moved * work_scale,
                comm=tuple(
                    dataclasses.replace(op, size=max(1, int(op.size * surface)))
                    for op in ph.comm
                ),
            )
            for ph in phases
        ]

    # -- IR compilation -----------------------------------------------------

    def program(
        self,
        mapping: RankMapping,
        *,
        steps: int = 1,
        work_scale: float = 1.0,
    ) -> Program:
        """Compile the workload — once — to the engine-agnostic IR.

        Every backend (analytic, fastcoll, DES) consumes the returned
        :class:`~repro.ir.Program`; this is the single source of truth for
        the application's per-step work.
        """
        return compile_phases(
            self.name,
            self._scaled_phases(mapping, work_scale),
            steps=steps,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
            language=self.language,
            kernels=self.kernels,
            replicated_bytes_per_rank=self.replicated_bytes_per_rank,
            distributed_bytes_total=self.distributed_bytes_total,
        )

    # -- evaluation ---------------------------------------------------------

    def run(
        self,
        cluster: ClusterModel,
        n_nodes: int,
        *,
        backend: str | Backend | None = None,
        steps: int = 1,
        work_scale: float = 1.0,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        **backend_kwargs,
    ):
        """Run the compiled program under a named backend.

        Returns the backend's :class:`~repro.ir.RunResult` (DES backends
        attach the full ``WorldResult``).  ``backend`` defaults to the run
        context's (see :mod:`repro.context`).
        """
        engine = _resolve_backend(backend)
        self.check_feasible(cluster, n_nodes)
        mapping = self.mapping(cluster, n_nodes)
        if binary is None:
            binary = self.build(cluster)
        binary.check_runnable()
        prog = self.program(mapping, steps=steps, work_scale=work_scale)
        return engine.run(
            prog, cluster, n_nodes,
            mapping=mapping, network=network, binary=binary,
            check_memory=False, **backend_kwargs,
        )

    def time_step(
        self,
        cluster: ClusterModel,
        n_nodes: int,
        *,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        work_scale: float = 1.0,
        backend: str | Backend | None = None,
    ) -> StepTiming:
        """Seconds per time step, broken down by phase.

        ``work_scale`` multiplies the global problem (weak-scaling support).
        Raises OutOfMemoryError for NP configurations and ToolchainError if
        the binary cannot run.  The program is compiled with ``steps=1`` and
        priced by ``backend`` (default: the run context's, normally
        analytic); the analytic backend reproduces the historical roofline
        arithmetic bit-for-bit.
        """
        engine = _resolve_backend(backend)
        if work_scale == 1.0:
            self.check_feasible(cluster, n_nodes)
        mapping = self.mapping(cluster, n_nodes)
        if binary is None:
            binary = self.build(cluster)
        binary.check_runnable()
        prog = self.program(mapping, steps=1, work_scale=work_scale)
        result = engine.run(
            prog, cluster, n_nodes,
            mapping=mapping, network=network, binary=binary,
            check_memory=False,
        )
        return _step_timing(result)

    def sweep_timings(
        self,
        cluster: ClusterModel,
        nodes: list[int],
        *,
        backend: str | Backend | None = None,
        binary: Binary | None = None,
    ) -> dict[int, StepTiming | None]:
        """Per-step timings for a whole node-count sweep in one pass.

        Returns ``{n: StepTiming}`` with ``None`` marking NP (memory
        infeasible) points; node counts beyond the cluster size are
        skipped.  Under the (default) analytic engine all feasible points
        are priced by one
        :meth:`~repro.ir.batch.BatchAnalyticBackend.run_batch` call —
        bit-for-bit identical to calling :meth:`time_step` per point —
        and memoized; simulating backends (``des``, ``fastcoll``) run
        :meth:`time_step` per point.
        """
        from repro.ir.batch import (
            BatchAnalyticBackend,
            BatchJob,
            binary_fingerprint,
        )
        engine = _resolve_backend(backend)
        if binary is None:
            binary = self.build(cluster)
        binary.check_runnable()
        analytic = isinstance(engine, BatchAnalyticBackend)
        memo_key = None
        if analytic:
            memo_key = (
                type(self), repr(sorted(vars(self).items())),
                self.name, self.language, self.kernels,
                self.ranks_per_node, self.threads_per_rank,
                self.replicated_bytes_per_rank,
                self.distributed_bytes_total,
                cluster.fingerprint,
                binary_fingerprint(binary),
                current().pricing,
                tuple(n for n in nodes if n <= cluster.n_nodes),
            )
            hit = _SWEEP_MEMO.get(memo_key)
            if hit is not None:
                return {n: None if t is None else _step_timing(t)
                        for n, t in hit.items()}
        out: dict[int, StepTiming | None] = {}
        feasible: list[int] = []
        for n in nodes:
            if n > cluster.n_nodes:
                continue
            try:
                self.check_feasible(cluster, n)
            except OutOfMemoryError:
                out[n] = None
                continue
            feasible.append(n)
        if not analytic:
            for n in feasible:
                out[n] = self.time_step(cluster, n, binary=binary,
                                        backend=engine)
            return out
        jobs = []
        for n in feasible:
            mapping = self.mapping(cluster, n)
            jobs.append(BatchJob(
                self.program(mapping, steps=1), cluster, n,
                mapping=mapping, binary=binary, check_memory=False,
            ))
        for n, result in zip(feasible, engine.run_batch(jobs)):
            out[n] = _step_timing(result)
        _SWEEP_MEMO.put(memo_key, {
            n: None if t is None else _step_timing(t)
            for n, t in out.items()
        })
        return out

    def scaling(
        self, cluster: ClusterModel, nodes: list[int]
    ) -> list[AppPoint]:
        """Strong-scaling sweep; infeasible points are returned as NP."""
        timings = self.sweep_timings(cluster, nodes)
        out = []
        for n in nodes:
            if n > cluster.n_nodes:
                continue
            timing = timings[n]
            out.append(
                AppPoint(
                    cluster=cluster.name,
                    n_nodes=n,
                    seconds_per_step=None if timing is None else timing.total,
                    timing=timing,
                )
            )
        return out

    def weak_scaling(
        self, cluster: ClusterModel, nodes: list[int], *, base_nodes: int | None = None
    ) -> list[AppPoint]:
        """Weak-scaling sweep: the problem grows with the node count.

        At ``base_nodes`` the problem is the paper's; at n nodes it is
        scaled by ``n / base_nodes``, so per-node work is constant and a
        perfectly scaling code holds a flat time per step.
        """
        base = base_nodes if base_nodes is not None else max(
            1, self.min_nodes(cluster))
        binary = self.build(cluster)
        out = []
        for n in nodes:
            if n > cluster.n_nodes or n < base:
                continue
            timing = self.time_step(cluster, n, binary=binary,
                                    work_scale=n / base)
            out.append(AppPoint(cluster=cluster.name, n_nodes=n,
                                seconds_per_step=timing.total, timing=timing))
        return out

    def nodes_to_match(
        self, cluster_a: ClusterModel, cluster_b: ClusterModel, n_nodes_b: int,
        *, max_nodes: int | None = None,
    ) -> int | None:
        """Smallest node count on ``cluster_a`` at least as fast as
        ``n_nodes_b`` nodes of ``cluster_b`` (the paper's '44 A64FX nodes
        match 12 MareNostrum 4 nodes' comparisons)."""
        target = self.time_step(cluster_b, n_nodes_b).total
        limit = max_nodes if max_nodes is not None else cluster_a.n_nodes
        lo = self.min_nodes(cluster_a)
        timings = self.sweep_timings(cluster_a, list(range(lo, limit + 1)))
        for n in range(lo, limit + 1):
            timing = timings.get(n)
            if timing is not None and timing.total <= target:
                return n
        return None
