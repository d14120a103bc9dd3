"""The IR program: op stream plus the resource metadata backends need.

A :class:`Program` is what every workload *compiles into once*:
application models translate their per-step :class:`~repro.apps.base.PhaseWork`
descriptions through :func:`compile_phases`; benchmarks build programs
directly (``repro.bench.*.ir_program``).  All three backends consume the
same object — see :mod:`repro.ir.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.ir.ops import Loop, Phase
from repro.machine.cluster import ClusterModel
from repro.sched.jobs import Job
from repro.sched.scheduler import Scheduler
from repro.simmpi.mapping import RankMapping
from repro.toolchain.kernels import KernelClass
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.apps.base import PhaseWork


@dataclass(frozen=True)
class Program:
    """One workload, ready for any backend.

    ``body`` is the op stream (phases and loops); the remaining fields are
    the resource metadata the paper's protocol needs: the rank/thread
    layout, the language (feeds the compiler language factor), the kernel
    classes present (feeds the build model), and the memory footprint
    split into replicated (per-rank) and decomposed (total) parts — the
    Table-IV NP gating inputs.
    """

    name: str
    body: tuple[Phase | Loop, ...]
    steps: int = 1  # per-step normalization of RunResult.seconds_per_step
    ranks_per_node: int = 1
    threads_per_rank: int = 1
    language: str = "c"
    kernels: tuple[KernelClass, ...] = ()
    replicated_bytes_per_rank: int = 0
    distributed_bytes_total: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("program needs a name")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")

    # A Program keys the tape and analysis memos; hashing its whole op
    # tree once, not on every lookup, keeps a memo hit cheap.  The stored
    # hash never crosses pickle: string hashes differ between processes.
    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.body, self.steps, self.ranks_per_node,
                      self.threads_per_rank, self.language, self.kernels,
                      self.replicated_bytes_per_rank,
                      self.distributed_bytes_total))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- structure helpers ---------------------------------------------------

    def iter_phases(self) -> Iterator[tuple[Phase, int]]:
        """Yield ``(phase, multiplicity)`` in execution order, loops
        flattened — the analytic backend's walk."""

        def walk(items: tuple[Phase | Loop, ...],
                 mult: int) -> Iterator[tuple[Phase, int]]:
            for item in items:
                if isinstance(item, Loop):
                    yield from walk(item.body, mult * item.count)
                else:
                    yield item, mult

        yield from walk(self.body, 1)

    def phase_names(self) -> list[str]:
        """Distinct phase names in first-appearance order."""
        seen: list[str] = []
        for phase, _ in self.iter_phases():
            if phase.name not in seen:
                seen.append(phase.name)
        return seen

    # -- resources -----------------------------------------------------------

    def mapping(self, cluster: ClusterModel, n_nodes: int) -> RankMapping:
        return RankMapping(
            cluster,
            n_nodes=n_nodes,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
        )

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

    def check_feasible(self, cluster: ClusterModel, n_nodes: int) -> None:
        """Table-IV NP gating: raise OutOfMemoryError when the per-node
        footprint exceeds node memory."""
        Scheduler(cluster).check_memory(self.job(n_nodes))


def compile_phases(
    name: str,
    phases: Iterable[PhaseWork],
    *,
    steps: int = 1,
    ranks_per_node: int = 1,
    threads_per_rank: int = 1,
    language: str = "c",
    kernels: tuple[KernelClass, ...] = (),
    replicated_bytes_per_rank: int = 0,
    distributed_bytes_total: int = 0,
) -> Program:
    """Compile per-step :class:`~repro.apps.base.PhaseWork` items to IR.

    Each PhaseWork becomes one :class:`Phase`: a roofline
    :class:`~repro.ir.ops.ComputeOp` (kernel/flops/bytes/imbalance), an
    optional :class:`~repro.ir.ops.SerialOp` for the Amdahl fraction, and
    its :class:`~repro.ir.ops.CommOp` stream; the step structure is one
    top-level :class:`Loop`.
    """
    from repro.ir.ops import ComputeOp, SerialOp

    compiled = []
    for ph in phases:
        ops: list = []
        if ph.flops or ph.bytes_moved:
            ops.append(ComputeOp(
                kernel=ph.kernel,
                flops=ph.flops,
                bytes_moved=ph.bytes_moved,
                imbalance=ph.imbalance,
            ))
        if ph.serial_seconds:
            ops.append(SerialOp(ph.serial_seconds))
        ops.extend(ph.comm)
        compiled.append(Phase(name=ph.name, ops=tuple(ops)))
    return Program(
        name=name,
        body=(Loop(steps, tuple(compiled)),),
        steps=steps,
        ranks_per_node=ranks_per_node,
        threads_per_rank=threads_per_rank,
        language=language,
        kernels=kernels,
        replicated_bytes_per_rank=replicated_bytes_per_rank,
        distributed_bytes_total=distributed_bytes_total,
    )
