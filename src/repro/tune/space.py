"""Configuration-space enumeration for the auto-tuner.

A *template* is everything that changes the compiled tape or its
prepared constants: (compiler profile, vectorization mode, ranks per
node, threads per rank).  The templates of one placement share a tape
structure, so the engine prices them together, stacked on the last axis
of one override grid per pricing model.  The remaining axes —
optimization flags, page policy, and the robustness-scenario grid —
only scale existing tape quantities, so they become
:data:`repro.ir.batch.OVERRIDE_KEYS` columns, each its own broadcast
axis of that grid, instead of multiplying tape compiles:

* ``rate_scale``   <- flag choice (compute-rate factor per flag set);
* ``bandwidth_scale`` <- page-policy bandwidth factor (the measured
  :func:`repro.smp.node_stream_bandwidth` ratio against first-touch)
  times the scenario bandwidth jitter;
* ``comm_scale``   <- scenario communication jitter.

Configurations that cannot exist are *excluded with a reason* rather
than silently skipped: wrong-ISA toolchains, documented compile
failures (Table III), runtime-poisoned binaries, and placements whose
per-node footprint exceeds node memory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.apps import get_app
from repro.apps.base import AppModel
from repro.machine.cluster import ClusterModel
from repro.simmpi.mapping import RankMapping
from repro.smp import PagePolicy, node_stream_bandwidth
from repro.toolchain.compiler import (
    Binary,
    CompilerProfile,
    VectorizationResult,
)
from repro.toolchain.profiles import COMPILERS
from repro.util.errors import ConfigurationError, ToolchainError

__all__ = [
    "FLAG_CHOICES",
    "PAGE_POLICIES",
    "ConfigTemplate",
    "Exclusion",
    "FlagChoice",
    "TuneSpace",
    "build_space",
    "divisors",
    "placement_grid",
    "scenario_grid",
]


@dataclass(frozen=True)
class FlagChoice:
    """One optimization-flag set and its compute-rate factor.

    ``rate_scale`` multiplies the sustained compute rate relative to the
    ``-O3`` baseline the vectorization tables are calibrated against
    (it feeds the ``rate_scale`` override column, which *divides* the
    flops time).  The values are modeling assumptions, not measurements:
    ``-O2`` loses some unrolling/scheduling headroom, aggressive
    unrolling buys a few percent on these loop-dominated codes.
    """

    name: str
    rate_scale: float


#: Flag sets enumerated per compiler; ``-O3`` is the calibration baseline.
FLAG_CHOICES: tuple[FlagChoice, ...] = (
    FlagChoice("-O2", 0.88),
    FlagChoice("-O3", 1.0),
    FlagChoice("-O3 -funroll-loops", 1.03),
)

#: Page policies enumerated per placement, in definition order.
PAGE_POLICIES: tuple[PagePolicy, ...] = tuple(PagePolicy)

#: Vectorization modes: the profile's calibrated table, or forced-scalar
#: (``-fno-vectorize`` / ``-Knosimd``), which quantifies what SVE buys.
VEC_MODES: tuple[str, ...] = ("auto", "disabled")


@dataclass(frozen=True)
class Exclusion:
    """A configuration rejected at enumeration time, with the reason."""

    compiler: str
    vectorization: str
    ranks_per_node: int
    threads_per_rank: int
    reason: str


@dataclass(frozen=True)
class ConfigTemplate:
    """One (compiler, vectorization, placement) cell of the space.

    Everything needed to price the cell is prebuilt: the rank mapping,
    the binary (built under the — possibly scalar-forced — profile), and
    the per-page-policy bandwidth factors.  ``index`` is the template's
    position in :attr:`TuneSpace.templates` and anchors the global point
    numbering.
    """

    index: int
    compiler: str
    vectorization: str
    ranks_per_node: int
    threads_per_rank: int
    mapping: RankMapping
    binary: Binary
    page_factors: tuple[float, ...]


@dataclass(frozen=True)
class TuneSpace:
    """The enumerated space: viable templates plus recorded exclusions."""

    app: str
    cluster_name: str
    n_nodes: int
    templates: tuple[ConfigTemplate, ...]
    excluded: tuple[Exclusion, ...]
    flags: tuple[FlagChoice, ...]
    policies: tuple[PagePolicy, ...]
    comm_grid: tuple[float, ...]
    bandwidth_grid: tuple[float, ...]
    pricing: tuple[str, ...]

    @property
    def points_per_template(self) -> int:
        """Points one template contributes per pricing model."""
        return (len(self.flags) * len(self.policies)
                * len(self.comm_grid) * len(self.bandwidth_grid))

    @property
    def n_points(self) -> int:
        """Total points across templates and pricing models."""
        return (len(self.templates) * len(self.pricing)
                * self.points_per_template)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of ``n`` in increasing order."""
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def placement_grid(cores: int) -> tuple[tuple[int, int], ...]:
    """All (ranks_per_node, threads_per_rank) pairs that tile a node.

    Ranks per node ranges over the divisors of the core count (the
    mapping layer carves the node into ``cores // ranks_per_node``-core
    slots, so the rank count must divide); threads per rank over the
    divisors of the per-rank slot, so every pair satisfies
    ``ranks * threads <= cores`` by construction.
    """
    grid: list[tuple[int, int]] = []
    for rpn in divisors(cores):
        for tpr in divisors(cores // rpn):
            grid.append((rpn, tpr))
    return tuple(grid)


def scenario_grid(n: int, spread: float) -> tuple[float, ...]:
    """``n`` evenly spaced factors spanning ``[1 - spread, 1 + spread]``.

    ``n == 1`` degenerates to the nominal ``(1.0,)`` point.  The grid is
    a deterministic linspace (no RNG anywhere in the tuner), so reruns
    and golden tests see identical point sets.
    """
    if n < 1:
        raise ValueError(f"scenario count must be positive, got {n}")
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"scenario spread must be in [0, 1), got {spread}")
    if n == 1 or spread == 0.0:
        return tuple(1.0 for _ in range(n))
    lo, hi = 1.0 - spread, 1.0 + spread
    return tuple(lo + i * (hi - lo) / (n - 1) for i in range(n))


def _scalar_profile(profile: CompilerProfile) -> CompilerProfile:
    """The profile with vectorization forced off (every kernel scalar)."""
    table = {
        kernel: VectorizationResult(0.0, entry.vector_efficiency)
        for kernel, entry in profile.vec_table.items()
    }
    return dataclasses.replace(profile, vec_table=table)


def _page_factors(cluster: ClusterModel, rpn: int, tpr: int) -> tuple[float, ...]:
    """Per-policy bandwidth factor relative to first-touch.

    The factor multiplies the ``bandwidth_scale`` override: the measured
    :func:`repro.smp.node_stream_bandwidth` under the policy over the
    first-touch baseline, capped at 1.0 (first-touch is the calibration
    anchor of the machine model's sustained bandwidth).

    Placements the contention model cannot bind — a rank whose threads
    span NUMA domains, e.g. the pure-OpenMP 1x48 mode — are priced
    page-policy-neutral (all factors 1.0) rather than excluded: the
    mapping layer still prices them, the per-policy bandwidth split is
    just not modeled there.
    """
    node = cluster.node
    try:
        base = node_stream_bandwidth(node, ranks=rpn, threads_per_rank=tpr,
                                     policy=PagePolicy.FIRST_TOUCH)
    except ConfigurationError:
        return tuple(1.0 for _ in PAGE_POLICIES)
    factors: list[float] = []
    for policy in PAGE_POLICIES:
        bw = (base if policy is PagePolicy.FIRST_TOUCH
              else node_stream_bandwidth(node, ranks=rpn,
                                         threads_per_rank=tpr, policy=policy))
        factors.append(min(1.0, bw / base))
    return tuple(factors)


@dataclass
class _SpaceBuilder:
    """Accumulates templates/exclusions while enumerating."""

    templates: list[ConfigTemplate] = field(default_factory=list)
    excluded: list[Exclusion] = field(default_factory=list)


def build_space(
    app: AppModel | str,
    cluster: ClusterModel,
    n_nodes: int,
    *,
    scenarios: int = 2,
    scenario_spread: float = 0.15,
    pricing: tuple[str, ...] = ("roofline", "ecm"),
) -> TuneSpace:
    """Enumerate every viable configuration template for one app/cluster.

    Eligible compilers target the cluster's vector ISA; each is tried in
    both vectorization modes, and the documented deployment failures
    (compile errors/hangs, runtime-poisoned binaries — paper Section V)
    become :class:`Exclusion` records.  Placements enumerate
    :func:`placement_grid` and are dropped — again with a reason — when
    the application's per-node footprint (replicated bytes x ranks plus
    the distributed share) exceeds node memory.
    """
    model = get_app(app) if isinstance(app, str) else app
    isa = cluster.node.core_model.vector_isa.name
    acc = _SpaceBuilder()
    placements = placement_grid(cluster.node.cores)
    node_mem = cluster.node.memory_bytes
    footprint_share = model.distributed_bytes_total // n_nodes
    # page factors depend on the placement alone: one contention-model
    # pass per placement, shared by every compiler/vectorization cell
    factors: dict[tuple[int, int], tuple[float, ...]] = {}
    for label, profile in sorted(COMPILERS.items()):
        if profile.target_isa != isa:
            acc.excluded.append(Exclusion(
                label, "*", 0, 0,
                f"targets {profile.target_isa}, cluster ISA is {isa}"))
            continue
        for vec in VEC_MODES:
            build_profile = (profile if vec == "auto"
                             else _scalar_profile(profile))
            try:
                binary = build_profile.build(model.name, model.kernels,
                                             language=model.language)
                binary.check_runnable()
            except ToolchainError as exc:
                acc.excluded.append(Exclusion(label, vec, 0, 0, str(exc)))
                continue
            for rpn, tpr in placements:
                footprint = model.replicated_bytes_per_rank * rpn
                footprint += footprint_share
                if footprint > node_mem:
                    acc.excluded.append(Exclusion(
                        label, vec, rpn, tpr,
                        f"per-node footprint {footprint / 2**30:.1f} GiB "
                        f"exceeds {node_mem / 2**30:.0f} GiB"))
                    continue
                if (rpn, tpr) not in factors:
                    factors[rpn, tpr] = _page_factors(cluster, rpn, tpr)
                mapping = RankMapping(cluster, n_nodes,
                                      ranks_per_node=rpn,
                                      threads_per_rank=tpr)
                acc.templates.append(ConfigTemplate(
                    index=len(acc.templates),
                    compiler=label,
                    vectorization=vec,
                    ranks_per_node=rpn,
                    threads_per_rank=tpr,
                    mapping=mapping,
                    binary=binary,
                    page_factors=factors[rpn, tpr],
                ))
    grid = scenario_grid(scenarios, scenario_spread)
    return TuneSpace(
        app=model.name,
        cluster_name=cluster.name,
        n_nodes=n_nodes,
        templates=tuple(acc.templates),
        excluded=tuple(acc.excluded),
        flags=FLAG_CHOICES,
        policies=PAGE_POLICIES,
        comm_grid=grid,
        bandwidth_grid=grid,
        pricing=pricing,
    )
