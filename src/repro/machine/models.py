"""Pluggable pricing models: roofline and ECM compute-op cost strategies.

A pricing model owns the *data arm* of the analytic cost — the seconds a
ComputeOp/MemOp spends moving bytes — behind a small strategy interface:

* :class:`RooflineModel` — the historical ``bytes / agg_bw`` memory arm.
  The committed EXPERIMENTS.md figures are byte-identical under this
  default.
* :class:`ECMModel` — an Execution-Cache-Memory style model ("ECM modeling
  and performance tuning of SpMV and Lattice QCD on A64FX", PAPERS.md):
  on A64FX the cache hierarchy does not overlap with the memory transfer,
  so the data arm adds per-level transfer terms derived from
  :class:`repro.machine.cache.CacheLevel` line size and latency on top of
  the pure main-memory roofline bound.  ECM therefore never prices a
  compute op *faster* than roofline (a property test pins this).

Each model has ONE :meth:`PricingModel.data_seconds`, written with numpy
ufuncs so it takes Python scalars or arrays alike.  The tape evaluator
(:mod:`repro.ir.batch`) calls it with per-row tape columns — extra per-op
columns a model declares through :meth:`PricingModel.tape_columns` are
stacked next to ``flops``/``bytes`` at compile time — and
:meth:`PricingModel.price_compute` / :meth:`PricingModel.price_mem` call
it with one op's scalars for the DES lowering of non-roofline models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.context import current
from repro.machine.cluster import ClusterModel
from repro.machine.core import CoreModel
from repro.util.errors import ConfigurationError
from repro.util.memo import clear_memos

#: In-flight cache-line streams per core assumed by the ECM transfer terms;
#: A64FX sustains 8 outstanding L2 prefetch streams per core (ECM paper,
#: Section IV), which hides ``latency / 8`` cycles of each line transfer.
ECM_LINE_CONCURRENCY = 8.0

#: Cache-hierarchy traffic amplification per kernel class (ECM paper,
#: Table 2 idiom): streaming kernels move write-allocate lines (4/3),
#: sparse/indirect kernels re-touch index + value streams (1.5), stencils
#: get partial reuse out of the line buffers (1.25).  Keyed by
#: ``KernelClass.name`` so this module never imports ``repro.toolchain``.
ECM_TRAFFIC_FACTORS: dict[str | None, float] = {
    "STREAM": 4.0 / 3.0,
    "SPMV": 1.5,
    "STENCIL": 1.25,
    "KRYLOV": 4.0 / 3.0,
    "FEM_ASSEMBLY": 1.5,
    "MD_NONBONDED": 1.25,
}


@dataclass(frozen=True)
class ComputePrice:
    """Priced cost of one compute/mem op occurrence.

    ``seconds`` is the wall-clock charge (already imbalance-weighted);
    ``t_flops``/``t_bytes`` are the un-weighted roofline arms feeding the
    per-phase flops-time / bytes-time accounting.
    """

    t_flops: float
    t_bytes: float
    seconds: float


class PricingContext:
    """Everything a pricing model may read while pricing one run.

    Built once per (program, cluster, mapping, binary) evaluation; models
    memoize derived per-context state (e.g. the ECM hierarchy term) in
    ``memo`` keyed by their name.
    """

    __slots__ = ("agg_bw", "binary", "cluster", "core", "mapping", "memo",
                 "n_ranks")

    def __init__(
        self,
        *,
        mapping: Any,
        cluster: ClusterModel,
        core: CoreModel,
        binary: Any,
        n_ranks: int,
        agg_bw: float,
    ) -> None:
        self.mapping = mapping
        self.cluster = cluster
        self.core = core
        self.binary = binary
        self.n_ranks = n_ranks
        self.agg_bw = agg_bw
        self.memo: dict[str, float] = {}


class PricingModel(ABC):
    """Strategy pricing ComputeOp/MemOp data movement and flops.

    Subclasses implement :meth:`data_seconds` once, over scalars or
    arrays, so every caller runs the same expression.
    """

    #: registry key and cache-key component
    name: str = ""

    #: True when the model prices two ops with equal (kernel, rate, dtype,
    #: imbalance) proportionally to their flops/bytes — the property the
    #: optimizer's mixed-op fusion certificate relies on.  Both built-in
    #: models are ray-homogeneous; an affine (fixed-latency) model would
    #: not be, and the pass-soundness guard then falls back to exact
    #: multiset matching.
    ray_homogeneous: bool = True

    def identity(self) -> str:
        """Stable string folded into tape/result cache keys."""
        return self.name

    def tape_columns(self) -> dict[str, Callable[[Any], float]]:
        """Extra per-op tape columns this model needs, name -> extractor.

        Extractors are pure functions of the op (no context), evaluated at
        tape-compile time; :meth:`data_seconds` receives their values in
        ``extras``.  Column names must be globally unique across models.
        """
        return {}

    def prepare(self, ctx: PricingContext) -> float:
        """Per-context scalar state (memoized by callers via ``ctx.memo``)."""
        return 0.0

    def _prep(self, ctx: PricingContext) -> float:
        prep = ctx.memo.get(self.name)
        if prep is None:
            prep = ctx.memo[self.name] = self.prepare(ctx)
        return prep

    @abstractmethod
    def data_seconds(self, bytes_moved: Any, extras: dict[str, Any],
                     agg_bw: Any, prep: Any) -> Any:
        """Seconds to move ``bytes_moved`` bytes, elementwise.

        ``extras`` holds this model's :meth:`tape_columns` values for the
        same op(s), ``agg_bw`` the aggregate memory bandwidth and ``prep``
        the :meth:`prepare` scalar.  Every argument is a scalar or an
        array of one broadcast shape; zero-byte entries price to 0.0.
        """

    def _op_data_seconds(self, op: Any, ctx: PricingContext) -> float:
        if not op.bytes_moved:
            return 0.0
        extras = {name: fn(op) for name, fn in self.tape_columns().items()}
        return float(self.data_seconds(op.bytes_moved, extras, ctx.agg_bw,
                                       self._prep(ctx)))

    def price_compute(self, op: Any, ctx: PricingContext, *,
                      phase: str = "") -> ComputePrice:
        """Price one ComputeOp occurrence (the DES lowering's path)."""
        if op.seconds is not None:
            return ComputePrice(0.0, 0.0, op.seconds * op.imbalance)
        if op.flops:
            if op.rate_per_core is not None:
                rate = op.rate_per_core
            elif ctx.binary is not None and op.kernel is not None:
                rate = ctx.binary.sustained_flops(ctx.core, op.kernel)
            else:
                raise ConfigurationError(
                    f"compute op in phase {phase!r} needs a "
                    "kernel class or an explicit rate_per_core"
                )
            agg_rate = ctx.n_ranks * ctx.mapping.rank_compute_rate(0, rate)
            t_flops = op.flops / agg_rate
        else:
            t_flops = 0.0
        t_bytes = self._op_data_seconds(op, ctx)
        return ComputePrice(t_flops, t_bytes, max(t_flops, t_bytes) * op.imbalance)

    def price_mem(self, op: Any, ctx: PricingContext) -> float:
        """Price one MemOp occurrence (pure data movement)."""
        return self._op_data_seconds(op, ctx)


class RooflineModel(PricingModel):
    """The historical pure-roofline data arm: ``bytes / aggregate_bw``."""

    name = "roofline"

    def data_seconds(self, bytes_moved: Any, extras: dict[str, Any],
                     agg_bw: Any, prep: Any) -> Any:
        return np.where(bytes_moved != 0.0, bytes_moved / agg_bw, 0.0)


def _ecm_hier_bytes(op: Any) -> float:
    """Tape-column extractor: cache-hierarchy bytes of one op."""
    bytes_moved = float(getattr(op, "bytes_moved", 0.0) or 0.0)
    if not bytes_moved:
        return 0.0
    kernel = getattr(op, "kernel", None)
    factor = ECM_TRAFFIC_FACTORS.get(
        kernel.name if kernel is not None else None, 1.0)
    return factor * bytes_moved


class ECMModel(PricingModel):
    """ECM-style data arm: main memory plus non-overlapping cache terms.

    A64FX's in-order-ish memory pipeline does not overlap inter-cache
    transfers with the HBM stream (ECM paper, Section III), so the data
    time is the roofline memory term PLUS a per-level hierarchy term::

        t_bytes = bytes / agg_bw  +  hier_bytes * prep

    where ``hier_bytes`` amplifies the op's traffic by a per-kernel-class
    factor and ``prep`` sums the reciprocal node-aggregate transfer
    bandwidths of every cache level below L1 (L1 traffic is part of the
    in-core execution arm).  Each level's node bandwidth follows from its
    line size, latency, and :data:`ECM_LINE_CONCURRENCY` overlapped
    streams per core, scaled by the fraction of cores the mapping keeps
    active.
    """

    name = "ecm"

    def tape_columns(self) -> dict[str, Callable[[Any], float]]:
        return {"ecm_hier_bytes": _ecm_hier_bytes}

    def prepare(self, ctx: PricingContext) -> float:
        mapping = ctx.mapping
        node = ctx.cluster.node
        active = min(
            1.0,
            mapping.ranks_per_node * mapping.threads_per_rank / node.cores,
        )
        freq = ctx.core.frequency_hz
        prep = 0.0
        for lvl in node.caches.levels[1:]:
            per_core = lvl.line_bytes * freq / max(
                1.0, lvl.latency_cycles / ECM_LINE_CONCURRENCY
            )
            level_bw = per_core * lvl.shared_by * lvl.count * active
            prep += 1.0 / (level_bw * mapping.n_nodes)
        return prep

    def data_seconds(self, bytes_moved: Any, extras: dict[str, Any],
                     agg_bw: Any, prep: Any) -> Any:
        return np.where(
            bytes_moved != 0.0,
            bytes_moved / agg_bw + extras["ecm_hier_bytes"] * prep,
            0.0,
        )


#: Registered pricing models, name -> singleton instance.
PRICING_MODELS: dict[str, PricingModel] = {}


def register_pricing_model(model: PricingModel) -> PricingModel:
    """Register a pricing model; re-registering the same name replaces it.

    Every registered memo is dropped: a late model may declare tape
    columns the compiled tapes lack, and a replaced model must not be
    served results memoized under its name.
    """
    if not model.name:
        raise ConfigurationError("pricing model needs a non-empty name")
    PRICING_MODELS[model.name] = model
    clear_memos()
    return model


def get_pricing_model(name: str) -> PricingModel:
    """Look up a registered pricing model by name."""
    key = name.lower()
    try:
        return PRICING_MODELS[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown pricing model {name!r}; registered models: "
            f"{', '.join(sorted(PRICING_MODELS))}"
        ) from None


def pricing_model_names() -> tuple[str, ...]:
    """Registered model names, sorted (CLI choices are derived from this)."""
    return tuple(sorted(PRICING_MODELS))


def column_extractors() -> dict[str, Callable[[Any], float]]:
    """Extractor for every extra tape column across registered models."""
    out: dict[str, Callable[[Any], float]] = {}
    for model in PRICING_MODELS.values():
        out.update(model.tape_columns())
    return out


register_pricing_model(RooflineModel())
register_pricing_model(ECMModel())


def resolve_pricing(spec: str | PricingModel | None) -> PricingModel:
    """Resolve a pricing spec (name, instance, or None = the run
    context's model, see :mod:`repro.context`)."""
    if spec is None:
        return PRICING_MODELS[current().pricing]
    if isinstance(spec, PricingModel):
        return spec
    return get_pricing_model(spec)
