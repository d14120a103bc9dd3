"""Lower an IR program to a real simmpi rank program.

This is the single place where abstract :class:`~repro.ir.ops.CommOp`
patterns become concrete message exchanges.

Lowering rules
--------------

* ``ComputeOp`` — ``comm.compute`` roofline charge of the per-rank share
  ``flops / n_ranks * imbalance`` (and bytes likewise) at the toolchain
  sustained rate; fixed-``seconds`` ops charge their wall time on every
  rank.
* ``MemOp`` — per-rank share of the memory traffic at the rank's sustained
  bandwidth.
* ``SerialOp`` — charged on rank 0 only (the replicated/Amdahl term); the
  other ranks run ahead and wait at the next synchronizing op.
* ``CommOp`` — ``halo`` becomes sendrecvs with the rank's neighbors on a
  balanced process grid (see :func:`grid_dims`); ``ring`` a periodic-shift
  sendrecv; ``p2p`` a pairwise exchange with rank ``r ^ 1``; the
  collective kinds map to the simmpi collectives over
  :class:`~repro.simmpi.payload.VirtualPayload` objects of the declared
  size.  Fractional ``count`` values subsample by step index — one
  occurrence every ``round(1/count)`` steps, identically on every rank,
  or a collective would desynchronize.
* ``Barrier`` — the dissemination barrier.

:func:`lower` unrolls the loops once into the rank-independent schedule of
:func:`flatten_phases` (shared with :mod:`repro.ir.analyze.trace`); each
rank program is one loop over it, with no per-loop or per-phase frames.

Process-grid rule
-----------------

``halo`` ops with ``neighbors <= 2`` lower to a 1-D chain, ``<= 4`` to a
2-D grid, anything larger to a 3-D grid.  :func:`grid_dims` picks the
*most-square* factorization of exactly ``p`` (MPI_Dims_create style:
prime factors assigned largest-first to the currently smallest dimension),
so e.g. 12 ranks form a 4x3 grid and 48 ranks form 4x4x3.  For prime
``p`` every factorization degenerates to a 1xp chain — interior ranks
then see 2 neighbors instead of the modeled 4 (or 6), which is an honest
property of the decomposition, not a silent fallback: prefer composite
rank counts when comparing against the analytic model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.ir.ops import Barrier, CommOp, ComputeOp, Loop, MemOp, Phase, SerialOp
from repro.machine.models import (
    PricingContext,
    PricingModel,
    RooflineModel,
    resolve_pricing,
)
from repro.simmpi.mapping import RankMapping
from repro.simmpi.payload import VirtualPayload
from repro.toolchain.compiler import Binary
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.ir.program import Program
    from repro.simmpi.comm import Comm


def _prime_factors(n: int) -> list[int]:
    """Prime factors of ``n`` in non-increasing order."""
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return sorted(out, reverse=True)


def grid_dims(p: int, ndims: int) -> tuple[int, ...]:
    """Most-square ``ndims``-dimensional factorization of exactly ``p``.

    MPI_Dims_create style: prime factors of ``p``, largest first, each
    multiplied into the currently smallest dimension.  Returned in
    non-increasing order.  A prime ``p`` necessarily degenerates to
    ``(p, 1, ...)``.
    """
    if p < 1 or ndims < 1:
        raise ConfigurationError("grid needs p >= 1 and ndims >= 1")
    dims = [1] * ndims
    for f in _prime_factors(p):
        dims[dims.index(min(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def grid_neighbors(rank: int, p: int, *, ndims: int = 2) -> list[int]:
    """The rank's neighbors on the non-periodic :func:`grid_dims` grid."""
    dims = grid_dims(p, ndims)
    # row-major coordinates: the last dimension varies fastest.
    coords = []
    rest = rank
    for d in reversed(dims):
        rest, c = divmod(rest, d)
        coords.append(c)
    coords.reverse()
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    out = []
    for axis, (c, d) in enumerate(zip(coords, dims)):
        if c > 0:
            out.append(rank - strides[axis])
        if c < d - 1:
            out.append(rank + strides[axis])
    return out


def _halo_ndims(neighbors: int) -> int:
    """Decomposition dimensionality implied by the modeled halo degree."""
    if neighbors <= 2:
        return 1
    if neighbors <= 4:
        return 2
    return 3


def _comm_reps(op: CommOp, step: int) -> int:
    """Occurrences of ``op`` at loop iteration ``step``.

    Fractional counts (e.g. one IO frame per 150 steps) subsample by the
    step index, identically on every rank.
    """
    if op.count <= 0:
        return 0
    if op.count < 1:
        period = max(1, round(1.0 / max(op.count, 1e-9)))
        return 0 if step % period else 1
    return max(1, round(op.count))


def flatten_phases(
    body: Sequence[Phase | Loop], max_unroll: int | None = None
) -> tuple[tuple[tuple[Phase, int], ...], bool]:
    """Rank-independent schedule of ``body``: ``(phase, step)`` occurrences
    in program order, loops unrolled.

    ``step`` is the index of the innermost enclosing loop (0 outside any
    loop) — for app programs the time step, which drives the
    fractional-count subsampling of :func:`_comm_reps`.  ``max_unroll``
    caps every loop's trips (the static analyzer's bound); the second
    element of the result tells whether any loop was cut short.
    """
    out: list[tuple[Phase, int]] = []
    truncated = False

    def walk(items: Sequence[Phase | Loop], step: int) -> None:
        nonlocal truncated
        for item in items:
            if isinstance(item, Loop):
                trips = item.count
                if max_unroll is not None and trips > max_unroll:
                    trips = max_unroll
                    truncated = True
                for i in range(trips):
                    walk(item.body, i)
            else:
                out.append((item, step))

    walk(body, 0)
    return tuple(out), truncated


def lower(
    program: "Program",
    mapping: RankMapping,
    binary: Binary | None = None,
    *,
    pricing: "str | PricingModel | None" = None,
) -> Callable:
    """Return the rank program (generator function) for ``program``.

    ``pricing`` selects the compute-event cost model.  The default
    roofline model keeps the historical emit path verbatim (per-rank
    flops/bytes shares priced inside :meth:`Comm.compute`); any other
    model prices each ComputeOp/MemOp to wall-clock seconds up front via
    :meth:`PricingModel.price_compute` and emits fixed-seconds events.
    """
    core = mapping.cluster.node.core_model
    n_ranks = mapping.n_ranks
    model = resolve_pricing(pricing)
    if isinstance(model, RooflineModel):
        pctx: PricingContext | None = None
        emit_model: PricingModel | None = None
    else:
        pctx = PricingContext(
            mapping=mapping,
            cluster=mapping.cluster,
            core=core,
            binary=binary,
            n_ranks=n_ranks,
            agg_bw=n_ranks * mapping.rank_memory_bandwidth(0),
        )
        emit_model = model

    schedule, _ = flatten_phases(program.body)

    def rank_program(comm: "Comm") -> Generator[Any, Any, float]:
        rank = comm.rank
        #: halo neighbours by grid dimensionality, for this rank.
        halo: dict[int, list[int]] = {}
        for phase, step in schedule:
            comm.set_phase(phase.name)
            for op in phase.ops:
                if isinstance(op, CommOp):
                    kind = op.kind
                    size = op.size
                    payload = VirtualPayload(size)
                    for _ in range(_comm_reps(op, step)):
                        if kind == "halo":
                            ndims = _halo_ndims(op.neighbors)
                            nbs = halo.get(ndims)
                            if nbs is None:
                                nbs = halo[ndims] = grid_neighbors(
                                    rank, n_ranks, ndims=ndims)
                            for nb in nbs:
                                yield from comm.sendrecv(nb, payload,
                                                         size=size)
                        elif kind == "ring":
                            if n_ranks > 1:
                                yield from comm.sendrecv(
                                    (rank + 1) % n_ranks, payload,
                                    source=(rank - 1) % n_ranks, size=size)
                        elif kind == "p2p":
                            if rank ^ 1 < n_ranks:
                                yield from comm.sendrecv(rank ^ 1, payload,
                                                         size=size)
                        elif kind == "allreduce":
                            yield from comm.allreduce(payload, size=size)
                        elif kind == "alltoall":
                            yield from comm.alltoall([payload] * n_ranks,
                                                     size=size)
                        elif kind == "allgather":
                            yield from comm.allgather(payload, size=size)
                        elif kind == "bcast":
                            yield from comm.bcast(payload, root=op.root,
                                                  size=size)
                        elif kind == "reduce":
                            yield from comm.reduce(payload, root=op.root,
                                                   size=size)
                        elif kind == "gather":
                            yield from comm.gather(payload, root=op.root,
                                                   size=size)
                        else:  # pragma: no cover - CommOp validates its kind
                            raise ConfigurationError(
                                f"unknown comm kind {kind!r}")
                elif isinstance(op, ComputeOp):
                    if emit_model is not None:
                        # non-roofline pricing: charge the model's wall
                        # time as a fixed-seconds compute event (every rank
                        # advances by the bulk-synchronous op duration);
                        # noise/slowdown factors in Comm.compute still
                        # apply on top.
                        price = emit_model.price_compute(op, pctx,
                                                         phase=phase.name)
                        yield from comm.compute(price.seconds, label=op.label)
                    elif op.seconds is not None:
                        yield from comm.compute(op.seconds * op.imbalance,
                                                label=op.label)
                    else:
                        if not op.flops:
                            rate = None
                        elif op.rate_per_core is not None:
                            rate = op.rate_per_core
                        elif binary is not None and op.kernel is not None:
                            rate = binary.sustained_flops(core, op.kernel)
                        else:
                            raise ConfigurationError(
                                f"compute op in phase {phase.name!r} needs "
                                "a kernel class or an explicit rate_per_core"
                            )
                        yield from comm.compute(
                            flops=op.flops / n_ranks * op.imbalance,
                            bytes_moved=op.bytes_moved / n_ranks
                            * op.imbalance,
                            flops_per_core=rate,
                            label=op.label,
                        )
                elif isinstance(op, MemOp):
                    if emit_model is not None:
                        yield from comm.compute(
                            emit_model.price_mem(op, pctx), label=op.label)
                    else:
                        yield from comm.compute(
                            flops=0.0, bytes_moved=op.bytes_moved / n_ranks,
                            label=op.label)
                elif isinstance(op, SerialOp):
                    if rank == 0:
                        yield from comm.compute(op.seconds, label="serial")
                elif isinstance(op, Barrier):
                    yield from comm.barrier()
                else:  # pragma: no cover - Phase only holds Op members
                    raise ConfigurationError(f"cannot lower op {op!r}")
        return comm.now

    return rank_program
