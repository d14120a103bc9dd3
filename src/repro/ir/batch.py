"""The analytic evaluator: compile IR programs to flat numpy tapes and
price one or many evaluation points in one pass.

This is the package's only closed-form pricing engine (registry names
``analytic`` and ``batch``; see :mod:`repro.ir.analytic`).  It splits the
work into a **compile** step and an **evaluate** step:

* :func:`compile_tape` flattens a :class:`~repro.ir.program.Program` into
  a :class:`Tape` — per-row structural records (op kind, kernel, comm
  pattern, phase id) plus per-row numeric columns (flops, bytes, seconds,
  imbalance, size, count) and a per-occurrence loop-multiplicity column.
  Loops are unrolled *symbolically* through the multiplicity column, never
  materialized.
* :func:`_walk` prices one group of contexts that share a tape structure
  and pricing model.  Per-context quantities (kernel rates, collective
  costs, the tape columns) are Python scalars when the group has one
  context and stacked ``(n,)`` vectors otherwise; override
  knobs broadcast against them.  ``run_batch`` prices each structure
  group with it, and :meth:`BatchAnalyticBackend.run_override_columns`
  runs it with knob arrays that broadcast to a grid.  Because every
  caller runs the same expressions in the same order, a stacked lane, a
  one-job run and a grid point agree bit for bit; ``tests/oracles.py``
  holds the historical per-op scalar walk as the independent
  differential oracle.

The arithmetic per phase occurrence is the roofline
``max(flops / aggregate_rate, data_seconds) * imbalance`` for modeled
compute (the data arm comes from the pricing model, see
:mod:`repro.machine.models`), fixed-seconds compute times imbalance,
serial time charged once, and each comm op's
:class:`~repro.network.collectives.CollectiveCosts` closed form (via
:meth:`CommOp.cost`; the tape keeps every row's op).  ``overrides``
(``compute_scale`` / ``comm_scale`` / ``serial_scale`` /
``bandwidth_scale`` / ``rate_scale``) are what-if knobs: multiplicative
factors on one analytic term each.

Caching layers: process-local memos (:class:`~repro.util.memo.Memo`),
each bounded by a module constant, thread-safe and counted, all dropped
by :func:`clear_caches` — tape per Program (plus an optional byte budget,
:func:`set_tape_budget`), cluster and compiler fingerprints, network per
(cluster, n_nodes), rank bandwidth per placement, binary per program
identity, and a result memo keyed by a content hash of (tape structure +
numeric columns + cluster + mapping + binary + overrides + pricing
model).

Two streaming entry points sit on top of ``run_batch``:

* :meth:`BatchAnalyticBackend.run_batch_stream` — a lazy generator that
  consumes an arbitrarily long job iterable in chunks sized by a
  configurable memory budget (:func:`stream_chunk_points`), optionally
  sharding chunks across :class:`repro.util.procpool.PersistentPool`
  workers.  Results arrive in canonical input order and are bit-identical
  to ``run_batch`` for any chunk size and worker count.
* :meth:`BatchAnalyticBackend.run_override_columns` — the tuner's fast
  path: prepared jobs of one structure group (stacked on the last axis)
  plus override columns that broadcast to one grid, priced without
  materializing ``(n_points, n_rows)`` matrices; each yielded
  :class:`ColumnChunk` carries per-point elapsed/phase arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from numbers import Real
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.context import RunContext, current, using
from repro.ir.backend import BACKENDS, Backend, RunResult
from repro.ir.ops import Barrier, CommOp, ComputeOp, MemOp, SerialOp
from repro.ir.program import Program
from repro.machine.cluster import ClusterModel
from repro.machine.models import (
    PricingContext,
    PricingModel,
    column_extractors,
    resolve_pricing,
)
from repro.network.collectives import CollectiveCosts
from repro.network.model import NetworkModel, network_for
from repro.simmpi.mapping import RankMapping
from repro.toolchain.compiler import Binary
from repro.toolchain.profiles import default_compiler_for
from repro.util.errors import ConfigurationError
from repro.util.memo import Memo, clear_memos, content_key

__all__ = [
    "DEFAULT_STREAM_BUDGET",
    "OVERRIDE_KEYS",
    "BatchAnalyticBackend",
    "BatchJob",
    "ColumnChunk",
    "Tape",
    "binary_fingerprint",
    "clear_caches",
    "compile_tape",
    "set_tape_budget",
    "shared_batch_backend",
    "stream_chunk_points",
    "tape_cache_stats",
    "validate_overrides",
]

#: model-parameter override knobs a :class:`BatchJob` accepts.  Each is a
#: multiplicative factor on one analytic term; 1.0 is the identity.
OVERRIDE_KEYS = frozenset({
    "compute_scale", "comm_scale", "serial_scale",
    "bandwidth_scale", "rate_scale",
})

#: default per-chunk working-set budget (bytes) of the streaming entry
#: points; 64 MiB keeps a chunk comfortably inside L2+HBM while leaving
#: thousands of points per vectorized pass.
DEFAULT_STREAM_BUDGET = 64 << 20


def validate_overrides(
    overrides: "dict[str, float] | None",
) -> dict[str, float]:
    """Validate override keys against :data:`OVERRIDE_KEYS` and values
    (finite real numbers > 0); return a plain (possibly empty) dict of
    floats.

    This is the single validation seam shared by :meth:`_prepare`, the
    column-stream fast path and the capacity service, so the error always
    names both the offending keys and the sorted set of allowed ones.
    """
    out = dict(overrides) if overrides else {}
    bad = set(out) - OVERRIDE_KEYS
    if bad:
        raise ConfigurationError(
            f"unknown override(s) {sorted(bad)}; "
            f"choose from {sorted(OVERRIDE_KEYS)}"
        )
    for key, value in out.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ConfigurationError(f"override {key!r} must be a number")
        try:
            scale = float(value)
        except OverflowError:  # an integer beyond the float range
            scale = math.inf
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigurationError(
                f"override {key!r} must be finite and positive, "
                f"got {scale!r}")
        out[key] = scale
    return out

# row kind codes (structural)
_K_COMPUTE = 0       # modeled roofline work
_K_SECONDS = 1       # fixed-seconds compute
_K_MEM = 2
_K_SERIAL = 3
_K_COMM = 4
_K_BARRIER = 5

_COLUMNS = ("flops", "bytes", "seconds", "imbalance", "rate", "size", "count")


class Tape:
    """A Program flattened to structural rows + numeric columns.

    ``structure`` is a hashable tuple describing everything *shape-like*
    (phase layout, op kinds, kernels, comm patterns, halo degrees); two
    programs with equal structures — e.g. the same app model at different
    node counts — can be stacked into one evaluation matrix.  ``cols``
    holds the per-row numeric quantities; ``occ_mult`` the per-occurrence
    loop multiplicity (trip-count product); ``ops`` the IR op behind each
    row.
    """

    __slots__ = ("structure", "names", "occ_names", "rows", "cols",
                 "occ_mult", "ops", "occ_rows", "toolchain_rows",
                 "kernel_needed", "extra_names", "digest", "nbytes")

    def __init__(self, structure: tuple, names: tuple[str, ...],
                 occ_names: tuple[int, ...], rows: tuple[tuple, ...],
                 cols: dict[str, np.ndarray],
                 occ_mult: np.ndarray, ops: tuple) -> None:
        self.structure = structure
        self.names = names              # distinct phase names, first-appearance order
        self.occ_names = occ_names      # name index per occurrence
        self.rows = rows                # (occ, kind, kernel, comm_kind, neighbors, has_rate)
        self.cols = cols                # column name -> (n_rows,) ndarray
        self.occ_mult = occ_mult        # (n_occurrences,) int64
        self.ops = ops                  # the IR op behind each row
        self.occ_rows = _rows_by_occurrence(rows, len(occ_names))
        # structural toolchain demand: modeled compute with a kernel and no
        # explicit rate always builds the binary (matching Backend._binary)
        self.kernel_needed = any(
            kind == _K_COMPUTE and not has_rate and kernel is not None
            for (_, kind, kernel, _, _, has_rate) in rows
        )
        # rows that need a toolchain (or raise) only when their flops > 0
        self.toolchain_rows = tuple(
            i for i, (_, kind, kernel, _, _, has_rate) in enumerate(rows)
            if kind == _K_COMPUTE and not has_rate and kernel is None
        )
        # pricing-model tape columns stacked next to the core ones; the
        # digest covers them so a tape compiled before a model registered
        # its columns never aliases one compiled after
        self.extra_names = tuple(sorted(set(cols) - set(_COLUMNS)))
        columns = _COLUMNS + self.extra_names
        self.digest = content_key((structure, columns,
                                   [cols[c] for c in columns], occ_mult))
        # resident size of everything the tape owns (the op objects and
        # phase names belong to the program), counted once so eviction
        # decisions are reproducible
        self.nbytes = sum(map(sys.getsizeof, (
            self, cols, ops, occ_mult, self.digest, self.toolchain_rows,
            self.extra_names, structure, names, occ_names, rows,
            self.occ_rows, *cols.values(), *rows, *self.occ_rows)))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_occurrences(self) -> int:
        return len(self.occ_names)


def _rows_by_occurrence(rows: tuple[tuple, ...],
                        n_occ: int) -> tuple[tuple[int, ...], ...]:
    by_occ: list[list[int]] = [[] for _ in range(n_occ)]
    for i, row in enumerate(rows):
        by_occ[row[0]].append(i)
    return tuple(tuple(r) for r in by_occ)


#: warm-tape entry bound; :func:`set_tape_budget` adds a byte budget.
TAPE_MEMO_ENTRIES = 1024

_TAPES: Memo[Tape] = Memo("batch.tapes", TAPE_MEMO_ENTRIES,
                          sizeof=lambda tape: tape.nbytes)


def compile_tape(program: Program) -> Tape:
    """Flatten ``program`` into a :class:`Tape` (memoized per Program
    value; see :func:`set_tape_budget`)."""
    return _TAPES.get_or_compute(program, lambda: _compile_tape(program))


def set_tape_budget(budget_bytes: int | None) -> None:
    """Bound the resident bytes of warm compiled tapes (``None`` lifts
    the bound).  Evicts least-recently-used tapes immediately."""
    _TAPES.set_budget(budget_bytes)


def tape_cache_stats() -> dict[str, int | None]:
    """Entry/byte/hit/miss/eviction counters of the warm-tape memo."""
    return _TAPES.stats()


def stream_chunk_points(tape: Tape, memory_budget_bytes: int,
                        *, columns: bool = False) -> int:
    """Points per chunk so one vectorized pass stays under the budget.

    ``columns=False`` models :meth:`BatchAnalyticBackend.run_batch_stream`
    feeding ``run_batch``: every numeric column is stacked to
    ``(points, n_rows)`` float64 and the walk keeps a handful of live
    ``(points,)`` temporaries plus the per-phase accumulators, so the
    estimate charges each point ``8 * n_rows * n_columns`` bytes for the
    stacks, a multiplicative headroom factor for elementwise temporaries,
    and a flat payload overhead.  ``columns=True`` models the
    column-stream fast path, which never stacks rows — its footprint is
    the per-phase accumulators plus O(1) working vectors.

    Pure and deterministic (tests pin monotonicity in the budget), and
    conservative by design: the differential memory test asserts the
    evaluator's peak allocation stays below the configured budget.
    """
    if memory_budget_bytes < 1:
        raise ConfigurationError(
            f"memory budget must be positive, got {memory_budget_bytes}"
        )
    n_cols = len(_COLUMNS) + len(tape.extra_names) + 1  # + occ_mult
    if columns:
        # per-phase sec/comp/comm/tf/tb accumulators + working vectors
        per_point = 8 * (5 * max(1, len(tape.names)) + 24)
    else:
        stacked = 8 * max(1, tape.n_rows) * n_cols
        temporaries = 8 * (5 * max(1, len(tape.names)) + 16)
        payload = 160 * max(1, len(tape.names)) + 512
        per_point = 3 * stacked + temporaries + payload
    return max(1, memory_budget_bytes // per_point)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _compile_tape(program: Program) -> Tape:
    names: list[str] = []
    name_idx: dict[str, int] = {}
    occ_names: list[int] = []
    occ_mult: list[int] = []
    rows: list[tuple] = []
    ops: list[Any] = []
    extractors = column_extractors()
    cols: dict[str, list[float]] = {
        c: [] for c in _COLUMNS + tuple(sorted(extractors))
    }

    def push(occ: int, kind: int, kernel: Any = None, comm_kind: str = "",
             neighbors: int = 0, has_rate: bool = False, *,
             flops: float = 0.0, bytes_: float = 0.0, seconds: float = 0.0,
             imbalance: float = 1.0, rate: float = 0.0, size: int = 0,
             count: float = 0.0, op: Any = None) -> None:
        rows.append((occ, kind, kernel, comm_kind, neighbors, has_rate))
        cols["flops"].append(flops)
        cols["bytes"].append(bytes_)
        cols["seconds"].append(seconds)
        cols["imbalance"].append(imbalance)
        cols["rate"].append(rate)
        cols["size"].append(size)
        cols["count"].append(count)
        for name, extractor in extractors.items():
            cols[name].append(extractor(op) if op is not None else 0.0)

    for phase, mult in program.iter_phases():
        if phase.name not in name_idx:
            name_idx[phase.name] = len(names)
            names.append(phase.name)
        if mult > _INT64_MAX:
            raise ConfigurationError(
                f"phase {phase.name!r} repeats {mult} times; the batch "
                f"backend counts repetitions in int64 (max {_INT64_MAX})")
        occ = len(occ_mult)
        occ_mult.append(mult)
        occ_names.append(name_idx[phase.name])
        ops.extend(phase.ops)
        for op in phase.ops:
            if isinstance(op, ComputeOp):
                if op.seconds is not None:
                    push(occ, _K_SECONDS, seconds=op.seconds,
                         imbalance=op.imbalance)
                else:
                    push(occ, _K_COMPUTE, kernel=op.kernel,
                         has_rate=op.rate_per_core is not None,
                         flops=op.flops, bytes_=op.bytes_moved,
                         imbalance=op.imbalance,
                         rate=op.rate_per_core or 0.0, op=op)
            elif isinstance(op, MemOp):
                push(occ, _K_MEM, bytes_=op.bytes_moved, op=op)
            elif isinstance(op, SerialOp):
                push(occ, _K_SERIAL, seconds=op.seconds)
            elif isinstance(op, CommOp):
                push(occ, _K_COMM, comm_kind=op.kind,
                     neighbors=op.neighbors, size=op.size, count=op.count)
            elif isinstance(op, Barrier):
                push(occ, _K_BARRIER)
            else:  # pragma: no cover - Phase only holds Op members
                raise ConfigurationError(f"cannot tape op {op!r}")

    structure = (tuple(names), tuple(occ_names), tuple(rows))
    np_cols = {
        c: np.asarray(cols[c],
                      dtype=np.int64 if c == "size" else np.float64)
        for c in cols
    }
    return Tape(structure, *structure, np_cols,
                np.asarray(occ_mult, dtype=np.int64), tuple(ops))


@dataclass
class BatchJob:
    """One evaluation point of a batched run.

    Mirrors the keyword surface of ``Backend.run``; ``overrides`` adds
    the what-if knobs of :data:`OVERRIDE_KEYS`, and
    ``analyze=True`` admission-checks the program against the static
    communication-safety analyzer (:func:`repro.ir.analyze.static_clean`,
    memoized) before pricing it — the analytic walk would happily price a
    program whose lowered form deadlocks.
    """

    program: Program
    cluster: ClusterModel
    n_nodes: int
    mapping: RankMapping | None = None
    network: NetworkModel | None = None
    binary: Binary | None = None
    check_memory: bool = True
    overrides: dict[str, float] | None = None
    analyze: bool = False
    #: pricing model name/instance (None = the run context's model); the
    #: resolved model's identity is folded into every cache key
    pricing: str | PricingModel | None = None


@dataclass
class ColumnChunk:
    """Per-point results of one column-stream chunk.

    A chunk is a C-order contiguous block of the override grid: every
    array has the chunk's sub-grid shape (a run of one axis, the later
    axes whole), ``len(chunk)`` is its point count and ``start`` the
    flat C-order offset of its first point, so ``arr.ravel()`` covers
    points ``[start, start + len(chunk))``.  The arrays are read-only
    broadcast views: a term constant along an axis is stored once.  The
    per-phase dicts mirror :class:`~repro.ir.backend.RunResult`'s
    accounting (seconds, compute, comm, flops-time, bytes-time), so a
    point of a ColumnChunk carries the same numbers ``run_batch`` would
    return for the equivalent scalar ``overrides`` job.  ``n_ranks`` is
    the rank count of the chunk's first job.
    """

    start: int
    n_ranks: int
    elapsed: np.ndarray
    phase_seconds: dict[str, np.ndarray]
    phase_compute: dict[str, np.ndarray]
    phase_comm: dict[str, np.ndarray]
    phase_flops_time: dict[str, np.ndarray]
    phase_bytes_time: dict[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.elapsed.size)


# -- process-local memos -----------------------------------------------------

#: entry bounds, each above the working set of a cold paper suite
#: (98 networks, 33 placements, 225 results) and a tune.
NETWORK_MEMO_ENTRIES = 512
RANK_BW_MEMO_ENTRIES = 1024
BINARY_MEMO_ENTRIES = 512
RESULT_MEMO_ENTRIES = 65536

_NETWORKS: Memo[NetworkModel] = Memo("batch.networks",
                                     NETWORK_MEMO_ENTRIES)
_RANK_BW: Memo[float] = Memo("batch.rank_bw", RANK_BW_MEMO_ENTRIES)
_BINARIES: Memo[Binary] = Memo("batch.binaries", BINARY_MEMO_ENTRIES)
_RESULT_MEMO: Memo[tuple] = Memo("batch.results", RESULT_MEMO_ENTRIES)


def clear_caches() -> None:
    """Drop every registered process-local memo (benchmarks, tests)."""
    clear_memos()


def _network(cluster: ClusterModel, n_nodes: int) -> NetworkModel:
    return _NETWORKS.get_or_compute(
        (cluster.fingerprint, n_nodes),
        lambda: network_for(cluster, n_nodes=n_nodes))


def _rank_bw(mapping: RankMapping) -> float:
    """``mapping.rank_memory_bandwidth(0)`` — independent of n_nodes, so
    memoized per (cluster, ranks_per_node, threads_per_rank)."""
    return _RANK_BW.get_or_compute(
        (mapping.cluster.fingerprint, mapping.ranks_per_node,
         mapping.threads_per_rank),
        lambda: mapping.rank_memory_bandwidth(0))


def binary_fingerprint(binary: Binary) -> tuple:
    """Content key of a binary: application, compiler digest (labels are
    not unique — what-if experiments patch vec_table on a profile keeping
    its label, so the whole frozen profile is hashed), language, flags,
    kernel classes."""
    return (binary.application, binary.compiler.fingerprint,
            binary.language, binary.flags, binary.kernels)


def _resolve_binary(program: Program, cluster: ClusterModel,
                    binary: Binary | None, needed: bool) -> Binary | None:
    """Same resolution as ``Backend._binary`` but memoized per program
    identity (the build is deterministic in these fields)."""
    if binary is not None:
        binary.check_runnable()
        return binary
    if not needed:
        return None

    def build() -> Binary:
        compiler = default_compiler_for(program.name, cluster.name)
        return compiler.build(program.name, program.kernels,
                              language=program.language)

    built = _BINARIES.get_or_compute(
        (program.name, cluster.fingerprint, program.kernels,
         program.language), build)
    built.check_runnable()
    return built


@dataclass(slots=True)
class _JobCtx:
    """Per-job evaluation context resolved during prepare."""

    job: BatchJob
    tape: Tape
    mapping: RankMapping
    binary: Binary | None
    network: NetworkModel
    costs: CollectiveCosts
    digest: bytes | None
    overrides: dict[str, float]
    model: PricingModel
    pricing_prep: float


class BatchAnalyticBackend(Backend):
    """Vectorized analytic pricing: one tape, many evaluation points."""

    name = "batch"

    def run(
        self,
        program: Program,
        cluster: ClusterModel,
        n_nodes: int,
        *,
        mapping: RankMapping | None = None,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        check_memory: bool = True,
        overrides: dict[str, float] | None = None,
        analyze: bool = False,
        pricing: str | PricingModel | None = None,
        **kwargs: Any,
    ) -> RunResult:
        if kwargs:
            raise ConfigurationError(
                f"{self.name} backend does not accept {sorted(kwargs)}"
            )
        return self.run_batch([BatchJob(
            program, cluster, n_nodes, mapping=mapping, network=network,
            binary=binary, check_memory=check_memory, overrides=overrides,
            analyze=analyze, pricing=pricing,
        )])[0]

    def run_batch(self, jobs: Sequence[BatchJob]) -> list[RunResult]:
        """Evaluate every job, grouping shared tape structures into one
        vectorized pass; returns results in input order."""
        ctxs = [self._prepare(job) for job in jobs]
        payloads = self._payloads(ctxs)
        return [self._result(ctx, payload)
                for ctx, payload in zip(ctxs, payloads)]

    def run_batch_stream(
        self,
        jobs: "Iterable[BatchJob]",
        *,
        chunk_points: int | None = None,
        memory_budget_bytes: int | None = None,
        workers: int = 0,
    ) -> "Iterator[RunResult]":
        """Lazily price an arbitrarily long job iterable in bounded chunks.

        Yields :class:`~repro.ir.backend.RunResult`\\ s in input order,
        bit-identical to one big ``run_batch`` call for ANY ``chunk_points``
        and ANY ``workers`` — chunking only changes when jobs are stacked,
        never the lane arithmetic, and chunk boundaries are derived from
        the budget alone, independent of the worker count.

        ``chunk_points`` overrides the budget-derived chunk size
        (:func:`stream_chunk_points` over the first job's tape under
        ``memory_budget_bytes``, default :data:`DEFAULT_STREAM_BUDGET`).
        Peak allocation is bounded by the budget: only one chunk's stacked
        matrices are live at a time (``workers`` chunks when pooled).

        ``workers > 1`` shards chunks across a
        :class:`repro.util.procpool.PersistentPool` after an in-process
        probe of the first chunk shows the remaining work clears
        :func:`repro.util.procpool.pool_min_seconds` (the shared cost
        probe); unpicklable jobs (custom network objects etc.) fall back
        to in-process evaluation.  Each worker compiles a tape at most
        once — the per-process tape memo is keyed by Program value, so
        every chunk of the same program hits the warm tape.
        """
        if chunk_points is not None and chunk_points < 1:
            raise ConfigurationError(
                f"chunk_points must be positive, got {chunk_points}"
            )
        it = iter(jobs)
        head = list(islice(it, 1))
        if not head:
            return
        if chunk_points is None:
            budget = (DEFAULT_STREAM_BUDGET if memory_budget_bytes is None
                      else memory_budget_bytes)
            chunk_points = stream_chunk_points(
                compile_tape(head[0].program), budget)

        def chunks() -> "Iterator[list[BatchJob]]":
            buf = head + list(islice(it, chunk_points - 1))
            while buf:
                yield buf
                buf = list(islice(it, chunk_points))

        gen = chunks()
        if workers <= 1:
            for chunk in gen:
                yield from self.run_batch(chunk)
            return

        # Probe: price the first chunk in-process and time it.  The
        # stream's length is unknown, so the estimate is the measured
        # per-chunk cost times a prefetch window of up to ``workers``
        # chunks — a lower bound on the remaining work.
        from time import perf_counter

        from repro.util.procpool import PersistentPool, pool_min_seconds

        try:
            first = next(gen)
        except StopIteration:  # pragma: no cover - chunks() yields >= 1
            return
        t0 = perf_counter()
        yield from self.run_batch(first)
        per_chunk = perf_counter() - t0
        threshold = pool_min_seconds()
        window: list[list[BatchJob]] = []
        for chunk in gen:
            window.append(chunk)
            if (per_chunk * len(window) >= threshold
                    or len(window) >= workers):
                break
        if not window:
            return
        use_pool = per_chunk * len(window) >= threshold
        if use_pool:
            import pickle

            try:
                pickle.dumps(window[0])
            except Exception:
                use_pool = False  # unpicklable job: price in-process
        if not use_pool:
            for chunk in window:
                yield from self.run_batch(chunk)
            for chunk in gen:
                yield from self.run_batch(chunk)
            return
        from itertools import chain

        n_workers = max(2, min(workers, len(window)))
        with PersistentPool(_StreamChunkWorker,
                            [current()] * n_workers) as pool:
            for results in pool.imap(chain(window, gen)):
                yield from results

    def run_override_columns(
        self,
        job: "BatchJob | Sequence[BatchJob]",
        columns: "dict[str, Any]",
        *,
        chunk_points: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> "Iterator[ColumnChunk]":
        """Price prepared jobs against a broadcast grid of override
        columns — the tuner's fast path.

        ``columns`` maps :data:`OVERRIDE_KEYS` names to float arrays of
        at least one axis that broadcast to one grid.  ``job`` is one
        :class:`BatchJob`, or a sequence of jobs from one structure group
        (equal tape structure and pricing model) stacked on the grid's
        last axis, the *job axis*.  Grid point ``idx`` is the job
        (``jobs[idx[-1]]`` when stacked) evaluated under scalar overrides
        ``{k: columns[k][idx]}`` (broadcast).  Equal-length 1-D columns
        with one job are the plain lane case: point ``i`` takes
        ``columns[k][i]``.

        This is :func:`_walk` with knob arrays: per-context constants
        (collective costs, kernel rates) are scalars, or ``(n,)`` vectors
        on the job axis, and each row's term is computed at the shape its
        knobs broadcast to, so only the sums reach the full grid.  No
        ``(points, n_rows)`` stacking, no per-point ``_prepare``; every
        point is bit-identical to the equivalent scalar-overrides
        ``run_batch`` job.

        Yields :class:`ColumnChunk`\\ s of at most ``chunk_points`` points
        (default: :func:`stream_chunk_points` with ``columns=True`` under
        the budget), in C order of the grid, keeping peak allocation
        bounded.  A chunk is a run of one axis's indices with every later
        axis whole, so any positive budget works.  ``job.overrides`` must
        be empty — the columns ARE the overrides.
        """
        jobs = [job] if isinstance(job, BatchJob) else list(job)
        if not jobs:
            raise ConfigurationError("need at least one job")
        if any(j.overrides for j in jobs):
            raise ConfigurationError(
                "run_override_columns prices the override columns; "
                "job.overrides must be empty"
            )
        cols: dict[str, np.ndarray] = {}
        for key, values in columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim == 0:
                raise ConfigurationError(
                    f"override column {key!r} needs at least one axis")
            cols[key] = arr
        validate_overrides({key: 1.0 for key in cols})
        if not cols:
            raise ConfigurationError("need at least one override column")
        shapes = [arr.shape for arr in cols.values()]
        if len(jobs) > 1:
            shapes.append((len(jobs),))
        try:
            grid = np.broadcast_shapes(*shapes)
        except ValueError:
            raise ConfigurationError(
                f"override columns must share one length or broadcast to "
                f"one grid (job axis last), got shapes {shapes}"
            ) from None
        if 0 in grid:
            raise ConfigurationError(f"override grid {grid} is empty")
        ctxs = [self._prepare(j) for j in jobs]
        group = {(c.tape.structure, c.model.identity()) for c in ctxs}
        if len(group) > 1:
            raise ConfigurationError(
                "stacked jobs must share one tape structure and pricing "
                "model")
        if chunk_points is None:
            budget = (DEFAULT_STREAM_BUDGET if memory_budget_bytes is None
                      else memory_budget_bytes)
            chunk_points = stream_chunk_points(ctxs[0].tape, budget,
                                               columns=True)
        elif chunk_points < 1:
            raise ConfigurationError(
                f"chunk_points must be positive, got {chunk_points}"
            )
        ndim = len(grid)
        padded = {key: arr.reshape((1,) * (ndim - arr.ndim) + arr.shape)
                  for key, arr in cols.items()}
        # split the first axis whose trailing block fits one chunk
        axis, block = 0, math.prod(grid[1:])
        while block > chunk_points:
            axis += 1
            block //= grid[axis]
        step = chunk_points // block
        stacked = len(ctxs) > 1 and axis == ndim - 1
        start = 0
        for head in np.ndindex(*grid[:axis]):
            for lo in range(0, grid[axis], step):
                hi = min(lo + step, grid[axis])
                knobs = {key: arr[_grid_index(arr.shape, head, lo, hi)]
                         for key, arr in padded.items()}
                shape = (hi - lo,) + grid[axis + 1:]
                yield _column_chunk(ctxs[lo:hi] if stacked else ctxs,
                                    knobs, shape, start)
                start += math.prod(shape)

    # -- prepare -------------------------------------------------------------

    def _prepare(self, job: BatchJob) -> _JobCtx:
        if job.check_memory:
            job.program.check_feasible(job.cluster, job.n_nodes)
        tape = compile_tape(job.program)
        mapping = (job.mapping if job.mapping is not None
                   else job.program.mapping(job.cluster, job.n_nodes))
        if job.analyze:
            from repro.ir.analyze import static_clean

            if not static_clean(job.program, mapping.n_ranks):
                raise ConfigurationError(
                    f"program {job.program.name!r} fails static "
                    "communication-safety analysis at "
                    f"{mapping.n_ranks} ranks; run `repro-lab analyze` "
                    "for the diagnostics"
                )
        binary = _resolve_binary(job.program, job.cluster, job.binary,
                                 tape.kernel_needed)
        model = resolve_pricing(job.pricing)
        prep = model.prepare(PricingContext(
            mapping=mapping,
            cluster=job.cluster,
            core=job.cluster.node.core_model,
            binary=binary,
            n_ranks=mapping.n_ranks,
            agg_bw=mapping.n_ranks * _rank_bw(mapping),
        ))
        overrides = validate_overrides(job.overrides)
        network = job.network
        if network is not None:
            digest = None  # user-supplied network: uncacheable
        else:
            network = _network(job.cluster, job.n_nodes)
            # shallow: the tree digests are cached on their objects
            digest = content_key((
                tape.digest, job.cluster.fingerprint, job.n_nodes,
                mapping.n_nodes, mapping.ranks_per_node,
                mapping.threads_per_rank, mapping.cluster.fingerprint,
                None if binary is None else binary_fingerprint(binary),
                overrides, model.identity()))
        return _JobCtx(job, tape, mapping, binary, network,
                       CollectiveCosts(mapping=mapping, network=network),
                       digest, overrides, model, prep)

    # -- cache orchestration -------------------------------------------------

    def _payloads(self, ctxs: list[_JobCtx]) -> list[tuple]:
        payloads: list[tuple | None] = [
            None if ctx.digest is None else _RESULT_MEMO.get(ctx.digest)
            for ctx in ctxs]
        groups: dict[tuple, list[int]] = {}
        for i, ctx in enumerate(ctxs):
            if payloads[i] is None:
                key = (ctx.tape.structure, ctx.model.identity())
                groups.setdefault(key, []).append(i)
        for indices in groups.values():
            for i, payload in zip(
                    indices, _group_payloads([ctxs[i] for i in indices])):
                digest = ctxs[i].digest
                payloads[i] = (payload if digest is None
                               else _RESULT_MEMO.put(digest, payload))
        return payloads  # type: ignore[return-value]

    # -- assembly ------------------------------------------------------------

    def _result(self, ctx: _JobCtx, payload: tuple) -> RunResult:
        n_ranks, elapsed, per_phase = payload
        result = RunResult(
            backend=self.name,
            program=ctx.job.program.name,
            cluster=ctx.job.cluster.name,
            n_nodes=ctx.job.n_nodes,
            n_ranks=n_ranks,
            elapsed=elapsed,
            steps=ctx.job.program.steps,
        )
        for name, sec, comp, comm, tf, tb in per_phase:
            result.phase_seconds[name] = sec
            result.phase_compute[name] = comp
            result.phase_comm[name] = comm
            result.phase_flops_time[name] = tf
            result.phase_bytes_time[name] = tb
        return result


def _override(ctx: _JobCtx, name: str) -> float:
    return ctx.overrides.get(name, 1.0)


def _column(ctx: _JobCtx, name: str) -> np.ndarray:
    return ctx.tape.cols[name]


def _occ_mult(ctx: _JobCtx) -> np.ndarray:
    return ctx.tape.occ_mult


def _knob(vals: Any) -> Any:
    """An override lane, or None when it is the identity everywhere
    (multiplying by exactly 1.0 is an IEEE identity, so skipping it only
    saves work and cannot change a result)."""
    if vals is None:
        return None
    if isinstance(vals, np.ndarray):
        return vals if (vals != 1.0).any() else None
    return None if vals == 1.0 else vals


def _walk(ctxs: list[_JobCtx], knobs: dict[str, Any] | None) -> tuple:
    """Price one structure group — the package's only analytic evaluator.

    Per-context quantities (tape columns, loop multiplicities, kernel
    rates, collective costs) come from ``per``: a Python
    scalar when the group has one context, a stacked ``(n,)`` vector
    otherwise.  The override ``knobs`` — a scalar or an array per key
    (the context axis last), ``None`` to take each context's own
    ``overrides`` — broadcast against them, so each term has the shape
    of the knobs it uses.  IEEE-754 elementwise arithmetic on equal
    inputs gives equal outputs, so a lane of a stacked group, a
    one-context walk and a grid point agree bit for bit: there is one
    expression order.

    Returns ``(elapsed, phases)``: ``phases[i]`` holds the (seconds,
    compute, comm, flops-time, bytes-time) accumulators of phase name
    ``i``; every value is a scalar or an array.
    """
    tape = ctxs[0].tape
    model = ctxs[0].model
    one = len(ctxs) == 1

    def per(fn: Any, *args: Any) -> Any:
        if one:
            return fn(ctxs[0], *args)
        return np.asarray([fn(c, *args) for c in ctxs]).T

    if knobs is None:
        knobs = {name: per(_override, name) for name in OVERRIDE_KEYS}
    compute_scale = _knob(knobs.get("compute_scale"))
    comm_scale = _knob(knobs.get("comm_scale"))
    serial_scale = _knob(knobs.get("serial_scale"))
    bandwidth_scale = _knob(knobs.get("bandwidth_scale"))
    rate_scale = _knob(knobs.get("rate_scale"))

    # kernel-less modeled compute that carries flops cannot be priced
    for r in tape.toolchain_rows:
        if any(c.tape.cols["flops"][r] > 0 for c in ctxs):
            occ = tape.rows[r][0]
            name = tape.names[tape.occ_names[occ]]
            raise ConfigurationError(
                f"compute op in phase {name!r} needs a "
                "kernel class or an explicit rate_per_core"
            )

    agg_bw = per(lambda c: c.mapping.n_ranks * _rank_bw(c.mapping))
    if bandwidth_scale is not None:
        agg_bw = agg_bw * bandwidth_scale
    prep = per(lambda c: c.pricing_prep)
    B, S, IMB = per(_column, "bytes"), per(_column, "seconds"), \
        per(_column, "imbalance")
    extras = {name: per(_column, name) for name in tape.extra_names}
    MULT = per(_occ_mult)

    def data_seconds(r: int) -> Any:
        return model.data_seconds(
            B[r], {name: col[r] for name, col in extras.items()},
            agg_bw, prep)

    # a kernel rate resolves (once per context) only where its row carries
    # flops, so unused rows never trigger toolchain validation
    kernel_agg: dict[tuple, float] = {}

    def flops_time(c: _JobCtx, r: int, kernel: Any, has_rate: bool) -> float:
        f = c.tape.cols["flops"][r]
        if f == 0.0:
            return 0.0
        mapping = c.mapping
        if has_rate:
            return f / (mapping.n_ranks
                        * mapping.rank_compute_rate(0, c.tape.cols["rate"][r]))
        key = (id(c), kernel)
        agg = kernel_agg.get(key)
        if agg is None:
            rate = c.binary.sustained_flops(  # type: ignore[union-attr]
                c.job.cluster.node.core_model, kernel)
            agg = kernel_agg[key] = (
                mapping.n_ranks * mapping.rank_compute_rate(0, rate))
        return f / agg

    def comm_seconds(c: _JobCtx, r: int) -> float:
        op = c.tape.ops[r]
        return c.costs.barrier() if isinstance(op, Barrier) \
            else op.cost(c.costs)

    n_names = len(tape.names)
    phases: list[list[Any]] = [[0.0] * 5 for _ in range(n_names)]
    for occ, name_idx in enumerate(tape.occ_names):
        t_compute: Any = 0.0
        t_comm: Any = 0.0
        serial: Any = 0.0
        tf_sum: Any = 0.0
        tb_sum: Any = 0.0
        for r in tape.occ_rows[occ]:
            _, kind, kernel, _, _, has_rate = tape.rows[r]
            if kind == _K_SECONDS:
                t = S[r] * IMB[r]
                if compute_scale is not None:
                    t = t * compute_scale
                t_compute = t_compute + t
            elif kind == _K_COMPUTE:
                tf = per(flops_time, r, kernel, has_rate)
                if rate_scale is not None:
                    tf = tf / rate_scale
                tb = data_seconds(r)
                t = np.maximum(tf, tb) * IMB[r]
                if compute_scale is not None:
                    t = t * compute_scale
                t_compute = t_compute + t
                tf_sum = tf_sum + tf
                tb_sum = tb_sum + tb
            elif kind == _K_MEM:
                tb = data_seconds(r)
                t = tb if compute_scale is None else tb * compute_scale
                t_compute = t_compute + t
                tb_sum = tb_sum + tb
            elif kind == _K_SERIAL:
                s = S[r]
                if serial_scale is not None:
                    s = s * serial_scale
                serial = serial + s
            else:  # _K_COMM / _K_BARRIER
                cost = per(comm_seconds, r)
                if comm_scale is not None:
                    cost = cost * comm_scale
                t_comm = t_comm + cost
        total = t_compute + t_comm + serial
        mult = MULT[occ]
        acc = phases[name_idx]
        acc[0] = acc[0] + mult * total
        acc[1] = acc[1] + mult * t_compute
        acc[2] = acc[2] + mult * t_comm
        acc[3] = acc[3] + mult * tf_sum
        acc[4] = acc[4] + mult * tb_sum

    elapsed: Any = 0.0
    for acc in phases:
        elapsed = elapsed + acc[0]
    return elapsed, phases


def _group_payloads(ctxs: list[_JobCtx]) -> list[tuple]:
    """``run_batch`` payloads of one structure group, in context order."""
    n = len(ctxs)

    def lanes(x: Any) -> list:
        return [float(x)] * n if np.ndim(x) == 0 else x.tolist()

    elapsed, phases = _walk(ctxs, None)
    totals = lanes(elapsed)
    columns = [(name, [lanes(x) for x in acc])
               for name, acc in zip(ctxs[0].tape.names, phases)]
    return [
        (ctx.mapping.n_ranks, totals[j],
         tuple((name, *(vals[j] for vals in accs))
               for name, accs in columns))
        for j, ctx in enumerate(ctxs)
    ]


def _grid_index(shape: tuple[int, ...], head: tuple[int, ...], lo: int,
                hi: int) -> tuple:
    """Basic index of one chunk into a column padded to the grid's rank:
    ``head`` fixes the leading axes, ``[lo, hi)`` slices the next one,
    later axes stay whole.  A size-1 (broadcast) axis is kept as is, so
    the slice is a view at the column's own shape."""
    axis = len(head)
    index: list[Any] = [i if shape[d] > 1 else 0
                        for d, i in enumerate(head)]
    index.append(slice(lo, hi) if shape[axis] > 1 else slice(None))
    return tuple(index)


def _column_chunk(ctxs: list[_JobCtx], knobs: dict[str, np.ndarray],
                  shape: tuple[int, ...], start: int) -> ColumnChunk:
    """Price one chunk of the override grid: ``knobs`` broadcast to
    ``shape``, with ``ctxs`` on its last axis when stacked."""

    def lane(x: Any) -> np.ndarray:
        return np.broadcast_to(np.asarray(x, dtype=np.float64), shape)

    elapsed, phases = _walk(ctxs, knobs)
    names = ctxs[0].tape.names
    accs = [{name: lane(acc[i]) for name, acc in zip(names, phases)}
            for i in range(5)]
    return ColumnChunk(start, ctxs[0].mapping.n_ranks, lane(elapsed), *accs)


class _StreamChunkWorker:
    """PersistentPool handler: price one pickled job chunk per call under
    the parent's :class:`~repro.context.RunContext`.

    Lives in a worker process; the process-local memos (tape, network,
    binary, result) persist across calls, so each worker compiles a
    given program's tape exactly once — Program is a frozen value type,
    so pickled copies hit the same tape-memo entry.
    """

    def __init__(self, ctx: RunContext) -> None:
        self._ctx = ctx
        self._backend = shared_batch_backend()

    def handle(self, chunk: list[BatchJob]) -> list[RunResult]:
        with using(self._ctx):
            return self._backend.run_batch(chunk)


_SHARED: BatchAnalyticBackend | None = None


def shared_batch_backend() -> BatchAnalyticBackend:
    """Process-wide backend instance for the auto-routing call sites."""
    global _SHARED
    if _SHARED is None:
        _SHARED = BatchAnalyticBackend()
    return _SHARED


BACKENDS[BatchAnalyticBackend.name] = BatchAnalyticBackend
