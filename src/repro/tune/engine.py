"""The tuning engine: one broadcast pass per placement, pooling, frontier
assembly.

The full point space is ``templates x pricing models x
points-per-template`` (see :mod:`repro.tune.space`).  The templates of
one placement (ranks x threads per node) share a tape structure, so each
(placement, pricing) pair is one *task*: one call of the batched IR
evaluator's column fast path
(:meth:`repro.ir.batch.BatchAnalyticBackend.run_override_columns`) with
the placement's templates stacked on the job axis and every space axis
as its own broadcast axis of the override grid::

    flag x page policy x comm scenario x bandwidth scenario x template

``rate_scale`` varies along the flag axis only, ``comm_scale`` along the
comm axis and ``bandwidth_scale`` (page factor times bandwidth jitter)
along the page, bandwidth and template axes, so each tape row's term is
computed on its distinct values and only the sums reach the full grid.
Energy is derived per point from the :mod:`repro.power` node model, the
tape's byte total and the placement's active cores.

Each task reduces its points to their Pareto-frontier candidates
worker-side (the merge property in :mod:`repro.tune.pareto` makes this
exact), so only frontier candidates cross the process boundary — the
parent's final pass over the merged candidates yields the global
frontier.  Chunk boundaries derive from the memory budget alone and
candidates are collected in task order, so the result is identical for
ANY worker count and budget; the PR-5 cost probe (price the first task
in-process, spawn a :class:`repro.util.procpool.PersistentPool` only
when the measured per-task cost times the remaining task count clears
:func:`repro.util.procpool.pool_min_seconds`) keeps small tunes
pool-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from repro.context import RunContext, current, using
from repro.ir.batch import (
    DEFAULT_STREAM_BUDGET,
    BatchJob,
    Tape,
    compile_tape,
    shared_batch_backend,
)
from repro.power.model import PowerModel, power_model_for
from repro.tune.pareto import pareto_indices
from repro.tune.report import TunePoint, TuneResult
from repro.tune.space import ConfigTemplate, TuneSpace, build_space
from repro.util.errors import ConfigurationError

__all__ = ["TuneSpec", "decode_point", "tune"]


@dataclass(frozen=True)
class TuneSpec:
    """Everything that defines one tuning run.

    Plain picklable values only — pool workers receive the spec and
    rebuild the enumerated space locally (one tape compile per worker,
    via the process-local tape cache), so no heavyweight objects cross
    the process boundary.
    """

    app: str
    cluster: str
    n_nodes: int = 16
    steps: int | None = None
    scenarios: int = 2
    scenario_spread: float = 0.15
    pricing: tuple[str, ...] = ("roofline", "ecm")
    memory_budget_bytes: int = DEFAULT_STREAM_BUDGET

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(
                f"n_nodes must be positive, got {self.n_nodes}")
        if self.steps is not None and self.steps < 1:
            raise ConfigurationError(
                f"steps must be positive, got {self.steps}")
        if not self.pricing:
            raise ConfigurationError("need at least one pricing model")


def decode_point(space: TuneSpace, point_id: int) -> dict[str, Any]:
    """Invert the global point numbering into one configuration.

    Global ids are ``(template * n_pricing + pricing) * P + local`` with
    ``P = space.points_per_template``; the local index unpacks as
    ``flag x page-policy x comm-scenario x bandwidth-scenario`` in
    row-major order — the leading axes of the override grid
    :func:`_grid_columns` builds, so decode(encode(i)) round-trips.  An
    id outside ``[0, space.n_points)`` raises
    :class:`~repro.util.errors.ConfigurationError`.
    """
    if not 0 <= point_id < space.n_points:
        raise ConfigurationError(
            f"point id {point_id} is outside [0, {space.n_points})")
    per = space.points_per_template
    tp, local = divmod(point_id, per)
    t_idx, p_idx = divmod(tp, len(space.pricing))
    n_pages = len(space.policies)
    n_bw = len(space.bandwidth_grid)
    s2 = len(space.comm_grid) * n_bw
    flag_i = local // (n_pages * s2)
    page_i = (local // s2) % n_pages
    comm_i, bw_i = divmod(local % s2, n_bw)
    template = space.templates[t_idx]
    return {
        "point_id": point_id,
        "pricing": space.pricing[p_idx],
        "compiler": template.compiler,
        "vectorization": template.vectorization,
        "ranks_per_node": template.ranks_per_node,
        "threads_per_rank": template.threads_per_rank,
        "flags": space.flags[flag_i].name,
        "page_policy": space.policies[page_i].value,
        "comm_scale": space.comm_grid[comm_i],
        "bandwidth_jitter": space.bandwidth_grid[bw_i],
        "template_index": t_idx,
    }


def _grid_columns(
    space: TuneSpace, templates: list[ConfigTemplate]
) -> dict[str, np.ndarray]:
    """Override columns of one placement's grid, axes ``(flag, page,
    comm, bandwidth, template)``; each knob spans only its own axes."""
    rates = np.asarray([f.rate_scale for f in space.flags])
    comms = np.asarray(space.comm_grid)
    pages = np.asarray([t.page_factors for t in templates]).T
    bws = np.asarray(space.bandwidth_grid)
    return {
        "rate_scale": rates[:, None, None, None, None],
        "comm_scale": comms[None, None, :, None, None],
        "bandwidth_scale": (pages[None, :, None, None, :]
                            * bws[None, None, None, :, None]),
    }


def _tape_bytes(tape: Tape) -> float:
    """Total bytes one program execution moves (rows x multiplicities)."""
    occ_of_row = np.asarray([row[0] for row in tape.rows], dtype=np.int64)
    mult = tape.occ_mult[occ_of_row].astype(np.float64)
    return float(np.sum(tape.cols["bytes"] * mult))


def _energy(
    elapsed: np.ndarray, tts: np.ndarray, *, bytes_total: float,
    n_nodes: int, active_cores: int, power: PowerModel,
) -> np.ndarray:
    """Vectorized :func:`repro.power.app_energy` accounting per point.

    Computes ``node_w * n_nodes * tts`` with ``node_w = idle + cores *
    core_w + mem_gbs * mem_w`` in one working array, where ``tts`` is the
    caller's ``elapsed * steps`` (the time to solution it already holds),
    in the expression's operation order: only commuted operands move,
    which IEEE arithmetic keeps exact.  A tune's chunk temporaries sit
    just under glibc's heap trim threshold, so a fresh temporary per step
    gets the heap top trimmed and faulted back on every chunk.
    """
    out: np.ndarray = np.divide(bytes_total, elapsed)
    out /= n_nodes
    out /= 1e9
    out *= power.mem_w_per_gbs
    out += power.idle_w + active_cores * power.core_active_w
    out *= n_nodes
    out *= tts
    return out


class _TuneState:
    """Per-process resolved tuning context (parent and pool workers)."""

    def __init__(self, spec: TuneSpec) -> None:
        from repro.apps import get_app
        from repro.verify.runner import resolve_cluster

        self.spec = spec
        self.app = get_app(spec.app)
        self.cluster = resolve_cluster(spec.cluster, spec.n_nodes)
        self.space = build_space(
            self.app, self.cluster, spec.n_nodes,
            scenarios=spec.scenarios,
            scenario_spread=spec.scenario_spread,
            pricing=spec.pricing,
        )
        self.steps = (self.app.steps_per_run if spec.steps is None
                      else spec.steps)
        self.power = power_model_for(self.cluster)
        self.backend = shared_batch_backend()
        # template indices per placement, in first-appearance order
        groups: dict[tuple[int, int], list[int]] = {}
        for t in self.space.templates:
            key = (t.ranks_per_node, t.threads_per_rank)
            groups.setdefault(key, []).append(t.index)
        self.placements = tuple(groups.values())

    def tasks(self) -> list[tuple[int, int]]:
        """All (placement, pricing) work units, canonical order."""
        return [(g, p) for g in range(len(self.placements))
                for p in range(len(self.space.pricing))]

    def price_task(
        self, task: tuple[int, int]
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Price one placement under one pricing model, reduce each
        chunk to its Pareto candidates.

        Returns ``(points_priced, candidate_ids, times, energies)`` with
        global point ids.
        """
        g_idx, p_idx = task
        space = self.space
        members = self.placements[g_idx]
        templates = [space.templates[t] for t in members]
        # the templates of a placement share one mapping value, so one
        # program, byte total and active core count serve them all
        mapping = templates[0].mapping
        program = self.app.program(mapping)
        jobs = [
            BatchJob(program, self.cluster, self.spec.n_nodes,
                     mapping=t.mapping, binary=t.binary,
                     check_memory=False, pricing=space.pricing[p_idx])
            for t in templates
        ]
        n = len(jobs)
        bytes_total = _tape_bytes(compile_tape(program))
        active_cores = mapping.ranks_per_node * mapping.threads_per_rank
        base = ((np.asarray(members) * len(space.pricing) + p_idx)
                * space.points_per_template)
        n_priced = 0
        cand: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for chunk in self.backend.run_override_columns(
                jobs, _grid_columns(space, templates),
                memory_budget_bytes=self.spec.memory_budget_bytes):
            tts = chunk.elapsed * self.steps
            energies = _energy(
                chunk.elapsed, tts, bytes_total=bytes_total,
                n_nodes=self.spec.n_nodes, active_cores=active_cores,
                power=self.power,
            ).ravel()
            times = tts.ravel()
            front = pareto_indices(times, energies)
            local, job = np.divmod(front + chunk.start, n)
            cand.append((base[job] + local, times[front], energies[front]))
            n_priced += len(chunk)
        ids, times, energies = (np.concatenate(parts) for parts in zip(*cand))
        return n_priced, ids, times, energies


class _TuneWorker:
    """Pool handler: one resolved :class:`_TuneState` per process, each
    task priced under the parent's run context."""

    def __init__(self, init: tuple[TuneSpec, RunContext]) -> None:
        spec, self._ctx = init
        with using(self._ctx):
            self._state = _TuneState(spec)

    def handle(
        self, task: tuple[int, int]
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        with using(self._ctx):
            return self._state.price_task(task)


def _baseline(state: _TuneState) -> tuple[str, dict[str, tuple[float, float]]]:
    """Price the paper's Table III default configuration per pricing
    model: default compiler, auto-vectorization, the app's default
    placement, first-touch pages, ``-O3``, nominal scenario."""
    app, cluster, spec = state.app, state.cluster, state.spec
    mapping = app.mapping(cluster, spec.n_nodes)
    binary = app.build(cluster)
    program = app.program(mapping)
    bytes_total = _tape_bytes(compile_tape(program))
    label = binary.compiler.label
    desc = (f"{label}, auto vectorization, "
            f"{mapping.ranks_per_node}x{mapping.threads_per_rank}, "
            f"first-touch, -O3")
    out: dict[str, tuple[float, float]] = {}
    jobs = [
        BatchJob(program, cluster, spec.n_nodes, mapping=mapping,
                 binary=binary, check_memory=False, pricing=name)
        for name in state.space.pricing
    ]
    for name, result in zip(state.space.pricing,
                            state.backend.run_batch(jobs)):
        elapsed = np.asarray([result.elapsed])
        energy = _energy(
            elapsed, elapsed * state.steps, bytes_total=bytes_total,
            n_nodes=spec.n_nodes,
            active_cores=mapping.ranks_per_node * mapping.threads_per_rank,
            power=state.power,
        )
        out[name] = (result.elapsed * state.steps, float(energy[0]))
    return desc, out


def _explanations(
    state: _TuneState, points: list[TunePoint], top: int
) -> tuple[str, ...]:
    """Verify-layer rationale for the leading frontier points: the
    placement lint on the point's mapping/page policy plus the
    vectorization advisor on its toolchain."""
    from repro.smp import PagePolicy
    from repro.toolchain.profiles import COMPILERS
    from repro.verify.placement import check_mapping
    from repro.verify.vectorization import advise_build

    from repro.tune.space import _scalar_profile

    lines: list[str] = []
    distinct: list[TunePoint] = []
    seen: set[str] = set()
    for point in points:  # scenario twins share one explanation
        if point.config not in seen:
            seen.add(point.config)
            distinct.append(point)
    for point in distinct[:top]:
        profile = COMPILERS[point.compiler]
        if point.vectorization == "disabled":
            profile = _scalar_profile(profile)
        template = state.space.templates[point.template_index]
        diags = check_mapping(template.mapping,
                              policy=PagePolicy(point.page_policy))
        diags += advise_build(profile, state.app.kernels,
                              application=state.app.name)
        header = (f"{point.compiler} [{point.vectorization}] "
                  f"{point.ranks_per_node}x{point.threads_per_rank} "
                  f"{point.flags} pages={point.page_policy} "
                  f"({point.pricing}): {point.time_s:.3f} s, "
                  f"{point.energy_j / 1e3:.1f} kJ")
        lines.append(header)
        if diags:
            lines.extend(f"  {d.render()}" for d in diags)
        else:
            lines.append("  verify: clean placement and toolchain")
    return tuple(lines)


def tune(
    spec: TuneSpec, *, workers: int = 0, explain_top: int = 3
) -> TuneResult:
    """Run one tuning sweep and return the exact Pareto frontier.

    ``workers > 1`` shards tasks across a persistent pool once the cost
    probe clears :func:`repro.util.procpool.pool_min_seconds`; the
    frontier is identical for any worker count.
    """
    t0 = perf_counter()
    state = _TuneState(spec)
    space = state.space
    if not space.templates:
        raise ConfigurationError(
            f"no viable configuration for {spec.app!r} on "
            f"{spec.cluster!r}: "
            + "; ".join(e.reason for e in space.excluded[:4])
        )
    tasks = state.tasks()
    n_priced = 0
    cand_ids: list[np.ndarray] = []
    cand_t: list[np.ndarray] = []
    cand_e: list[np.ndarray] = []

    def collect(
        reply: tuple[int, np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        nonlocal n_priced
        n, ids, times, energies = reply
        n_priced += n
        cand_ids.append(ids)
        cand_t.append(times)
        cand_e.append(energies)

    probe_t0 = perf_counter()
    collect(state.price_task(tasks[0]))
    probe_wall = perf_counter() - probe_t0
    rest = tasks[1:]
    used_pool = False
    if rest and workers > 1:
        from repro.util.procpool import PersistentPool, pool_min_seconds

        used_pool = probe_wall * len(rest) >= pool_min_seconds()
    if used_pool:
        n_workers = max(2, min(workers, len(rest)))
        with PersistentPool(_TuneWorker,
                            [(spec, current())] * n_workers) as pool:
            for reply in pool.imap(iter(rest)):
                collect(reply)
    else:
        for task in rest:
            collect(state.price_task(task))

    ids = np.concatenate(cand_ids)
    times = np.concatenate(cand_t)
    energies = np.concatenate(cand_e)
    order = np.argsort(ids, kind="stable")
    ids, times, energies = ids[order], times[order], energies[order]

    def make_point(i: int) -> TunePoint:
        info = decode_point(space, int(ids[i]))
        return TunePoint(time_s=float(times[i]),
                         energy_j=float(energies[i]), **info)

    def sort_key(p: TunePoint) -> tuple[float, float, int]:
        return (p.time_s, p.energy_j, p.point_id)

    # One frontier per pricing model: an ECM estimate is never below the
    # roofline estimate of the same config (the ECM data term only
    # adds), so a single merged frontier would structurally exclude the
    # whole ECM arm.  The union-wide frontier is kept as well.
    per = space.points_per_template
    pricing_of = (ids // per) % len(space.pricing)
    frontiers: dict[str, tuple[TunePoint, ...]] = {}
    for p_idx, name in enumerate(space.pricing):
        sub = np.nonzero(pricing_of == p_idx)[0]
        front = pareto_indices(times[sub], energies[sub])
        sub_points = [make_point(int(sub[i])) for i in front]
        sub_points.sort(key=sort_key)
        frontiers[name] = tuple(sub_points)
    front = pareto_indices(times, energies)
    points = [make_point(int(i)) for i in front]
    points.sort(key=sort_key)
    best_time = points[0]
    best_energy = min(points,
                      key=lambda p: (p.energy_j, p.time_s, p.point_id))
    baseline_desc, baseline = _baseline(state)
    wall = perf_counter() - t0
    return TuneResult(
        app=space.app,
        cluster=space.cluster_name,
        n_nodes=spec.n_nodes,
        steps=state.steps,
        pricing=space.pricing,
        n_points=n_priced,
        n_templates=len(space.templates),
        n_excluded=len(space.excluded),
        excluded=tuple(
            f"{e.compiler} [{e.vectorization}]: {e.reason}"
            for e in space.excluded
        ),
        frontiers=frontiers,
        frontier=tuple(points),
        best_time=best_time,
        best_energy=best_energy,
        baseline_config=baseline_desc,
        baseline=baseline,
        explanations=_explanations(state, points, explain_top),
        wall_seconds=wall,
        points_per_second=n_priced / wall if wall > 0 else float("inf"),
        used_pool=used_pool,
        workers=workers,
    )
