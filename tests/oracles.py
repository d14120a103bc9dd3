"""Differential oracles for the analytic engine.

:func:`analytic_oracle` is the per-op scalar walk that priced every
figure before the tape evaluator (:mod:`repro.ir.batch`) became the one
analytic engine.  It stays here, outside ``src/``, as an independent
re-implementation the engine is checked against bit for bit:

* it walks the :class:`~repro.ir.program.Program` op tree directly, with
  no tape, no stacking, no memo and no shared caches (fresh network,
  binary and bandwidth lookups), accumulating in plain Python floats;
* the roofline and ECM data arms — including the ECM hierarchy term —
  are written out here, so the oracle never calls the pricing model it
  checks;
* comm ops price through :meth:`CommOp.cost`, the
  :class:`~repro.network.collectives.CollectiveCosts` closed forms the
  DES differential tests pin.

``overrides`` applies the what-if knobs in the engine's documented
expression order.  Multiplying or dividing by exactly 1.0 is an IEEE-754
identity, so applying every knob unconditionally is bit-identical to the
engine's skip of identity knobs.

:func:`tune_oracle` is the tuner's historical per-template path (one 1-D
column pass and one Pareto reduction per template and pricing model),
which the placement-grid engine in :mod:`repro.tune.engine` must equal
bit for bit.

:func:`protocol_factor_oracle` is the per-lane Fig. 5 protocol draw as it
was written before :meth:`ProtocolModel.factors` hashed a shared prefix:
one full :func:`~repro.util.rng.derive_seed` call per (pair, size class),
scaled to [0, 1) in Python integers and floats.
"""

from __future__ import annotations

from typing import Any

from repro.ir.backend import RunResult
from repro.ir.ops import Barrier, CommOp, ComputeOp, MemOp, SerialOp
from repro.machine.models import (
    ECM_LINE_CONCURRENCY,
    ECM_TRAFFIC_FACTORS,
    resolve_pricing,
)
from repro.network.collectives import CollectiveCosts
from repro.network.model import network_for
from repro.toolchain.profiles import default_compiler_for
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

_KNOBS = ("compute_scale", "comm_scale", "serial_scale",
          "bandwidth_scale", "rate_scale")


def _binary(program, cluster, binary):
    """Build the toolchain binary only when a compute op needs it."""
    if binary is not None:
        binary.check_runnable()
        return binary
    needed = any(
        isinstance(op, ComputeOp) and op.seconds is None
        and op.rate_per_core is None
        and (op.flops > 0 or op.kernel is not None)
        for phase, _ in program.iter_phases() for op in phase.ops
    )
    if not needed:
        return None
    built = default_compiler_for(program.name, cluster.name).build(
        program.name, program.kernels, language=program.language)
    built.check_runnable()
    return built


def _ecm_hierarchy_seconds_per_byte(mapping, cluster) -> float:
    """Sum of reciprocal node-aggregate cache-level bandwidths below L1."""
    node = cluster.node
    active = min(1.0, mapping.ranks_per_node * mapping.threads_per_rank
                 / node.cores)
    freq = node.core_model.frequency_hz
    total = 0.0
    for lvl in node.caches.levels[1:]:
        per_core = lvl.line_bytes * freq / max(
            1.0, lvl.latency_cycles / ECM_LINE_CONCURRENCY)
        level_bw = per_core * lvl.shared_by * lvl.count * active
        total += 1.0 / (level_bw * mapping.n_nodes)
    return total


def analytic_oracle(
    program,
    cluster,
    n_nodes: int,
    *,
    mapping=None,
    network=None,
    binary=None,
    check_memory: bool = True,
    pricing: Any = None,
    overrides: dict[str, float] | None = None,
) -> RunResult:
    """Price ``program`` with the historical scalar analytic walk."""
    model = resolve_pricing(pricing).name
    if model not in ("roofline", "ecm"):
        raise ConfigurationError(f"oracle has no data arm for {model!r}")
    knobs = {name: 1.0 for name in _KNOBS}
    knobs.update(overrides or {})
    if check_memory:
        program.check_feasible(cluster, n_nodes)
    if mapping is None:
        mapping = program.mapping(cluster, n_nodes)
    binary = _binary(program, cluster, binary)
    net = network if network is not None else network_for(
        cluster, n_nodes=n_nodes)
    costs = CollectiveCosts(mapping=mapping, network=net)
    core = cluster.node.core_model
    n_ranks = mapping.n_ranks
    agg_bw = n_ranks * mapping.rank_memory_bandwidth(0)
    agg_bw = agg_bw * knobs["bandwidth_scale"]
    hier = (_ecm_hierarchy_seconds_per_byte(mapping, cluster)
            if model == "ecm" else 0.0)

    def data_seconds(op) -> float:
        if not op.bytes_moved:
            return 0.0
        t = op.bytes_moved / agg_bw
        if model == "ecm":
            kernel = getattr(op, "kernel", None)
            factor = ECM_TRAFFIC_FACTORS.get(
                kernel.name if kernel is not None else None, 1.0)
            t = t + factor * float(op.bytes_moved) * hier
        return t

    result = RunResult(
        backend="oracle",
        program=program.name,
        cluster=cluster.name,
        n_nodes=n_nodes,
        n_ranks=n_ranks,
        elapsed=0.0,
        steps=program.steps,
    )
    for name in program.phase_names():
        result.phase_seconds[name] = 0.0
        result.phase_compute[name] = 0.0
        result.phase_comm[name] = 0.0
        result.phase_flops_time[name] = 0.0
        result.phase_bytes_time[name] = 0.0
    for phase, mult in program.iter_phases():
        t_compute = 0.0
        t_comm = 0.0
        serial = 0.0
        t_flops_sum = 0.0
        t_bytes_sum = 0.0
        for op in phase.ops:
            if isinstance(op, ComputeOp):
                if op.seconds is not None:
                    t_compute += (op.seconds * op.imbalance
                                  * knobs["compute_scale"])
                    continue
                if op.flops:
                    if op.rate_per_core is not None:
                        rate = op.rate_per_core
                    elif binary is not None and op.kernel is not None:
                        rate = binary.sustained_flops(core, op.kernel)
                    else:
                        raise ConfigurationError(
                            f"compute op in phase {phase.name!r} needs a "
                            "kernel class or an explicit rate_per_core"
                        )
                    t_flops = op.flops / (
                        n_ranks * mapping.rank_compute_rate(0, rate))
                else:
                    t_flops = 0.0
                t_flops = t_flops / knobs["rate_scale"]
                t_bytes = data_seconds(op)
                t_compute += (max(t_flops, t_bytes) * op.imbalance
                              * knobs["compute_scale"])
                t_flops_sum += t_flops
                t_bytes_sum += t_bytes
            elif isinstance(op, MemOp):
                t_bytes = data_seconds(op)
                t_compute += t_bytes * knobs["compute_scale"]
                t_bytes_sum += t_bytes
            elif isinstance(op, SerialOp):
                serial += op.seconds * knobs["serial_scale"]
            elif isinstance(op, CommOp):
                t_comm += op.cost(costs) * knobs["comm_scale"]
            elif isinstance(op, Barrier):
                t_comm += costs.barrier() * knobs["comm_scale"]
            else:  # pragma: no cover - Phase only holds Op members
                raise ConfigurationError(f"cannot price op {op!r}")
        total = t_compute + t_comm + serial
        name = phase.name
        result.phase_seconds[name] += mult * total
        result.phase_compute[name] += mult * t_compute
        result.phase_comm[name] += mult * t_comm
        result.phase_flops_time[name] += mult * t_flops_sum
        result.phase_bytes_time[name] += mult * t_bytes_sum
    result.elapsed = sum(result.phase_seconds.values())
    return result


def assert_matches_oracle(got, want) -> None:
    """Bit-for-bit equality of elapsed, rank count and the five per-phase
    accounts of two :class:`RunResult`-shaped objects."""
    assert got.elapsed == want.elapsed
    assert got.n_ranks == want.n_ranks
    assert got.phase_seconds == want.phase_seconds
    assert got.phase_compute == want.phase_compute
    assert got.phase_comm == want.phase_comm
    assert got.phase_flops_time == want.phase_flops_time
    assert got.phase_bytes_time == want.phase_bytes_time


def tune_oracle(spec) -> tuple[dict, dict]:
    """The tuner's historical per-template path, kept as its oracle.

    Every (template, pricing) pair is one ``run_override_columns`` call
    over 1-D columns of the template's ``flag x page-policy x
    comm-scenario x bandwidth-scenario`` points (row-major), reduced to
    its own Pareto candidates; the frontiers are one final pass over the
    merged candidates.  No placement stacking and no broadcast grid.

    Returns ``(candidates, frontiers)``: ``candidates[t_idx, p_idx]`` and
    ``frontiers[name]`` (``frontiers[None]``: the union over pricing
    models) are ``(ids, times, energies)`` arrays, ids ascending.
    """
    import numpy as np

    from repro.apps import get_app
    from repro.ir.batch import BatchJob, compile_tape, shared_batch_backend
    from repro.power.model import power_model_for
    from repro.tune import build_space, pareto_indices
    from repro.verify.runner import resolve_cluster

    app = get_app(spec.app)
    cluster = resolve_cluster(spec.cluster, spec.n_nodes)
    space = build_space(app, cluster, spec.n_nodes,
                        scenarios=spec.scenarios,
                        scenario_spread=spec.scenario_spread,
                        pricing=spec.pricing)
    steps = app.steps_per_run if spec.steps is None else spec.steps
    power = power_model_for(cluster)
    backend = shared_batch_backend()
    per = space.points_per_template
    n_pages = len(space.policies)
    n_bw = len(space.bandwidth_grid)
    s2 = len(space.comm_grid) * n_bw
    idx = np.arange(per)
    flag_i = idx // (n_pages * s2)
    page_i = (idx // s2) % n_pages
    sc = idx % s2
    rates = np.asarray([f.rate_scale for f in space.flags])
    comms = np.asarray(space.comm_grid)
    bws = np.asarray(space.bandwidth_grid)
    candidates: dict = {}
    for template in space.templates:
        program = app.program(template.mapping)
        tape = compile_tape(program)
        occ_of_row = np.asarray([row[0] for row in tape.rows],
                                dtype=np.int64)
        bytes_total = float(np.sum(
            tape.cols["bytes"]
            * tape.occ_mult[occ_of_row].astype(np.float64)))
        active_cores = template.ranks_per_node * template.threads_per_rank
        columns = {
            "rate_scale": rates[flag_i],
            "comm_scale": comms[sc // n_bw],
            "bandwidth_scale": (np.asarray(template.page_factors)[page_i]
                                * bws[sc % n_bw]),
        }
        for p_idx, pricing in enumerate(space.pricing):
            job = BatchJob(program, cluster, spec.n_nodes,
                           mapping=template.mapping, binary=template.binary,
                           check_memory=False, pricing=pricing)
            elapsed = np.concatenate([
                chunk.elapsed for chunk in backend.run_override_columns(
                    job, columns, chunk_points=per)])
            times = elapsed * steps
            mem_gbs = (bytes_total / elapsed) / spec.n_nodes / 1e9
            node_w = (power.idle_w + active_cores * power.core_active_w
                      + mem_gbs * power.mem_w_per_gbs)
            energies = node_w * spec.n_nodes * (elapsed * steps)
            front = pareto_indices(times, energies)
            base = (template.index * len(space.pricing) + p_idx) * per
            candidates[template.index, p_idx] = (
                front + base, times[front], energies[front])
    frontiers: dict = {}
    for key in (*space.pricing, None):
        parts = [cand for (_, p_idx), cand in sorted(candidates.items())
                 if key is None or space.pricing[p_idx] == key]
        ids, times, energies = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(ids, kind="stable")
        ids, times, energies = ids[order], times[order], energies[order]
        front = pareto_indices(times, energies)
        frontiers[key] = (ids[front], times[front], energies[front])
    return candidates, frontiers


def protocol_factor_oracle(protocol, src, dst, size: int) -> float:
    """Bandwidth multiplier of one (src, dst, size) lane, one
    ``derive_seed`` per draw."""
    if size <= 0:
        raise ConfigurationError("message size must be positive")
    if protocol.bimodal_lo <= size < protocol.bimodal_hi:
        tag = "mode"
    elif size >= protocol.large_threshold:
        tag = "jitter"
    else:
        return 1.0
    key = derive_seed(protocol.seed, tag, src, dst, size.bit_length())
    u = (key % (2**53)) / float(2**53)
    if tag == "mode":
        return protocol.slow_factor if u < protocol.slow_probability else 1.0
    return 1.0 - protocol.large_jitter * u
