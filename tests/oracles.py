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

:func:`energy_oracle` is the tuner's per-point energy expression as it
was written before :func:`repro.tune.engine._energy` computed it in one
working array; the tuner must equal it bit for bit.

:func:`protocol_factor_oracle` is the per-lane Fig. 5 protocol draw as it
was written before :meth:`ProtocolModel.factors` hashed a shared prefix:
one full :func:`~repro.util.rng.derive_seed` call per (pair, size class),
scaled to [0, 1) in Python integers and floats.

:func:`link_loads_oracle` is the dimension-order link fold as it was
written before :func:`~repro.network.routing.link_loads` laid every
route out as arrays: each flow's route from
:func:`~repro.network.routing.dimension_order_route`, added to a
``Counter`` link by link.

:func:`stream_bandwidth_oracle` is the STREAM contention solver as it was
written before :mod:`repro.smp.contention` solved it over numpy arrays
and a core->domain table: one Python loop per thread, each thread's
domain found by scanning the node's domains (:func:`domain_scan_oracle`).

:func:`banding_score_oracle` is Fig. 4's diagonal banding score as it was
written before :func:`repro.bench.osu.diagonal_banding_score` gathered
every diagonal at once: ``np.diagonal`` twice per offset, ``np.mean`` of
their non-NaN entries.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from repro.ir.backend import RunResult
from repro.ir.ops import Barrier, CommOp, ComputeOp, MemOp, SerialOp
from repro.machine.models import (
    ECM_LINE_CONCURRENCY,
    ECM_TRAFFIC_FACTORS,
    resolve_pricing,
)
from repro.network.collectives import CollectiveCosts
from repro.network.model import network_for
from repro.network.routing import dimension_order_route
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


def energy_oracle(elapsed, *, bytes_total, steps, n_nodes, active_cores,
                  power):
    """The tuner's per-point energy as one expression of fresh
    temporaries, before :func:`repro.tune.engine._energy` worked in
    place."""
    tts = elapsed * steps
    mem_gbs = (bytes_total / elapsed) / n_nodes / 1e9
    node_w = (power.idle_w + active_cores * power.core_active_w
              + mem_gbs * power.mem_w_per_gbs)
    return node_w * n_nodes * tts


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
            energies = energy_oracle(
                elapsed, bytes_total=bytes_total, steps=steps,
                n_nodes=spec.n_nodes, active_cores=active_cores,
                power=power)
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


def link_loads_oracle(topo, flows) -> Counter:
    """Counter[link] of the bytes each directed link carries under
    dimension-order routing, one route and one link at a time."""
    loads: Counter = Counter()
    for src, dst, volume in flows:
        if volume < 0:
            raise ConfigurationError("flow volume must be non-negative")
        for link in dimension_order_route(topo, src, dst):
            loads[link] += volume
    return loads


def domain_scan_oracle(node, core: int) -> int:
    """Index of the NUMA domain holding ``core``: a walk over the
    domains' core counts."""
    if not 0 <= core < node.cores:
        raise ConfigurationError(f"core {core} out of range")
    offset = 0
    for domain in node.domains:
        if core < offset + domain.cores:
            return domain.index
        offset += domain.cores
    raise AssertionError("unreachable")


def page_locality_oracle(placement, policy) -> np.ndarray:
    """``L[t, d]`` filled one thread at a time."""
    from repro.smp.pages import PagePolicy

    node = placement.node
    n_threads = placement.n_threads
    n_domains = len(node.domains)
    L = np.zeros((n_threads, n_domains))
    if policy is PagePolicy.FIRST_TOUCH:
        for t in range(n_threads):
            L[t, domain_scan_oracle(node, placement.cores[t])] = 1.0
    elif policy in (PagePolicy.PREPAGE_INTERLEAVE, PagePolicy.INTERLEAVE):
        L[:, :] = 1.0 / n_domains
    else:
        L[:, domain_scan_oracle(node, placement.cores[0])] = 1.0
    return L


def stream_bandwidth_oracle(placement, policy) -> float:
    """Aggregate STREAM bandwidth of one placement, thread by thread."""
    node = placement.node
    n_threads = placement.n_threads
    demand = np.full(n_threads, node.core_model.per_core_stream_bw)
    L = page_locality_oracle(placement, policy)
    homes = [domain_scan_oracle(node, c) for c in placement.cores]

    served = demand @ L
    domain_scale = np.ones(len(node.domains))
    for d, domain in enumerate(node.domains):
        if served[d] > 0:
            domain_scale[d] = min(
                1.0, domain.memory.sustainable_bandwidth / served[d])
    remote = sum(demand[t] * (1.0 - L[t, homes[t]])
                 for t in range(n_threads))
    ring_scale = 1.0
    if remote > 0:
        ring_scale = min(1.0, node.interconnect.total_bandwidth / remote)

    total = 0.0
    ring_bound = False
    for t in range(n_threads):
        scale = min(domain_scale[d] for d in range(len(node.domains))
                    if L[t, d] > 0)
        if L[t, homes[t]] < 1.0 and ring_scale < scale:
            scale = ring_scale
            ring_bound = True
        total += float(demand[t] * scale)
    if ring_bound:
        total *= max(0.5, 1.0 - 0.0015 * abs(n_threads - node.cores // 2))
    return total


def banding_score_oracle(bandwidth_map: np.ndarray) -> float:
    """Variance of per-offset diagonal means over the global variance,
    one offset at a time."""
    n = bandwidth_map.shape[0]
    values = bandwidth_map[~np.isnan(bandwidth_map)]
    total_var = float(np.var(values))
    if total_var == 0:
        return 0.0
    diag_means = []
    weights = []
    for off in range(1, n):
        d1 = np.diagonal(bandwidth_map, offset=off)
        d2 = np.diagonal(bandwidth_map, offset=-off)
        d = np.concatenate([d1[~np.isnan(d1)], d2[~np.isnan(d2)]])
        if d.size:
            diag_means.append(float(np.mean(d)))
            weights.append(d.size)
    between_var = float(np.average(
        (np.array(diag_means) - np.mean(values)) ** 2,
        weights=np.array(weights)))
    return between_var / total_var
