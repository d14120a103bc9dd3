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
