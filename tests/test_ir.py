"""Unit tests for the engine-agnostic workload IR (repro.ir).

Covers the op vocabulary's validation, the JSON round-trip, the balanced
process-grid rule that replaced ``des_runner._grid_neighbors``, the
backend registry, and — the load-bearing property of the refactor — the
analytic backend reproducing ``AppModel.time_step`` bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    AnalyticBackend,
    Barrier,
    CommOp,
    ComputeOp,
    DESBackend,
    FastCollBackend,
    Loop,
    MemOp,
    Phase,
    Program,
    SerialOp,
    compile_phases,
    from_json,
    get_backend,
    grid_dims,
    grid_neighbors,
    to_dict,
    to_json,
)
from repro.context import RunContext, current, using
from repro.ir.lower import _comm_reps, _halo_ndims, flatten_phases, lower
from repro.ir.ops import COMM_KINDS
from repro.machine import cte_arm
from repro.machine.models import PricingContext, RooflineModel, resolve_pricing
from repro.simmpi.mapping import RankMapping
from repro.simmpi.payload import VirtualPayload
from repro.simmpi.world import World
from repro.util.errors import ConfigurationError, OutOfMemoryError

from .oracles import analytic_oracle
from .strategies import ir_programs

_CLUSTER = cte_arm(16)


def _toy_program(steps: int = 2) -> Program:
    return Program(
        name="toy",
        body=(Loop(steps, (
            Phase("work", (
                ComputeOp(seconds=1e-4),
                CommOp("allreduce", 4096),
            )),
            Phase("sync", (Barrier(),)),
        )),),
        steps=steps,
    )


class TestOps:
    def test_unknown_comm_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CommOp("teleport", 8)

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeOp(flops=-1.0)
        with pytest.raises(ConfigurationError):
            MemOp(bytes_moved=-1)
        with pytest.raises(ConfigurationError):
            SerialOp(seconds=-0.1)

    def test_imbalance_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeOp(flops=1.0, imbalance=0.5)

    def test_zero_count_comm_costs_nothing(self):
        from repro.network.collectives import CollectiveCosts
        from repro.network.model import network_for

        mapping = RankMapping(_CLUSTER, n_nodes=2, ranks_per_node=2)
        costs = CollectiveCosts(
            mapping=mapping, network=network_for(_CLUSTER, n_nodes=2))
        assert CommOp("allreduce", 8, count=0).cost(costs) == 0.0

    def test_structure_validation(self):
        with pytest.raises(ConfigurationError):
            Phase("")
        with pytest.raises(ConfigurationError):
            Loop(-1)
        with pytest.raises(ConfigurationError):
            Program(name="", body=())
        with pytest.raises(ConfigurationError):
            Program(name="x", body=(), steps=0)


class TestProgram:
    def test_iter_phases_multiplies_loop_counts(self):
        program = _toy_program(steps=3)
        occurrences = list(program.iter_phases())
        assert [(ph.name, mult) for ph, mult in occurrences] == [
            ("work", 3), ("sync", 3)]
        assert program.phase_names() == ["work", "sync"]

    def test_memory_gate(self):
        program = Program(
            name="big", body=(Phase("p", (ComputeOp(seconds=1e-6),)),),
            ranks_per_node=1,
            distributed_bytes_total=4 * _CLUSTER.node.memory_bytes,
        )
        with pytest.raises(OutOfMemoryError):
            program.check_feasible(_CLUSTER, 1)
        program.check_feasible(_CLUSTER, 8)


class TestSerialize:
    def test_round_trip_identity(self):
        program = Program(
            name="rt",
            body=(Loop(2, (Phase("p", (
                ComputeOp(flops=1e9, bytes_moved=1e8, imbalance=1.1,
                          rate_per_core=2e9),
                MemOp(bytes_moved=1e7),
                SerialOp(seconds=1e-3),
                CommOp("halo", 4096, count=2.0, neighbors=6),
                Barrier(),
            )),)),),
            steps=2,
            ranks_per_node=4,
            threads_per_rank=2,
            language="fortran",
        )
        assert from_json(to_json(program)) == program

    def test_round_trip_identical_analytic_cost(self):
        program = _toy_program()
        backend = AnalyticBackend()
        before = backend.run(program, _CLUSTER, 2, check_memory=False)
        after = backend.run(from_json(to_json(program)), _CLUSTER, 2,
                            check_memory=False)
        assert after.elapsed == before.elapsed
        assert after.phase_seconds == before.phase_seconds

    def test_unknown_record_rejected(self):
        data = to_dict(_toy_program())
        data["body"][0]["body"][0]["ops"][0]["op"] = "quantum"
        from repro.ir import from_dict

        with pytest.raises(ConfigurationError):
            from_dict(data)


class TestGrid:
    def test_most_square_factorization(self):
        assert grid_dims(12, 2) == (4, 3)
        assert grid_dims(48, 2) == (8, 6)
        assert grid_dims(48, 3) == (4, 4, 3)
        assert grid_dims(8, 3) == (2, 2, 2)

    def test_prime_degenerates_to_chain(self):
        assert grid_dims(7, 2) == (7, 1)
        # interior ranks of the chain see exactly 2 neighbors
        assert sorted(grid_neighbors(3, 7)) == [2, 4]

    def test_neighbor_symmetry(self):
        for p in (4, 6, 8, 12):
            for ndims in (1, 2, 3):
                for r in range(p):
                    for nb in grid_neighbors(r, p, ndims=ndims):
                        assert r in grid_neighbors(nb, p, ndims=ndims)

    def test_2d_interior_rank_has_four_neighbors(self):
        # 12 ranks -> 4x3 grid; rank at row 1, col 1 is interior
        dims = grid_dims(12, 2)
        interior = 1 * dims[1] + 1
        assert len(grid_neighbors(interior, 12)) == 4

    def test_fractional_count_subsampling(self):
        op = CommOp("gather", 64, count=1.0 / 3.0)
        reps = [_comm_reps(op, step) for step in range(6)]
        assert reps == [1, 0, 0, 1, 0, 0]
        assert _comm_reps(CommOp("gather", 64, count=2.4), 0) == 2


class TestBackendRegistry:
    def test_get_backend(self):
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        assert isinstance(get_backend("fastcoll"), FastCollBackend)
        assert isinstance(get_backend("des"), DESBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("quantum")
        with pytest.raises(ConfigurationError):
            RunContext(backend="quantum")

    def test_default_backend_round_trip(self):
        prev = current().backend
        with using(RunContext(backend="fastcoll")):
            assert current().backend == "fastcoll"
        assert current().backend == prev


class TestAnalyticParity:
    """The refactor's contract: the IR path is the old arithmetic."""

    @pytest.mark.parametrize("app_name", ["alya", "nemo", "wrf"])
    def test_time_step_equals_direct_backend_run(self, app_name):
        from repro.apps import get_app

        app = get_app(app_name)
        n_nodes = 16
        timing = app.time_step(_CLUSTER, n_nodes)
        mapping = app.mapping(_CLUSTER, n_nodes)
        program = app.program(mapping)
        result = analytic_oracle(
            program, _CLUSTER, n_nodes,
            mapping=mapping, binary=app.build(_CLUSTER), check_memory=False)
        assert result.phase_seconds == timing.phase_seconds
        assert result.phase_compute == timing.phase_compute
        assert result.phase_comm == timing.phase_comm
        assert result.phase_flops_time == timing.phase_flops_time
        assert result.phase_bytes_time == timing.phase_bytes_time
        assert result.elapsed == timing.total

    def test_compile_phases_structure(self):
        from repro.apps import get_app

        app = get_app("wrf")
        mapping = app.mapping(_CLUSTER, 16)
        program = app.program(mapping, steps=5)
        assert program.steps == 5
        (loop,) = program.body
        assert isinstance(loop, Loop) and loop.count == 5
        assert program.phase_names() == [
            ph.name for ph in app.phases(mapping)]

    def test_serial_seconds_charged_once(self):
        program = Program(
            name="serial",
            body=(Phase("p", (SerialOp(seconds=0.25),)),),
        )
        result = AnalyticBackend().run(program, _CLUSTER, 4,
                                       check_memory=False)
        assert result.elapsed == 0.25


class TestAppRun:
    def test_run_under_named_backend(self):
        from repro.apps import get_app

        app = get_app("gromacs")
        result = app.run(_CLUSTER, 16, backend="analytic")
        assert result.backend == "analytic"
        assert result.elapsed > 0
        timing = app.time_step(_CLUSTER, 16)
        assert result.elapsed == timing.total

    def test_time_step_via_des_backend_band(self):
        from repro.apps import get_app

        app = get_app("gromacs")
        analytic = app.time_step(_CLUSTER, 2).total
        des = app.time_step(_CLUSTER, 2, backend="des").total
        assert 0.8 < des / analytic < 1.25


class TestHarnessCacheKey:
    def test_backend_in_cache_key(self):
        from repro.harness.parallel import cache_key

        assert cache_key("fig2", "analytic") != cache_key("fig2", "des")
        assert cache_key("fig2") == cache_key("fig2", "analytic")


# -- the recursive emitter the flat schedule replaced: differential oracle ---


def _emit_comm(comm, op, n_ranks) -> Iterator[Any]:
    if op.kind == "halo":
        ndims = _halo_ndims(op.neighbors)
        for nb in grid_neighbors(comm.rank, n_ranks, ndims=ndims):
            yield from comm.sendrecv(nb, VirtualPayload(op.size), size=op.size)
    elif op.kind == "ring":
        if n_ranks > 1:
            right = (comm.rank + 1) % n_ranks
            left = (comm.rank - 1) % n_ranks
            yield from comm.sendrecv(right, VirtualPayload(op.size),
                                     source=left, size=op.size)
    elif op.kind == "p2p":
        partner = comm.rank ^ 1
        if partner < n_ranks:
            yield from comm.sendrecv(partner, VirtualPayload(op.size),
                                     size=op.size)
    elif op.kind == "allreduce":
        yield from comm.allreduce(VirtualPayload(op.size), size=op.size)
    elif op.kind == "alltoall":
        yield from comm.alltoall([VirtualPayload(op.size)] * n_ranks,
                                 size=op.size)
    elif op.kind == "allgather":
        yield from comm.allgather(VirtualPayload(op.size), size=op.size)
    elif op.kind == "bcast":
        yield from comm.bcast(VirtualPayload(op.size),
                              root=op.root, size=op.size)
    elif op.kind == "reduce":
        yield from comm.reduce(VirtualPayload(op.size),
                               root=op.root, size=op.size)
    elif op.kind == "gather":
        yield from comm.gather(VirtualPayload(op.size),
                               root=op.root, size=op.size)
    else:
        raise ConfigurationError(f"unknown comm kind {op.kind!r}")


def _emit_phase(comm, phase, step, n_ranks, core, binary, pctx=None,
                model=None) -> Iterator[Any]:
    comm.set_phase(phase.name)
    for op in phase.ops:
        if isinstance(op, ComputeOp):
            if pctx is not None and model is not None:
                price = model.price_compute(op, pctx, phase=phase.name)
                yield from comm.compute(price.seconds, label=op.label)
                continue
            if op.seconds is not None:
                yield from comm.compute(op.seconds * op.imbalance,
                                        label=op.label)
                continue
            if op.flops:
                if op.rate_per_core is not None:
                    rate = op.rate_per_core
                elif binary is not None and op.kernel is not None:
                    rate = binary.sustained_flops(core, op.kernel)
                else:
                    raise ConfigurationError(
                        f"compute op in phase {phase.name!r} needs a kernel "
                        "class or an explicit rate_per_core"
                    )
            else:
                rate = None
            yield from comm.compute(
                flops=op.flops / n_ranks * op.imbalance,
                bytes_moved=op.bytes_moved / n_ranks * op.imbalance,
                flops_per_core=rate,
                label=op.label,
            )
        elif isinstance(op, MemOp):
            if pctx is not None and model is not None:
                yield from comm.compute(model.price_mem(op, pctx),
                                        label=op.label)
                continue
            yield from comm.compute(
                flops=0.0,
                bytes_moved=op.bytes_moved / n_ranks,
                label=op.label,
            )
        elif isinstance(op, SerialOp):
            if comm.rank == 0:
                yield from comm.compute(op.seconds, label="serial")
        elif isinstance(op, CommOp):
            for _ in range(_comm_reps(op, step)):
                yield from _emit_comm(comm, op, n_ranks)
        elif isinstance(op, Barrier):
            yield from comm.barrier()
        else:
            raise ConfigurationError(f"cannot lower op {op!r}")


def _emit_items(comm, items, step, n_ranks, core, binary, pctx=None,
                model=None) -> Iterator[Any]:
    for item in items:
        if isinstance(item, Loop):
            for i in range(item.count):
                yield from _emit_items(comm, item.body, i, n_ranks, core,
                                       binary, pctx, model)
        else:
            yield from _emit_phase(comm, item, step, n_ranks, core, binary,
                                   pctx, model)


def _lower_oracle(program, mapping, binary=None, *, pricing=None):
    """The lowering as it was before the flat schedule: one generator
    frame per loop level, phase and comm op, walked per rank."""
    core = mapping.cluster.node.core_model
    n_ranks = mapping.n_ranks
    model = resolve_pricing(pricing)
    pctx = emit_model = None
    if not isinstance(model, RooflineModel):
        pctx = PricingContext(
            mapping=mapping, cluster=mapping.cluster, core=core,
            binary=binary, n_ranks=n_ranks,
            agg_bw=n_ranks * mapping.rank_memory_bandwidth(0),
        )
        emit_model = model

    def rank_program(comm):
        yield from _emit_items(comm, program.body, 0, n_ranks, core, binary,
                               pctx, emit_model)
        return comm.now

    return rank_program


def _run_lowered(rank_program, mapping):
    world = World(mapping, trace="full")
    result = world.run(rank_program)
    return (result.elapsed, world.engine.events_processed,
            result.rank_results, list(result.trace.records))


class TestFlatLowering:
    """``lower``'s flat schedule replays the recursive emitter exactly."""

    @given(
        program=ir_programs(rich=True, comm_kinds=tuple(sorted(COMM_KINDS))),
        n_nodes=st.sampled_from([1, 2]),
        ranks_per_node=st.sampled_from([1, 2, 3, 4]),
        pricing=st.sampled_from(["roofline", "ecm"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_calendar_and_trace_as_recursive_oracle(
        self, program, n_nodes, ranks_per_node, pricing
    ):
        mapping = RankMapping(cte_arm(2), n_nodes=n_nodes,
                              ranks_per_node=ranks_per_node)
        new = _run_lowered(lower(program, mapping, pricing=pricing), mapping)
        old = _run_lowered(_lower_oracle(program, mapping, pricing=pricing),
                           mapping)
        assert new == old

    @pytest.mark.parametrize("pricing", ["roofline", "ecm"])
    def test_every_comm_kind_matches_oracle(self, pricing):
        """One program holding every comm kind, all three halo grid
        dimensionalities, non-zero roots and a fractional count."""
        comm_ops = tuple(
            CommOp(kind, 4096, root=1 if kind in ("bcast", "reduce") else 0)
            for kind in sorted(COMM_KINDS - {"halo"})
        ) + tuple(CommOp("halo", 65536, neighbors=n) for n in (2, 4, 6))
        program = Program(name="all-kinds", body=(Loop(3, (
            Phase("comm", comm_ops + (CommOp("gather", 64, count=0.5),)),
            Phase("work", (ComputeOp(flops=1e9, bytes_moved=1e6,
                                     rate_per_core=2e9, imbalance=1.5),
                           MemOp(1 << 20), SerialOp(1e-5), Barrier())),
        )),), steps=3)
        mapping = RankMapping(cte_arm(2), n_nodes=2, ranks_per_node=4)
        new = _run_lowered(lower(program, mapping, pricing=pricing), mapping)
        old = _run_lowered(_lower_oracle(program, mapping, pricing=pricing),
                           mapping)
        assert new == old

    def test_app_program_matches_oracle(self):
        from repro.apps import get_app

        app = get_app("nemo")
        mapping = RankMapping(_CLUSTER, n_nodes=2, ranks_per_node=12)
        program = app.program(mapping, steps=2)
        binary = app.build(_CLUSTER)
        assert (_run_lowered(lower(program, mapping, binary), mapping)
                == _run_lowered(_lower_oracle(program, mapping, binary),
                                mapping))

    def test_schedule_unrolls_loops_with_innermost_step(self):
        a, b, c = Phase("a"), Phase("b"), Phase("c")
        body = (a, Loop(2, (b, Loop(3, (c,)))), Loop(0, (a,)))
        schedule, truncated = flatten_phases(body)
        assert not truncated
        assert schedule == ((a, 0), (b, 0), (c, 0), (c, 1), (c, 2),
                            (b, 1), (c, 0), (c, 1), (c, 2))
        capped, truncated = flatten_phases(body, max_unroll=1)
        assert truncated
        assert capped == ((a, 0), (b, 0), (c, 0))
