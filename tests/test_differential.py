"""Differential suite: the analytic collective fast path against the
fully simulated DES schedule, including under static network faults, plus
the gating that keeps the fast path off whenever it could diverge.

For bulk-synchronous programs (every rank enters each collective at the
same virtual time — all ``ProgramSpec`` collective-only programs are, by
construction) the closed-form recurrences reproduce the DES schedule
*exactly*, so elapsed times are compared at ``rel=1e-9``, not the loose
cross-validation tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.machine import cte_arm, marenostrum4
from repro.network.faults import FaultModel
from repro.resilience import FaultSchedule, LinkDegrade, ResiliencePolicy
from repro.simmpi import RankMapping, World

from tests.oracles import analytic_oracle, assert_matches_oracle
from tests.strategies import ProgramSpec, ir_programs, program_specs

_CLUSTER = cte_arm(16)

REL = 1e-9


def _mapping(n_ranks: int) -> RankMapping:
    rpn = min(2, n_ranks)
    return RankMapping(_CLUSTER, n_nodes=n_ranks // rpn, ranks_per_node=rpn)


def _differential(spec: ProgramSpec, *, faults: FaultModel | None = None,
                  rel: float = REL) -> None:
    mapping = _mapping(spec.n_ranks)
    results = []
    for fast in (False, True):
        world = World(mapping, fast_collectives=fast, trace=False)
        if faults is not None:
            world.network.faults.recv_factors.update(faults.recv_factors)
            world.network.faults.send_factors.update(faults.send_factors)
        results.append(world.run(spec.build()))
    ref, got = results
    assert got.rank_results == ref.rank_results
    assert got.elapsed == pytest.approx(ref.elapsed, rel=rel)


class TestFixedPrograms:
    """Hand-picked bulk-synchronous programs, exact agreement."""

    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_mixed_collectives(self, n_ranks):
        spec = ProgramSpec(n_ranks, (
            ("allreduce", 4096),
            ("barrier", 0),
            ("bcast", 1),
            ("compute", 10),
            ("allgather", 65536),
            ("reduce", 0),
            ("alltoall", 262144),
        ))
        _differential(spec)

    def test_repeated_allreduce(self):
        spec = ProgramSpec(8, (("allreduce", 262144),) * 6)
        _differential(spec)


class TestStaticFaults:
    """A statically degraded (but reachable) link must slow both paths by
    the same amount — the fault factor flows through the one shared
    ``NetworkModel.p2p_time``."""

    @pytest.mark.parametrize("factor", [0.4, 0.75])
    def test_weak_receiver(self, factor):
        spec = ProgramSpec(8, (
            ("allreduce", 262144), ("allgather", 65536), ("barrier", 0),
        ))
        _differential(
            spec, faults=FaultModel().degrade_receiver(2, factor)
        )

    def test_weak_sender(self):
        spec = ProgramSpec(4, (("alltoall", 262144), ("allreduce", 4096)))
        _differential(spec, faults=FaultModel().degrade_sender(1, 0.5))

    def test_fault_actually_slows(self):
        spec = ProgramSpec(8, (("allreduce", 262144),))
        mapping = _mapping(8)
        healthy = World(mapping, trace=False).run(spec.build())
        faulty_world = World(mapping, trace=False)
        faulty_world.network.faults.degrade_receiver(2, 0.25)
        faulty = faulty_world.run(spec.build())
        assert faulty.elapsed > healthy.elapsed


@settings(max_examples=30, deadline=None)
@given(program_specs(collective_only=True))
def test_random_programs_agree(spec):
    _differential(spec)


@settings(max_examples=15, deadline=None)
@given(program_specs(collective_only=True, max_ops=4))
def test_random_programs_agree_under_faults(spec):
    _differential(spec, faults=FaultModel().degrade_receiver(0, 0.5))


class TestCrossBackend:
    """Every app and bench IR program under all three pluggable backends
    at small scale (4 ranks — power of two, so the fastcoll allreduce
    recurrence is exact).

    fastcoll must reproduce the DES schedule at ``rel=1e-9`` on these
    bulk-synchronous programs; the analytic backend must land within the
    per-workload bands documented in docs/IR.md (the gap is scheduling
    fidelity: the DES grid decomposition sees fewer halo neighbors at tiny
    rank counts, and sendrecv pairs overlap where the analytic model
    charges a full pairwise exchange).
    """

    #: analytic/DES agreement bands at the 4-rank test scale (docs/IR.md).
    APP_BAND = (0.90, 1.25)
    BENCH_BANDS = {
        "stream": (0.95, 1.05),
        "hpl": (0.90, 1.25),
        "hpcg": (0.60, 2.00),
        "osu": (0.50, 1.10),
    }

    def _backends(self):
        from repro.ir import AnalyticBackend, DESBackend, FastCollBackend

        return AnalyticBackend(), FastCollBackend(), DESBackend()

    def _assert_agreement(self, program, cluster, n_nodes, band, *,
                          mapping=None, binary=None):
        analytic, fastcoll, des = self._backends()
        kwargs = dict(mapping=mapping, binary=binary, check_memory=False)
        r_des = des.run(program, cluster, n_nodes, **kwargs)
        r_fast = fastcoll.run(program, cluster, n_nodes, **kwargs)
        r_an = analytic.run(program, cluster, n_nodes, **kwargs)
        assert_matches_oracle(r_an, analytic_oracle(program, cluster,
                                                     n_nodes, **kwargs))
        assert r_des.elapsed > 0
        assert r_fast.elapsed == pytest.approx(r_des.elapsed, rel=REL)
        lo, hi = band
        ratio = r_an.elapsed / r_des.elapsed
        assert lo < ratio < hi, (
            f"{program.name}: analytic/DES ratio {ratio:.3f} "
            f"outside documented band ({lo}, {hi})"
        )
        # every phase the program declares shows up in the DES trace
        for name in program.phase_names():
            assert r_des.phase_seconds[name] >= 0.0

    @pytest.mark.parametrize("make_cluster", [cte_arm, marenostrum4],
                             ids=["arm", "mn4"])
    @pytest.mark.parametrize(
        "app_name", ["alya", "nemo", "gromacs", "openifs", "wrf"])
    def test_apps_all_backends(self, make_cluster, app_name):
        from repro.apps import get_app

        cluster = make_cluster(4)
        app = get_app(app_name)
        mapping = RankMapping(cluster, n_nodes=2, ranks_per_node=2)
        program = app.program(mapping)
        binary = app.build(cluster)
        self._assert_agreement(program, cluster, 2, self.APP_BAND,
                               mapping=mapping, binary=binary)

    def test_stream_all_backends(self):
        from repro.bench.stream_bench import ir_program

        cluster = cte_arm(4)
        self._assert_agreement(ir_program(cluster, elements=1_000_000,
                                          iterations=2),
                               cluster, 1, self.BENCH_BANDS["stream"])

    def test_linpack_all_backends(self):
        from repro.bench.linpack import ir_program

        cluster = cte_arm(4)
        mapping = RankMapping(cluster, n_nodes=2, ranks_per_node=2)
        self._assert_agreement(ir_program(cluster, 2, n=2400),
                               cluster, 2, self.BENCH_BANDS["hpl"],
                               mapping=mapping)

    def test_hpcg_all_backends(self):
        from repro.bench.hpcg import ir_program

        cluster = cte_arm(4)
        mapping = RankMapping(cluster, n_nodes=2, ranks_per_node=2)
        self._assert_agreement(ir_program(cluster, 1, local_grid=(4, 6, 6),
                                          iterations=2),
                               cluster, 2, self.BENCH_BANDS["hpcg"],
                               mapping=mapping)

    def test_osu_all_backends(self):
        from repro.bench.osu import ir_program

        cluster = cte_arm(4)
        self._assert_agreement(ir_program(size=1 << 16, iterations=3),
                               cluster, 4, self.BENCH_BANDS["osu"])


@settings(max_examples=20, deadline=None)
@given(ir_programs())
def test_random_ir_programs_fastcoll_exact(program):
    """Random bulk-synchronous IR programs: fastcoll ≡ DES at 1e-9."""
    from repro.ir import DESBackend, FastCollBackend

    cluster = cte_arm(4)
    mapping = RankMapping(cluster, n_nodes=2, ranks_per_node=2)
    kwargs = dict(mapping=mapping, check_memory=False, trace=False)
    r_des = DESBackend().run(program, cluster, 2, **kwargs)
    r_fast = FastCollBackend().run(program, cluster, 2, **kwargs)
    assert r_fast.elapsed == pytest.approx(r_des.elapsed, rel=REL)


class TestFastcollGating:
    """The fast path must refuse whenever it could diverge from the DES."""

    def test_fault_schedule_disables_fastcoll(self):
        schedule = FaultSchedule([LinkDegrade(0.001, node=1, factor=0.5)])
        world = World(_mapping(4), fast_collectives=True,
                      fault_schedule=schedule)
        assert world._use_fastcoll() is False

    def test_policy_disables_fastcoll(self):
        world = World(_mapping(4), fast_collectives=True,
                      resilience=ResiliencePolicy())
        assert world._use_fastcoll() is False

    def test_static_dead_link_disables_fastcoll(self):
        world = World(_mapping(4), fast_collectives=True)
        assert world._use_fastcoll() is True
        world.network.faults.degrade_receiver(1, 0.0)
        assert world._use_fastcoll() is False
        world.network.faults.restore(1)
        assert world._use_fastcoll() is True

    def test_fallback_matches_simulated_path(self):
        """With a schedule attached, a fast_collectives=True world takes
        the DES path and agrees bit-for-bit with fast_collectives=False."""
        spec = ProgramSpec(4, (("allreduce", 262144), ("barrier", 0)))
        schedule = FaultSchedule(
            [LinkDegrade(1e-6, node=1, factor=0.3, direction="both")]
        )
        runs = []
        for fast in (False, True):
            world = World(_mapping(4), fast_collectives=fast, trace=False,
                          fault_schedule=schedule)
            runs.append(world.run(spec.build()))
        ref, got = runs
        assert got.rank_results == ref.rank_results
        assert got.elapsed == ref.elapsed
