"""The analytic tape engine: tapes, caches, and bitwise parity.

The contract under test is the differential gate of the analytic engine:
every entry point — stacked ``run_batch`` groups, one-job runs, override
column lanes and the ``analytic`` registry name — must reproduce the
historical scalar walk (``tests/oracles.py``) **bit-for-bit**: same phase
breakdowns, same elapsed, same rank count.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, get_app
from repro.ir import (
    AnalyticBackend,
    BatchAnalyticBackend,
    BatchJob,
    CommOp,
    ComputeOp,
    Loop,
    Phase,
    Program,
    compile_tape,
    get_backend,
)
from repro.ir.batch import clear_caches, shared_batch_backend
from repro.machine.presets import cte_arm, marenostrum4
from repro.network.model import network_for
from repro.util.errors import ConfigurationError

from .oracles import analytic_oracle, assert_matches_oracle
from .strategies import ir_programs

_ARM = cte_arm(192)
_MN4 = marenostrum4(192)


_assert_results_equal = assert_matches_oracle


class TestBitwiseParity:
    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    @pytest.mark.parametrize("cluster", [_ARM, _MN4], ids=["arm", "mn4"])
    def test_apps_match_scalar(self, name, cluster):
        app = get_app(name)
        binary = app.build(cluster)
        batch = BatchAnalyticBackend()
        for n in (32, 64, 128):
            mapping = app.mapping(cluster, n)
            program = app.program(mapping, steps=1)
            kwargs = dict(mapping=mapping, binary=binary,
                          check_memory=False)
            _assert_results_equal(
                batch.run(program, cluster, n, **kwargs),
                analytic_oracle(program, cluster, n, **kwargs),
            )

    def test_run_batch_matches_per_point_runs(self):
        app = get_app("nemo")
        binary = app.build(_ARM)
        nodes = [8, 16, 32, 64]
        jobs, singles = [], []
        backend = BatchAnalyticBackend()
        for n in nodes:
            mapping = app.mapping(_ARM, n)
            program = app.program(mapping, steps=1)
            jobs.append(BatchJob(program, _ARM, n, mapping=mapping,
                                 binary=binary, check_memory=False))
            singles.append(backend.run(program, _ARM, n, mapping=mapping,
                                       binary=binary, check_memory=False))
        for single, batched in zip(singles, backend.run_batch(jobs)):
            _assert_results_equal(single, batched)

    def test_explicit_network_matches_scalar(self):
        program = Program(
            name="net",
            body=(Phase("x", (CommOp("allreduce", 4096),
                              CommOp("halo", 65536, neighbors=6))),),
        )
        network = network_for(_ARM, n_nodes=16)
        scalar = analytic_oracle(program, _ARM, 16, network=network,
                                 check_memory=False)
        batched = BatchAnalyticBackend().run(program, _ARM, 16,
                                             network=network,
                                             check_memory=False)
        _assert_results_equal(scalar, batched)

    def test_osu_allreduce_scaling_matches_scalar(self):
        from repro.bench.osu import allreduce_scaling

        nodes = [2, 4, 8, 16, 32]
        out = allreduce_scaling(_ARM, nodes)
        program = Program(
            name="osu-allreduce",
            body=(Phase("allreduce", (CommOp("allreduce", 8),)),),
            ranks_per_node=48,
        )
        for n in nodes:
            result = analytic_oracle(program, _ARM, n, check_memory=False)
            assert out[n] == result.phase_comm["allreduce"]


@settings(max_examples=40, deadline=None)
@given(program=ir_programs(rich=True))
def test_random_programs_match_scalar_bitwise(program):
    scalar = analytic_oracle(program, _ARM, 4, check_memory=False)
    batched = BatchAnalyticBackend().run(program, _ARM, 4,
                                         check_memory=False)
    _assert_results_equal(batched, scalar)


_KNOBS = ("compute_scale", "comm_scale", "serial_scale",
          "bandwidth_scale", "rate_scale")

#: finite positive override dicts: every knob, each either the identity
#: or a random factor (so lanes mix skipped and applied knobs)
_override_dicts = st.fixed_dictionaries({
    name: st.one_of(st.just(1.0), st.floats(
        min_value=0.05, max_value=20.0, allow_nan=False,
        allow_infinity=False))
    for name in _KNOBS
})


_PHASE_ACCOUNTS = ("phase_seconds", "phase_compute", "phase_comm",
                   "phase_flops_time", "phase_bytes_time")


def _lane(chunk, j):
    """Lane ``j`` of a ColumnChunk as RunResult-shaped attributes."""
    return SimpleNamespace(
        n_ranks=chunk.n_ranks, elapsed=chunk.elapsed[j],
        **{name: {k: v[j] for k, v in getattr(chunk, name).items()}
           for name in _PHASE_ACCOUNTS})


@settings(max_examples=100, deadline=None)
@given(program=ir_programs(rich=True),
       pricing=st.sampled_from(["roofline", "ecm"]),
       overrides=st.lists(_override_dicts, min_size=2, max_size=4),
       chunk=st.integers(min_value=1, max_value=7))
def test_every_entry_point_matches_oracle(program, pricing, overrides,
                                          chunk):
    """Stacked groups, one-job batches, column lanes, broadcast grid
    points and the ``analytic`` registry name all equal the scalar
    oracle bit for bit."""
    backend = shared_batch_backend()
    nodes = [1, 2, 4, 8][:len(overrides)]
    want = [analytic_oracle(program, _ARM, n, check_memory=False,
                            pricing=pricing, overrides=o)
            for n, o in zip(nodes, overrides)]
    jobs = [BatchJob(program, _ARM, n, check_memory=False, pricing=pricing,
                     overrides=o)
            for n, o in zip(nodes, overrides)]
    clear_caches()
    for got, ref in zip(backend.run_batch(jobs), want):
        _assert_results_equal(got, ref)
    clear_caches()
    for job, ref in zip(jobs, want):
        _assert_results_equal(backend.run_batch([job])[0], ref)
    clear_caches()
    for job, ref in zip(jobs, want):
        got = get_backend("analytic").run(
            program, _ARM, job.n_nodes, check_memory=False,
            pricing=pricing, overrides=job.overrides)
        assert got.backend == "analytic"
        _assert_results_equal(got, ref)
    # one context, every knob as a lane vector
    columns = {k: np.asarray([o.get(k, 1.0) for o in overrides])
               for k in _KNOBS}
    chunks = list(backend.run_override_columns(
        BatchJob(program, _ARM, 4, check_memory=False, pricing=pricing),
        columns, chunk_points=3))
    lanes = [_lane(chunk, j) for chunk in chunks for j in range(len(chunk))]
    assert len(lanes) == len(overrides)
    for lane, o in zip(lanes, overrides):
        _assert_results_equal(lane, analytic_oracle(
            program, _ARM, 4, check_memory=False, pricing=pricing,
            overrides=o))
    # a broadcast grid: 2-3 stacked jobs on the last axis, each knob
    # spanning its own axes, chunks split across every axis
    stacked = jobs[:3]
    vals = {k: np.asarray([o[k] for o in overrides]) for k in _KNOBS}
    grid_cols = {
        "rate_scale": vals["rate_scale"][:, None, None],
        "serial_scale": vals["serial_scale"][:, None, None],
        "comm_scale": vals["comm_scale"][None, :2, None],
        "bandwidth_scale": vals["bandwidth_scale"][None, :2, None],
        "compute_scale": vals["compute_scale"][None, None, :len(stacked)],
    }
    chunks = list(backend.run_override_columns(
        [BatchJob(program, _ARM, job.n_nodes, check_memory=False,
                  pricing=pricing) for job in stacked],
        grid_cols, chunk_points=chunk))
    grid = (len(overrides), 2, len(stacked))
    assert sum(len(chunk) for chunk in chunks) == math.prod(grid)
    for chunk in chunks:
        flat = SimpleNamespace(
            n_ranks=chunk.n_ranks, elapsed=chunk.elapsed.ravel(),
            **{name: {k: v.ravel() for k, v in getattr(chunk, name).items()}
               for name in _PHASE_ACCOUNTS})
        for i in range(len(chunk)):
            a, b, j = np.unravel_index(chunk.start + i, grid)
            want = analytic_oracle(
                program, _ARM, stacked[j].n_nodes, check_memory=False,
                pricing=pricing,
                overrides={k: float(col[min(a, col.shape[0] - 1),
                                        min(b, col.shape[1] - 1),
                                        min(j, col.shape[2] - 1)])
                           for k, col in grid_cols.items()})
            if i == 0:  # a chunk reports its first job's rank count
                assert chunk.n_ranks == want.n_ranks
            got = _lane(flat, i)
            got.n_ranks = want.n_ranks
            _assert_results_equal(got, want)


class TestOverrides:
    def _program(self):
        return Program(
            name="knobs",
            body=(Phase("x", (ComputeOp(seconds=1e-3),
                              CommOp("allreduce", 8),)),),
        )

    def test_compute_scale(self):
        backend = BatchAnalyticBackend()
        base = backend.run(self._program(), _ARM, 4, check_memory=False)
        out = backend.run(self._program(), _ARM, 4, check_memory=False,
                          overrides={"compute_scale": 2.0})
        assert out.phase_compute["x"] == pytest.approx(
            2.0 * base.phase_compute["x"])
        assert out.phase_comm["x"] == base.phase_comm["x"]

    def test_comm_scale(self):
        backend = BatchAnalyticBackend()
        base = backend.run(self._program(), _ARM, 4, check_memory=False)
        out = backend.run(self._program(), _ARM, 4, check_memory=False,
                          overrides={"comm_scale": 3.0})
        assert out.phase_comm["x"] == pytest.approx(
            3.0 * base.phase_comm["x"])
        assert out.phase_compute["x"] == base.phase_compute["x"]

    def test_identity_overrides_bitwise_noop(self):
        backend = BatchAnalyticBackend()
        base = backend.run(self._program(), _ARM, 4, check_memory=False)
        out = backend.run(self._program(), _ARM, 4, check_memory=False,
                          overrides={"compute_scale": 1.0,
                                     "comm_scale": 1.0})
        _assert_results_equal(base, out)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"),
                                       float("nan"), True, "2"])
    def test_non_finite_or_non_positive_override_rejected(self, value):
        with pytest.raises(ConfigurationError, match="rate_scale"):
            BatchAnalyticBackend().run_batch([BatchJob(
                self._program(), _ARM, 4, check_memory=False,
                overrides={"rate_scale": value})])

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="override"):
            BatchAnalyticBackend().run(
                self._program(), _ARM, 4, check_memory=False,
                overrides={"warp_factor": 9.0})


class TestTapeAndCaches:
    def test_tape_cached_per_program(self):
        program = Program(
            name="tape",
            body=(Loop(3, (Phase("x", (ComputeOp(seconds=1e-6),)),)),),
            steps=3,
        )
        assert compile_tape(program) is compile_tape(program)

    def test_registry_exposes_batch(self):
        assert isinstance(get_backend("batch"), BatchAnalyticBackend)

    def test_analytic_is_the_tape_engine(self):
        engine = get_backend("analytic")
        assert isinstance(engine, AnalyticBackend)
        assert isinstance(engine, BatchAnalyticBackend)
        program = Program(
            name="names", body=(Phase("x", (CommOp("ring", 4096),)),))
        assert engine.run(program, _ARM, 4,
                          check_memory=False).backend == "analytic"
        assert get_backend("batch").run(
            program, _ARM, 4, check_memory=False).backend == "batch"

    def test_shared_backend_is_singleton(self):
        assert shared_batch_backend() is shared_batch_backend()

    def test_clear_caches_preserves_results(self):
        program = Program(
            name="cc", body=(Phase("x", (CommOp("ring", 4096),)),))
        backend = BatchAnalyticBackend()
        before = backend.run(program, _ARM, 8, check_memory=False)
        clear_caches()
        after = backend.run(program, _ARM, 8, check_memory=False)
        _assert_results_equal(before, after)

    def test_sweep_memo_hits_are_copies(self):
        app = get_app("alya")
        first = app.sweep_timings(_ARM, [16, 32])
        first[16].phase_seconds["tamper"] = 1.0
        again = app.sweep_timings(_ARM, [16, 32])
        assert "tamper" not in again[16].phase_seconds

    def test_unknown_run_kwarg_rejected(self):
        program = Program(
            name="kw", body=(Phase("x", (ComputeOp(seconds=1e-6),)),))
        with pytest.raises(ConfigurationError, match="fault_schedule"):
            BatchAnalyticBackend().run(program, _ARM, 4,
                                       check_memory=False,
                                       fault_schedule=None)

    def test_step_count_past_int64_is_a_configuration_error(self):
        app = get_app("gromacs")
        mapping = app.mapping(_ARM, 2)
        with pytest.raises(ConfigurationError, match="repeats .* int64"):
            shared_batch_backend().run(app.program(mapping, steps=2**63),
                                       _ARM, 2)
