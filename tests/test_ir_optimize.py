"""IR optimizer passes: constant folding, op fusion, loop collapsing.

Unit tests pin the rewrite rules' edge cases (zero-trip loops, mixed-
phase adjacency, roofline-arm mixing); the hypothesis property at the
bottom asserts every pass preserves the scalar analytic walk
(``tests/oracles.py``, which the ``analytic`` engine must equal bit for
bit) on random IR programs within the documented 1e-12 band
(``fold_constants`` is held to bit-exactness).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro.ir import (
    AnalyticBackend,
    Barrier,
    CommOp,
    ComputeOp,
    Loop,
    MemOp,
    PASS_VERSION,
    Phase,
    Program,
    SerialOp,
    collapse_loops,
    fold_constants,
    fuse_ops,
    op_count,
    optimize_program,
)
from repro.machine.presets import cte_arm

from .oracles import analytic_oracle, assert_matches_oracle
from .strategies import ir_programs

_CLUSTER = cte_arm(8)


def _prog(*items, steps=1):
    return Program(name="t", body=tuple(items), steps=steps)


def _run(program):
    return analytic_oracle(program, _CLUSTER, 4, check_memory=False)


def _phases(program):
    """Flattened (name, mult, ops) walk."""
    return [(ph.name, mult, ph.ops) for ph, mult in program.iter_phases()]


class TestFoldConstants:
    def test_serial_chain_merges_left_to_right(self):
        p = _prog(Phase("a", (SerialOp(1e-6), SerialOp(2e-6),
                             SerialOp(3e-6))))
        folded = fold_constants(p)
        (name, _, ops), = _phases(folded)
        assert name == "a"
        assert ops == (SerialOp((1e-6 + 2e-6) + 3e-6),)

    def test_zero_ops_dropped_but_barrier_kept(self):
        p = _prog(Phase("a", (SerialOp(0.0), MemOp(0.0), Barrier(),
                             CommOp("allreduce", 8, count=0.0),
                             ComputeOp())))
        folded = fold_constants(p)
        (_, _, ops), = _phases(folded)
        assert ops == (Barrier(),)

    def test_zero_trip_loop_preserves_phase_names(self):
        p = _prog(Loop(0, (Phase("gone", (SerialOp(1.0),)),)))
        folded = fold_constants(p)
        assert _phases(folded) == [("gone", 1, ())]
        result = _run(folded)
        assert result.phase_seconds == {"gone": 0.0}
        assert result.phase_seconds == _run(p).phase_seconds

    def test_single_trip_loop_inlined(self):
        inner = Phase("a", (SerialOp(1e-6),))
        folded = fold_constants(_prog(Loop(1, (inner,))))
        assert folded.body == (inner,)

    def test_empty_phase_preserved(self):
        p = _prog(Phase("empty", ()))
        assert fold_constants(p).body == p.body

    def test_fold_is_bit_exact(self):
        p = _prog(
            Phase("a", (SerialOp(1e-7), SerialOp(3.3e-6), SerialOp(0.0),
                        ComputeOp(seconds=5e-6))),
            Loop(1, (Phase("b", (MemOp(4096.0), CommOp("ring", 64),)),)),
        )
        base, folded = _run(p), _run(fold_constants(p))
        assert folded.phase_seconds == base.phase_seconds
        assert folded.elapsed == base.elapsed


class TestFuseOps:
    def test_memops_fuse(self):
        p = _prog(Phase("a", (MemOp(100.0), MemOp(28.0))))
        (_, _, ops), = _phases(fuse_ops(p))
        assert ops == (MemOp(128.0),)

    def test_seconds_compute_fuses_on_equal_imbalance(self):
        p = _prog(Phase("a", (ComputeOp(seconds=1e-6, imbalance=1.5),
                              ComputeOp(seconds=2e-6, imbalance=1.5))))
        (_, _, ops), = _phases(fuse_ops(p))
        assert ops == (ComputeOp(seconds=3e-6, imbalance=1.5),)

    def test_imbalance_mismatch_not_fused(self):
        p = _prog(Phase("a", (ComputeOp(seconds=1e-6, imbalance=1.0),
                              ComputeOp(seconds=2e-6, imbalance=1.5))))
        (_, _, ops), = _phases(fuse_ops(p))
        assert len(ops) == 2

    def test_adjacent_ops_in_different_phases_not_fused(self):
        p = _prog(Phase("a", (MemOp(100.0),)), Phase("b", (MemOp(28.0),)))
        fused = fuse_ops(p)
        assert _phases(fused) == _phases(p)

    def test_compute_and_mem_never_fuse(self):
        # roofline: pricing max(f, b1) then b2 separately differs from
        # max(f, b1 + b2) — fusing across the max is wrong.
        p = _prog(Phase("a", (ComputeOp(flops=1e9, rate_per_core=1e9),
                              MemOp(4096.0))))
        (_, _, ops), = _phases(fuse_ops(p))
        assert len(ops) == 2

    def test_mixed_roofline_arms_not_fused(self):
        a = ComputeOp(flops=1e9, bytes_moved=0.0, rate_per_core=1e9)
        b = ComputeOp(flops=0.0, bytes_moved=4096.0, rate_per_core=1e9)
        (_, _, ops), = _phases(fuse_ops(_prog(Phase("a", (a, b)))))
        assert len(ops) == 2

    def test_pure_flops_pair_fused(self):
        a = ComputeOp(flops=1e9, rate_per_core=1e9)
        b = ComputeOp(flops=2e9, rate_per_core=1e9)
        (_, _, ops), = _phases(fuse_ops(_prog(Phase("a", (a, b)))))
        assert ops == (ComputeOp(flops=3e9, rate_per_core=1e9),)


class TestCollapseLoops:
    def test_invariant_loop_collapses_to_scaled_phase(self):
        p = _prog(Loop(10, (Phase("a", (ComputeOp(seconds=1e-6),
                                        MemOp(64.0),
                                        CommOp("allreduce", 8),)),)))
        collapsed = collapse_loops(p)
        assert _phases(collapsed) == [
            ("a", 1, (ComputeOp(seconds=1e-6 * 10), MemOp(640.0),
                      CommOp("allreduce", 8, count=10.0)))]

    def test_barrier_blocks_collapse(self):
        p = _prog(Loop(10, (Phase("a", (Barrier(),)),)))
        assert collapse_loops(p).body == p.body

    def test_fractional_comm_count_blocks_collapse(self):
        # the DES lowering subsamples count < 1 by step index, so k
        # iterations are NOT k scaled occurrences
        p = _prog(Loop(10, (Phase("a", (CommOp("ring", 64, count=0.5),)),)))
        assert collapse_loops(p).body == p.body

    def test_nested_loops_collapse_innermost_first(self):
        p = _prog(Loop(3, (Loop(4, (Phase("a", (SerialOp(1e-6),)),)),)))
        collapsed = collapse_loops(p)
        (name, mult, ops), = _phases(collapsed)
        assert (name, mult) == ("a", 1)
        assert ops[0].seconds == pytest.approx(12e-6)


class TestOpCountAndVersion:
    def test_op_count_counts_loop_multiplicity_free(self):
        p = _prog(Phase("a", (SerialOp(1e-6), Barrier())),
                  Loop(5, (Phase("b", (MemOp(1.0),)),)))
        assert op_count(p) == 3

    def test_optimize_program_shrinks_loopy_program(self):
        p = _prog(Loop(100, (Phase("a", (SerialOp(1e-6), SerialOp(2e-6),
                                         MemOp(10.0), MemOp(20.0))),)),
                  steps=100)
        optimized = optimize_program(p)
        assert op_count(optimized) < op_count(p)
        assert _run(optimized).elapsed == pytest.approx(
            _run(p).elapsed, rel=1e-12)

    def test_pass_version_is_versioned(self):
        assert isinstance(PASS_VERSION, int) and PASS_VERSION >= 1


class TestDESOptimize:
    def test_des_optimize_kwarg_matches_unoptimized(self):
        from repro.ir.desbackend import DESBackend

        p = _prog(Loop(50, (Phase("a", (ComputeOp(seconds=1e-6),)),)),
                  steps=50)
        backend = DESBackend()
        base = backend.run(p, _CLUSTER, 2, check_memory=False)
        fast = backend.run(p, _CLUSTER, 2, check_memory=False,
                           optimize=True)
        assert fast.elapsed == pytest.approx(base.elapsed, rel=1e-9)


def _assert_output_close(base, out, *, rel):
    assert set(out.phase_seconds) == set(base.phase_seconds)
    for name, val in base.phase_seconds.items():
        assert math.isclose(out.phase_seconds[name], val,
                            rel_tol=rel, abs_tol=0.0), name
    assert math.isclose(out.elapsed, base.elapsed, rel_tol=rel,
                        abs_tol=0.0)


@settings(max_examples=40, deadline=None)
@given(program=ir_programs(rich=True))
def test_every_pass_preserves_scalar_output(program):
    base = _run(program)
    assert_matches_oracle(
        AnalyticBackend().run(program, _CLUSTER, 4, check_memory=False),
        base)
    folded = _run(fold_constants(program))
    assert folded.phase_seconds == base.phase_seconds  # fold is exact
    assert folded.elapsed == base.elapsed
    for rewrite in (fuse_ops, collapse_loops, optimize_program):
        _assert_output_close(base, _run(rewrite(program)), rel=1e-12)
