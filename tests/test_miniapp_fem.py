"""Distributed FEM mini-app (the full Alya pipeline)."""

import numpy as np
import pytest

from repro.apps.miniapp_fem import fem_miniapp, sequential_fem
from repro.simmpi import RankMapping, World


def _world(arm_small, p):
    n_nodes = min(p, 4)
    return World(RankMapping(arm_small, n_nodes=n_nodes,
                             ranks_per_node=-(-p // n_nodes)))


class TestFEMMiniapp:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_matches_sequential_solution(self, arm_small, p):
        world = _world(arm_small, p)
        res = world.run(fem_miniapp, cells=4)
        x_seq, _, _ = sequential_fem(4)
        for r in res.rank_results:
            assert np.abs(r["x"] - x_seq).max() < 1e-10

    def test_residual_small(self, arm_small):
        res = _world(arm_small, 4).run(fem_miniapp, cells=4, tol=1e-10)
        assert all(r["residual"] < 1e-8 for r in res.rank_results)

    def test_elements_partitioned_fully(self, arm_small):
        res = _world(arm_small, 4).run(fem_miniapp, cells=3)
        total = sum(r["my_elements"] for r in res.rank_results)
        assert total == 27 * 6  # every tetrahedron assembled exactly once
        assert res.rank_results[0]["residual"] < 1e-7  # default tolerance

    def test_both_phases_traced(self, arm_small):
        res = _world(arm_small, 2).run(fem_miniapp, cells=3)
        assert res.phase_time("assembly") > 0
        assert res.phase_time("solver") > 0
        # The solver's collectives dominate its phase (Alya's Fig. 10
        # structure: iterations separated by collective communications).
        solver_comm = res.phase_time("solver:allreduce", reduction="sum") + \
            res.phase_time("solver:allgather", reduction="sum")
        assert solver_comm > 0

    def test_iterations_agree_across_ranks(self, arm_small):
        res = _world(arm_small, 4).run(fem_miniapp, cells=4)
        assert len({r["iterations"] for r in res.rank_results}) == 1

    def test_preconditioning_effective(self, arm_small):
        """Jacobi-PCG converges in far fewer iterations than the mesh size."""
        res = _world(arm_small, 2).run(fem_miniapp, cells=4)
        assert res.rank_results[0]["iterations"] < 30
