"""Distributed LU and FFT-transpose mini-apps: numerics + schedules."""

import numpy as np
import pytest

from repro.apps.miniapps_linalg import fft_transpose_miniapp, lu_miniapp
from repro.simmpi import RankMapping, World
from repro.util.errors import ConfigurationError


class TestLUMiniapp:
    @pytest.mark.parametrize("p,n", [(2, 32), (4, 32), (4, 48), (8, 64)])
    def test_solution_matches_numpy(self, arm_small, p, n):
        world = World(RankMapping(arm_small, n_nodes=min(p, 4),
                                  ranks_per_node=-(-p // min(p, 4))))
        assert world.mapping.n_ranks == p
        res = world.run(lu_miniapp, n=n)
        r0 = res.rank_results[0]
        expected = np.linalg.solve(r0["a"], r0["b"])
        assert np.abs(r0["x"] - expected).max() < 1e-9
        assert r0["residual"] < 1e-9

    def test_indivisible_rejected(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=3, ranks_per_node=1))
        with pytest.raises(ConfigurationError):
            world.run(lu_miniapp, n=32)

    def test_panel_broadcasts_traced(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=2))
        res = world.run(lu_miniapp, n=16)
        # one bcast per elimination column
        bcasts = [r for r in res.trace if r.phase.endswith(":bcast")]
        assert len(bcasts) == 16 * 4  # per rank

    def test_virtual_time_grows_with_n(self, arm_small):
        def run(n):
            world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=2))
            return world.run(lu_miniapp, n=n).elapsed

        assert run(64) > run(16)


class TestFFTTransposeMiniapp:
    @pytest.mark.parametrize("p,n", [(2, 16), (4, 32), (4, 64), (8, 64)])
    def test_matches_fft2(self, arm_small, p, n):
        world = World(RankMapping(arm_small, n_nodes=min(p, 4),
                                  ranks_per_node=-(-p // min(p, 4))))
        res = world.run(fft_transpose_miniapp, n=n)
        assert res.rank_results[0]["error"] < 1e-10

    def test_alltoall_traced(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=2))
        res = world.run(fft_transpose_miniapp, n=16)
        assert any(r.phase.endswith(":alltoall") for r in res.trace)

    def test_indivisible_rejected(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=3, ranks_per_node=1))
        with pytest.raises(ConfigurationError):
            world.run(fft_transpose_miniapp, n=32)


class TestOSUCrossValidation:
    """The OSU driver's analytic bandwidth equals a DES sendrecv loop."""

    def test_des_loop_matches_network_model(self, arm_small):
        from repro.network.model import network_for

        size = 64 * 1024
        iterations = 4

        def program(comm):
            t0 = comm.now
            for _ in range(iterations):
                yield from comm.sendrecv(1 - comm.rank, None, size=size)
            return comm.now - t0

        world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=1))
        res = world.run(program)
        measured_bw = size * iterations / max(res.rank_results)
        net = network_for(arm_small, n_nodes=2)
        analytic_bw = net.measured_bandwidth(0, 1, size)
        assert measured_bw == pytest.approx(analytic_bw, rel=0.25)
