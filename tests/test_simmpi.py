"""Simulated MPI: mapping, point-to-point, every collective, world runs."""

import numpy as np
import pytest

from repro.simmpi import RankMapping, ReduceOp, VirtualPayload, World, payload_size
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError


class TestPayload:
    def test_numpy_size(self):
        assert payload_size(np.zeros(10)) == 80

    def test_virtual_payload(self):
        assert payload_size(VirtualPayload(12345)) == 12345

    def test_override_wins(self):
        assert payload_size(np.zeros(10), override=7) == 7

    def test_scalar_and_none(self):
        assert payload_size(3.14) == 8
        assert payload_size(None) == 0

    def test_bytes(self):
        assert payload_size(b"abcd") == 4

    def test_negative_virtual_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualPayload(-1)


class TestMapping:
    def test_rank_to_node(self, arm_small):
        m = RankMapping(arm_small, n_nodes=3, ranks_per_node=4)
        assert m.n_ranks == 12
        assert m.node_of(0) == 0 and m.node_of(4) == 1 and m.node_of(11) == 2
        assert m.local_rank(5) == 1

    def test_one_rank_per_cmg(self, arm_small):
        m = RankMapping(arm_small, n_nodes=1, ranks_per_node=4,
                        threads_per_rank=12)
        assert [m.domain_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_mpi_only_rank_bandwidth(self, arm_small):
        m = RankMapping(arm_small, n_nodes=1, ranks_per_node=48)
        # 12 ranks share one CMG's sustainable bandwidth.
        per = m.rank_memory_bandwidth(0)
        assert per == pytest.approx(215.65e9 / 12, rel=0.01)

    def test_hybrid_rank_bandwidth(self, arm_small):
        m = RankMapping(arm_small, n_nodes=1, ranks_per_node=4,
                        threads_per_rank=12)
        assert m.rank_memory_bandwidth(0) == pytest.approx(215.65e9, rel=0.01)

    def test_compute_rate_scales_with_threads(self, arm_small):
        m = RankMapping(arm_small, n_nodes=1, ranks_per_node=4,
                        threads_per_rank=12)
        assert m.rank_compute_rate(0, 2e9) == pytest.approx(24e9)

    def test_oversubscription_rejected(self, arm_small):
        with pytest.raises(ConfigurationError):
            RankMapping(arm_small, n_nodes=1, ranks_per_node=8,
                        threads_per_rank=8)

    def test_placement_within_domain(self, arm_small):
        m = RankMapping(arm_small, n_nodes=1, ranks_per_node=4,
                        threads_per_rank=12)
        p = m.placement_of(2)
        assert set(p.cores) == set(range(24, 36))


class TestPointToPoint:
    def test_send_recv_payload(self, small_world):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, np.arange(4.0), tag=9)
                return None
            if comm.rank == 1:
                data = yield from comm.recv(0, tag=9)
                return data
            return None

        res = small_world.run(program)
        assert np.array_equal(res.rank_results[1], np.arange(4.0))

    def test_sendrecv_exchange(self, small_world):
        def program(comm):
            partner = comm.rank ^ 1
            got = yield from comm.sendrecv(partner, comm.rank * 10)
            return got

        res = small_world.run(program)
        assert res.rank_results[0] == 10 and res.rank_results[1] == 0

    def test_self_message_rejected(self, small_world):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(0, b"x")

        with pytest.raises(Exception):
            small_world.run(program)

    def test_mismatched_recv_deadlocks(self, small_world):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1)

        with pytest.raises(DeadlockError):
            small_world.run(program)

    def test_virtual_time_advances_with_size(self, arm_small):
        def program(comm, size):
            if comm.rank == 0:
                yield from comm.send(1, None, size=size)
            elif comm.rank == 1:
                yield from comm.recv(0)

        times = []
        for size in (1024, 1024 * 1024):
            world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=1))
            times.append(world.run(program, size).elapsed)
        assert times[0] < times[1]

    def test_intranode_faster_than_internode(self, arm_small):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, None, size=64 * 1024)
            elif comm.rank == 1:
                yield from comm.recv(0)

        w_intra = World(RankMapping(arm_small, n_nodes=1, ranks_per_node=2))
        w_inter = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=1))
        assert w_intra.run(program).elapsed < w_inter.run(program).elapsed

    @pytest.mark.parametrize("delay", [-1e-6, float("nan"), float("inf")])
    def test_delivery_delay_must_be_finite_and_non_negative(
        self, small_world, delay
    ):
        with pytest.raises(SimulationError, match="delay must be finite"):
            small_world.schedule_delivery(1, 0, (0, 0), None, delay)


class TestCollectives:
    @pytest.mark.parametrize("n_nodes,rpn", [(4, 2), (3, 3), (1, 7)])
    def test_allreduce_sum(self, arm_small, n_nodes, rpn):
        """Power-of-two and non-power-of-two rank counts."""
        world = World(RankMapping(arm_small, n_nodes=n_nodes, ranks_per_node=rpn))

        def program(comm):
            total = yield from comm.allreduce(np.array([float(comm.rank)]))
            return float(total[0])

        res = world.run(program)
        p = n_nodes * rpn
        expected = p * (p - 1) / 2
        assert all(v == expected for v in res.rank_results)

    def test_allreduce_64_ranks_advances_the_clock(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=8, ranks_per_node=8))

        def program(comm):
            for _ in range(5):
                yield from comm.allreduce(VirtualPayload(8))

        assert world.run(program).elapsed > 0

    def test_allreduce_max_min(self, small_world):
        def program(comm):
            mx = yield from comm.allreduce(np.array([comm.rank]), op=ReduceOp.MAX)
            mn = yield from comm.allreduce(np.array([comm.rank]), op=ReduceOp.MIN)
            return (int(mx[0]), int(mn[0]))

        res = small_world.run(program)
        assert all(v == (7, 0) for v in res.rank_results)

    @pytest.mark.parametrize("root", [0, 3, 5])
    def test_bcast_from_any_root(self, small_world, root):
        def program(comm):
            payload = {"data": 99} if comm.rank == root else None
            got = yield from comm.bcast(payload, root=root)
            return got["data"]

        res = small_world.run(program)
        assert all(v == 99 for v in res.rank_results)

    @pytest.mark.parametrize("root", [0, 2])
    def test_reduce_only_root_gets_result(self, small_world, root):
        def program(comm):
            out = yield from comm.reduce(np.array([1.0]), root=root)
            return None if out is None else float(out[0])

        res = small_world.run(program)
        for rank, v in enumerate(res.rank_results):
            assert (v == 8.0) if rank == root else (v is None)

    def test_gather_ordered(self, small_world):
        def program(comm):
            return (yield from comm.gather(f"r{comm.rank}", root=0))

        res = small_world.run(program)
        assert res.rank_results[0] == [f"r{i}" for i in range(8)]
        assert res.rank_results[1] is None

    def test_allgather_all_ranks(self, small_world):
        def program(comm):
            return (yield from comm.allgather(comm.rank * 2))

        res = small_world.run(program)
        assert all(v == [0, 2, 4, 6, 8, 10, 12, 14] for v in res.rank_results)

    def test_alltoall_permutation(self, small_world):
        def program(comm):
            out = yield from comm.alltoall(
                [(comm.rank, d) for d in range(comm.size)]
            )
            return out

        res = small_world.run(program)
        for rank, received in enumerate(res.rank_results):
            assert received == [(src, rank) for src in range(8)]

    def test_scatter(self, small_world):
        def program(comm):
            blocks = list(range(100, 108)) if comm.rank == 3 else None
            mine = yield from comm.scatter(blocks, root=3)
            return mine

        res = small_world.run(program)
        assert res.rank_results == [100 + i for i in range(8)]

    def test_barrier_synchronizes(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=2, ranks_per_node=2))

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(1.0)
            yield from comm.barrier()
            return comm.now

        res = world.run(program)
        assert all(t >= 1.0 for t in res.rank_results)

    def test_single_rank_collectives_trivial(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=1, ranks_per_node=1))

        def program(comm):
            a = yield from comm.allreduce(np.array([5.0]))
            b = yield from comm.bcast("x")
            c = yield from comm.allgather(1)
            yield from comm.barrier()
            return (float(a[0]), b, c)

        res = world.run(program)
        assert res.rank_results[0] == (5.0, "x", [1])


class TestComputeAndTrace:
    def test_compute_roofline(self, small_world):
        def program(comm):
            yield from comm.compute(flops=2e9, flops_per_core=2e9)
            return comm.now

        res = small_world.run(program)
        assert all(t == pytest.approx(1.0) for t in res.rank_results)

    def test_compute_memory_bound(self, arm_small):
        world = World(RankMapping(arm_small, n_nodes=1, ranks_per_node=4,
                                  threads_per_rank=12))

        def program(comm):
            bw = world.mapping.rank_memory_bandwidth(comm.rank)
            yield from comm.compute(bytes_moved=bw)  # exactly one second
            return comm.now

        res = world.run(program)
        assert all(t == pytest.approx(1.0) for t in res.rank_results)

    def test_compute_needs_rate_for_flops(self, small_world):
        def program(comm):
            yield from comm.compute(flops=1e9)

        with pytest.raises(ConfigurationError):
            small_world.run(program)

    def test_phase_times_recorded(self, small_world):
        def program(comm):
            comm.set_phase("assembly")
            yield from comm.compute(0.5)
            comm.set_phase("solver")
            yield from comm.compute(0.25)

        res = small_world.run(program)
        assert res.phase_time("assembly") == pytest.approx(0.5)
        assert res.phase_time("solver") == pytest.approx(0.25)
        assert res.phase_time("solver", reduction="sum") == pytest.approx(2.0)

    def test_subcommunicator_ops_trace_world_rank_actors(self, arm_small):
        """Ops on a split communicator are traced under the *world* rank:
        with communicator-local labels the two rank-0s (and rank-1s) of a
        ``rank % 2`` split used to merge into one actor."""
        world = World(RankMapping(arm_small, n_nodes=1, ranks_per_node=4))

        def program(comm):
            sub = yield from comm.split(comm.rank % 2)
            sub.set_phase("work")
            yield from sub.compute((comm.rank + 1) * 1e-3)
            sub.set_phase("xchg")
            yield from sub.sendrecv(1 - sub.rank, size=8)

        trace = world.run(program).trace
        assert trace.per_actor("work") == pytest.approx(
            {"rank0": 0.001, "rank1": 0.002, "rank2": 0.003, "rank3": 0.004})
        assert sorted(trace.per_actor("xchg")) == [
            "rank0", "rank1", "rank2", "rank3"]

    def test_world_rejects_undersized_network(self, arm_small):
        from repro.network.model import network_for

        net = network_for(arm_small, n_nodes=12)
        mapping = RankMapping(arm_small, n_nodes=12, ranks_per_node=1)
        World(mapping, network=net)  # exact fit is fine
        with pytest.raises(ConfigurationError):
            World(RankMapping(cte_arm_13(), n_nodes=13, ranks_per_node=1),
                  network=net)


def cte_arm_13():
    from repro.machine import cte_arm

    return cte_arm(13)
