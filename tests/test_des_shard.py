"""Sharded parallel DES: partition math, lookahead conservatism, and the
differential guarantee that a sharded run reproduces the single-engine
run bit-exactly for any shard count and worker schedule."""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.context import RunContext, using
from repro.des.shard import (
    ShardPlan,
    ShardWorld,
    ShardedSpec,
    cross_shard_rank_pairs,
    lookahead,
    run_sharded,
)
from repro.des.shard.driver import _actor_key, _ShardHost
from repro.ir import DESBackend, FastCollBackend
from repro.ir.lower import lower
from repro.machine import cte_arm
from repro.network.model import network_for
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.schedule import (
    FaultSchedule,
    LinkDegrade,
    LinkRecover,
    NodeCrash,
)
from repro.simmpi.mapping import RankMapping
from repro.simmpi.world import World
from repro.util.errors import ConfigurationError, SimulationError, WorkerLostError

N_NODES = 4
RANKS_PER_NODE = 8  # small world: fast tests, still multi-node


@pytest.fixture(scope="module")
def cluster():
    return cte_arm(N_NODES)


@pytest.fixture(scope="module")
def mapping(cluster):
    return RankMapping(cluster, N_NODES, ranks_per_node=RANKS_PER_NODE)


@pytest.fixture(scope="module")
def program(mapping):
    return get_app("nemo").program(mapping, steps=2)


@pytest.fixture(scope="module")
def binary(cluster):
    return get_app("nemo").build(cluster)


def canonical_trace(trace) -> bytes:
    """Byte form of a trace in the shard-merge canonical order."""
    records = sorted(
        trace.records, key=lambda r: (r.start, _actor_key(r.actor))
    )
    return "\n".join(repr(r) for r in records).encode()


def run_unsharded(program, mapping, binary, **world_kwargs) -> tuple:
    world = World(mapping, **world_kwargs)
    result = world.run(lower(program, mapping, binary))
    return result, world


class TestShardPlan:
    @given(
        n_nodes=st.integers(1, 24),
        rpn=st.integers(1, 6),
        n_shards=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_ranks_exactly_once(
        self, n_nodes, rpn, n_shards
    ):
        cluster = cte_arm(max(n_nodes, 1))
        mapping = RankMapping(cluster, n_nodes, ranks_per_node=rpn)
        if n_shards > n_nodes:
            with pytest.raises(ConfigurationError):
                ShardPlan.build(mapping, n_shards)
            return
        plan = ShardPlan.build(mapping, n_shards)
        seen: list[int] = []
        for shard in range(n_shards):
            local = plan.local_ranks(shard)
            assert len(local) > 0
            for rank in local:
                assert plan.shard_of_rank(rank) == shard
            seen.extend(local)
        assert seen == list(range(mapping.n_ranks))

    def test_cmg_granularity_splits_nodes_into_domains(self, mapping):
        plan = ShardPlan.build(mapping, 8, granularity="cmg")
        # 4 nodes x 4 CMGs = 16 units, 2 ranks each.
        assert plan.n_units == 16
        assert plan.ranks_per_unit == 2
        assert plan.splits_nodes

    def test_cmg_needs_divisible_ranks(self, cluster):
        bad = RankMapping(cluster, N_NODES, ranks_per_node=6)
        with pytest.raises(ConfigurationError):
            ShardPlan.build(bad, 2, granularity="cmg")

    def test_unknown_granularity_rejected(self, mapping):
        with pytest.raises(ConfigurationError):
            ShardPlan.build(mapping, 2, granularity="socket")


class TestLookahead:
    @given(
        n_nodes=st.integers(2, 12),
        rpn=st.integers(1, 4),
        n_shards=st.integers(2, 12),
        size=st.integers(1, 1 << 22),
        factor=st.floats(0.0, 1.0),
        node=st.integers(0, 11),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_cross_shard_message_beats_the_window(
        self, n_nodes, rpn, n_shards, size, factor, node
    ):
        """The heart of conservatism: no cross-shard transfer — any size,
        any hop count, any live fault degradation — can complete in less
        than one lookahead, so a window can never deliver out of order."""
        n_shards = min(n_shards, n_nodes)
        cluster = cte_arm(n_nodes)
        mapping = RankMapping(cluster, n_nodes, ranks_per_node=rpn)
        plan = ShardPlan.build(mapping, n_shards)
        network = network_for(cluster, n_nodes=n_nodes)
        la = lookahead(network, mapping, plan)
        assert 0.0 < la < float("inf")
        # Mid-run degradation only ever slows messages down.
        network.apply_fault_transition(
            lambda fm: fm.degrade_sender(node % n_nodes, factor)
        )
        for a in range(n_nodes):
            for b in range(n_nodes):
                if a == b or plan.shard_of_node(a) == plan.shard_of_node(b):
                    continue
                assert network.p2p_time(a, b, size) >= la

    def test_channel_inventory_refines_the_bound(
        self, program, mapping, monkeypatch
    ):
        import repro.ir.analyze.trace as trace_mod

        def no_unroll(*args, **kwargs):
            raise AssertionError("unroll called for a collective program")

        # The answer comes from the rank-independent schedule alone.
        monkeypatch.setattr(trace_mod, "unroll", no_unroll)
        plan = ShardPlan.build(mapping, 2)
        pairs = cross_shard_rank_pairs(program, plan)
        # NEMO's lowering carries world collectives: the inventory must
        # refuse to claim completeness rather than under-approximate.
        assert pairs is None

    def test_collective_free_program_gets_exact_pairs(self, mapping):
        from repro.ir import CommOp, Loop, Phase, Program, grid_neighbors

        p = mapping.n_ranks
        program = Program(name="p2p-only", body=(Loop(2, (Phase("x", (
            CommOp("halo", 64, neighbors=4),
            CommOp("ring", 64),
            CommOp("p2p", 64),
        )),)),), steps=2)
        plan = ShardPlan.build(mapping, 2)
        # Brute force from the lowering rules: rank r sends to, and
        # receives from, its 2-D grid neighbours, sends right and receives
        # from the left on the ring, and pairs with r ^ 1.
        expected = set()
        for r in range(p):
            links = [(r, nb) for nb in grid_neighbors(r, p, ndims=2)]
            links += [(nb, r) for nb in grid_neighbors(r, p, ndims=2)]
            links += [(r, (r + 1) % p), ((r - 1) % p, r), (r, r ^ 1),
                      (r ^ 1, r)]
            expected |= {(a, b) for a, b in links
                         if plan.shard_of_rank(a) != plan.shard_of_rank(b)}
        assert expected
        assert cross_shard_rank_pairs(program, plan) == expected

    def test_truncated_schedule_gives_no_inventory(self, mapping):
        from repro.ir import CommOp, Loop, Phase, Program

        program = Program(name="long", body=(Loop(5, (Phase("x", (
            CommOp("ring", 64),)),)),), steps=5)
        assert cross_shard_rank_pairs(program, ShardPlan.build(mapping, 2)) \
            is None

    def test_empty_inventory_gives_finite_window(self, mapping):
        plan = ShardPlan.build(mapping, 2)
        network = network_for(mapping.cluster, n_nodes=N_NODES)
        la = lookahead(network, mapping, plan, rank_pairs=set())
        assert 0.0 < la < float("inf")


class TestDifferential:
    """Sharded == unsharded, to the byte, for any shard/worker count."""

    def test_shard_counts_reproduce_unsharded(
        self, program, mapping, binary
    ):
        base, world = run_unsharded(program, mapping, binary, trace=True)
        base_bytes = canonical_trace(base.trace)
        for n_shards in (1, 2, 3, 4):
            spec = ShardedSpec(
                program=program, mapping=mapping, n_shards=n_shards,
                binary=binary, world_kwargs={"trace": True},
            )
            result, stats = run_sharded(spec)
            assert result.elapsed == pytest.approx(base.elapsed, rel=1e-9)
            assert result.rank_results == base.rank_results
            assert result.trace.totals() == base.trace.totals()
            assert canonical_trace(result.trace) == base_bytes
            assert stats.n_shards == n_shards
            if n_shards > 1:
                assert stats.cross_messages > 0

    def test_merge_is_byte_identical_across_shard_counts(
        self, program, mapping, binary
    ):
        def run(n):
            spec = ShardedSpec(
                program=program, mapping=mapping, n_shards=n,
                binary=binary, world_kwargs={"trace": True},
            )
            return run_sharded(spec)[0]

        r2, r4 = run(2), run(4)
        assert r2.trace.records == r4.trace.records
        assert canonical_trace(r2.trace) == canonical_trace(r4.trace)
        assert r2.elapsed == r4.elapsed
        assert r2.rank_results == r4.rank_results

    def test_worker_processes_reproduce_sequential(
        self, program, mapping, binary
    ):
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=4,
            binary=binary, world_kwargs={"trace": True},
        )
        seq, _ = run_sharded(spec, workers=0)
        par, stats = run_sharded(spec, workers=2)
        assert par.elapsed == seq.elapsed
        assert par.trace.records == seq.trace.records
        assert par.rank_results == seq.rank_results
        assert stats.workers == 2
        assert all(w >= 0.0 for w in stats.shard_wall_s.values())

    def test_cmg_granularity_reproduces_unsharded(
        self, program, mapping, binary
    ):
        base, _ = run_unsharded(program, mapping, binary, trace=True)
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=8,
            granularity="cmg", binary=binary,
            world_kwargs={"trace": True},
        )
        result, stats = run_sharded(spec)
        assert stats.granularity == "cmg"
        assert result.elapsed == pytest.approx(base.elapsed, rel=1e-9)
        assert canonical_trace(result.trace) == canonical_trace(base.trace)

    def test_cross_shard_fault_schedule(self, program, mapping, binary):
        schedule = FaultSchedule((
            LinkDegrade(at=0.013, node=3, factor=0.25),
            NodeCrash(at=0.05, node=1),
            LinkRecover(at=0.09, node=3),
        ))
        kwargs = dict(
            trace=True,
            fault_schedule=schedule,
            resilience=ResiliencePolicy(),
        )
        base, _ = run_unsharded(program, mapping, binary, **kwargs)
        for n_shards in (2, 4):
            spec = ShardedSpec(
                program=program, mapping=mapping, n_shards=n_shards,
                binary=binary, world_kwargs=dict(kwargs),
            )
            result, _ = run_sharded(spec)
            assert result.elapsed == pytest.approx(base.elapsed, rel=1e-9)
            assert result.trace.totals() == base.trace.totals()
            got, want = result.resilience, base.resilience
            assert got.failed_nodes == want.failed_nodes
            assert sorted(got.failed_ranks) == sorted(want.failed_ranks)
            assert len(got.detections) == len(want.detections)
            # The fused crash report names every rank of the dead node.
            (crash,) = got.report.by_rule("RES001")
            assert crash.details["ranks"] == [
                r for r in range(mapping.n_ranks)
                if mapping.node_of(r) == 1
            ]

    def test_compute_noise_is_shard_invariant(
        self, program, mapping, binary
    ):
        kwargs = dict(trace=True, compute_noise=0.05, noise_seed=7)
        base, _ = run_unsharded(program, mapping, binary, **kwargs)
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=4,
            binary=binary, world_kwargs=dict(kwargs),
        )
        result, _ = run_sharded(spec)
        assert result.elapsed == base.elapsed
        assert result.trace.totals() == base.trace.totals()

    def test_verify_runs_the_checker_over_the_merged_log(
        self, program, mapping, binary
    ):
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=2,
            binary=binary, verify=True, world_kwargs={"trace": False},
        )
        result, _ = run_sharded(spec)
        assert result.diagnostics is not None
        assert result.diagnostics.clean


class TestGuards:
    def test_nic_contention_is_rejected(self, program, mapping, binary):
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=2, binary=binary,
            world_kwargs={"nic_contention": True},
        )
        with pytest.raises(ConfigurationError, match="nic_contention"):
            run_sharded(spec)

    def test_injecting_into_the_past_is_an_error(self, mapping):
        from repro.des.shard.subworld import CrossMsg

        plan = ShardPlan.build(mapping, 2)
        world = ShardWorld(mapping, plan, 0, trace=False)
        world.engine.run_window(1.0)
        msg = CrossMsg(time=0.5, src_shard=1, seq=1, dst_rank=0,
                       src=17, key=(0, 5), payload=b"x")
        with pytest.raises(SimulationError, match="lookahead"):
            world.inject(msg)

    def test_remote_sends_land_in_the_outbox(self, mapping):
        plan = ShardPlan.build(mapping, 2)
        world = ShardWorld(mapping, plan, 0, trace=False)
        remote = plan.local_ranks(1)[0]
        world.schedule_delivery(remote, 3, (0, 9), b"p", 5e-6)
        local = plan.local_ranks(0)[0]
        world.schedule_delivery(local, 3, (0, 9), b"p", 5e-6)
        (msg,) = world.drain_outbox()
        assert msg.dst_rank == remote
        assert msg.time == pytest.approx(5e-6)


class _DyingHost(_ShardHost):
    """Shard host whose worker process exits on its third window step."""

    steps = 0

    def _step(self, t_end, inject):
        self.steps += 1
        if self.steps == 3:
            os._exit(1)
        return super()._step(t_end, inject)


def _make_dying_host(init):
    return _DyingHost(*init)


class TestWorkerDeath:
    def test_dead_worker_mid_window_raises_typed_error(
        self, program, mapping, binary, monkeypatch
    ):
        from repro.des.shard import driver

        monkeypatch.setattr(driver, "_make_host", _make_dying_host)
        spec = ShardedSpec(program=program, mapping=mapping, n_shards=2,
                           binary=binary)
        t0 = time.monotonic()
        with pytest.raises(WorkerLostError) as info:
            run_sharded(spec, workers=2)
        assert time.monotonic() - t0 < 10.0
        assert info.value.worker in (0, 1)
        assert info.value.exitcode == 1
        assert f"worker {info.value.worker}" in str(info.value)


class TestBackendWiring:
    def test_des_backend_shards_match_single_engine(
        self, program, cluster, mapping
    ):
        backend = DESBackend()
        common = dict(mapping=mapping, check_memory=False)
        plain = backend.run(program, cluster, N_NODES, **common)
        sharded = backend.run(program, cluster, N_NODES, shards=4,
                              shard_workers=0, **common)
        assert sharded.elapsed == pytest.approx(plain.elapsed, rel=1e-9)
        assert sharded.phase_seconds == plain.phase_seconds
        assert plain.shard_stats is None
        assert sharded.shard_stats is not None
        assert sharded.shard_stats["n_shards"] == 4
        assert sharded.shard_stats["events"] > 0

    def test_shard_count_clamps_to_partition_size(
        self, program, cluster, mapping
    ):
        # One --des-shards setting must work across a node-count sweep:
        # a request exceeding the unit count clamps instead of erroring,
        # and a 1-unit-per-shard-impossible point (shards > nodes with
        # the clamp landing on 1) falls back to the single engine.
        backend = DESBackend()
        common = dict(mapping=mapping, check_memory=False)
        plain = backend.run(program, cluster, N_NODES, **common)
        clamped = backend.run(program, cluster, N_NODES,
                              shards=3 * N_NODES, **common)
        assert clamped.shard_stats is not None
        assert clamped.shard_stats["n_shards"] == N_NODES
        assert clamped.elapsed == plain.elapsed

    def test_backend_options_steer_the_des_backend(
        self, program, cluster, mapping
    ):
        backend = DESBackend()
        with using(RunContext(des_shards=2)):
            result = backend.run(program, cluster, N_NODES,
                                 mapping=mapping, check_memory=False)
        assert result.shard_stats is not None
        assert result.shard_stats["n_shards"] == 2

    def test_hybrid_takes_closed_forms_on_clean_programs(
        self, program, cluster, mapping
    ):
        common = dict(mapping=mapping, check_memory=False)
        hybrid = DESBackend().run(program, cluster, N_NODES,
                                  hybrid=True, **common)
        fastcoll = FastCollBackend().run(program, cluster, N_NODES,
                                         **common)
        assert hybrid.elapsed == fastcoll.elapsed

    def test_hybrid_with_faults_matches_full_simulation(
        self, program, cluster, mapping
    ):
        schedule = FaultSchedule((
            LinkDegrade(at=0.01, node=2, factor=0.5),
            LinkRecover(at=0.05, node=2),
        ))
        common = dict(mapping=mapping, check_memory=False,
                      fault_schedule=schedule,
                      resilience=ResiliencePolicy())
        full = DESBackend().run(program, cluster, N_NODES, **common)
        hybrid = DESBackend().run(program, cluster, N_NODES,
                                  hybrid=True, **common)
        assert hybrid.elapsed == pytest.approx(full.elapsed, rel=1e-9)
