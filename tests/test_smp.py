"""Shared-memory model: binding, pages, contention, OpenMP costs.

Includes the paper-facing assertions: the Fig. 2 / Fig. 3 STREAM plateaus
must emerge from the placement + contention model.
"""

import numpy as np
import pytest

from repro.smp import (
    OpenMPModel,
    PagePolicy,
    ThreadBinding,
    bind_threads,
    node_stream_bandwidth,
    page_locality,
    parallel_region_time,
    stream_bandwidth,
)
from repro.smp.pages import remote_fraction
from repro.util.errors import ConfigurationError


class TestBinding:
    def test_spread_round_robins_domains(self, arm):
        p = bind_threads(arm.node, 4, ThreadBinding.SPREAD)
        assert [p.domain_of_thread(t) for t in range(4)] == [0, 1, 2, 3]

    def test_spread_fills_evenly(self, arm):
        p = bind_threads(arm.node, 24, ThreadBinding.SPREAD)
        assert p.domain_counts() == {0: 6, 1: 6, 2: 6, 3: 6}

    def test_close_packs_first_domain(self, arm):
        p = bind_threads(arm.node, 12, ThreadBinding.CLOSE)
        assert p.domain_counts() == {0: 12}

    def test_domain_restriction(self, arm):
        p = bind_threads(arm.node, 8, domain=2)
        assert p.domain_counts() == {2: 8}
        with pytest.raises(ConfigurationError):
            bind_threads(arm.node, 13, domain=2)

    def test_oversubscription_rejected(self, arm):
        with pytest.raises(ConfigurationError):
            bind_threads(arm.node, 49)

    def test_duplicate_core_rejected(self, arm):
        from repro.smp.binding import ThreadPlacement

        with pytest.raises(ConfigurationError):
            ThreadPlacement(arm.node, (0, 0))


class TestPages:
    def test_first_touch_all_local(self, arm):
        p = bind_threads(arm.node, 8)
        L = page_locality(p, PagePolicy.FIRST_TOUCH)
        assert np.allclose(L.sum(axis=1), 1.0)
        assert remote_fraction(p, PagePolicy.FIRST_TOUCH) == 0.0

    def test_prepage_interleave_uniform(self, arm):
        p = bind_threads(arm.node, 8)
        L = page_locality(p, PagePolicy.PREPAGE_INTERLEAVE)
        assert np.allclose(L, 0.25)
        assert remote_fraction(p, PagePolicy.PREPAGE_INTERLEAVE) == pytest.approx(0.75)

    def test_prepage_master_single_domain(self, arm):
        p = bind_threads(arm.node, 8)
        L = page_locality(p, PagePolicy.PREPAGE_MASTER)
        assert np.allclose(L[:, 0], 1.0)
        assert np.allclose(L[:, 1:], 0.0)

    def test_mn4_two_domains(self, mn4):
        p = bind_threads(mn4.node, 4)
        assert remote_fraction(p, PagePolicy.INTERLEAVE) == pytest.approx(0.5)


class TestStreamContention:
    """The paper's STREAM numbers must *emerge* here."""

    def test_fig2_arm_plateau(self, arm):
        p24 = bind_threads(arm.node, 24)
        bw = stream_bandwidth(p24, PagePolicy.PREPAGE_INTERLEAVE)
        assert bw / 1e9 == pytest.approx(292.0, abs=2.0)

    def test_fig2_arm_best_is_24_threads(self, arm):
        best_t = max(
            range(1, 49),
            key=lambda t: (stream_bandwidth(
                bind_threads(arm.node, t), PagePolicy.PREPAGE_INTERLEAVE), t),
        )
        assert best_t == 24

    def test_fig2_mn4_plateau(self, mn4):
        bw = stream_bandwidth(bind_threads(mn4.node, 48), PagePolicy.FIRST_TOUCH)
        assert bw / 1e9 == pytest.approx(201.2, abs=1.0)

    def test_fig3_arm_hybrid(self, arm):
        bw = node_stream_bandwidth(arm.node, ranks=4, threads_per_rank=12)
        assert bw / 1e9 == pytest.approx(862.6, abs=2.0)

    def test_fig3_mn4_hybrid(self, mn4):
        bw = node_stream_bandwidth(mn4.node, ranks=2, threads_per_rank=24)
        assert bw / 1e9 == pytest.approx(201.2, abs=1.0)

    def test_demand_paging_fixes_the_anomaly(self, arm):
        """Extension: first-touch recovers hybrid-level bandwidth."""
        bw = stream_bandwidth(bind_threads(arm.node, 48), PagePolicy.FIRST_TOUCH)
        assert bw / 1e9 > 800

    def test_master_paging_worst(self, arm):
        p = bind_threads(arm.node, 24)
        master = stream_bandwidth(p, PagePolicy.PREPAGE_MASTER)
        inter = stream_bandwidth(p, PagePolicy.PREPAGE_INTERLEAVE)
        assert master < inter

    def test_bandwidth_monotone_below_saturation(self, arm):
        bws = [
            stream_bandwidth(bind_threads(arm.node, t), PagePolicy.FIRST_TOUCH)
            for t in (1, 2, 4, 8)
        ]
        assert bws == sorted(bws)

    def test_node_bandwidth_many_ranks(self, arm):
        # 48 MPI-only ranks with local pages approach the hybrid roof.
        bw = node_stream_bandwidth(arm.node, ranks=48, threads_per_rank=1)
        assert bw / 1e9 == pytest.approx(862.6, rel=0.05)

    def test_node_bandwidth_matches_rank_loop(self, arm, mn4, monkeypatch):
        """Pricing each domain once is bit-equal to pricing every rank,
        for every tuner placement and page policy on both presets."""
        from repro.smp import contention
        from repro.tune.space import placement_grid

        def rank_loop(node, ranks, tpr, policy):
            """The per-rank loop: one stream_bandwidth call per rank."""
            total = 0.0
            if ranks <= len(node.domains) and tpr <= node.domains[0].cores:
                for r in range(ranks):
                    placement = bind_threads(node, tpr,
                                             domain=node.domains[r].index)
                    total += stream_bandwidth(placement,
                                              PagePolicy.FIRST_TOUCH)
                return total
            cores_per_rank = node.cores // ranks
            for r in range(ranks):
                domain = node.domain_of_core(r * cores_per_rank).index
                placement = bind_threads(
                    node, min(tpr, cores_per_rank), domain=domain)
                total += stream_bandwidth(placement, policy)
            return min(total, node.sustainable_memory_bandwidth)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ConfigurationError as exc:
                return str(exc)

        for node in (arm.node, mn4.node):
            for ranks, tpr in placement_grid(node.cores):
                for policy in PagePolicy:
                    got = outcome(
                        lambda: node_stream_bandwidth(
                            node, ranks=ranks, threads_per_rank=tpr,
                            policy=policy))
                    assert got == outcome(rank_loop, node, ranks, tpr,
                                          policy), (ranks, tpr, policy)
        calls = []
        real = contention.stream_bandwidth
        monkeypatch.setattr(contention, "stream_bandwidth",
                            lambda *a: calls.append(1) or real(*a))
        for policy in PagePolicy:
            calls.clear()
            node_stream_bandwidth(arm.node, ranks=48, threads_per_rank=1,
                                  policy=policy)
            assert len(calls) <= len(arm.node.domains) == 4

    def test_rank_shape_validation(self, arm):
        with pytest.raises(ConfigurationError):
            node_stream_bandwidth(arm.node, ranks=0, threads_per_rank=1)
        with pytest.raises(ConfigurationError):
            node_stream_bandwidth(arm.node, ranks=10, threads_per_rank=10)


class TestOpenMPModel:
    def test_compute_bound_region(self, arm):
        p = bind_threads(arm.node, 12, domain=0)
        t = parallel_region_time(p, flops=12e9, bytes_moved=0,
                                 flops_per_core=1e9)
        # 12 threads x 1 GF/core -> 1 s, plus imbalance and fork/join.
        assert 1.0 < t < 1.1

    def test_memory_bound_region(self, arm):
        p = bind_threads(arm.node, 12, domain=0)
        t = parallel_region_time(p, flops=1e6, bytes_moved=215.65e9,
                                 flops_per_core=1e9)
        assert t == pytest.approx(1.0 * 1.05, rel=0.02)

    def test_fork_join_floor(self, arm):
        p = bind_threads(arm.node, 2)
        t = parallel_region_time(p, flops=0, bytes_moved=0, flops_per_core=1e9)
        assert t == pytest.approx(3.0e-6)

    def test_invalid_model(self):
        with pytest.raises(ConfigurationError):
            OpenMPModel(imbalance=0.9)

    def test_negative_work_rejected(self, arm):
        p = bind_threads(arm.node, 2)
        with pytest.raises(ConfigurationError):
            parallel_region_time(p, flops=-1, bytes_moved=0, flops_per_core=1e9)
