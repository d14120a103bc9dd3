"""Benchmark drivers: the paper-facing quantitative assertions."""

import numpy as np
import pytest

from repro.bench import (
    fig1_data,
    fig2_data,
    fig3_data,
    fig6_data,
    fig7_data,
    pairwise_bandwidth_map,
)
from repro.bench.fpu_ukernel import check_uniformity, run_fpu_ukernel
from repro.bench.hpcg import hpcg_rate, node_stream_bw
from repro.bench.linpack import (
    FIG6_NODES,
    hpl_efficiency,
    linpack_point,
    problem_size,
    process_grid,
)
from repro.bench.osu import (
    bandwidth_distribution,
    diagonal_banding_score,
    fig5_data,
    find_weak_links,
)
from repro.bench.stream_bench import (
    best_point,
    check_problem_size,
    stream_hybrid_points,
    stream_openmp_sweep,
)
from repro.machine import cte_arm
from repro.network import network_for
from repro.util.errors import ConfigurationError
from repro.util.stats import is_bimodal
from repro.util.units import KIB, MIB


class TestFig1:
    def test_six_variants_per_machine(self):
        data = fig1_data()
        assert len(data) == 12
        arm = [r for r in data if r.cluster == "CTE-Arm"]
        assert len({(r.mode, r.dtype) for r in arm}) == 6

    def test_all_near_peak(self):
        assert all(r.percent_of_peak > 95 for r in fig1_data())

    def test_a64fx_vector_double_rate(self):
        r = next(r for r in fig1_data() if r.cluster == "CTE-Arm"
                 and r.mode.value == "vector" and r.dtype.name == "DOUBLE")
        assert 69.0 < r.sustained_flops / 1e9 < 70.4

    def test_a64fx_vector_hierarchy(self, arm):
        by = {(r.mode.value, r.dtype.name): r for r in run_fpu_ukernel(arm)}
        assert by[("vector", "HALF")].sustained_flops == pytest.approx(
            2 * by[("vector", "SINGLE")].sustained_flops)
        assert by[("vector", "SINGLE")].sustained_flops == pytest.approx(
            2 * by[("vector", "DOUBLE")].sustained_flops)

    def test_scalar_independent_of_dtype(self, arm):
        scalars = [r.sustained_flops for r in run_fpu_ukernel(arm)
                   if r.mode.value == "scalar"]
        assert len(set(scalars)) == 1

    def test_no_variability(self, arm):
        assert check_uniformity(arm) == 0.0


class TestFig2and3:
    def test_fig2_paper_values(self, arm, mn4):
        arm_best = best_point(stream_openmp_sweep(arm, language="c"))
        assert arm_best.bandwidth / 1e9 == pytest.approx(292.0, abs=2.0)
        assert arm_best.threads == 24
        mn4_best = best_point(stream_openmp_sweep(mn4, language="c"))
        assert mn4_best.bandwidth / 1e9 == pytest.approx(201.2, abs=1.0)

    def test_fig2_c_faster_than_fortran_on_arm(self, arm):
        c = best_point(stream_openmp_sweep(arm, language="c"))
        f = best_point(stream_openmp_sweep(arm, language="fortran"))
        assert 1.05 < c.bandwidth / f.bandwidth < 1.15

    def test_fig3_paper_values(self, arm):
        f = best_point(stream_hybrid_points(arm, language="fortran"))
        c = best_point(stream_hybrid_points(arm, language="c"))
        assert f.bandwidth / 1e9 == pytest.approx(862.6, abs=3.0)
        assert c.bandwidth / 1e9 == pytest.approx(421.1, abs=3.0)
        assert f.label == "4x12"

    def test_problem_size_rule_enforced(self, arm):
        with pytest.raises(ConfigurationError):
            check_problem_size(arm, 10**6)
        check_problem_size(arm, 610_000_000)  # the paper's E

    def test_full_fig_data_shapes(self):
        assert len({(p.cluster, p.language) for p in fig2_data()}) == 4
        assert len({(p.cluster, p.language) for p in fig3_data()}) == 4


class TestFig4and5:
    @pytest.fixture(scope="class")
    def small_net(self):
        return network_for(cte_arm(48), n_nodes=48)

    def test_map_shape_and_diagonal(self, small_net):
        m = pairwise_bandwidth_map(small_net, size=256)
        assert m.shape == (48, 48)
        assert np.all(np.isnan(np.diag(m)))
        assert np.nanmin(m) > 0

    def test_banding_torus_vs_fattree(self, small_net, mn4):
        """The torus produces many distance classes (recurring bands); a
        two-level fat tree produces exactly two (same leaf / cross leaf)."""
        torus_map = pairwise_bandwidth_map(small_net, size=256)
        fat_map = pairwise_bandwidth_map(network_for(mn4, n_nodes=48), size=256)

        def levels(m):
            vals = np.round(m[~np.isnan(m)] / 1e6, 1)
            return len(np.unique(vals))

        assert levels(torus_map) > 2 * levels(fat_map)
        assert diagonal_banding_score(torus_map) > 0.2

    def test_map_needs_a_node(self, small_net):
        with pytest.raises(ConfigurationError):
            pairwise_bandwidth_map(small_net, n_nodes=0)
        m = pairwise_bandwidth_map(small_net, n_nodes=1)
        assert m.shape == (1, 1) and np.isnan(m[0, 0])

    def test_map_of_a_sub_partition(self, small_net):
        m = pairwise_bandwidth_map(small_net, size=256, n_nodes=5)
        want = [[np.nan if a == b else 256 / small_net.p2p_time(a, b, 256)
                 for b in range(5)] for a in range(5)]
        assert np.array_equal(m, want, equal_nan=True)

    def test_weak_node_in_full_map(self, arm):
        net = network_for(arm)
        m = pairwise_bandwidth_map(net, size=256)
        assert m.shape == (192, 192)
        assert np.all(np.isnan(np.diag(m)))
        report = find_weak_links(m)
        assert report.weak_receivers == [107]
        assert report.weak_senders == []

    def test_distribution_medians_increase_with_size(self, small_net):
        dists = bandwidth_distribution(small_net, sizes=[256, 4 * KIB, 256 * KIB],
                                       max_pairs=400)
        medians = [np.median(dists[s]) for s in (256, 4 * KIB, 256 * KIB)]
        assert medians == sorted(medians)

    def test_fig5_bimodal_window_and_large_message_spread(self):
        dists = fig5_data(max_pairs=1000)
        assert len(dists) == 25  # 2^0 .. 2^24
        mid = [s for s in dists if 1 * KIB <= s < 256 * KIB
               and is_bimodal(dists[s] / 1e6)]
        assert len(mid) >= 4
        big = dists[16 * MIB] / 1e6
        spread = (np.percentile(big, 95) - np.percentile(big, 5)) \
            / np.median(big)
        assert spread > 0.2

    def test_distribution_subsample_deterministic(self, small_net):
        a = bandwidth_distribution(small_net, sizes=[1024], max_pairs=100)
        b = bandwidth_distribution(small_net, sizes=[1024], max_pairs=100)
        assert np.array_equal(a[1024], b[1024])


class TestFig6:
    def test_problem_size_fills_memory(self, arm):
        n = problem_size(arm, 192)
        mem = arm.total_memory_bytes(192)
        assert 0.78 * mem <= 8 * n * n <= 0.82 * mem
        assert n % 240 == 0

    def test_process_grid(self):
        assert process_grid(192) == (12, 16)
        assert process_grid(768) == (24, 32)
        assert process_grid(7) == (1, 7)
        with pytest.raises(ConfigurationError):
            process_grid(0)

    def test_paper_efficiencies(self, arm, mn4):
        assert hpl_efficiency(arm, 1) == pytest.approx(0.90, abs=0.005)
        assert hpl_efficiency(arm, 192) == pytest.approx(0.85, abs=0.01)
        assert hpl_efficiency(mn4, 192) == pytest.approx(0.636, abs=0.01)
        assert linpack_point(mn4, 192).percent_of_peak == pytest.approx(
            63.0, abs=1.5)

    def test_speedups_at_endpoints(self, arm, mn4):
        s1 = linpack_point(arm, 1).gflops / linpack_point(mn4, 1).gflops
        s192 = linpack_point(arm, 192).gflops / linpack_point(mn4, 192).gflops
        assert s1 == pytest.approx(1.25, abs=0.03)
        assert s192 == pytest.approx(1.40, abs=0.03)

    def test_efficiency_declines_with_scale(self, arm):
        pts = [linpack_point(arm, n) for n in FIG6_NODES]
        effs = [p.percent_of_peak for p in pts]
        assert effs == sorted(effs, reverse=True)

    def test_absolute_rate_increases_with_scale(self, arm):
        pts = [linpack_point(arm, n) for n in FIG6_NODES]
        rates = [p.gflops for p in pts]
        assert rates == sorted(rates)

    def test_comm_reported_below_half(self, arm):
        p = linpack_point(arm, 192)
        assert 0 <= p.comm_seconds <= p.compute_seconds

    def test_fig6_has_both_machines(self):
        clusters = {p.cluster for p in fig6_data()}
        assert clusters == {"CTE-Arm", "MareNostrum 4"}


class TestFig7:
    def test_paper_percentages(self, arm):
        assert 100 * hpcg_rate(arm, "optimized", 1) / arm.peak_flops_nodes(1) \
            == pytest.approx(2.91, abs=0.05)
        assert 100 * hpcg_rate(arm, "optimized", 192) / arm.peak_flops_nodes(192) \
            == pytest.approx(2.96, abs=0.05)

    def test_speedups(self, arm, mn4):
        s1 = hpcg_rate(arm, "optimized", 1) / hpcg_rate(mn4, "optimized", 1)
        s192 = hpcg_rate(arm, "optimized", 192) / hpcg_rate(mn4, "optimized", 192)
        assert s1 == pytest.approx(2.5, abs=0.15)
        assert s192 == pytest.approx(3.24, abs=0.15)

    def test_vanilla_below_optimized(self, arm, mn4):
        for cluster in (arm, mn4):
            assert hpcg_rate(cluster, "vanilla", 1) < hpcg_rate(
                cluster, "optimized", 1)

    def test_node_stream_bw_matches_fig3(self, arm):
        assert node_stream_bw(arm) / 1e9 == pytest.approx(862.6, rel=0.02)

    def test_unknown_version_rejected(self, arm):
        with pytest.raises(ConfigurationError):
            hpcg_rate(arm, "turbo", 1)

    def test_fig7_four_bars_per_machine(self):
        pts = fig7_data()
        assert len(pts) == 8
