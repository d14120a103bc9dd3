"""Application workload models: feasibility, paper ratios, phase structure."""

import pytest

from repro.apps import (
    ALL_APPS,
    AlyaModel,
    GromacsModel,
    NemoModel,
    OpenIFSModel,
    WRFModel,
    get_app,
)
from repro.analysis.scaling import flattening_point
from repro.apps.base import CommOp
from repro.network.collectives import CollectiveCosts
from repro.network.model import network_for
from repro.simmpi.mapping import RankMapping
from repro.util.errors import ConfigurationError, OutOfMemoryError


class TestRegistry:
    def test_all_five_apps(self):
        assert set(ALL_APPS) == {"alya", "nemo", "gromacs", "openifs", "wrf"}

    def test_get_app(self):
        assert isinstance(get_app("Alya"), AlyaModel)
        with pytest.raises(KeyError):
            get_app("hpl")


class TestFeasibility:
    """The NP boundaries of Table IV."""

    def test_alya_needs_12_arm_nodes(self, arm, mn4):
        app = AlyaModel()
        assert app.min_nodes(arm) == 12
        assert app.min_nodes(mn4) <= 4
        with pytest.raises(OutOfMemoryError):
            app.time_step(arm, 11)
        app.check_feasible(arm, 12)

    def test_nemo_needs_8_arm_nodes(self, arm, mn4):
        app = NemoModel()
        assert app.min_nodes(arm) == 8
        assert app.min_nodes(mn4) == 1

    def test_openifs_tc0511_needs_32_arm_nodes(self, arm):
        app = OpenIFSModel("TC0511L91")
        assert app.min_nodes(arm) == 32
        with pytest.raises(OutOfMemoryError):
            app.time_step(arm, 31)

    def test_openifs_tl255_fits_one_node(self, arm):
        assert OpenIFSModel("TL255L91").min_nodes(arm) == 1

    def test_gromacs_wrf_fit_everywhere(self, arm):
        assert GromacsModel().min_nodes(arm) == 1
        assert WRFModel().min_nodes(arm) == 1

    def test_scaling_marks_np(self, arm):
        pts = AlyaModel().scaling(arm, [8, 12, 16])
        assert not pts[0].feasible and pts[1].feasible

    def test_unknown_input_rejected(self):
        with pytest.raises(ConfigurationError):
            OpenIFSModel("TL9999")


class TestPaperRatios:
    """The Section V headline numbers (tolerances per EXPERIMENTS.md)."""

    def test_alya_phase_ratios(self, arm, mn4):
        app = AlyaModel()
        ta, tm = app.time_step(arm, 12), app.time_step(mn4, 12)
        assert ta.phase_seconds["assembly"] / tm.phase_seconds["assembly"] \
            == pytest.approx(4.96, rel=0.08)
        assert ta.phase_seconds["solver"] / tm.phase_seconds["solver"] \
            == pytest.approx(1.79, rel=0.08)
        assert ta.total / tm.total == pytest.approx(3.4, rel=0.1)

    def test_alya_crossover_nodes(self, arm, mn4):
        app = AlyaModel()
        match = app.nodes_to_match(arm, mn4, 12, max_nodes=78)
        assert match is not None and abs(match - 44) <= 6
        mn4_12 = app.time_step(mn4, 12).total
        assert app.time_step(arm, 44).total <= 1.1 * mn4_12
        assert app.time_step(arm, 32).total > mn4_12

    def test_alya_phase_crossover_nodes(self, arm, mn4):
        """~62 CTE-Arm nodes match 12 MN4 nodes in Assembly, ~22 in Solver."""
        app = AlyaModel()
        mn4_12 = app.time_step(mn4, 12).phase_seconds
        assert app.time_step(arm, 62).phase_seconds["assembly"] \
            <= 1.1 * mn4_12["assembly"]
        assert app.time_step(arm, 22).phase_seconds["solver"] \
            <= 1.1 * mn4_12["solver"]

    def test_nemo_ratio_band(self, arm, mn4):
        app = NemoModel()
        r = app.time_step(arm, 8).total / app.time_step(mn4, 8).total
        assert 1.6 < r < 1.95

    def test_nemo_flattens_at_scale(self, arm):
        app = NemoModel()
        nodes = [8, 16, 32, 64, 128, 192]
        flat = flattening_point(nodes,
                                [app.time_step(arm, n).total for n in nodes])
        assert flat is not None and flat >= 96  # paper: ~128 nodes

    def test_gromacs_single_node_ratio(self, arm, mn4):
        app = GromacsModel()
        r = app.days_per_ns(arm, 1) / app.days_per_ns(mn4, 1)
        assert 2.7 < r < 3.6
        arm_d = dict(app.single_node_sweep(arm))
        mn4_d = dict(app.single_node_sweep(mn4))
        assert 2.7 < arm_d[6] / mn4_d[6] < 3.7  # paper: 3.48x at 6 cores

    def test_gromacs_gap_shrinks_with_scale(self, arm, mn4):
        app = GromacsModel()
        r1 = app.days_per_ns(arm, 1) / app.days_per_ns(mn4, 1)
        r144 = app.days_per_ns(arm, 144) / app.days_per_ns(mn4, 144)
        assert r144 < 0.65 * r1
        assert 1.3 < r144 < 2.0  # paper: 1.5x

    def test_gromacs_16_rank_anomaly(self, arm):
        normal = GromacsModel(anomaly=False)
        anomalous = GromacsModel()
        # 2 nodes x 8 rpn = 16 ranks triggers it; the 12x8 layout avoids it.
        t_bad = anomalous.time_step(arm, 2).total
        t_good = normal.time_step(arm, 2).total
        assert t_bad > 1.25 * t_good
        # No anomaly at other scales.
        assert anomalous.time_step(arm, 4).total < anomalous.time_step(arm, 2).total

    def test_openifs_ratios(self, arm, mn4):
        multi = OpenIFSModel("TC0511L91")
        r32 = multi.time_step(arm, 32).total / multi.time_step(mn4, 32).total
        r128 = multi.time_step(arm, 128).total / multi.time_step(mn4, 128).total
        assert 2.9 < r32 < 3.9  # paper 3.55
        assert 2.2 < r128 < 2.95  # paper 2.56
        assert r128 < r32  # the gap narrows at scale

    def test_openifs_single_node_ratios(self, arm, mn4):
        app = OpenIFSModel("TL255L91")
        arm_s = dict(app.single_node_sweep(arm))
        mn4_s = dict(app.single_node_sweep(mn4))
        assert 3.0 < arm_s[8] / mn4_s[8] < 4.0  # paper: 3.72x at 8 ranks
        assert 2.9 < arm_s[48] / mn4_s[48] < 3.8  # paper: 3.28x full node

    def test_wrf_ratio_roughly_flat(self, arm, mn4):
        app = WRFModel()
        r1 = app.elapsed_seconds(arm, 1) / app.elapsed_seconds(mn4, 1)
        r64 = app.elapsed_seconds(arm, 64) / app.elapsed_seconds(mn4, 64)
        assert 1.95 < r1 < 2.45  # paper 2.16
        assert 1.85 < r64 < 2.50  # paper 2.23

    def test_wrf_io_overhead_small(self, arm, mn4):
        on, off = WRFModel(io_enabled=True), WRFModel(io_enabled=False)
        for cluster in (arm, mn4):
            for n in (1, 16, 64):
                ratio = on.elapsed_seconds(cluster, n) / off.elapsed_seconds(
                    cluster, n)
                assert 1.0 <= ratio < 1.10

    def test_all_apps_slower_on_arm(self, arm, mn4):
        """Table IV: every application favours MareNostrum 4."""
        for name in ALL_APPS:
            app = OpenIFSModel("TC0511L91") if name == "openifs" else get_app(name)
            n = max(app.min_nodes(arm), app.min_nodes(mn4), 32)
            assert app.time_step(arm, n).total > app.time_step(mn4, n).total


class TestStructure:
    def test_strong_scaling_monotone(self, arm):
        app = NemoModel()
        times = [app.time_step(arm, n).total for n in (8, 16, 32, 64)]
        assert times == sorted(times, reverse=True)

    def test_phase_breakdown_sums(self, arm):
        t = AlyaModel().time_step(arm, 16)
        assert t.total == pytest.approx(sum(t.phase_seconds.values()))
        assert set(t.phase_seconds) == {"assembly", "solver", "other"}

    def test_compute_comm_split_recorded(self, arm):
        t = AlyaModel().time_step(arm, 16)
        for phase in t.phase_seconds:
            assert t.phase_compute[phase] >= 0
            assert t.phase_comm[phase] >= 0
            assert t.phase_compute[phase] + t.phase_comm[phase] \
                <= t.phase_seconds[phase] + 1e-12

    def test_build_log_tells_deployment_story(self, arm, mn4):
        logs = {app.name: app.build_log(arm)
                for app in (AlyaModel(), NemoModel(), GromacsModel(),
                            OpenIFSModel())}
        # The four apps the paper tried under Fujitsu all fail over to GNU.
        for name, log in logs.items():
            assert log[0][0].startswith("Fujitsu")
            assert "failure" in log[0][1]
            assert log[-1][1] == "ok"
        # WRF was configured with GNU directly (no Fujitsu attempt reported).
        wrf_log = WRFModel().build_log(arm)
        assert wrf_log == [("GNU/8.3.1-sve", "ok")]
        # On MareNostrum 4 the first try works.
        assert AlyaModel().build_log(mn4) == [("GNU/8.4.2", "ok")]

    def test_comm_op_validation(self, arm):
        mapping = RankMapping(arm, n_nodes=2, ranks_per_node=2)
        costs = CollectiveCosts(mapping=mapping,
                                network=network_for(arm, n_nodes=2))
        with pytest.raises(ConfigurationError):
            CommOp("teleport", 8).cost(costs)
        assert CommOp("allreduce", 8, count=0).cost(costs) == 0.0

    def test_job_with_nodes_preserves_total(self):
        app = AlyaModel()
        j12, j24 = app.job(12), app.job(24)
        assert j12.memory_per_node_bytes > j24.memory_per_node_bytes
