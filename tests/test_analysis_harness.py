"""Analysis layer, Table IV, experiment harness, CLI."""

import pytest

from repro.analysis import (
    app_speedup,
    flattening_point,
    parallel_efficiency,
    scaling_exponent,
    table4,
    table4_matrix,
)
from repro.harness import list_experiments, run_experiment
from repro.harness.cli import main as cli_main
from repro.util.errors import ConfigurationError


class TestScalingMetrics:
    def test_perfect_scaling_efficiency_one(self):
        nodes = [1, 2, 4, 8]
        times = [8.0, 4.0, 2.0, 1.0]
        assert parallel_efficiency(nodes, times) == pytest.approx([1.0] * 4)
        assert scaling_exponent(nodes, times) == pytest.approx(-1.0)

    def test_flat_curve_exponent_zero(self):
        assert scaling_exponent([1, 2, 4], [5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_flattening_point(self):
        nodes = [1, 2, 4, 8, 16]
        times = [16.0, 8.0, 4.0, 3.6, 3.5]  # flattens after 4
        assert flattening_point(nodes, times) == 8

    def test_never_flattens(self):
        assert flattening_point([1, 2, 4], [4.0, 2.0, 1.0]) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_efficiency([1], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            scaling_exponent([1], [1.0])


class TestTable4:
    @pytest.fixture(scope="class")
    def matrix(self):
        return table4_matrix()

    def test_all_rows_present(self, matrix):
        assert set(matrix) == {"LINPACK", "HPCG", "Alya", "OpenIFS",
                               "Gromacs", "WRF", "NEMO"}

    def test_synthetics_beat_applications(self, matrix):
        for row, cells in matrix.items():
            for cell in cells:
                if cell.speedup is None:
                    continue
                if row in ("LINPACK", "HPCG"):
                    assert cell.speedup > 1.0
                else:
                    assert cell.speedup < 1.0

    def test_np_cells(self, matrix):
        by = {(c.application, c.n_nodes): c for cells in matrix.values()
              for c in cells}
        assert by[("Alya", 1)].speedup is None
        assert by[("NEMO", 1)].speedup is None
        assert by[("OpenIFS", 16)].speedup is None
        assert by[("OpenIFS", 1)].speedup is not None  # TL255 input

    def test_paper_anchor_cells(self, matrix):
        by = {(c.application, c.n_nodes): c for cells in matrix.values()
              for c in cells}
        assert by[("LINPACK", 1)].speedup == pytest.approx(1.25, abs=0.04)
        assert by[("LINPACK", 192)].speedup == pytest.approx(1.40, abs=0.04)
        assert by[("HPCG", 1)].speedup == pytest.approx(2.50, abs=0.15)
        assert by[("HPCG", 192)].speedup == pytest.approx(3.24, abs=0.20)
        assert by[("Alya", 16)].speedup == pytest.approx(0.30, abs=0.04)
        assert by[("NEMO", 16)].speedup == pytest.approx(0.56, abs=0.08)
        assert by[("Gromacs", 1)].speedup == pytest.approx(0.32, abs=0.06)
        assert by[("WRF", 1)].speedup == pytest.approx(0.49, abs=0.08)
        assert by[("OpenIFS", 1)].speedup == pytest.approx(0.31, abs=0.05)

    def test_render_shows_np(self):
        text = table4().render()
        assert "NP" in text and "LINPACK" in text

    def test_unknown_app_speedup(self):
        with pytest.raises(KeyError):
            app_speedup("firedrake", 1)


class TestHarness:
    def test_registry_covers_every_table_and_figure(self):
        ids = set(list_experiments())
        expected = {
            "table1_hardware", "table2_stream_builds", "table3_app_builds",
            "table4_speedups", "fig1_fpu", "fig2_stream_openmp",
            "fig3_stream_hybrid", "fig4_netmap", "fig5_netdist",
            "fig6_linpack", "fig7_hpcg", "fig8_alya", "fig9_alya_assembly",
            "fig10_alya_solver", "fig11_nemo", "fig12_gromacs_node",
            "fig13_gromacs_multi", "fig14_openifs_node",
            "fig15_openifs_multi", "fig16_wrf",
        }
        assert expected <= ids

    def test_extensions_registered(self):
        ids = set(list_experiments())
        assert {"ext_paging", "ext_vectorization", "ext_scalar_ooo",
                "ext_faults", "ext_scheduler", "ext_topology"} <= ids

    @pytest.mark.parametrize("exp_id", [
        "table1_hardware", "fig1_fpu", "fig2_stream_openmp",
        "fig3_stream_hybrid", "fig6_linpack", "fig7_hpcg", "ext_paging",
    ])
    def test_fast_experiments_all_hold(self, exp_id):
        result = run_experiment(exp_id)
        failed = [e.render() for e in result.expectations if not e.holds]
        assert not failed, failed

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_result_renders(self):
        text = run_experiment("table1_hardware").render()
        assert "Table I" in text and "paper=" in text


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6_linpack" in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "table1_hardware"]) == 0
        assert "70.40" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "nope"]) == 2
