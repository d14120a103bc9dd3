"""SVG ≡ experiments: each of the 17 files ``repro-lab figures`` writes is
drawn from exactly its experiment's ``result.figure`` (every argument the
SVG plotter receives equals the record), and every line figure's points
are exactly the rows of that experiment's table."""

import numpy as np
import pytest

from repro.harness import figures_svg, run_experiment

#: file name -> experiment, for every figure of the paper plus Table IV
FILES = {
    "fig01_fpu.svg": "fig1_fpu",
    "fig02_stream_openmp.svg": "fig2_stream_openmp",
    "fig03_stream_hybrid.svg": "fig3_stream_hybrid",
    "fig04_netmap.svg": "fig4_netmap",
    "fig05_netdist.svg": "fig5_netdist",
    "fig06_linpack.svg": "fig6_linpack",
    "fig07_hpcg.svg": "fig7_hpcg",
    "fig08_alya.svg": "fig8_alya",
    "fig09_alya_assembly.svg": "fig9_alya_assembly",
    "fig10_alya_solver.svg": "fig10_alya_solver",
    "fig11_nemo.svg": "fig11_nemo",
    "fig12_gromacs_node.svg": "fig12_gromacs_node",
    "fig13_gromacs_multi.svg": "fig13_gromacs_multi",
    "fig14_openifs_node.svg": "fig14_openifs_node",
    "fig15_openifs_multi.svg": "fig15_openifs_multi",
    "fig16_wrf.svg": "fig16_wrf",
    "table4_speedups.svg": "table4_speedups",
}


def _scaling(row):
    return row["Cluster"], row["Nodes"], row["metric"]


#: experiment -> (series name, x, y) of one table row of a line figure
ROW_POINT = {
    "fig2_stream_openmp": lambda r: (f"{r['Cluster']} ({r['Language']})",
                                     r["Threads"], r["GB/s"]),
    "fig3_stream_hybrid": lambda r: (
        f"{r['Cluster']} ({r['Language']})",
        int(r["Ranks x Threads"].split("x")[0]), r["GB/s"]),
    "fig6_linpack": lambda r: (r["Cluster"], r["Nodes"], r["GFlop/s"]),
    "fig8_alya": _scaling,
    "fig9_alya_assembly": _scaling,
    "fig10_alya_solver": _scaling,
    "fig11_nemo": _scaling,
    "fig12_gromacs_node": lambda r: (r["Cluster"], r["Cores"], r["days/ns"]),
    "fig13_gromacs_multi": lambda r: (
        r["Cluster"] if r["config"] == "8x6"
        else f"{r['Cluster']} {r['config']}", r["Nodes"], r["days/ns"]),
    "fig14_openifs_node": lambda r: (r["Cluster"], r["Ranks"], r["s/day"]),
    "fig15_openifs_multi": _scaling,
    "fig16_wrf": lambda r: (f"{r['Cluster']} IO {r['IO']}", r["Nodes"],
                            r["elapsed [s]"]),
}


@pytest.fixture(scope="module")
def drawn(tmp_path_factory):
    """``{file name: (plotter, args, kwargs)}`` of one ``render_all``."""
    calls = []

    def recording(name):
        real = getattr(figures_svg, name)

        def plot(*args, **kwargs):
            calls.append((name, args, kwargs))
            return real(*args, **kwargs)
        return plot

    with pytest.MonkeyPatch.context() as mp:
        for name in ("line_plot", "bar_chart", "heatmap"):
            mp.setattr(figures_svg, name, recording(name))
        paths = figures_svg.render_all(str(tmp_path_factory.mktemp("svg")))
    assert len(calls) == len(paths)
    return {path.rsplit("/", 1)[-1]: call for path, call in zip(paths, calls)}


@pytest.fixture(scope="module")
def results():
    """``{experiment: result}``, one fresh run of each of the 17."""
    return {exp_id: run_experiment(exp_id) for exp_id in FILES.values()}


def test_writes_the_seventeen_figures(drawn):
    assert sorted(drawn) == sorted(FILES)


@pytest.mark.parametrize("name", sorted(FILES))
def test_svg_draws_the_experiment_record(drawn, results, name):
    fig = results[FILES[name]].figure
    plotter, args, kwargs = drawn[name]
    if fig.kind == "line":
        assert plotter == "line_plot"
        assert args == (fig.series,)
        assert kwargs == dict(title=fig.title, xlabel=fig.xlabel,
                              ylabel=fig.ylabel, logx=fig.logx,
                              logy=fig.logy)
    elif fig.kind == "bars":
        assert plotter == "bar_chart"
        assert args == (fig.groups, fig.series)
        assert kwargs == dict(labels=fig.labels, title=fig.title,
                              ylabel=fig.ylabel)
    else:
        assert plotter == "heatmap"
        [matrix] = args
        assert np.array_equal(matrix, fig.matrix, equal_nan=True)
        assert kwargs == dict(title=fig.title, xlabel=fig.xlabel,
                              ylabel=fig.ylabel)


def _points(fig):
    return sorted((name, x, y) for name, pts in fig.series.items()
                  for x, y in pts)


@pytest.mark.parametrize("exp_id", sorted(ROW_POINT))
def test_line_points_are_the_table_rows(results, exp_id):
    result = results[exp_id]
    assert result.figure.kind == "line"
    rows = [dict(zip(result.table.columns, row)) for row in result.table.rows]
    assert _points(result.figure) == sorted(map(ROW_POINT[exp_id], rows))


def test_table4_points_are_the_feasible_cells(results):
    result = results["table4_speedups"]
    nodes = [int(n) for n in result.table.columns[1:]]
    cells = sorted((row[0], n, cell) for row in result.table.rows
                   for n, cell in zip(nodes, row[1:]) if cell != "NP")
    assert [(app, n, f"{y:.2f}") for app, n, y in _points(result.figure)] \
        == cells


def test_every_line_figure_is_checked_against_its_table(drawn):
    lines = {FILES[name] for name, (plotter, _, _) in drawn.items()
             if plotter == "line_plot"}
    assert lines == set(ROW_POINT) | {"table4_speedups"}
