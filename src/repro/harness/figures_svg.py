"""Render every paper figure as an SVG file (``repro-lab figures <dir>``).

Each file draws the :class:`~repro.harness.experiment.Figure` record of
its experiment — the same record ``repro-lab run`` draws in ASCII — so
the SVG and text figures cannot disagree.
"""

from __future__ import annotations

import os
import re

from repro.harness.experiment import Figure, run_experiment
from repro.harness.report import _PAPER_ORDER
from repro.util.svgplot import bar_chart, heatmap, line_plot


def figure_svg(fig: Figure) -> str:
    """Draw one figure record as an SVG document."""
    if fig.kind == "line":
        return line_plot(fig.series, title=fig.title, xlabel=fig.xlabel,
                         ylabel=fig.ylabel, logx=fig.logx, logy=fig.logy)
    if fig.kind == "bars":
        return bar_chart(fig.groups, fig.series, labels=fig.labels,
                         title=fig.title, ylabel=fig.ylabel)
    return heatmap(fig.matrix, title=fig.title, xlabel=fig.xlabel,
                   ylabel=fig.ylabel)


def render_all(out_dir: str) -> list[str]:
    """Write the figure of every paper experiment that has one, named
    after the experiment (``fig1_fpu`` -> ``fig01_fpu.svg``); returns the
    file paths in paper order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for exp_id in _PAPER_ORDER:
        fig = run_experiment(exp_id).figure
        if fig is None:
            continue
        path = os.path.join(out_dir, re.sub(r"^fig(\d)_", r"fig0\1_", exp_id)
                            + ".svg")
        with open(path, "w") as fh:
            fh.write(figure_svg(fig))
        written.append(path)
    return written
