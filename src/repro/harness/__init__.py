"""Experiment harness: one registered experiment per paper table/figure.

``run_experiment("fig6_linpack")`` executes the corresponding campaign
against the models and returns an :class:`ExperimentResult` carrying the
same rows the paper reports, the figure as a numeric :class:`Figure`
record (drawn in ASCII by ``render`` and as SVG by ``repro-lab figures``),
and a paper-vs-measured expectation list (the source of EXPERIMENTS.md).
"""

from repro.harness.experiment import (
    Expectation,
    ExperimentResult,
    Figure,
    REGISTRY,
    register,
    run_experiment,
    list_experiments,
)
import repro.harness.figures  # noqa: F401  (registers the experiments)
import repro.harness.extensions  # noqa: F401  (registers the ablations)

__all__ = [
    "Expectation",
    "ExperimentResult",
    "Figure",
    "REGISTRY",
    "register",
    "run_experiment",
    "list_experiments",
]
