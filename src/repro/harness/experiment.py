"""Experiment result containers and the experiment registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.tables import Table


@dataclass(frozen=True)
class Expectation:
    """One paper-vs-measured comparison line.

    ``claim`` is the :class:`~repro.harness.paper_claims.PaperClaim` id
    this line checks ("" for none); it is neither rendered nor part of
    ``to_dict``.
    """

    metric: str
    paper: str
    measured: str
    holds: bool = True
    note: str = ""
    claim: str = ""

    def render(self) -> str:
        mark = "ok " if self.holds else "DEV"
        line = f"[{mark}] {self.metric}: paper={self.paper}  measured={self.measured}"
        if self.note:
            line += f"  ({self.note})"
        return line


@dataclass(frozen=True, eq=False)
class Figure:
    """One paper figure as numbers.  ``ExperimentResult.render`` draws it
    in ASCII and ``repro-lab figures`` draws the same record as SVG.

    ``kind`` selects the data fields:

    - ``line``: ``series`` maps a name to its ``(x, y)`` points;
    - ``bars``: ``series`` maps a name to one value per ``groups`` entry,
      and ``labels`` optionally maps a name to one text per bar;
    - ``heatmap``: ``matrix`` is a 2-D array.
    """

    kind: str
    title: str
    xlabel: str = ""
    ylabel: str = ""
    logx: bool = False
    logy: bool = False
    series: Mapping[str, Sequence] = field(default_factory=dict)
    groups: Sequence[str] = ()
    labels: Mapping[str, Sequence[str]] = field(default_factory=dict)
    matrix: np.ndarray | None = None

    def ascii(self) -> str | None:
        """Terminal drawing; ``None`` for grouped bars (no ASCII drawer)."""
        from repro.util.asciiplot import ascii_heatmap, ascii_line_plot

        if self.kind == "line":
            return ascii_line_plot(self.series, title=self.title,
                                   xlabel=self.xlabel, ylabel=self.ylabel,
                                   logx=self.logx, logy=self.logy)
        if self.kind == "heatmap":
            return ascii_heatmap(self.matrix, title=self.title)
        return None


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    table: Table | None = None
    figure: Figure | None = None
    expectations: list[Expectation] = field(default_factory=list)
    notes: str = ""

    def render(self, *, include_figure: bool = True) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        if self.table is not None:
            parts.append(self.table.render())
        art = self.figure.ascii() if include_figure and self.figure else None
        if art:
            parts.append(art)
        if self.expectations:
            parts.append("Paper vs measured:")
            parts.extend("  " + e.render() for e in self.expectations)
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.expectations)

    def to_dict(self) -> dict:
        """JSON-serializable form (for ``repro-lab run --json``)."""
        out: dict = {
            "experiment": self.exp_id,
            "title": self.title,
            "all_hold": self.all_hold,
            "expectations": [
                {
                    "metric": e.metric,
                    "paper": e.paper,
                    "measured": e.measured,
                    "holds": bool(e.holds),  # numpy bools are not JSON-safe
                    "note": e.note,
                }
                for e in self.expectations
            ],
        }
        if self.table is not None:
            out["table"] = {
                "title": self.table.title,
                "columns": list(self.table.columns),
                "rows": [[_jsonable(v) for v in row] for row in self.table.rows],
            }
        if self.notes:
            out["notes"] = self.notes
        return out


def _jsonable(value):
    """Coerce table cells to JSON-native types."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


ExperimentFn = Callable[[], ExperimentResult]
REGISTRY: dict[str, ExperimentFn] = {}


def register(exp_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator adding an experiment function to the registry."""

    def deco(fn: ExperimentFn) -> ExperimentFn:
        if exp_id in REGISTRY:
            raise ConfigurationError(f"experiment {exp_id!r} registered twice")
        REGISTRY[exp_id] = fn
        return fn

    return deco


def run_experiment(exp_id: str) -> ExperimentResult:
    if exp_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(REGISTRY)}"
        )
    return REGISTRY[exp_id]()


def list_experiments() -> list[str]:
    return sorted(REGISTRY)
