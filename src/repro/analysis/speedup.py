"""Table IV: speedup of CTE-Arm relative to MareNostrum 4.

Speedup > 1 means CTE-Arm is faster.  For the synthetic benchmarks the
ratio is of achieved GFlop/s; for the applications it is the inverse ratio
of time to solution at equal node count.  "NP" marks configurations that
do not fit CTE-Arm's 32 GB/node (Alya below 12 nodes, NEMO below 8,
OpenIFS's multi-node input below 32); cells the model *can* evaluate but
the paper did not run are still produced (EXPERIMENTS.md compares only the
paper's cells).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import get_app
from repro.apps.openifs import OpenIFSModel
from repro.bench.hpcg import hpcg_rate
from repro.bench.linpack import linpack_point
from repro.machine.cluster import ClusterModel
from repro.machine.presets import cte_arm, marenostrum4
from repro.util.errors import OutOfMemoryError
from repro.util.tables import Table

TABLE4_NODES = [1, 16, 32, 64, 128, 192]
TABLE4_ROWS = ["LINPACK", "HPCG", "Alya", "OpenIFS", "Gromacs", "WRF", "NEMO"]


@dataclass(frozen=True)
class SpeedupCell:
    application: str
    n_nodes: int
    speedup: float | None  # None == NP (not possible on CTE-Arm)

    @property
    def display(self) -> str:
        return "NP" if self.speedup is None else f"{self.speedup:.2f}"


def app_speedup(name: str, n_nodes: int,
                arm: ClusterModel | None = None,
                mn4: ClusterModel | None = None) -> SpeedupCell:
    """One cell: t_mn4 / t_arm at equal node count (apps)."""
    arm = arm if arm is not None else cte_arm()
    mn4 = mn4 if mn4 is not None else marenostrum4(192)
    key = name.lower()
    if key == "linpack":
        a = linpack_point(arm, n_nodes).gflops
        m = linpack_point(mn4, n_nodes).gflops
        return SpeedupCell(name, n_nodes, a / m)
    if key == "hpcg":
        a = hpcg_rate(arm, "optimized", n_nodes)
        m = hpcg_rate(mn4, "optimized", n_nodes)
        return SpeedupCell(name, n_nodes, a / m)
    if key == "openifs":
        # Table IV's one-node OpenIFS entry is the TL255 input; multi-node
        # entries use TC0511 (NP below 32 CTE-Arm nodes).
        app = OpenIFSModel("TL255L91" if n_nodes == 1 else "TC0511L91")
    else:
        app = get_app(key)
    try:
        t_arm = app.time_step(arm, n_nodes).total
    except OutOfMemoryError:
        return SpeedupCell(name, n_nodes, None)
    try:
        t_mn4 = app.time_step(mn4, n_nodes).total
    except OutOfMemoryError:
        return SpeedupCell(name, n_nodes, None)
    return SpeedupCell(name, n_nodes, t_mn4 / t_arm)


def table4_matrix(
    nodes: list[int] | None = None,
    rows: list[str] | None = None,
) -> dict[str, list[SpeedupCell]]:
    nodes = TABLE4_NODES if nodes is None else nodes
    rows = TABLE4_ROWS if rows is None else rows
    arm = cte_arm()
    mn4 = marenostrum4(192)
    return {
        row: [app_speedup(row, n, arm, mn4) for n in nodes] for row in rows
    }


def table4(nodes: list[int] | None = None, *,
           matrix: dict[str, list[SpeedupCell]] | None = None) -> Table:
    """Render the speedup matrix in the paper's Table IV layout
    (``matrix``: a prebuilt :func:`table4_matrix` over ``nodes``)."""
    nodes = TABLE4_NODES if nodes is None else nodes
    matrix = table4_matrix(nodes) if matrix is None else matrix
    t = Table(
        "TABLE IV — Speedup of CTE-Arm relative to MareNostrum 4",
        ["Applications"] + [str(n) for n in nodes],
    )
    for row, cells in matrix.items():
        t.add_row(row, *[c.display for c in cells])
    return t
