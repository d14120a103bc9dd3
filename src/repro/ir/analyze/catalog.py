"""The bundled program catalog the analyzer dogfoods over.

One place that knows how to build every bundled bench and app IR program
for a given partition, so ``repro-lab analyze all`` and the check.sh gate
sweep exactly the same matrix the figures are produced from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.ir.program import Program
from repro.machine.cluster import ClusterModel

__all__ = ["AnalysisTarget", "BENCH_NAMES", "bundled_targets", "target"]

#: bench targets and the node count they are meant to run at
#: (stream is a single-node workload by construction).
BENCH_NAMES = ("stream", "linpack", "hpcg", "osu", "spmv", "qcd")


@dataclass(frozen=True)
class AnalysisTarget:
    """One (name, program, node count) the analyzer sweeps."""

    name: str
    program: Program
    n_nodes: int


#: serializes the first import of :mod:`repro.bench` (this module cannot
#: import it at load time: the bench package imports ``repro.ir``).  Two
#: threads importing the package and one of its submodules at once — the
#: capacity service builds targets on request threads — trip the
#: import-lock deadlock detector.
_BENCH_IMPORT = threading.Lock()


def _bench_target(name: str, cluster: ClusterModel,
                  n_nodes: int) -> AnalysisTarget:
    with _BENCH_IMPORT:
        import repro.bench  # noqa: F401
    if name == "stream":
        from repro.bench.stream_bench import ir_program

        return AnalysisTarget(name, ir_program(cluster), 1)
    if name == "linpack":
        from repro.bench.linpack import ir_program

        return AnalysisTarget(name, ir_program(cluster, n_nodes), n_nodes)
    if name == "hpcg":
        from repro.bench.hpcg import ir_program

        return AnalysisTarget(name, ir_program(cluster, n_nodes), n_nodes)
    if name == "spmv":
        from repro.bench.spmv import ir_program

        return AnalysisTarget(name, ir_program(cluster, n_nodes), n_nodes)
    if name == "qcd":
        from repro.bench.qcd import ir_program

        return AnalysisTarget(name, ir_program(cluster, n_nodes), n_nodes)
    assert name == "osu"
    from repro.bench.osu import ir_program

    return AnalysisTarget(name, ir_program(), n_nodes)


def target(name: str, cluster: ClusterModel, n_nodes: int,
           *, steps: int = 1) -> AnalysisTarget:
    """Build one named bench or app target for this partition."""
    if name in BENCH_NAMES:
        return _bench_target(name, cluster, n_nodes)
    from repro.apps import get_app

    app = get_app(name)  # raises KeyError for unknown names
    program = app.program(app.mapping(cluster, n_nodes), steps=steps)
    return AnalysisTarget(name, program, n_nodes)


def bundled_targets(cluster: ClusterModel, n_nodes: int,
                    *, steps: int = 1) -> list[AnalysisTarget]:
    """Every bundled bench and app program at this partition size."""
    from repro.apps import ALL_APPS

    out = [_bench_target(name, cluster, n_nodes) for name in BENCH_NAMES]
    out.extend(
        target(name, cluster, n_nodes, steps=steps)
        for name in sorted(ALL_APPS)
    )
    return out
