"""The analyzer driver: one call, one :class:`DiagnosticReport`.

:func:`analyze_program` runs the three analyzer families over a program
on a concrete ``(cluster, n_nodes)`` partition, in milliseconds and with
no DES execution:

* ``comm`` — the abstract matching walk and overtaking scan of
  :mod:`repro.ir.analyze.commsafety` over symbolic traces.  The walk
  runs at a representative rank count capped at ``max_comm_ranks``
  (default 256): the matching/hazard relations the analyzers model are
  layout-generic, and the cap keeps a 2304-rank app analysis inside the
  millisecond budget.  Pass ``max_comm_ranks=None`` for exact scale.
* ``resources`` — the capacity arithmetic of
  :mod:`repro.ir.analyze.resources` at the *full* partition scale, with
  an optional analytic elapsed-time hint to ground the NIC advice.
* ``soundness`` — the pass certificate of
  :mod:`repro.ir.analyze.effects` for this concrete program.

:func:`static_clean` is the memoized yes/no form backends use to skip
dynamic-verify fallbacks when a program is already proven clean.
"""

from __future__ import annotations

from typing import Iterable

from repro.ir.analyze.commsafety import check_traces
from repro.ir.analyze.effects import certified_optimize
from repro.ir.analyze.resources import check_resources
from repro.ir.analyze.trace import DEFAULT_EAGER_THRESHOLD, unroll
from repro.ir.program import Program
from repro.machine.capacity import PartitionCapacity
from repro.machine.cluster import ClusterModel
from repro.util.errors import ConfigurationError, ToolchainError
from repro.util.memo import Memo
from repro.verify.diagnostics import Diagnostic, DiagnosticReport, Severity

__all__ = [
    "ANALYZE_VERSION",
    "DEFAULT_CHECKS",
    "analyze_program",
    "static_clean",
]

#: bump when any analyzer or the certificate canonical form changes
#: behavior — part of the experiment cache key
#: (:func:`repro.harness.parallel.cache_key`), like ``PASS_VERSION``.
ANALYZE_VERSION = 1

DEFAULT_CHECKS = ("comm", "resources", "soundness")


def _analytic_hint(program: Program, cluster: ClusterModel,
                   n_nodes: int) -> float | None:
    """Cheap elapsed estimate for the NIC advice; None when unpriceable."""
    from repro.ir.analytic import AnalyticBackend

    try:
        return AnalyticBackend().run(
            program, cluster, n_nodes, check_memory=False).elapsed
    except (ToolchainError, ConfigurationError):
        return None


def analyze_program(
    program: Program,
    cluster: ClusterModel,
    n_nodes: int,
    *,
    checks: Iterable[str] = DEFAULT_CHECKS,
    include_ok: bool = False,
    tag_scheme: str = "instance",
    max_comm_ranks: int | None = 256,
    max_unroll: int = 4,
    eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
    price: bool = True,
    title: str | None = None,
) -> DiagnosticReport:
    """All static analyses for one program on one partition."""
    checks = tuple(checks)
    unknown = set(checks) - {"comm", "resources", "soundness"}
    if unknown:
        raise ConfigurationError(
            f"unknown analysis {sorted(unknown)}; "
            "choose from comm, resources, soundness"
        )
    report = DiagnosticReport(
        title=title if title is not None else
        f"analyze {program.name} on {cluster.name}, {n_nodes} nodes"
    )
    if "resources" in checks:
        cap = PartitionCapacity.of(cluster, n_nodes)
        hint = _analytic_hint(program, cluster, n_nodes) if price else None
        report.extend(check_resources(
            program, cap, elapsed_hint=hint, include_ok=include_ok))
    if "comm" in checks:
        n_ranks = n_nodes * program.ranks_per_node
        walk_ranks = n_ranks
        if max_comm_ranks is not None:
            walk_ranks = min(n_ranks, max(2, max_comm_ranks))
        traces = unroll(
            program, walk_ranks,
            tag_scheme=tag_scheme, max_unroll=max_unroll,
            eager_threshold=eager_threshold,
        )
        report.extend(check_traces(
            traces, include_ok=include_ok, name=program.name))
    if "soundness" in checks:
        _, cert = certified_optimize(program)
        if not cert.ok:
            report.add(Diagnostic(
                "STA013",
                "optimizer passes changed the program's effect summary: "
                + "; ".join(cert.mismatches[:4]),
                hint="a pass is unsound on this op mix; run the lowering "
                "backends with optimize=False and report the program",
                location=program.name,
                details={"mismatches": list(cert.mismatches),
                         "digest": cert.digest},
            ))
        elif include_ok:
            report.add(Diagnostic(
                "STA014",
                f"fold/fuse/collapse preserve this program's effect "
                f"summary (certificate {cert.digest[:12]})",
                location=program.name,
                details={"digest": cert.digest},
            ))
    return report


_STATIC_CLEAN: Memo[bool] = Memo("analyze.static_clean", 1024)


def static_clean(
    program: Program,
    n_ranks: int,
    *,
    eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
    max_comm_ranks: int | None = 256,
    max_unroll: int = 4,
) -> bool:
    """True when the communication-safety analyzer proves the program
    clean at this scale (memoized; Programs are frozen and hashable)."""
    walk_ranks = n_ranks
    if max_comm_ranks is not None:
        walk_ranks = min(n_ranks, max(2, max_comm_ranks))

    def run() -> bool:
        traces = unroll(program, walk_ranks, max_unroll=max_unroll,
                        eager_threshold=eager_threshold)
        return not any(d.severity in (Severity.ERROR, Severity.WARNING)
                       for d in check_traces(traces))

    return _STATIC_CLEAN.get_or_compute(
        (program, walk_ranks, eager_threshold, max_unroll), run)
