"""Full evaluation report: the paper's narrative regenerated from the models.

``repro-lab report`` walks the experiments in paper order and emits a
single self-contained text document — section headings, the tables, the
ASCII figures, the paper-vs-measured scorecard, and the claim-coverage
audit — i.e. the reproduction's equivalent of the paper's evaluation
section, regenerated from scratch on every run.
"""

from __future__ import annotations

from repro.harness.experiment import list_experiments, run_experiment
from repro.harness.paper_claims import verify_coverage

#: the paper's experiments in paper order (Tables I-III, Figs. 1-16,
#: Table IV) under their section headings.
_SECTIONS = [
    ("II. System configuration", ["table1_hardware"]),
    ("III-A. Floating-point throughput", ["fig1_fpu"]),
    ("III-B. Memory performance",
     ["table2_stream_builds", "fig2_stream_openmp", "fig3_stream_hybrid"]),
    ("III-C. Network performance", ["fig4_netmap", "fig5_netdist"]),
    ("IV. HPC benchmarks", ["fig6_linpack", "fig7_hpcg"]),
    ("V. Scientific applications",
     ["table3_app_builds", "fig8_alya", "fig9_alya_assembly",
      "fig10_alya_solver", "fig11_nemo", "fig12_gromacs_node",
      "fig13_gromacs_multi", "fig14_openifs_node", "fig15_openifs_multi",
      "fig16_wrf"]),
    ("VI. Conclusions", ["table4_speedups"]),
]

_PAPER_ORDER = [exp_id for _, exp_ids in _SECTIONS for exp_id in exp_ids]


def _ordered_experiments() -> list[str]:
    """Paper order, then the extensions by id."""
    return _PAPER_ORDER + sorted(set(list_experiments()) - set(_PAPER_ORDER))


def generate_report(*, include_figures: bool = True,
                    include_extensions: bool = True) -> str:
    """Build the full report text."""
    results = {}
    lines = [
        "=" * 72,
        "REPRODUCTION REPORT",
        "Cluster of emerging technology: evaluation of a production HPC",
        "system based on A64FX  (Banchelli et al., IEEE CLUSTER 2021)",
        "=" * 72,
        "",
    ]
    total = held = 0
    for section, exp_ids in _SECTIONS:
        lines.append(section)
        lines.append("-" * len(section))
        for exp_id in exp_ids:
            result = run_experiment(exp_id)
            results[exp_id] = result
            total += len(result.expectations)
            held += sum(e.holds for e in result.expectations)
            lines.append(result.render(include_figure=include_figures))
            lines.append("")
    if include_extensions:
        ext_ids = [e for e in _ordered_experiments() if e.startswith("ext_")]
        lines.append("Extensions beyond the paper")
        lines.append("---------------------------")
        for exp_id in ext_ids:
            result = run_experiment(exp_id)
            results[exp_id] = result
            total += len(result.expectations)
            held += sum(e.holds for e in result.expectations)
            lines.append(result.render(include_figure=include_figures))
            lines.append("")
    coverage = verify_coverage(cache=results)
    covered = sum(c.covered for c in coverage)
    lines.append("=" * 72)
    lines.append("SCORECARD")
    lines.append(f"  expectations held : {held}/{total}")
    lines.append(f"  paper claims covered: {covered}/{len(coverage)}")
    missing = [c.claim.claim_id for c in coverage if not c.covered]
    if missing:
        lines.append(f"  uncovered claims: {missing}")
    lines.append("=" * 72)
    return "\n".join(lines)
