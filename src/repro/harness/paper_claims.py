"""A machine-checkable registry of the paper's quantitative claims.

Every numeric statement in the paper's evaluation is listed here with the
experiment that reproduces it.  Expectations name the claim they check by
its id (``Expectation.claim``); ``verify_coverage`` cross-checks the
registry against the harness — the reproduction's completeness audit
(``tests/test_paper_claims.py`` runs it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiment import REGISTRY, run_experiment


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative claim from the paper."""

    claim_id: str
    section: str
    text: str
    experiment: str


CLAIMS: list[PaperClaim] = [
    # --- Section II / Table I ------------------------------------------------
    PaperClaim("t1-peak-core-arm", "II", "A64FX DP peak 70.40 GF/core",
               "table1_hardware"),
    PaperClaim("t1-peak-core-mn4", "II", "Skylake DP peak 67.20 GF/core",
               "table1_hardware"),
    PaperClaim("t1-membw", "II", "1024 vs 256 GB/s peak memory bandwidth",
               "table1_hardware"),
    # --- Section III-A / Fig. 1 ----------------------------------------------
    PaperClaim("fig1-match-theory", "III-A",
               "µKernel matches theoretical peak on both machines", "fig1_fpu"),
    PaperClaim("fig1-no-variability", "III-A",
               "no intra-node or inter-node variability", "ext_variability"),
    # --- Section III-B / Figs. 2-3 -------------------------------------------
    PaperClaim("fig2-arm-292", "III-B",
               "A64FX best OpenMP bandwidth 292.0 GB/s at 24 threads",
               "fig2_stream_openmp"),
    PaperClaim("fig2-arm-29pct", "III-B", "29 % of peak OpenMP-only",
               "fig2_stream_openmp"),
    PaperClaim("fig2-mn4-201", "III-B", "MareNostrum 4 best 201.2 GB/s",
               "fig2_stream_openmp"),
    PaperClaim("fig2-c-faster", "III-B", "C ~10 % faster than Fortran",
               "fig2_stream_openmp"),
    PaperClaim("fig3-arm-862", "III-B",
               "hybrid Fortran Triad 862.6 GB/s = 84 % of peak", "fig3_stream_hybrid"),
    PaperClaim("fig3-arm-c-421", "III-B", "hybrid C version only 421.1 GB/s",
               "fig3_stream_hybrid"),
    # --- Section III-C / Figs. 4-5 -------------------------------------------
    PaperClaim("fig4-weak-node", "III-C", "node arms0b1-11c slow as receiver only",
               "fig4_netmap"),
    PaperClaim("fig4-banding", "III-C", "recurring diagonal patterns from torus hops",
               "fig4_netmap"),
    PaperClaim("fig5-bimodal", "III-C", "bimodal distribution for 1 kB-256 kB messages",
               "fig5_netdist"),
    PaperClaim("fig5-large-var", "III-C", "high variability above 1 MB",
               "fig5_netdist"),
    # --- Section IV-A / Fig. 6 -----------------------------------------------
    PaperClaim("fig6-arm-85", "IV-A", "CTE-Arm 85 % of peak at 192 nodes",
               "fig6_linpack"),
    PaperClaim("fig6-mn4-63", "IV-A", "MareNostrum 4 63 % of peak at 192",
               "fig6_linpack"),
    PaperClaim("fig6-fugaku", "IV-A", "3 % above Fugaku's Top500 82 %", "fig6_linpack"),
    # --- Section IV-B / Fig. 7 -----------------------------------------------
    PaperClaim("fig7-291", "IV-B", "HPCG 2.91 % of peak at one node", "fig7_hpcg"),
    PaperClaim("fig7-296", "IV-B", "HPCG 2.96 % of peak at 192 nodes", "fig7_hpcg"),
    PaperClaim("fig7-fugaku", "IV-B", "slightly below Fugaku's 3.62 %", "fig7_hpcg"),
    # --- Section V-A / Figs. 8-10 ---------------------------------------------
    PaperClaim("alya-compile", "V-A", "Fujitsu compiler hangs on Alya",
               "table3_app_builds"),
    PaperClaim("alya-12min", "V-A", "input requires at least 12 A64FX nodes",
               "fig8_alya"),
    PaperClaim("alya-34x", "V-A", "3.4x slower at 12-16 nodes", "fig8_alya"),
    PaperClaim("alya-44", "V-A", "44 A64FX nodes match 12 MN4 nodes", "fig8_alya"),
    PaperClaim("alya-assembly-496", "V-A", "Assembly 4.96x slower",
               "fig9_alya_assembly"),
    PaperClaim("alya-assembly-62", "V-A", "62 nodes to match (assembly)",
               "fig9_alya_assembly"),
    PaperClaim("alya-solver-179", "V-A", "Solver only 1.79x slower",
               "fig10_alya_solver"),
    PaperClaim("alya-solver-22", "V-A", "22 nodes to match (solver)",
               "fig10_alya_solver"),
    PaperClaim("alya-hbm", "V-A/VI", "HBM compensates memory-bound phases",
               "fig10_alya_solver"),
    # --- Section V-B / Fig. 11 -------------------------------------------------
    PaperClaim("nemo-8min", "V-B", "needs at least 8 CTE-Arm nodes", "fig11_nemo"),
    PaperClaim("nemo-17x", "V-B", "MN4 between 1.70x and 1.79x faster", "fig11_nemo"),
    PaperClaim("nemo-flatten", "V-B", "scalability flattens around 128 nodes",
               "fig11_nemo"),
    # --- Section V-C / Figs. 12-13 ---------------------------------------------
    PaperClaim("gromacs-348", "V-C", "3.48x slower with 6 cores", "fig12_gromacs_node"),
    PaperClaim("gromacs-310", "V-C", "3.10x slower with a full node",
               "fig12_gromacs_node"),
    PaperClaim("gromacs-16rank", "V-C", "16-rank run anomalously slow",
               "fig13_gromacs_multi"),
    PaperClaim("gromacs-144", "V-C", "1.5x slower at 144 nodes", "fig13_gromacs_multi"),
    # --- Section V-D / Figs. 14-15 ----------------------------------------------
    PaperClaim("openifs-372", "V-D", "3.72x slower with 8 ranks", "fig14_openifs_node"),
    PaperClaim("openifs-328", "V-D", "3.28x slower with a full node",
               "fig14_openifs_node"),
    PaperClaim("openifs-32min", "V-D", "multi-node input needs >= 32 nodes",
               "fig15_openifs_multi"),
    PaperClaim("openifs-355", "V-D", "3.55x at 32 nodes", "fig15_openifs_multi"),
    PaperClaim("openifs-256", "V-D", "2.56x at 128 nodes", "fig15_openifs_multi"),
    # --- Section V-E / Fig. 16 -----------------------------------------------
    PaperClaim("wrf-216", "V-E", "2.16x slower at one node", "fig16_wrf"),
    PaperClaim("wrf-223", "V-E", "2.23x slower at 64 nodes", "fig16_wrf"),
    PaperClaim("wrf-io", "V-E", "little difference with IO on/off", "fig16_wrf"),
    PaperClaim("wrf-consistent", "V-E", "MN4 consistently outperforms", "fig16_wrf"),
    # --- Section VI / Table IV -----------------------------------------------
    PaperClaim("t4-linpack", "VI", "LINPACK speedup 1.25-1.40", "table4_speedups"),
    PaperClaim("t4-hpcg", "VI", "HPCG speedup 2.50-3.24", "table4_speedups"),
    PaperClaim("t4-np", "VI", "NP entries from 32 GB node memory", "table4_speedups"),
    PaperClaim("vi-vectorize", "VI",
               "compilers must vectorize more aggressively for SVE",
               "ext_vectorization"),
    PaperClaim("vi-scalar", "VI", "weak out-of-order scalar core", "ext_scalar_ooo"),
]


@dataclass(frozen=True)
class ClaimCoverage:
    claim: PaperClaim
    experiment_exists: bool
    tagged: int  # expectations of the experiment carrying the claim id
    holds: bool  # every tagged expectation holds

    @property
    def covered(self) -> bool:
        return self.experiment_exists and self.tagged > 0 and self.holds


def verify_coverage(*, cache: dict | None = None) -> list[ClaimCoverage]:
    """Run every referenced experiment once; a claim is covered when at
    least one expectation of its experiment carries its id and every
    expectation carrying it holds."""
    results = cache if cache is not None else {}
    out = []
    for claim in CLAIMS:
        exists = claim.experiment in REGISTRY
        tagged: list = []
        if exists:
            if claim.experiment not in results:
                results[claim.experiment] = run_experiment(claim.experiment)
            tagged = [e for e in results[claim.experiment].expectations
                      if e.claim == claim.claim_id]
        out.append(ClaimCoverage(claim, exists, len(tagged),
                                 all(e.holds for e in tagged)))
    return out
