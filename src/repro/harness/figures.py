"""The paper's tables and figures as registered experiments.

Every experiment returns the same rows/series the paper reports plus a
paper-vs-measured expectation list.  Expectation tolerances are generous by
design (the substrate is a model, not the authors' machines): what must
hold is *shape* — who wins, by roughly what factor, where crossovers fall.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.speedup import table4, table4_matrix
from repro.apps import AlyaModel, GromacsModel, NemoModel, OpenIFSModel, WRFModel
from repro.bench.fpu_ukernel import fig1_data
from repro.bench.hpcg import fig7_data
from repro.bench.linpack import fig6_data
from repro.bench.osu import (
    diagonal_banding_score,
    fig4_data,
    fig5_data,
    find_weak_links,
)
from repro.bench.stream_bench import (
    best_point,
    fig2_data,
    fig3_data,
)
from repro.harness.experiment import Expectation, ExperimentResult, Figure, register
from repro.machine.presets import cte_arm, marenostrum4, table1
from repro.network.faults import WEAK_NODE_INDEX
from repro.toolchain.flags import table2, table3
from repro.util.errors import OutOfMemoryError
from repro.util.stats import is_bimodal
from repro.util.tables import Table
from repro.util.units import KIB, MIB


def _close(measured: float, paper: float, tol: float = 0.25) -> bool:
    """Within a relative tolerance (default 25 %)."""
    return abs(measured - paper) <= tol * abs(paper)


def _exp(metric: str, paper_val: float, measured_val: float, *, tol: float = 0.25,
         fmt: str = "{:.2f}", note: str = "", claim: str = "") -> Expectation:
    return Expectation(
        metric=metric,
        paper=fmt.format(paper_val),
        measured=fmt.format(measured_val),
        holds=_close(measured_val, paper_val, tol),
        note=note,
        claim=claim,
    )


# ---------------------------------------------------------------------------
# Tables I-III
# ---------------------------------------------------------------------------


@register("table1_hardware")
def exp_table1() -> ExperimentResult:
    arm, mn4 = cte_arm(), marenostrum4()
    t = table1()
    exps = [
        _exp("A64FX DP peak/core [GF]", 70.40, arm.node.core_model.peak_flops() / 1e9,
             tol=0.001, claim="t1-peak-core-arm"),
        _exp("Skylake DP peak/core [GF]", 67.20, mn4.node.core_model.peak_flops() / 1e9,
             tol=0.001, claim="t1-peak-core-mn4"),
        _exp("A64FX node peak [GF]", 3379.20, arm.node.peak_flops / 1e9, tol=0.001),
        _exp("MN4 node peak [GF]", 3225.60, mn4.node.peak_flops / 1e9, tol=0.001),
        _exp("A64FX mem BW [GB/s]", 1024, arm.node.peak_memory_bandwidth / 1e9,
             tol=0.001, fmt="{:.0f}", claim="t1-membw"),
        _exp("MN4 mem BW [GB/s]", 256, mn4.node.peak_memory_bandwidth / 1e9,
             tol=0.001, fmt="{:.0f}", claim="t1-membw"),
    ]
    return ExperimentResult("table1_hardware", "Hardware configuration (Table I)",
                            table=t, expectations=exps)


@register("table2_stream_builds")
def exp_table2() -> ExperimentResult:
    t = table2()
    flags = t.column("Compiler Flags")
    exps = [
        Expectation("CTE-Arm builds use SVE + zfill + soft prefetch flags",
                    "-KSVE -Kzfill=100", "present",
                    holds=all("-KSVE" in f for f in flags[:2])),
        Expectation("MN4 builds use -O3 -xHost", "-O3 -xHost", "present",
                    holds=all("-xHost" in f for f in flags[2:])),
    ]
    return ExperimentResult("table2_stream_builds",
                            "STREAM build configurations (Table II)",
                            table=t, expectations=exps)


@register("table3_app_builds")
def exp_table3() -> ExperimentResult:
    t = table3()
    compilers = t.column("Compiler")
    exps = [
        Expectation(
            "every CTE-Arm application falls back to GNU",
            "GNU for all five apps", "GNU for all five apps",
            holds=all(
                c.startswith("GNU") for c, cl in zip(compilers, t.column("Cluster"))
                if cl == "cte-arm"
            ),
            claim="alya-compile",
        ),
    ]
    # The deployment story: which compilers were tried and how they failed.
    arm = cte_arm()
    lines = []
    for app in (AlyaModel(), NemoModel(), GromacsModel(), OpenIFSModel(), WRFModel()):
        for compiler, outcome in app.build_log(arm):
            lines.append(f"  {app.name:8s} {compiler:18s} -> {outcome}")
    return ExperimentResult(
        "table3_app_builds", "Application build configurations (Table III)",
        table=t, expectations=exps,
        notes="Deployment log on CTE-Arm:\n" + "\n".join(lines),
    )


# ---------------------------------------------------------------------------
# Fig. 1 — FPU µKernel
# ---------------------------------------------------------------------------


@register("fig1_fpu")
def exp_fig1() -> ExperimentResult:
    data = fig1_data()
    t = Table("Fig. 1 — FPU µKernel sustained performance (one core)",
              ["Cluster", "Mode", "Precision", "GFlop/s", "% of peak"])
    for r in data:
        t.add_row(r.cluster, r.mode.value, r.dtype.name.lower(),
                  r.sustained_flops / 1e9, f"{r.percent_of_peak:.0f}%")
    by = {(r.cluster, r.mode.value, r.dtype.name): r for r in data}
    clusters = ("CTE-Arm", "MareNostrum 4")
    figure = Figure(
        "bars", "Fig. 1 — FPU µKernel, one core", ylabel="GFlop/s",
        groups=[f"{r.mode.value}/{r.dtype.name.lower()}"
                for r in data if r.cluster == clusters[0]],
        series={c: [r.sustained_flops / 1e9 for r in data if r.cluster == c]
                for c in clusters},
        labels={c: [f"{r.percent_of_peak:.0f}%" for r in data if r.cluster == c]
                for c in clusters})
    exps = [
        _exp("A64FX vector double GF", 70.4 * 0.99,
             by[("CTE-Arm", "vector", "DOUBLE")].sustained_flops / 1e9, tol=0.02),
        _exp("A64FX vector half GF", 281.6 * 0.99,
             by[("CTE-Arm", "vector", "HALF")].sustained_flops / 1e9, tol=0.02),
        _exp("MN4 vector double GF", 67.2 * 0.99,
             by[("MareNostrum 4", "vector", "DOUBLE")].sustained_flops / 1e9,
             tol=0.02),
        Expectation("all variants near theoretical peak", ">= 95 %",
                    f"min {min(r.percent_of_peak for r in data):.0f} %",
                    holds=all(r.percent_of_peak >= 95.0 for r in data),
                    claim="fig1-match-theory"),
        Expectation("AVX-512 half promotes to single rate", "no FP16 on Skylake",
                    "half == single on MN4",
                    holds=by[("MareNostrum 4", "vector", "HALF")].sustained_flops
                    == by[("MareNostrum 4", "vector", "SINGLE")].sustained_flops),
    ]
    return ExperimentResult("fig1_fpu", "FPU µKernel (Fig. 1)", table=t,
                            figure=figure, expectations=exps)


# ---------------------------------------------------------------------------
# Figs. 2-3 — STREAM
# ---------------------------------------------------------------------------


@register("fig2_stream_openmp")
def exp_fig2() -> ExperimentResult:
    data = fig2_data()
    t = Table("Fig. 2 — STREAM Triad, OpenMP (spread binding)",
              ["Cluster", "Language", "Threads", "GB/s"])
    series = {}
    for p in data:
        t.add_row(p.cluster, p.language, p.threads, p.bandwidth / 1e9)
        series.setdefault(f"{p.cluster} ({p.language})", []).append(
            (p.threads, p.bandwidth / 1e9))
    arm_best = best_point([p for p in data if "Arm" in p.cluster and p.language == "c"])
    mn4_best = best_point([p for p in data if "Nostrum" in p.cluster])
    arm24 = {p.language: p.bandwidth for p in data
             if "Arm" in p.cluster and p.threads == 24}
    exps = [
        _exp("CTE-Arm best OpenMP GB/s", 292.0, arm_best.bandwidth / 1e9, tol=0.05,
             claim="fig2-arm-292"),
        Expectation("CTE-Arm best at 24 threads", "24", str(arm_best.threads),
                    holds=arm_best.threads == 24, claim="fig2-arm-292"),
        _exp("CTE-Arm OpenMP % of peak", 29.0,
             100 * arm_best.bandwidth / 1024e9, tol=0.1, fmt="{:.0f}",
             claim="fig2-arm-29pct"),
        _exp("CTE-Arm C/Fortran OpenMP GB/s @24 threads", 1.10,
             arm24["c"] / arm24["fortran"], tol=0.05,
             claim="fig2-c-faster"),
        _exp("MN4 best OpenMP GB/s", 201.2, mn4_best.bandwidth / 1e9, tol=0.05,
             claim="fig2-mn4-201"),
        _exp("MN4 % of peak", 66.0, 100 * mn4_best.bandwidth / 256e9, tol=0.25,
             fmt="{:.0f}",
             note="paper rounds differently; sustainable fraction calibrated"),
    ]
    figure = Figure("line", "Fig. 2 — STREAM Triad, OpenMP",
                    xlabel="OpenMP threads", ylabel="GB/s", series=series)
    return ExperimentResult("fig2_stream_openmp", "STREAM OpenMP sweep (Fig. 2)",
                            table=t, figure=figure, expectations=exps)


@register("fig3_stream_hybrid")
def exp_fig3() -> ExperimentResult:
    data = fig3_data()
    t = Table("Fig. 3 — STREAM Triad, MPI+OpenMP (1 rank per NUMA domain)",
              ["Cluster", "Language", "Ranks x Threads", "GB/s"])
    series = {}
    for p in data:
        t.add_row(p.cluster, p.language, p.label, p.bandwidth / 1e9)
        series.setdefault(f"{p.cluster} ({p.language})", []).append(
            (p.ranks, p.bandwidth / 1e9))
    arm_f = best_point([p for p in data if "Arm" in p.cluster and p.language == "fortran"])
    arm_c = best_point([p for p in data if "Arm" in p.cluster and p.language == "c"])
    exps = [
        _exp("CTE-Arm hybrid Fortran GB/s", 862.6, arm_f.bandwidth / 1e9, tol=0.02,
             claim="fig3-arm-862"),
        _exp("CTE-Arm hybrid % of peak", 84.0, 100 * arm_f.bandwidth / 1024e9,
             tol=0.03, fmt="{:.0f}", claim="fig3-arm-862"),
        _exp("CTE-Arm hybrid C GB/s", 421.1, arm_c.bandwidth / 1e9, tol=0.05,
             note="C/Fortran gap unexplained in the paper; reproduced as a "
                  "calibrated language factor", claim="fig3-arm-c-421"),
    ]
    figure = Figure("line", "Fig. 3 — STREAM Triad, MPI+OpenMP",
                    xlabel="MPI ranks (x full-domain threads)", ylabel="GB/s",
                    series=series)
    return ExperimentResult("fig3_stream_hybrid", "STREAM hybrid (Fig. 3)",
                            table=t, figure=figure, expectations=exps)


# ---------------------------------------------------------------------------
# Figs. 4-5 — network
# ---------------------------------------------------------------------------


@register("fig4_netmap")
def exp_fig4() -> ExperimentResult:
    m = fig4_data()
    report = find_weak_links(m)
    banding = diagonal_banding_score(m)
    healthy = fig4_data(healthy=True)
    exps = [
        Expectation("one weak receiver detected", "node arms0b1-11c",
                    f"node index {report.weak_receivers}",
                    holds=report.weak_receivers == [WEAK_NODE_INDEX],
                    claim="fig4-weak-node"),
        Expectation("same node is fine as sender", "no send anomaly",
                    f"weak senders: {report.weak_senders}",
                    holds=report.weak_senders == [], claim="fig4-weak-node"),
        Expectation("diagonal banding from torus hops", "visible bands",
                    f"banding score {banding:.2f}", holds=banding > 0.2,
                    claim="fig4-banding"),
        Expectation("banding disappears without faults?", "banding is topological",
                    f"healthy-map score {diagonal_banding_score(healthy):.2f}",
                    holds=diagonal_banding_score(healthy) > 0.2,
                    note="bands come from hops, not from the fault",
                    claim="fig4-banding"),
    ]
    t = Table("Fig. 4 summary", ["metric", "value"])
    t.add_row("nodes", m.shape[0])
    t.add_row("median bandwidth [MB/s]", float(np.nanmedian(m)) / 1e6)
    t.add_row("min bandwidth [MB/s]", float(np.nanmin(m)) / 1e6)
    t.add_row("banding score", banding)
    figure = Figure("heatmap", "Fig. 4 — pairwise bandwidth [MB/s], 256 B",
                    xlabel="receiver node", ylabel="sender node", matrix=m / 1e6)
    return ExperimentResult("fig4_netmap", "All-pairs bandwidth map (Fig. 4)",
                            table=t, figure=figure, expectations=exps)


@register("fig5_netdist")
def exp_fig5() -> ExperimentResult:
    dists = fig5_data(max_pairs=1500)
    t = Table("Fig. 5 — bandwidth distribution vs message size",
              ["size [B]", "median [MB/s]", "p5 [MB/s]", "p95 [MB/s]", "bimodal"])
    bimodal_sizes = []
    spreads = {}
    for size, samples in sorted(dists.items()):
        mb = samples / 1e6
        bim = is_bimodal(mb)
        if bim:
            bimodal_sizes.append(size)
        spreads[size] = float(np.percentile(mb, 95) - np.percentile(mb, 5)) / max(
            1e-9, float(np.median(mb))
        )
        t.add_row(size, float(np.median(mb)), float(np.percentile(mb, 5)),
                  float(np.percentile(mb, 95)), "yes" if bim else "no")
    mid = [s for s in bimodal_sizes if 1 * KIB <= s < 256 * KIB]
    large_spread = np.mean([v for s, v in spreads.items() if s >= 1 * MIB])
    small_spread = np.mean([v for s, v in spreads.items() if s < 1 * KIB])
    exps = [
        Expectation("bimodal distribution for 1 kB-256 kB", "bimodal",
                    f"bimodal at {len(mid)} sizes in window", holds=len(mid) >= 4,
                    claim="fig5-bimodal"),
        Expectation("high variability above 1 MB", "high spread",
                    f"rel spread {large_spread:.2f} vs {small_spread:.2f} small",
                    holds=large_spread > 2 * small_spread,
                    claim="fig5-large-var"),
    ]
    # one row per message size: sample counts in 48 shared log bandwidth bins
    sizes = sorted(dists)
    all_mb = np.concatenate([dists[s] for s in sizes]) / 1e6
    edges = np.logspace(np.log10(max(all_mb.min(), 1e-3)),
                        np.log10(all_mb.max()), 48 + 1)
    counts = np.array([np.histogram(dists[s] / 1e6, bins=edges)[0]
                       for s in sizes], dtype=float)
    figure = Figure("heatmap", "Fig. 5 — bandwidth distribution vs message size",
                    xlabel="bandwidth bin (log)",
                    ylabel="message size (2^0..2^24)", matrix=counts)
    return ExperimentResult("fig5_netdist",
                            "Bandwidth distributions (Fig. 5)", table=t,
                            figure=figure, expectations=exps)


# ---------------------------------------------------------------------------
# Figs. 6-7 — LINPACK and HPCG
# ---------------------------------------------------------------------------


@register("fig6_linpack")
def exp_fig6() -> ExperimentResult:
    pts = fig6_data()
    t = Table("Fig. 6 — LINPACK scalability",
              ["Cluster", "Nodes", "N", "P x Q", "GFlop/s", "% of peak"])
    series = {}
    for p in pts:
        t.add_row(p.cluster, p.n_nodes, p.n, f"{p.p}x{p.q}", p.gflops,
                  f"{p.percent_of_peak:.1f}")
        series.setdefault(p.cluster, []).append((p.n_nodes, p.gflops))
    arm = {p.n_nodes: p for p in pts if p.cluster == "CTE-Arm"}
    mn4 = {p.n_nodes: p for p in pts if p.cluster != "CTE-Arm"}
    exps = [
        _exp("CTE-Arm % of peak @192", 85.0, arm[192].percent_of_peak, tol=0.03,
             fmt="{:.1f}", claim="fig6-arm-85"),
        _exp("MN4 % of peak @192", 63.0, mn4[192].percent_of_peak, tol=0.03,
             fmt="{:.1f}", claim="fig6-mn4-63"),
        _exp("speedup @1 node", 1.25, arm[1].gflops / mn4[1].gflops, tol=0.05),
        _exp("speedup @192 nodes", 1.40, arm[192].gflops / mn4[192].gflops,
             tol=0.05),
        Expectation("CTE-Arm @192 ~3% above Fugaku's 82%", "85 vs 82 %",
                    f"{arm[192].percent_of_peak:.1f} %",
                    holds=83.0 <= arm[192].percent_of_peak <= 87.0,
                    claim="fig6-fugaku"),
    ]
    figure = Figure("line", "Fig. 6 — LINPACK scalability", xlabel="nodes",
                    ylabel="GFlop/s", logx=True, logy=True, series=series)
    return ExperimentResult("fig6_linpack", "LINPACK scalability (Fig. 6)",
                            table=t, figure=figure, expectations=exps)


@register("fig7_hpcg")
def exp_fig7() -> ExperimentResult:
    pts = fig7_data()
    t = Table("Fig. 7 — HPCG performance",
              ["Cluster", "Version", "Nodes", "GFlop/s", "% of peak"])
    for p in pts:
        t.add_row(p.cluster, p.version, p.n_nodes, p.gflops,
                  f"{p.percent_of_peak:.2f}")
    def get(cluster, version, nodes):
        return next(p for p in pts if p.cluster == cluster
                    and p.version == version and p.n_nodes == nodes)
    a1 = get("CTE-Arm", "optimized", 1)
    a192 = get("CTE-Arm", "optimized", 192)
    m1 = get("MareNostrum 4", "optimized", 1)
    m192 = get("MareNostrum 4", "optimized", 192)
    clusters = ("CTE-Arm", "MareNostrum 4")
    figure = Figure(
        "bars", "Fig. 7 — HPCG (log-scale values differ 200x across groups)",
        ylabel="GFlop/s",
        groups=[f"{p.version}@{p.n_nodes}" for p in pts if p.cluster == clusters[0]],
        series={c: [p.gflops for p in pts if p.cluster == c] for c in clusters},
        labels={c: [f"{p.percent_of_peak:.2f}%" for p in pts if p.cluster == c]
                for c in clusters})
    exps = [
        _exp("CTE-Arm % of peak @1", 2.91, a1.percent_of_peak, tol=0.03,
             claim="fig7-291"),
        _exp("CTE-Arm % of peak @192", 2.96, a192.percent_of_peak, tol=0.03,
             claim="fig7-296"),
        _exp("speedup @1", 2.50, a1.gflops / m1.gflops, tol=0.08),
        _exp("speedup @192", 3.24, a192.gflops / m192.gflops, tol=0.08),
        Expectation("optimized beats vanilla on both machines", "yes", "yes",
                    holds=all(
                        get(c, "optimized", n).gflops > get(c, "vanilla", n).gflops
                        for c in ("CTE-Arm", "MareNostrum 4") for n in (1, 192))),
        Expectation("slightly below Fugaku's 3.62 % of peak", "2.91 < 3.62",
                    f"{a1.percent_of_peak:.2f} < 3.62",
                    holds=a1.percent_of_peak < 3.62, claim="fig7-fugaku"),
    ]
    return ExperimentResult("fig7_hpcg", "HPCG (Fig. 7)", table=t,
                            figure=figure, expectations=exps)


# ---------------------------------------------------------------------------
# Figs. 8-16 — applications
# ---------------------------------------------------------------------------


def _scaling_table(title, ylabel, app, arm_nodes, mn4_nodes, metric):
    """Table and log-log figure of ``metric(cluster, nodes)`` over node
    counts on both clusters, leaving out the points that do not fit in
    memory; ``vals[cluster][nodes]`` holds the same numbers."""
    arm, mn4 = cte_arm(), marenostrum4(192)
    # one vectorized pass per cluster primes the batched-analytic result
    # memo; the per-point metric calls below then hit it instead of
    # re-walking the IR per node count (bit-identical either way).
    app.sweep_timings(arm, list(arm_nodes))
    app.sweep_timings(mn4, list(mn4_nodes))
    t = Table(title, ["Cluster", "Nodes", "metric"])
    vals = {"CTE-Arm": {}, "MareNostrum 4": {}}
    for cluster, label, nodes in ((arm, "CTE-Arm", arm_nodes),
                                  (mn4, "MareNostrum 4", mn4_nodes)):
        for n in nodes:
            try:
                v = metric(cluster, n)
            except OutOfMemoryError:
                continue
            t.add_row(label, n, v)
            vals[label][n] = v
    figure = Figure("line", title, xlabel="nodes", ylabel=ylabel, logx=True,
                    logy=True, series={label: list(pts.items())
                                       for label, pts in vals.items() if pts})
    return t, figure, vals


@register("fig8_alya")
def exp_fig8() -> ExperimentResult:
    app = AlyaModel()
    t, figure, vals = _scaling_table(
        "Fig. 8 — Alya average time step [s]", "s/step", app,
        [12, 14, 16, 24, 32, 44, 64, 78], [4, 8, 12, 16],
        lambda c, n: app.time_step(c, n).total)
    arm, mn4 = cte_arm(), marenostrum4(192)
    ratios = [vals["CTE-Arm"][n] / vals["MareNostrum 4"][n] for n in (12, 16)]
    match = app.nodes_to_match(arm, mn4, 12, max_nodes=78)
    exps = [
        _exp("slowdown @12-16 nodes", 3.4, float(np.mean(ratios)), tol=0.1,
             claim="alya-34x"),
        Expectation("needs >= 12 CTE-Arm nodes (memory)", "12",
                    str(app.min_nodes(arm)), holds=app.min_nodes(arm) == 12,
                    claim="alya-12min"),
        _exp("CTE-Arm nodes matching 12 MN4 nodes", 44, match, tol=0.15,
             fmt="{:.0f}", claim="alya-44"),
    ]
    return ExperimentResult("fig8_alya", "Alya scalability (Fig. 8)", table=t,
                            figure=figure, expectations=exps)


@register("fig9_alya_assembly")
def exp_fig9() -> ExperimentResult:
    app = AlyaModel()
    arm = cte_arm()

    def metric(c, n):
        return app.time_step(c, n).phase_seconds["assembly"]

    t, figure, vals = _scaling_table("Fig. 9 — Alya Assembly phase [s]", "s", app,
                                     [12, 16, 24, 32, 48, 62, 78], [12, 16],
                                     metric)
    ratio = vals["CTE-Arm"][12] / vals["MareNostrum 4"][12]
    # nodes where Arm assembly matches MN4@12 (batched candidate sweep)
    target = vals["MareNostrum 4"][12]
    app.sweep_timings(arm, list(range(12, 79)))
    match = next((n for n in range(12, 79) if metric(arm, n) <= target), None)
    exps = [
        _exp("Assembly slowdown @12 nodes", 4.96, ratio, tol=0.08,
             claim="alya-assembly-496"),
        _exp("CTE-Arm nodes to match 12 MN4 nodes (assembly)", 62,
             match if match else -1, tol=0.1, fmt="{:.0f}",
             claim="alya-assembly-62"),
    ]
    return ExperimentResult("fig9_alya_assembly", "Alya Assembly (Fig. 9)",
                            table=t, figure=figure, expectations=exps)


@register("fig10_alya_solver")
def exp_fig10() -> ExperimentResult:
    app = AlyaModel()
    arm = cte_arm()

    def metric(c, n):
        return app.time_step(c, n).phase_seconds["solver"]

    t, figure, vals = _scaling_table("Fig. 10 — Alya Solver phase [s]", "s", app,
                                     [12, 16, 22, 32, 48, 64], [12, 16], metric)
    ratio = vals["CTE-Arm"][12] / vals["MareNostrum 4"][12]
    target = vals["MareNostrum 4"][12]
    app.sweep_timings(arm, list(range(12, 65)))
    match = next((n for n in range(12, 65) if metric(arm, n) <= target), None)
    exps = [
        _exp("Solver slowdown @12 nodes", 1.79, ratio, tol=0.08,
             claim="alya-solver-179"),
        _exp("CTE-Arm nodes to match 12 MN4 nodes (solver)", 22,
             match if match else -1, tol=0.15, fmt="{:.0f}",
             claim="alya-solver-22"),
        Expectation("Solver gap << Assembly gap (HBM compensates)",
                    "1.79 << 4.96", f"{ratio:.2f} << assembly",
                    holds=ratio < 2.5, claim="alya-hbm"),
    ]
    return ExperimentResult("fig10_alya_solver", "Alya Solver (Fig. 10)",
                            table=t, figure=figure, expectations=exps)


@register("fig11_nemo")
def exp_fig11() -> ExperimentResult:
    app = NemoModel()
    arm = cte_arm()
    t, figure, vals = _scaling_table(
        "Fig. 11 — NEMO execution time [s]", "execution time [s]", app,
        [8, 16, 32, 48, 64, 96, 128, 192], [1, 2, 4, 8, 16, 24],
        lambda c, n: app.time_step(c, n).total * app.steps_per_run)
    ratios = [vals["CTE-Arm"][n] / vals["MareNostrum 4"][n] for n in (8, 16, 24)
              if n in vals["CTE-Arm"] and n in vals["MareNostrum 4"]]
    from repro.analysis.scaling import flattening_point
    ns = sorted(vals["CTE-Arm"])
    flat = flattening_point(ns, [vals["CTE-Arm"][n] for n in ns], threshold=0.5)
    exps = [
        Expectation("MN4 1.70-1.79x faster", "1.70-1.79",
                    f"{min(ratios):.2f}-{max(ratios):.2f}",
                    holds=1.5 <= min(ratios) and max(ratios) <= 2.0,
                    claim="nemo-17x"),
        Expectation("needs >= 8 CTE-Arm nodes (memory)", "8",
                    str(app.min_nodes(arm)), holds=app.min_nodes(arm) == 8,
                    claim="nemo-8min"),
        Expectation("CTE-Arm flattens at high node counts", "~128 nodes",
                    f"local slope > -0.5 from {flat} nodes",
                    holds=flat is not None and flat >= 96,
                    claim="nemo-flatten"),
    ]
    return ExperimentResult("fig11_nemo", "NEMO scalability (Fig. 11)",
                            table=t, figure=figure, expectations=exps)


@register("fig12_gromacs_node")
def exp_fig12() -> ExperimentResult:
    app = GromacsModel()
    arm, mn4 = cte_arm(), marenostrum4(192)
    sweep_arm = app.single_node_sweep(arm)
    sweep_mn4 = app.single_node_sweep(mn4)
    t = Table("Fig. 12 — Gromacs single node [days/ns]",
              ["Cluster", "Cores", "days/ns"])
    for cores, d in sweep_arm:
        t.add_row("CTE-Arm", cores, d)
    for cores, d in sweep_mn4:
        t.add_row("MareNostrum 4", cores, d)
    r6 = sweep_arm[0][1] / sweep_mn4[0][1]
    r48 = sweep_arm[-1][1] / sweep_mn4[-1][1]
    exps = [
        _exp("slowdown @6 cores", 3.48, r6, tol=0.15, claim="gromacs-348"),
        _exp("slowdown @48 cores (full node)", 3.10, r48, tol=0.15,
             claim="gromacs-310"),
    ]
    figure = Figure("line", "Fig. 12 — Gromacs, one node", xlabel="cores",
                    ylabel="days/ns", logx=True, logy=True,
                    series={"CTE-Arm": sweep_arm, "MareNostrum 4": sweep_mn4})
    return ExperimentResult("fig12_gromacs_node",
                            "Gromacs single-node (Fig. 12)", table=t,
                            figure=figure, expectations=exps)


@register("fig13_gromacs_multi")
def exp_fig13() -> ExperimentResult:
    app = GromacsModel()
    alt = GromacsModel(anomaly=False)
    arm, mn4 = cte_arm(), marenostrum4(192)
    nodes = [1, 2, 4, 8, 16, 32, 64, 96, 144]
    t = Table("Fig. 13 — Gromacs multi-node [days/ns]",
              ["Cluster", "Nodes", "Ranks", "days/ns", "config"])
    vals = {}
    for cluster, label in ((arm, "CTE-Arm"), (mn4, "MareNostrum 4")):
        for n in nodes:
            d = app.days_per_ns(cluster, n)
            t.add_row(label, n, n * app.ranks_per_node, d, "8x6")
            vals[(label, n)] = d
        d_alt = alt.days_per_ns(cluster, 2)
        t.add_row(label, 2, 12, d_alt, "12x8 (alt)")
        vals[(label, 2, "alt")] = d_alt
    r144 = vals[("CTE-Arm", 144)] / vals[("MareNostrum 4", 144)]
    # the 16-rank anomaly: 2 nodes x 8 ranks = 16 ranks
    anomaly_arm = vals[("CTE-Arm", 2)] / vals[("CTE-Arm", 2, "alt")]
    exps = [
        _exp("slowdown @144 nodes", 1.5, r144, tol=0.15, claim="gromacs-144"),
        Expectation("16-rank configuration anomalously slow (both machines)",
                    "visible spike", f"8x6 is {anomaly_arm:.2f}x the 12x8 alt",
                    holds=anomaly_arm > 1.2,
                    note="unexplained in the paper; reproduced as a DD "
                         "imbalance factor at exactly 16 ranks",
                    claim="gromacs-16rank"),
        Expectation("alternative 12x8 follows the trend", "on trend",
                    "12x8 within 25 % of half the 1-node time",
                    holds=abs(vals[("CTE-Arm", 2, "alt")]
                              / (vals[("CTE-Arm", 1)] / 2) - 1) < 0.4),
    ]
    labels = ("CTE-Arm", "MareNostrum 4")
    series = {label: [(n, vals[(label, n)]) for n in nodes] for label in labels}
    series.update({f"{label} 12x8 (alt)": [(2, vals[(label, 2, "alt")])]
                   for label in labels})
    figure = Figure(
        "line", "Fig. 13 — Gromacs, multi-node (2 nodes = the 16-rank anomaly)",
        xlabel="nodes", ylabel="days/ns", logx=True, logy=True, series=series)
    return ExperimentResult("fig13_gromacs_multi",
                            "Gromacs multi-node (Fig. 13)", table=t,
                            figure=figure, expectations=exps)


@register("fig14_openifs_node")
def exp_fig14() -> ExperimentResult:
    app = OpenIFSModel("TL255L91")
    arm, mn4 = cte_arm(), marenostrum4(192)
    sweep_arm = dict(app.single_node_sweep(arm))
    sweep_mn4 = dict(app.single_node_sweep(mn4))
    t = Table("Fig. 14 — OpenIFS TL255L91, one node [s per simulated day]",
              ["Cluster", "Ranks", "s/day"])
    for r, v in sweep_arm.items():
        t.add_row("CTE-Arm", r, v)
    for r, v in sweep_mn4.items():
        t.add_row("MareNostrum 4", r, v)
    exps = [
        _exp("slowdown @8 ranks", 3.72, sweep_arm[8] / sweep_mn4[8], tol=0.15,
             claim="openifs-372"),
        _exp("slowdown @48 ranks (full node)", 3.28,
             sweep_arm[48] / sweep_mn4[48], tol=0.15, claim="openifs-328"),
    ]
    figure = Figure("line", "Fig. 14 — OpenIFS TL255L91, one node",
                    xlabel="MPI ranks", ylabel="s per sim. day", logx=True,
                    logy=True, series={"CTE-Arm": list(sweep_arm.items()),
                                       "MareNostrum 4": list(sweep_mn4.items())})
    return ExperimentResult("fig14_openifs_node",
                            "OpenIFS single-node (Fig. 14)", table=t,
                            figure=figure, expectations=exps)


@register("fig15_openifs_multi")
def exp_fig15() -> ExperimentResult:
    app = OpenIFSModel("TC0511L91")
    arm = cte_arm()
    t, figure, vals = _scaling_table(
        "Fig. 15 — OpenIFS TC0511L91 [s per simulated day]", "s per sim. day",
        app, [32, 48, 64, 96, 128], [8, 16, 32, 64, 128],
        app.seconds_per_simulated_day)
    exps = [
        Expectation("needs >= 32 CTE-Arm nodes (memory)", "32",
                    str(app.min_nodes(arm)), holds=app.min_nodes(arm) == 32,
                    claim="openifs-32min"),
        _exp("slowdown @32 nodes", 3.55,
             vals["CTE-Arm"][32] / vals["MareNostrum 4"][32], tol=0.15,
             claim="openifs-355"),
        _exp("slowdown @128 nodes", 2.56,
             vals["CTE-Arm"][128] / vals["MareNostrum 4"][128], tol=0.15,
             claim="openifs-256"),
    ]
    return ExperimentResult("fig15_openifs_multi",
                            "OpenIFS multi-node (Fig. 15)", table=t,
                            figure=figure, expectations=exps)


@register("fig16_wrf")
def exp_fig16() -> ExperimentResult:
    arm, mn4 = cte_arm(), marenostrum4(192)
    io_on = WRFModel(io_enabled=True)
    io_off = WRFModel(io_enabled=False)
    nodes = [1, 2, 4, 8, 16, 32, 64]
    t = Table("Fig. 16 — WRF elapsed time [s] (Iberia 4 km, 56 h)",
              ["Cluster", "Nodes", "IO", "elapsed [s]"])
    vals = {}
    for cluster, label in ((arm, "CTE-Arm"), (mn4, "MareNostrum 4")):
        for n in nodes:
            for app, io in ((io_on, "on"), (io_off, "off")):
                v = app.elapsed_seconds(cluster, n)
                t.add_row(label, n, io, v)
                vals[(label, n, io)] = v
    r1 = vals[("CTE-Arm", 1, "on")] / vals[("MareNostrum 4", 1, "on")]
    r64 = vals[("CTE-Arm", 64, "on")] / vals[("MareNostrum 4", 64, "on")]
    io_gap = max(
        vals[(c, n, "on")] / vals[(c, n, "off")] - 1.0
        for c in ("CTE-Arm", "MareNostrum 4") for n in nodes
    )
    exps = [
        _exp("slowdown @1 node", 2.16, r1, tol=0.10, claim="wrf-216"),
        _exp("slowdown @64 nodes", 2.23, r64, tol=0.12, claim="wrf-223"),
        Expectation("little difference between IO on/off", "slight advantage off",
                    f"max IO overhead {100 * io_gap:.1f} %", holds=io_gap < 0.10,
                    claim="wrf-io"),
        Expectation("MN4 consistently outperforms CTE-Arm", "always",
                    "all node counts",
                    holds=all(vals[("CTE-Arm", n, "on")]
                              > vals[("MareNostrum 4", n, "on")] for n in nodes),
                    claim="wrf-consistent"),
    ]
    series = {f"{label} IO {io}": [(n, vals[(label, n, io)]) for n in nodes]
              for io in ("on", "off") for label in ("CTE-Arm", "MareNostrum 4")}
    figure = Figure("line", "Fig. 16 — WRF, Iberia 4 km", xlabel="nodes",
                    ylabel="elapsed [s]", logx=True, logy=True, series=series)
    return ExperimentResult("fig16_wrf", "WRF scalability (Fig. 16)", table=t,
                            figure=figure, expectations=exps)


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------

#: the paper's Table IV cells (None == N/A, "NP" == not possible).
PAPER_TABLE4 = {
    "LINPACK": {1: 1.25, 16: 1.28, 32: 1.38, 64: 1.35, 128: 1.70, 192: 1.40},
    "HPCG": {1: 2.50, 192: 3.24},
    "Alya": {1: "NP", 16: 0.30, 32: 0.31, 64: 0.37},
    "OpenIFS": {1: 0.31, 16: "NP", 32: 0.28, 64: 0.31, 128: 0.39},
    "Gromacs": {1: 0.32, 16: 0.36, 32: 0.38, 64: 0.43, 128: 0.54, 192: 0.33},
    "WRF": {1: 0.49, 16: 0.46, 32: 0.60, 64: 0.64},
    "NEMO": {1: "NP", 16: 0.56},
}

#: cells the paper itself flags or that are single-run outliers; compared
#: with a loose tolerance and annotated in EXPERIMENTS.md.
TABLE4_OUTLIERS = {("LINPACK", 128), ("Gromacs", 192), ("WRF", 32), ("WRF", 64)}

#: the paper claim each Table IV row's speedup cells check.
TABLE4_CLAIMS = {"LINPACK": "t4-linpack", "HPCG": "t4-hpcg"}


@register("table4_speedups")
def exp_table4() -> ExperimentResult:
    t = table4()
    matrix = table4_matrix()
    exps = []
    for app, paper_cells in PAPER_TABLE4.items():
        ours = {c.n_nodes: c for c in matrix[app]}
        for n, paper_val in paper_cells.items():
            cell = ours[n]
            if paper_val == "NP":
                exps.append(Expectation(f"{app} @{n} infeasible", "NP",
                                        cell.display,
                                        holds=cell.speedup is None,
                                        claim="t4-np"))
                continue
            outlier = (app, n) in TABLE4_OUTLIERS
            tol = 1.0 if outlier else 0.30
            exps.append(_exp(
                f"{app} speedup @{n}", paper_val,
                cell.speedup if cell.speedup is not None else -1.0,
                tol=tol,
                note="paper outlier; loose tolerance" if outlier else "",
                claim=TABLE4_CLAIMS.get(app, ""),
            ))
    sk = [e for e in exps if not e.holds]
    series = {app: [(c.n_nodes, c.speedup) for c in cells if c.speedup is not None]
              for app, cells in matrix.items()}
    figure = Figure("line", "Table IV — speedups (>1: CTE-Arm wins)",
                    xlabel="nodes", ylabel="speedup CTE-Arm vs MN4", logx=True,
                    series={app: pts for app, pts in series.items() if pts})
    return ExperimentResult(
        "table4_speedups", "Speedup matrix (Table IV)", table=t,
        figure=figure, expectations=exps,
        notes=f"{len(exps) - len(sk)}/{len(exps)} paper cells within tolerance",
    )
