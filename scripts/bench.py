#!/usr/bin/env python
"""Measure the simulation substrate and write ``BENCH_substrate.json``.

Covers the layers the perf work targets:

* DES engine event throughput (events/second);
* a 64-rank allreduce campaign, simulated vs analytic fast collectives;
* the IR optimizer passes (op-count shrink and wall cost);
* the full figure/table experiment suite — serial, with ``--jobs N``
  worker processes, and a cached re-run through the on-disk result cache;
* the auto-tuner over the million-point NEMO knob space vs a naive
  chunk-serial ``run_batch`` loop (points/second each, >=10x asserted
  in full mode);
* the capacity-planning service under seeded open-loop traffic — latency
  percentiles, throughput, the saturation sweep, and the bit-exactness
  audit (also written standalone as ``BENCH_service.json``).

Numbers are wall-clock on the current host; the parallel speedup scales
with available cores (a single-core container shows the fan-out overhead,
not a speedup — the cache row is the repeat-run win there).

Usage::

    PYTHONPATH=src python scripts/bench.py [--quick] [--jobs N] [--out F]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(1, str(_ROOT))  # tests.oracles: the scalar analytic oracle


def best_of(fn, reps: int) -> float:
    """Minimum wall time of ``reps`` calls (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_des_engine(reps: int, n_events: int) -> dict:
    from repro.des import Engine

    def run() -> None:
        eng = Engine()

        def ticker():
            for _ in range(n_events):
                yield eng.timeout(1e-6)

        eng.process(ticker())
        eng.run()

    seconds = best_of(run, reps)
    return {
        "events": n_events,
        "best_seconds": seconds,
        "events_per_second": n_events / seconds,
    }


def bench_allreduce(reps: int, iterations: int) -> dict:
    from repro.machine import cte_arm
    from repro.simmpi import RankMapping, ReduceOp, World

    cluster = cte_arm(16)

    def program(comm):
        total = 0.0
        for _ in range(iterations):
            total = yield from comm.allreduce(
                total + comm.rank, op=ReduceOp.SUM, size=8
            )
        return total

    def run(fast: bool) -> tuple[float, float]:
        mapping = RankMapping(cluster, n_nodes=16, ranks_per_node=4)
        world = World(mapping, fast_collectives=fast, trace="off")
        t0 = time.perf_counter()
        result = world.run(program)
        return time.perf_counter() - t0, result.elapsed

    sim_wall = min(run(False)[0] for _ in range(reps))
    fast_wall = min(run(True)[0] for _ in range(reps))
    sim_elapsed = run(False)[1]
    fast_elapsed = run(True)[1]
    return {
        "ranks": 64,
        "iterations": iterations,
        "simulated_wall_seconds": sim_wall,
        "fast_wall_seconds": fast_wall,
        "speedup": sim_wall / fast_wall,
        "virtual_elapsed_simulated": sim_elapsed,
        "virtual_elapsed_fast": fast_elapsed,
        "virtual_elapsed_relative_error": abs(fast_elapsed - sim_elapsed)
        / sim_elapsed,
    }


def bench_ir_lowering(reps: int) -> dict:
    """Cost of the IR path itself: compiling an application model to a
    Program, pricing it analytically, and lowering it to a DES rank
    program — the per-configuration overhead the unified IR added over
    calling the old hand-written paths directly."""
    from repro.apps import get_app
    from repro.ir import AnalyticBackend, lower
    from repro.machine import cte_arm

    cluster = cte_arm(16)
    app = get_app("nemo")
    mapping = app.mapping(cluster, 16)
    binary = app.build(cluster)
    backend = AnalyticBackend()

    compile_s = best_of(lambda: app.program(mapping), reps * 5)
    program = app.program(mapping)
    analytic_s = best_of(
        lambda: backend.run(program, cluster, 16, mapping=mapping,
                            binary=binary, check_memory=False),
        reps * 5,
    )
    lower_s = best_of(lambda: lower(program, mapping, binary), reps * 5)
    return {
        "program": program.name,
        "n_ranks": mapping.n_ranks,
        "compile_seconds": compile_s,
        "analytic_run_seconds": analytic_s,
        "lower_seconds": lower_s,
    }


def bench_ir_optimize(reps: int) -> dict:
    """Op-count reduction and wall cost of the IR optimizer passes, on
    the application programs plus a synthetic loop-heavy program."""
    from repro.apps import ALL_APPS, get_app
    from repro.ir import ComputeOp, Loop, MemOp, Phase, Program, SerialOp
    from repro.ir.optimize import op_count, optimize_program
    from repro.machine import cte_arm

    cluster = cte_arm(192)
    programs = []
    for name in sorted(ALL_APPS):
        app = get_app(name)
        programs.append(app.program(app.mapping(cluster, 16)))
    programs.append(Program(
        name="loopy",
        body=(Loop(1000, (Phase("step", (
            SerialOp(1e-6), SerialOp(2e-6),
            MemOp(4096), MemOp(4096),
            ComputeOp(seconds=1e-5),
        )),)),),
        steps=1000,
    ))

    per_program = []
    for program in programs:
        optimized = optimize_program(program)
        per_program.append({
            "program": program.name,
            "ops_before": op_count(program),
            "ops_after": op_count(optimized),
        })
    wall = best_of(
        lambda: [optimize_program(p) for p in programs], reps * 5
    )
    return {
        "programs": per_program,
        "optimize_all_seconds": wall,
    }


def bench_des_sharded(quick: bool) -> dict:
    """Sharded DES throughput on the fixed 768-rank NEMO program.

    Reports, per shard count: total wall, engine events/s, and the
    *critical-path* events/s — total events divided by the slowest
    shard's accumulated simulation time, i.e. the throughput an
    ideally parallel execution of the same windows would achieve.  On a
    single-core host total wall stays ~flat (the shards time-share one
    CPU and the windowing adds a few percent); the critical-path column
    is what scales with cores.  Full mode adds the max-feasible-rank
    smoke: 9216-rank NEMO under 8 shards, checked against the analytic
    backend.
    """
    from repro.apps import get_app
    from repro.des.shard import ShardedSpec, run_sharded
    from repro.ir import AnalyticBackend
    from repro.machine import cte_arm

    app = get_app("nemo")
    cluster = cte_arm(16)
    mapping = app.mapping(cluster, 16)
    program = app.program(mapping, steps=1)
    binary = app.build(cluster)

    def one(n_shards: int, workers: int) -> dict:
        spec = ShardedSpec(
            program=program, mapping=mapping, n_shards=n_shards,
            binary=binary, world_kwargs={"trace": "off"},
        )
        t0 = time.perf_counter()
        result, stats = run_sharded(spec, workers=workers)
        wall = time.perf_counter() - t0
        critical = max(stats.shard_wall_s.values())
        return {
            "n_shards": n_shards,
            "workers": workers,
            "wall_seconds": wall,
            "events": stats.events,
            "events_per_second": stats.events / wall,
            "critical_path_seconds": critical,
            "critical_path_events_per_second": stats.events / critical,
            "windows": stats.windows,
            "cross_messages": stats.cross_messages,
            "lookahead_seconds": stats.lookahead_s,
            "virtual_elapsed": result.elapsed,
        }

    shard_counts = (1, 2) if quick else (1, 2, 4, 8)
    rows = [one(n, 0) for n in shard_counts]
    baseline = rows[0]["virtual_elapsed"]
    assert all(
        abs(r["virtual_elapsed"] - baseline) <= 1e-9 * baseline
        for r in rows
    ), "sharded runs must agree on virtual time"
    report = {
        "program": "nemo",
        "n_ranks": mapping.n_ranks,
        "steps": 1,
        "rows": rows,
        "process_mode_4_shards": None if quick else one(4, 4),
        "smoke_9216_ranks": None,
    }
    if not quick:
        big_cluster = cte_arm(192)
        big_mapping = app.mapping(big_cluster, 192)
        big_program = app.program(big_mapping, steps=1)
        big_binary = app.build(big_cluster)
        analytic = AnalyticBackend().run(
            big_program, big_cluster, 192, mapping=big_mapping,
            binary=big_binary, check_memory=False,
        )
        spec = ShardedSpec(
            program=big_program, mapping=big_mapping, n_shards=8,
            binary=big_binary, world_kwargs={"trace": "off"},
        )
        t0 = time.perf_counter()
        result, stats = run_sharded(spec)
        wall = time.perf_counter() - t0
        report["smoke_9216_ranks"] = {
            "n_ranks": big_mapping.n_ranks,
            "n_shards": 8,
            "wall_seconds": wall,
            "events": stats.events,
            "events_per_second": stats.events / wall,
            "virtual_elapsed": result.elapsed,
            "analytic_elapsed": analytic.elapsed,
            "relative_gap_vs_analytic": abs(
                result.elapsed - analytic.elapsed) / analytic.elapsed,
        }
    return report


def bench_figure_suite(jobs: int) -> dict:
    from repro.harness.experiment import list_experiments
    from repro.harness.parallel import run_experiments

    ids = list_experiments()

    t0 = time.perf_counter()
    serial = run_experiments(ids, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanout = run_experiments(ids, jobs=jobs)
    fanout_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as cache:
        run_experiments(ids, jobs=1, cache_dir=cache)  # populate
        t0 = time.perf_counter()
        cached = run_experiments(ids, jobs=1, cache_dir=cache)
        cached_s = time.perf_counter() - t0

    assert serial == fanout == cached, "executor output must be deterministic"
    return {
        "experiments": len(ids),
        "jobs": jobs,
        "serial_seconds": serial_s,
        "parallel_seconds": fanout_s,
        "parallel_speedup": serial_s / fanout_s,
        "cached_rerun_seconds": cached_s,
        "cached_speedup": serial_s / cached_s,
        "cpu_count": os.cpu_count(),
    }


def bench_ecm_pricing(quick: bool) -> dict:
    """Roofline vs ECM pricing cost and separation on the kernel benches.

    Prices the spmv/qcd node sweep on both paper clusters under each
    registered pricing model and re-prices one point through the tape
    engine under ECM, asserting it equals the scalar oracle walk
    (``tests/oracles.py``) bit-for-bit — the model-identity-in-cache-key
    regression this row exists to catch.
    """
    from repro.bench.qcd import ir_program as qcd_ir
    from repro.bench.qcd import pricing_points as qcd_points
    from repro.bench.spmv import ir_program as spmv_ir
    from repro.bench.spmv import pricing_points as spmv_points
    from repro.ir import BatchAnalyticBackend
    from repro.machine import cte_arm, marenostrum4
    from tests.oracles import analytic_oracle

    clusters = [cte_arm(192), marenostrum4(192)]
    nodes = [1, 4, 16] if quick else [1, 2, 4, 8, 16, 32, 64]
    t0 = time.perf_counter()
    rows = []
    for fn in (spmv_points, qcd_points):
        for cluster in clusters:
            for n in nodes:
                roof, ecm = fn(cluster, n)
                assert ecm.seconds >= roof.seconds, \
                    "ECM must never price below the roofline"
                rows.append({
                    "bench": roof.bench, "cluster": roof.cluster,
                    "n_nodes": n, "roofline_seconds": roof.seconds,
                    "ecm_seconds": ecm.seconds,
                    "ratio": ecm.seconds / roof.seconds,
                })
    wall = time.perf_counter() - t0
    cluster = clusters[0]
    for builder in (spmv_ir, qcd_ir):
        program = builder(cluster, 16)
        scalar = analytic_oracle(program, cluster, 16, check_memory=False,
                                 pricing="ecm")
        batched = BatchAnalyticBackend().run(program, cluster, 16,
                                             check_memory=False,
                                             pricing="ecm")
        assert batched.elapsed == scalar.elapsed, \
            "batched ECM pricing must match the scalar oracle bit-for-bit"
    return {
        "points": len(rows),
        "wall_seconds": wall,
        "points_per_second": len(rows) / wall,
        "max_ecm_over_roofline": max(r["ratio"] for r in rows),
        "rows": rows,
    }


def bench_thunderx2_figure(quick: bool) -> dict:
    """Wall cost of the ThunderX2 energy figure (ext_thunderx2_energy)
    plus its headline numbers — exercises the registry-driven preset and
    power-model resolution end to end."""
    import repro.harness  # noqa: F401  (populate the experiment registry)
    from repro.harness.experiment import run_experiment

    reps = 1 if quick else 3
    wall = best_of(lambda: run_experiment("ext_thunderx2_energy"), reps)
    result = run_experiment("ext_thunderx2_energy")
    return {
        "experiment": "ext_thunderx2_energy",
        "wall_seconds": wall,
        "all_hold": all(e.holds for e in result.expectations),
        "expectations": [e.render() for e in result.expectations],
    }


def bench_tune_million(quick: bool) -> dict:
    """The auto-tuner over the full NEMO/CTE-ARM knob space vs a naive
    chunk-serial ``run_batch`` loop over scalar-override jobs.

    Full mode prices the >=1M-point space (scenarios=16 gives
    180 templates x 2 pricing models x 3 flags x 4 page policies x
    16x16 scenario jitter = 1,105,920 points) end to end through
    ``tune()``.  The naive arm rebuilds what a user without the column
    path would write: decode a sample of the same points into
    per-point ``BatchJob`` overrides and price them chunk-serially
    with caches dropped, then compare points/second.  Full mode
    asserts the >=1M scale and the >=10x speedup; quick mode shrinks
    to scenarios=2 and skips the asserts.
    """
    from repro.apps import get_app
    from repro.ir.batch import BatchJob, clear_caches, shared_batch_backend
    from repro.tune import TuneSpec, build_space, tune
    from repro.tune.engine import decode_point
    from repro.verify.runner import resolve_cluster

    scenarios = 2 if quick else 16
    spec = TuneSpec(app="nemo", cluster="cte-arm", n_nodes=16,
                    scenarios=scenarios)
    clear_caches()
    t0 = time.perf_counter()
    result = tune(spec, workers=0)
    tuned_wall = time.perf_counter() - t0
    tuned_pps = result.n_points / tuned_wall

    # the naive arm: the same points as individual scalar-override jobs,
    # priced chunk-serially.  Sampled (the full space would take minutes)
    # and extrapolated via points/second.
    cluster = resolve_cluster("cte-arm", 16)
    space = build_space("nemo", cluster, 16, scenarios=scenarios)
    app = get_app("nemo")
    flag_rate = {f.name: f.rate_scale for f in space.flags}
    policy_index = {p.value: i for i, p in enumerate(space.policies)}
    programs: dict = {}
    sample_target = 2_000 if quick else 20_000
    stride = max(1, space.n_points // sample_target)
    jobs = []
    for point_id in range(0, space.n_points, stride):
        info = decode_point(space, point_id)
        template = space.templates[info["template_index"]]
        if template.index not in programs:
            programs[template.index] = app.program(template.mapping)
        page = template.page_factors[policy_index[info["page_policy"]]]
        jobs.append(BatchJob(
            programs[template.index], cluster, 16,
            mapping=template.mapping, binary=template.binary,
            check_memory=False, pricing=info["pricing"],
            overrides={
                "rate_scale": flag_rate[info["flags"]],
                "comm_scale": info["comm_scale"],
                "bandwidth_scale": page * info["bandwidth_jitter"],
            }))
    backend = shared_batch_backend()
    clear_caches()
    t0 = time.perf_counter()
    for lo in range(0, len(jobs), 1024):
        backend.run_batch(jobs[lo:lo + 1024])
    naive_wall = time.perf_counter() - t0
    naive_pps = len(jobs) / naive_wall
    speedup = tuned_pps / naive_pps
    if not quick:
        assert result.n_points >= 1_000_000, \
            "full tune space must cover at least one million points"
        assert speedup >= 10.0, \
            f"tuner must beat chunk-serial run_batch 10x (got {speedup:.1f}x)"
    best = result.best_time
    return {
        "app": "nemo",
        "cluster": "cte-arm",
        "scenarios": scenarios,
        "points": result.n_points,
        "tune_wall_seconds": tuned_wall,
        "tune_points_per_second": tuned_pps,
        "naive_sampled_points": len(jobs),
        "naive_wall_seconds": naive_wall,
        "naive_points_per_second": naive_pps,
        "speedup": speedup,
        "frontier_sizes": {name: len(points)
                           for name, points in result.frontiers.items()},
        "best_time_config": best.config,
        "best_time_seconds": best.time_s,
    }


def bench_service_loadtest(quick: bool, out_dir: Path) -> dict:
    """The capacity-planning service under seeded open-loop traffic
    (docs/SERVICE.md): latency percentiles, throughput, the quota-free
    saturation sweep, and the bit-exactness audit.  Also written
    standalone as BENCH_service.json next to the main report."""
    from repro.service.traffic import loadtest_bench, write_bench

    payload = loadtest_bench(quick=quick)
    write_bench(payload, out_dir / "BENCH_service.json")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="output path (default: BENCH_substrate.json "
                        "at the repo root)")
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1),
                        help="worker processes for the figure-suite row")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (smoke-test mode)")
    args = parser.parse_args(argv)

    reps = 2 if args.quick else 5
    events = 20_000 if args.quick else 100_000
    iterations = 5 if args.quick else 20

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    )
    report = {
        "des_engine": bench_des_engine(reps, events),
        "allreduce_64_ranks": bench_allreduce(reps, iterations),
        "ir_lowering": bench_ir_lowering(reps),
        "ir_optimize": bench_ir_optimize(reps),
        "des_sharded": bench_des_sharded(args.quick),
        "ecm_pricing": bench_ecm_pricing(args.quick),
        "thunderx2_figure": bench_thunderx2_figure(args.quick),
        "tune_million_points": bench_tune_million(args.quick),
        "figure_suite": bench_figure_suite(args.jobs),
        "service_loadtest": bench_service_loadtest(args.quick, out.parent),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    des = report["des_engine"]
    coll = report["allreduce_64_ranks"]
    suite = report["figure_suite"]
    print(f"DES engine:   {des['events_per_second']:,.0f} events/s")
    print(f"allreduce 64: fast collectives {coll['speedup']:.2f}x wall "
          f"(virtual-time rel err {coll['virtual_elapsed_relative_error']:.2e})")
    ir = report["ir_lowering"]
    print(f"IR path:      compile {ir['compile_seconds'] * 1e6:,.1f} us, "
          f"analytic run {ir['analytic_run_seconds'] * 1e6:,.1f} us, "
          f"DES lowering {ir['lower_seconds'] * 1e6:,.1f} us "
          f"({ir['program']}, {ir['n_ranks']} ranks)")
    opt = report["ir_optimize"]
    shrunk = max(opt["programs"],
                 key=lambda p: p["ops_before"] - p["ops_after"])
    print(f"IR optimize:  {len(opt['programs'])} programs in "
          f"{opt['optimize_all_seconds'] * 1e3:,.2f} ms (best shrink "
          f"{shrunk['program']}: {shrunk['ops_before']} -> "
          f"{shrunk['ops_after']} ops)")
    shd = report["des_sharded"]
    top = shd["rows"][-1]
    line = (f"sharded DES:  {top['n_shards']} shards "
            f"{top['wall_seconds']:.2f}s wall "
            f"({top['events_per_second']:,.0f} ev/s, critical path "
            f"{top['critical_path_events_per_second']:,.0f} ev/s)")
    if shd["smoke_9216_ranks"]:
        smoke = shd["smoke_9216_ranks"]
        line += (f"; 9216-rank smoke {smoke['wall_seconds']:.1f}s, "
                 f"gap vs analytic {smoke['relative_gap_vs_analytic']:.3%}")
    print(line)
    ecm = report["ecm_pricing"]
    print(f"ECM pricing:  {ecm['points']} points in "
          f"{ecm['wall_seconds']:.3f}s "
          f"({ecm['points_per_second']:,.0f} pts/s, max ECM/roofline "
          f"{ecm['max_ecm_over_roofline']:.2f}x, batched bit-exact)")
    tx2 = report["thunderx2_figure"]
    print(f"ThunderX2:    energy figure {tx2['wall_seconds']:.3f}s, "
          f"expectations {'hold' if tx2['all_hold'] else 'FAIL'}")
    tun = report["tune_million_points"]
    print(f"tune:         {tun['points']:,} points in "
          f"{tun['tune_wall_seconds']:.2f}s "
          f"({tun['tune_points_per_second']:,.0f} pts/s, "
          f"{tun['speedup']:.1f}x over chunk-serial run_batch at "
          f"{tun['naive_points_per_second']:,.0f} pts/s)")
    print(f"figure suite: serial {suite['serial_seconds']:.2f}s, "
          f"--jobs {suite['jobs']} {suite['parallel_seconds']:.2f}s "
          f"({suite['parallel_speedup']:.2f}x on {suite['cpu_count']} cpu), "
          f"cached rerun {suite['cached_rerun_seconds']:.2f}s "
          f"({suite['cached_speedup']:.1f}x)")
    svc = report["service_loadtest"]
    svc_load = svc["loadtest"]
    svc_sat = svc["saturation"]
    audit = svc["bit_exact_vs_run_batch"]
    sat_txt = (f"saturation {svc_sat['saturation_rps']:,.0f} q/s"
               if svc_sat["saturation_rps"] is not None
               else f"sustained {svc_sat['max_sustained_rps']:,.0f} q/s "
               f"(saturation not reached)")
    audit_txt = (f"bit-exact {audit['checked']}/{audit['checked']}"
                 if audit["identical"] else "BIT-EXACTNESS AUDIT FAILED")
    print(f"service:      {svc_load['offered']} queries, "
          f"{svc_load['throughput_rps']:,.0f} q/s, p50 "
          f"{svc_load['latency_ms']['p50']:.1f} ms, p99 "
          f"{svc_load['latency_ms']['p99']:.1f} ms, {sat_txt}, {audit_txt}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
