#!/usr/bin/env python
"""Measure the simulation substrate and write ``BENCH_substrate.json``.

Covers the layers the perf work targets:

* DES engine event throughput (events/second);
* a 64-rank allreduce campaign, simulated vs analytic fast collectives;
* the IR optimizer passes (op-count shrink and wall cost);
* sharded DES walls on 768-rank NEMO and the 9,216-rank smoke;
* ECM pricing and the ThunderX2 energy figure.

The figure suite and the service are measured by ``perfbench/`` (the
``paper_suite`` and ``service_mix`` workloads, with repeated samples).
Numbers are wall-clock on the current host.

Usage::

    PYTHONPATH=src python scripts/bench.py [--quick] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
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
    """Sharded DES wall and events/s on the fixed 768-rank NEMO
    program, per shard count.  Full mode adds the max-feasible-rank
    smoke: 9216-rank NEMO under 8 shards, set against the analytic
    backend.  Shard agreement is a tier-1 contract test."""
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
        return {
            "n_shards": n_shards,
            "workers": workers,
            "wall_seconds": wall,
            "events": stats.events,
            "events_per_second": stats.events / wall,
            "windows": stats.windows,
            "cross_messages": stats.cross_messages,
            "lookahead_seconds": stats.lookahead_s,
            "virtual_elapsed": result.elapsed,
        }

    shard_counts = (1, 2) if quick else (1, 2, 4, 8)
    report = {
        "program": "nemo",
        "n_ranks": mapping.n_ranks,
        "steps": 1,
        "rows": [one(n, 0) for n in shard_counts],
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="output path (default: BENCH_substrate.json "
                        "at the repo root)")
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
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    des = report["des_engine"]
    coll = report["allreduce_64_ranks"]
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
            f"({top['events_per_second']:,.0f} ev/s)")
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
