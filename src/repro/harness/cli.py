"""Command-line entry point: ``repro-lab``.

Usage::

    repro-lab list                      # all registered experiments
    repro-lab run fig6_linpack          # run one and print it
    repro-lab run all                   # run every experiment
    repro-lab experiments-md            # regenerate EXPERIMENTS.md content
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.experiment import REGISTRY, list_experiments, run_experiment
from repro.harness.report import _PAPER_ORDER, _ordered_experiments
from repro.util.errors import ConfigurationError


def _render_experiments_md() -> str:
    results = [(exp_id, run_experiment(exp_id)) for exp_id in _ordered_experiments()]
    total = sum(len(r.expectations) for _, r in results)
    held = sum(sum(e.holds for e in r.expectations) for _, r in results)
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `repro-lab experiments-md`.  Every table and figure of",
        "the paper's evaluation, reproduced against the models; `ok` marks a",
        "measurement within the experiment's documented tolerance of the",
        "paper's value, `DEV` a deviation (each one annotated).",
        "",
        f"**Summary: {held}/{total} paper-vs-measured checks hold** across "
        f"{len(_PAPER_ORDER)} paper experiments and "
        f"{len(results) - len(_PAPER_ORDER)} extension ablations.",
        "",
        "Known paper outliers treated with loose tolerance (single-run noise",
        "the paper itself does not explain): LINPACK speedup 1.70 at 128",
        "nodes, Gromacs speedup 0.33 at 192 nodes, WRF speedups 0.60/0.64 at",
        "32/64 nodes.",
        "",
    ]
    for exp_id, result in results:
        lines.append(f"## {exp_id} — {result.title}")
        lines.append("")
        if result.expectations:
            lines.append("```")
            lines.extend(e.render() for e in result.expectations)
            lines.append("```")
        if result.notes:
            lines.append(result.notes)
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    from repro.ir import BACKENDS  # importing repro.ir registers them all
    from repro.machine.models import pricing_model_names
    from repro.machine.presets import MACHINES

    cluster_help = ("cluster preset: " + ", ".join(MACHINES.names())
                    + " (default cte-arm; aliases like mn4/a64fx/tx2 work)")
    parser = argparse.ArgumentParser(
        prog="repro-lab",
        description="Cluster-evaluation laboratory (A64FX paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    run_p = sub.add_parser("run", help="run experiment(s)")
    run_p.add_argument("experiment", help="experiment id or 'all'")
    run_p.add_argument("--no-figure", action="store_true",
                       help="suppress ASCII figures")
    run_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    run_p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for multi-experiment runs "
                       "(default 1; output is identical for any N)")
    run_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk result cache keyed by a content hash "
                       "of the source tree (default: $REPRO_CACHE_DIR, "
                       "else no caching)")
    run_p.add_argument("--backend", default="analytic",
                       choices=tuple(sorted(BACKENDS)),
                       help="IR execution backend for workload evaluation "
                       "(default analytic, which auto-batches app sweeps; "
                       "batch forces the vectorized analytic backend; DES "
                       "backends are slow at paper scale and meant for "
                       "small partitions)")
    run_p.add_argument("--pricing", default=None,
                       choices=tuple(pricing_model_names()),
                       help="machine pricing model for compute/memory ops "
                       "(default roofline, the paper's model; ecm adds an "
                       "ECM-style cache-hierarchy term; part of the result "
                       "cache key)")
    run_p.add_argument("--des-shards", type=int, default=None, metavar="N",
                       help="shard the DES backend into N conservative-"
                       "lookahead sub-simulators (node granularity; "
                       "results are byte-identical for any N; see "
                       "docs/PERFORMANCE.md)")
    run_p.add_argument("--des-shard-workers", type=int, default=None,
                       metavar="W",
                       help="worker processes for the sharded DES "
                       "(default 0 = in-process sequential shards)")
    sub.add_parser("experiments-md", help="print EXPERIMENTS.md content")
    sub.add_parser("host-check",
                   help="measure this host's kernels and compare to the models")
    fig_p = sub.add_parser("figures",
                           help="render every paper figure as SVG files")
    fig_p.add_argument("out_dir", help="output directory for the .svg files")
    report_p = sub.add_parser(
        "report", help="regenerate the full evaluation report")
    report_p.add_argument("--no-figure", action="store_true",
                          help="omit ASCII figures")
    report_p.add_argument("--no-extensions", action="store_true",
                          help="paper experiments only")
    verify_p = sub.add_parser(
        "verify",
        help="correctness checks + performance lint for an application "
        "configuration (MPI matching, placement, vectorization)")
    verify_p.add_argument(
        "app", help="application name (alya, nemo, gromacs, openifs, wrf)")
    verify_p.add_argument("--cluster", default="cte-arm",
                          help=cluster_help)
    verify_p.add_argument("--nodes", type=int, default=None,
                          help="node count (default: smallest feasible)")
    verify_p.add_argument("--ranks-per-node", type=int, default=None,
                          help="override the app's rank layout for the "
                          "placement lint")
    verify_p.add_argument("--threads-per-rank", type=int, default=None,
                          help="override the app's thread layout for the "
                          "placement lint")
    verify_p.add_argument("--page-policy", default=None,
                          help="page policy to lint against "
                          "(first-touch, prepage-interleave, "
                          "prepage-master, interleave)")
    verify_p.add_argument("--static-only", action="store_true",
                          help="skip the dynamic (DES) MPI message check")
    verify_p.add_argument("--dynamic", choices=("on", "off", "auto"),
                          default=None,
                          help="dynamic MPI check: on, off, or auto (run "
                          "only when the static analyzer could not prove "
                          "the program clean); overrides --static-only")
    verify_p.add_argument("--include-ok", action="store_true",
                          help="also report kernel classes that vectorize "
                          "well")
    verify_p.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON diagnostics")
    an_p = sub.add_parser(
        "analyze",
        help="static IR analysis — communication safety, resource bounds, "
        "pass soundness — in milliseconds, without running the DES")
    an_p.add_argument(
        "target",
        help="bench or app name (stream, linpack, hpcg, osu, spmv, qcd, "
        "alya, nemo, gromacs, openifs, wrf) or 'all' for the full "
        "bundled matrix")
    an_p.add_argument("--cluster", default="cte-arm",
                      help=cluster_help)
    an_p.add_argument("--nodes", type=int, default=8,
                      help="partition size (default 8)")
    an_p.add_argument("--steps", type=int, default=1,
                      help="time steps for app programs (default 1)")
    an_p.add_argument("--checks", default=None, metavar="LIST",
                      help="comma list of comm,resources,soundness "
                      "(default: all three)")
    an_p.add_argument("--tag-scheme", default="instance",
                      choices=("instance", "constant"),
                      help="collective channel scheme to analyze under "
                      "(constant reconstructs the historical shared-tag "
                      "scheme; default instance)")
    an_p.add_argument("--include-ok", action="store_true",
                      help="also report checks that passed (STA014/15/17)")
    an_p.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON diagnostics")
    an_p.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too, not just errors "
                      "(the scripts/check.sh gate)")
    serve_p = sub.add_parser(
        "serve",
        help="run the capacity-planning HTTP service (POST /v1/price "
        "prices a workload on a cluster through the batched backend; "
        "see docs/SERVICE.md)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8064)
    serve_p.add_argument("--quota-rate", type=float, default=50.0,
                         help="per-client sustained queries/second "
                         "(default 50)")
    serve_p.add_argument("--quota-burst", type=float, default=20.0,
                         help="per-client burst capacity (default 20)")
    serve_p.add_argument("--max-batch", type=int, default=64,
                         help="max queries stacked into one tape pass "
                         "(default 64)")
    serve_p.add_argument("--tape-budget-mb", type=float, default=None,
                         help="memory budget for warm compiled tapes "
                         "(default: unbounded)")
    res_p = sub.add_parser(
        "resilience",
        help="fault-intensity campaign: inject mid-run faults, report "
        "detection, reallocation and checkpoint/restart cost")
    res_p.add_argument("--cluster", default="cte-arm",
                       help=cluster_help)
    res_p.add_argument("--nodes", type=int, default=4,
                       help="partition size (default 4)")
    res_p.add_argument("--ranks-per-node", type=int, default=2,
                       help="ranks per node (default 2)")
    res_p.add_argument("--intensity", type=int, action="append",
                       default=None, metavar="N",
                       help="fault intensity level; repeatable "
                       "(default 0 1 2 4; >= 1 includes one node crash)")
    res_p.add_argument("--steps", type=int, default=20,
                       help="iterations of the halo+allreduce program "
                       "(default 20)")
    res_p.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    res_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")

    tune_p = sub.add_parser(
        "tune",
        help="auto-tune one application: enumerate the compiler x flags "
        "x vectorization x placement x page-policy space, price it "
        "through the batched evaluator, report time-vs-energy Pareto "
        "frontiers with verify-layer explanations")
    tune_p.add_argument("app",
                        help="application model (e.g. nemo, alya, wrf)")
    tune_p.add_argument("--cluster", default="cte-arm", help=cluster_help)
    tune_p.add_argument("--nodes", type=int, default=16,
                        help="partition size (default 16)")
    tune_p.add_argument("--steps", type=int, default=None,
                        help="time steps per run (default: the app's "
                        "steps_per_run)")
    tune_p.add_argument("--scenarios", type=int, default=2,
                        help="robustness grid size per jitter axis; the "
                        "space scales with its square (default 2)")
    tune_p.add_argument("--spread", type=float, default=0.15,
                        help="scenario jitter half-width (default 0.15)")
    tune_p.add_argument("--pricing", default="both",
                        choices=("both", "roofline", "ecm"),
                        help="pricing model arm(s) to sweep (default both)")
    tune_p.add_argument("--workers", type=int, default=0,
                        help="shard chunks over N worker processes once "
                        "the cost probe pays off (default 0: in-process)")
    tune_p.add_argument("--budget-mb", type=int, default=64,
                        help="per-chunk memory budget in MiB (default 64)")
    tune_p.add_argument("--top", type=int, default=8,
                        help="frontier rows to print per pricing model "
                        "(default 8)")
    tune_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    args = parser.parse_args(argv)

    if args.command == "analyze":
        from dataclasses import replace

        from repro.ir.analyze import (
            DEFAULT_CHECKS,
            analyze_program,
            bundled_targets,
            target,
        )
        from repro.verify import Severity
        from repro.verify.runner import resolve_cluster
        from repro.verify.diagnostics import DiagnosticReport

        checks = (tuple(c for c in args.checks.split(",") if c)
                  if args.checks else DEFAULT_CHECKS)
        try:
            machine = resolve_cluster(args.cluster)
            if args.target == "all":
                targets = bundled_targets(machine, args.nodes,
                                          steps=args.steps)
            else:
                targets = [target(args.target, machine, args.nodes,
                                  steps=args.steps)]
            report = DiagnosticReport(
                title=f"static analysis of {args.target} on "
                f"{machine.name}, {args.nodes} nodes")
            for t in targets:
                sub_report = analyze_program(
                    t.program, machine, t.n_nodes, checks=checks,
                    include_ok=args.include_ok,
                    tag_scheme=args.tag_scheme,
                )
                report.extend(
                    replace(d, location=(f"{t.name}: {d.location}"
                                         if d.location else t.name))
                    for d in sub_report
                )
        except KeyError as exc:
            print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
            return 2
        except ConfigurationError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(report.to_json() if args.json else report.render())
        if report.errors:
            return 1
        if args.strict and report.by_severity(Severity.WARNING):
            return 1
        return 0

    if args.command == "serve":
        from repro.service import CapacityService, ServiceConfig, serve_forever

        budget = (None if args.tape_budget_mb is None
                  else int(args.tape_budget_mb * (1 << 20)))
        try:
            config = ServiceConfig(
                quota_rate=args.quota_rate,
                quota_burst=args.quota_burst,
                max_batch=args.max_batch,
                tape_budget_bytes=budget,
            )
            service = CapacityService(config)
        except ConfigurationError as exc:
            print(exc, file=sys.stderr)
            return 2
        serve_forever(service, host=args.host, port=args.port)
        return 0

    if args.command == "resilience":
        from repro.resilience import resilience_campaign

        intensities = (
            tuple(args.intensity) if args.intensity else (0, 1, 2, 4)
        )
        try:
            campaign = resilience_campaign(
                cluster=args.cluster,
                n_nodes=args.nodes,
                ranks_per_node=args.ranks_per_node,
                intensities=intensities,
                steps=args.steps,
                seed=args.seed,
            )
        except ConfigurationError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(campaign.to_json() if args.json else campaign.render())
        return 0

    if args.command == "tune":
        from repro.tune import TuneSpec, tune
        from repro.util.errors import ReproError

        pricing = (("roofline", "ecm") if args.pricing == "both"
                   else (args.pricing,))
        try:
            spec = TuneSpec(
                app=args.app,
                cluster=args.cluster,
                n_nodes=args.nodes,
                steps=args.steps,
                scenarios=args.scenarios,
                scenario_spread=args.spread,
                pricing=pricing,
                memory_budget_bytes=args.budget_mb << 20,
            )
            result = tune(spec, workers=args.workers)
        except (ReproError, KeyError, ValueError) as exc:
            # str(KeyError) is the quoted repr of its argument
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            print(message, file=sys.stderr)
            return 2
        print(result.to_json() if args.json
              else result.render(top=args.top))
        return 0

    if args.command == "verify":
        from repro.smp.pages import PagePolicy
        from repro.verify import Severity, verify_app

        try:
            policy = (
                PagePolicy(args.page_policy)
                if args.page_policy is not None
                else None
            )
        except ValueError:
            choices = ", ".join(p.value for p in PagePolicy)
            print(f"unknown page policy {args.page_policy!r}; "
                  f"choose from: {choices}", file=sys.stderr)
            return 2
        try:
            report = verify_app(
                args.app,
                cluster=args.cluster,
                n_nodes=args.nodes,
                ranks_per_node=args.ranks_per_node,
                threads_per_rank=args.threads_per_rank,
                page_policy=policy,
                dynamic=({"on": True, "off": False, "auto": "auto"}
                         [args.dynamic] if args.dynamic is not None
                         else not args.static_only),
                include_ok=args.include_ok,
            )
        except (KeyError, ConfigurationError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            print(message, file=sys.stderr)
            return 2
        if args.json:
            print(report.to_json())
        else:
            print(report.render())
        return 1 if report.by_severity(Severity.ERROR) else 0

    if args.command == "report":
        from repro.harness.report import generate_report

        print(generate_report(include_figures=not args.no_figure,
                              include_extensions=not args.no_extensions))
        return 0

    if args.command == "figures":
        from repro.harness.figures_svg import render_all

        paths = render_all(args.out_dir)
        for path in paths:
            print(path)
        return 0

    if args.command == "host-check":
        from repro.bench.host_validation import (
            comparison_table,
            measure_host,
            sanity_check,
        )

        profile = measure_host()
        print(comparison_table(profile).render())
        problems = sanity_check(profile)
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            return 1
        print("host kernels healthy")
        return 0

    if args.command == "list":
        for exp_id in list_experiments():
            print(exp_id)
        return 0
    if args.command == "experiments-md":
        print(_render_experiments_md())
        return 0
    if args.command == "run":
        from repro.context import current, using
        from repro.harness.parallel import run_experiments

        ids = list_experiments() if args.experiment == "all" else [args.experiment]
        for exp_id in ids:
            if exp_id not in REGISTRY:
                print(f"unknown experiment {exp_id!r}", file=sys.stderr)
                return 2
        try:
            with using(current().derive(
                    backend=args.backend, pricing=args.pricing,
                    des_shards=args.des_shards,
                    des_workers=args.des_shard_workers)):
                payloads = run_experiments(ids, jobs=args.jobs,
                                           cache_dir=args.cache_dir)
        except ConfigurationError as exc:
            print(exc, file=sys.stderr)
            return 2
        failures = 0
        json_out = []
        for payload in payloads:
            if args.json:
                json_out.append(payload["result"])
            else:
                key = "rendered_no_figure" if args.no_figure else "rendered"
                print(payload[key])
                print()
            if not payload["result"]["all_hold"]:
                failures += 1
        if args.json:
            import json

            print(json.dumps(json_out, indent=2))
        return 1 if failures else 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
