"""Program side of one benchmark run, in a fresh interpreter.

Usage::

    python3 perfbench/program.py INPUTS.json --mode setup|run [--trace]

Reads only the generated inputs (never the seed), performs the
workload's set-up, prints ``{"event": "ready"}`` as a JSON line, and in
``run`` mode then does ``--units`` units of work and prints
``{"event": "result"}``.  The caller starts one such process per unit
(two in a traced run), so every unit starts from a fresh interpreter
and cold caches, and every process gives one set-up sample.

``service_mix`` is different: the program is the HTTP server, the ready
line carries its port, and it then obeys one-line commands on stdin
(``trace on``, ``trace off``, ``quit``) while the caller drives load;
``setup`` mode exits right after the ready line.

With ``--trace`` every other unit of work runs with the wrappers of
:mod:`perfbench.tracing` installed; the untraced units in between give
the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT_DIR, ROOT, checks, tracing  # noqa: E402
from perfbench.hostinfo import reference_s  # noqa: E402


def emit(event: str, **fields: Any) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(tracer: tracing.Tracer, workload: str) -> str:
    """Write the spans at exit; returns the file's checkout-relative path."""
    path = OUT_DIR / f"spans-{workload}.json"
    tracer.write(path)
    return str(path.relative_to(ROOT))


class Batch:
    """A workload made of repeated units, each a (primary, secondary)
    pair of timed operations; subclasses define the pair and checks."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        #: output digests the caller compares across units and processes
        self.digests: list[str] = []
        #: seconds spent in reference loops, kept out of unit walls
        self.reference_total = 0.0

    def tally(self, result: tuple[int, int]) -> None:
        self.attempted += result[0]
        self.failed += result[1]

    def prepare(self) -> None:
        """Untimed work before each unit (e.g. dropping caches)."""

    def timed(self, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> tuple[Any, float, float]:
        """``fn(*args, **kwargs)``, its wall seconds, and the mean of the
        reference loop's seconds just before and just after it."""
        before = reference_s()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        after = reference_s()
        self.reference_total += before + after
        return result, wall, (before + after) / 2

    def unit(self, index: int) -> dict[str, float]:
        raise NotImplementedError

    def finish(self) -> dict[str, Any]:
        """Checks that run once, after the timed loop; extra report."""
        return {}

    def run(self, first: int, n_units: int, trace: bool) -> dict[str, Any]:
        """Units ``first .. first + n_units - 1``.  In a traced run half
        the units are traced, alternately a process's first and second
        unit, so neither side always gets the colder process."""
        from repro.ir.batch import tape_cache_stats

        tracer = tracing.Tracer() if trace else None
        tape = {"hits": 0, "misses": 0, "resident_bytes": 0}
        units: list[dict[str, Any]] = []
        for index in range(first, first + n_units):
            traced = tracer is not None and index % 4 in (1, 2)
            self.prepare()
            gc.collect()
            before = tape_cache_stats()
            if traced:
                spans = tracer.span_count()
                tracer.install()
            try:
                t0 = perf_counter()
                loops = self.reference_total
                row: dict[str, Any] = dict(self.unit(index))
                row["wall_s"] = (perf_counter() - t0
                                 - (self.reference_total - loops))
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                row["spans"] = tracer.span_count() - spans
                after = tape_cache_stats()
                for key in ("hits", "misses"):
                    tape[key] += int(after[key] or 0) - int(before[key] or 0)
                tape["resident_bytes"] = max(tape["resident_bytes"],
                                             int(after["resident_bytes"] or 0))
            row["traced"] = traced
            units.append(row)
        report = self.finish()
        out: dict[str, Any] = {"units": units, "report": report,
                               "digests": self.digests}
        if tracer is not None:
            out["trace"] = tracer.snapshot()
            out["tape"] = tape
            out["span_cost_s"] = tracing.span_cost()
            out["spans_file"] = write_spans(tracer, self.inputs["workload"])
        return out


class PaperSuite(Batch):
    """Primary: one cold pass over the shuffled experiment list (caches
    cleared, no disk cache).  Secondary: the same pass again, warm."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        super().__init__(inputs)
        import repro.harness  # noqa: F401  (populates the registry)
        from repro.harness.experiment import list_experiments
        from repro.harness import parallel
        from repro.ir import batch

        self.parallel = parallel
        self.batch = batch
        self.order = list(inputs["experiments"])
        if sorted(self.order) != sorted(list_experiments()):
            raise SystemExit("inputs name experiments this program lacks")
        self.tapes: list[int] = []

    def prepare(self) -> None:
        self.batch.clear_caches()

    def unit(self, index: int) -> dict[str, float]:
        cold, cold_s, cold_ref = self.timed(
            self.parallel.run_experiments, self.order, jobs=1, cache_dir=None)
        stats = self.parallel.last_run_stats()
        self.tapes.append(int(self.batch.tape_cache_stats()["entries"] or 0))
        warm, warm_s, warm_ref = self.timed(
            self.parallel.run_experiments, self.order, jobs=1, cache_dir=None)
        self.tally(checks.suite_pass(cold, self.order))
        self.digests += [checks.digest(cold), checks.digest(warm)]
        return {"primary_s": cold_s, "primary_ref_s": cold_ref,
                "secondary_s": warm_s, "secondary_ref_s": warm_ref,
                "experiments": len(stats),
                "max_experiment_s": max(wall for _, wall, _ in stats)}

    def finish(self) -> dict[str, Any]:
        return {"distinct_tapes": max(self.tapes)}


class TuneSweep(Batch):
    """Primary: one tune with caches cleared.  Secondary: the same tune
    again with the process caches warm.  Both with ``workers=0``."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        super().__init__(inputs)
        from repro.apps import get_app
        from repro.ir import batch
        from repro.tune import TuneSpec, build_space, tune
        from repro.verify.runner import resolve_cluster

        self.batch = batch
        self.tune = tune
        self.spec = TuneSpec(**inputs["spec"])
        spec = self.spec
        self.space = build_space(
            get_app(spec.app), resolve_cluster(spec.cluster, spec.n_nodes),
            spec.n_nodes, scenarios=spec.scenarios,
            scenario_spread=spec.scenario_spread, pricing=spec.pricing)
        self.result: Any = None

    def prepare(self) -> None:
        self.batch.clear_caches()

    def unit(self, index: int) -> dict[str, float]:
        cold, cold_s, cold_ref = self.timed(self.tune, self.spec, workers=0)
        warm, warm_s, warm_ref = self.timed(self.tune, self.spec, workers=0)
        self.digests += [checks.frontier_digest(cold),
                         checks.frontier_digest(warm)]
        self.result = cold
        return {"primary_s": cold_s, "primary_ref_s": cold_ref,
                "secondary_s": warm_s, "secondary_ref_s": warm_ref,
                "points": cold.n_points}

    def finish(self) -> dict[str, Any]:
        self.tally(checks.reprice_frontier(
            self.result, self.spec, sample=self.inputs["check_points"],
            seed=self.inputs["check_seed"]))
        tapes = len(self.space.templates)
        return {"distinct_tapes": tapes,
                "points_per_tape": self.result.n_points / tapes}


class DesNemo(Batch):
    """Primary: the one-step 768-rank program on a single engine, in
    process.  Secondary: the same program on 2 shards over 2 worker
    processes.  The seed orders the two runs of each unit."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        super().__init__(inputs)
        from repro.apps import get_app
        from repro.des import shard
        from repro.verify.runner import resolve_cluster

        cfg = inputs["program"]
        app = get_app(cfg["app"])
        cluster = resolve_cluster(cfg["cluster"], cfg["n_nodes"])
        mapping = app.mapping(cluster, cfg["n_nodes"])
        program = app.program(mapping, steps=cfg["steps"])
        binary = app.build(cluster)
        self.shard = shard  # called through the module, so tracing sees it
        self.n_ranks = mapping.n_ranks
        shards = inputs["sharded"]
        self.workers = shards["workers"]
        self.single = shard.ShardedSpec(program=program, mapping=mapping,
                                  n_shards=1, binary=binary,
                                  world_kwargs={"trace": "off"})
        self.sharded = shard.ShardedSpec(program=program, mapping=mapping,
                                   n_shards=shards["n_shards"],
                                   binary=binary,
                                   world_kwargs={"trace": "off"})

    def _one(self, spec: Any, workers: int) -> dict[str, Any]:
        (result, stats), wall, ref = self.timed(self.shard.run_sharded,
                                                spec, workers=workers)
        return {"wall_s": wall, "ref_s": ref, "elapsed": result.elapsed,
                "events": stats.events, "windows": stats.windows}

    def unit(self, index: int) -> dict[str, float]:
        bits = self.inputs["order_bits"]
        runs = [(self.single, 0), (self.sharded, self.workers)]
        if bits[index % len(bits)]:
            runs.reverse()
        done = {id(spec): self._one(spec, workers) for spec, workers in runs}
        single, sharded = done[id(self.single)], done[id(self.sharded)]
        self.tally(checks.sharded_matches(single, sharded))
        self.digests.append(checks.digest([single["elapsed"],
                                           single["events"]]))
        return {"primary_s": single["wall_s"],
                "primary_ref_s": single["ref_s"],
                "secondary_s": sharded["wall_s"],
                "secondary_ref_s": sharded["ref_s"],
                "events": single["events"]}

    def finish(self) -> dict[str, Any]:
        return {"n_ranks": self.n_ranks}


BATCH_WORKLOADS: dict[str, Callable[[dict[str, Any]], Batch]] = {
    "paper_suite": PaperSuite,
    "tune_sweep": TuneSweep,
    "des_nemo768": DesNemo,
}


def serve(mode: str, trace: bool) -> int:
    """The service_mix program: a capacity server on loopback."""
    from repro.service.core import CapacityService, ServiceConfig
    from repro.service.httpd import ServiceServer

    # quotas opened wide: the benchmark measures capacity, not policy
    config = ServiceConfig(quota_rate=1e9, quota_burst=1e9)
    server = ServiceServer(CapacityService(config)).start()
    emit("ready", port=server.port)
    tracer = tracing.Tracer() if trace else None
    try:
        if mode == "setup":
            return 0
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if tracer is not None and command == "trace on":
                tracer.install()
                emit("trace_on")
            elif tracer is not None and command == "trace off":
                tracer.uninstall()
                emit("trace_off")
            else:
                emit("error", message=f"unknown command {command!r}")
    finally:
        server.stop()
    traced: dict[str, Any] = {}
    if tracer is not None:
        traced = {"trace": tracer.snapshot(),
                  "span_cost_s": tracing.span_cost(),
                  "spans_file": write_spans(tracer, "service_mix")}
    emit("result", peak_rss_mb=peak_rss_mb(), **traced)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs.read_text())
    workload = inputs["workload"]
    if workload == "service_mix":
        return serve(args.mode, args.trace)
    bench = BATCH_WORKLOADS[workload](inputs)
    emit("ready")
    if args.mode == "setup":
        return 0
    out = bench.run(args.first, args.units, args.trace)
    emit("result", attempted=bench.attempted, failed=bench.failed,
         peak_rss_mb=peak_rss_mb(), **out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
