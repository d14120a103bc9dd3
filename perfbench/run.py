#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper_suite`` — all experiments through ``run_experiments(jobs=1)``,
  in a seeded order; every paper expectation must hold;
* ``tune_sweep`` — the 1,105,920-point NEMO tune with a seeded
  ``scenario_spread``; frontiers must repeat and re-price bit-exactly;
* ``service_mix`` — seeded open-loop Poisson traffic over loopback HTTP
  to a capacity server (:mod:`perfbench.loadgen`); sampled bodies must be
  bit-exact against direct ``run_batch``;
* ``des_nemo768`` — the one-step 768-rank NEMO program on one engine and
  on 2 shards over 2 worker processes; both must agree exactly.

All times are host (simulator) time.  Every workload reports the same
end-to-end metrics, each meaning the workload's own unit of work:

===============  ==========================  ==========================
metric           primary unit                secondary unit
===============  ==========================  ==========================
paper_suite      cold suite pass (suite_s)   the same pass, caches warm
tune_sweep       one cold tune               the same tune, caches warm
des_nemo768      single-engine run           2 shards on 2 workers
service_mix      p50 latency, low stage      p50 latency, high stage
===============  ==========================  ==========================

* ``setup_s`` — median over several fresh interpreters of the time from
  process start until the first unit of work can begin (imports,
  registries, tune space, server start), at nominal host speed;
* ``peak_rss_mb`` — peak resident memory of the program's process;
* ``primary_ms`` / ``secondary_ms`` — medians over the run's units (for
  ``service_mix``, the p50 request latency of each stage, timed from
  each request's due time).

All three times are at nominal host speed: each timed operation is
scaled by a reference loop timed around it (see
``hostinfo.REFERENCE_NOMINAL_S``); the report keeps the wall times.

``--trace 1`` reports the per-layer metrics instead (self time of each
wrapped entry point as a share of the traced wall, work counts, and the
tracing overhead against the untraced units of the same run); a traced
run whose self times miss the untraced wall by more than
``ACCOUNTING_TOLERANCE`` counts one failed check.  The last
line of standard output is the verdict; the line before it is a report
with host metadata, input properties and the workload's named figures,
also written under ``.perfbench_out/``.  Exit code 2 means the program
under test is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT_DIR, ROOT, checks, hostinfo, loadgen  # noqa: E402
from perfbench import inputs as make  # noqa: E402

#: service_mix: fresh servers timed for set-up besides the measured one
SETUP_PROBES = 4
#: service_mix: blocks each measured stage is cut into; the stages
#: take turns block by block (and a traced run traces every other round)
SERVICE_BLOCKS = 8
#: batch workloads: fewest unit processes in a run, whatever its length
MIN_PROCESSES = 3
#: a child that has not answered within this many seconds is killed
CHILD_TIMEOUT_S = 150.0

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("ir.compile_calls", "count"),
    ("ir.compile_pct", "%"),
    ("tape.compile_calls", "count"),
    ("tape.hit_ratio", "ratio"),
    ("tape.compile_pct", "%"),
    ("tape.resident_bytes", "bytes"),
    ("batch.calls", "count"),
    ("batch.jobs", "count"),
    ("batch.jobs_per_call", "ratio"),
    ("batch.self_pct", "%"),
    ("columns.chunks", "count"),
    ("columns.points", "count"),
    ("columns.self_pct", "%"),
    ("tune.space_pct", "%"),
    ("tune.pareto_pct", "%"),
    ("network.p2p_calls", "count"),
    ("network.hops_calls", "count"),
    ("network.self_pct", "%"),
    ("harness.experiments", "count"),
    ("harness.self_pct", "%"),
    ("harness.max_experiment_pct", "%"),
    ("service.transport_pct", "%"),
    ("service.admission_wait_pct", "%"),
    ("service.batch_pct", "%"),
    ("service.encode_pct", "%"),
    ("service.batches", "count"),
    ("service.jobs_per_batch", "ratio"),
    ("service.late_sends_pct", "%"),
    ("des.lower_pct", "%"),
    ("des.events", "count"),
    ("des.engine_pct", "%"),
    ("des.critical_pct", "%"),
    ("des.sync_pct", "%"),
    ("des.windows", "count"),
    ("des.cross_messages", "count"),
    ("inputs.distinct_tapes", "count"),
    ("inputs.points_per_tape", "ratio"),
    ("inputs.repeat_pct", "%"),
    ("other_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.accounting_error_pct", "%"),
)

#: self times plus ``other`` equal the compensated traced wall by
#: construction; a traced run fails one check when that wall
#: misses the untraced wall (``trace.accounting_error_pct``) by more
#: than this share.
ACCOUNTING_TOLERANCE = 0.25


# -- the program's process ---------------------------------------------------


class Child:
    """One fresh interpreter running ``perfbench/program.py``."""

    def __init__(self, inputs_path: Path, mode: str, trace: bool,
                 *args: str) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "program.py"),
               str(inputs_path), "--mode", mode, *args]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)  # the suite runs without disk cache
        # a fixed string-hash seed: dict and set layouts, and with them
        # the program's speed, do not change from one process to the next
        env["PYTHONHASHSEED"] = "0"
        self.reference_before = hostinfo.reference_s()
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def event(self, expected: str) -> dict[str, Any]:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:
                sys.stderr.write(line)
                continue
            if isinstance(message, dict) and "event" in message:
                if message["event"] != expected:
                    raise RuntimeError(f"program sent {message!r}, "
                                       f"expected {expected!r}")
                return message
        raise RuntimeError(f"program exited before {expected!r} "
                           f"(code {self.proc.wait()})")

    def ready(self) -> tuple[dict[str, Any], float, float]:
        """Wait for the ready line; returns it, the set-up's wall
        seconds, and the set-up at nominal host speed."""
        message = self.event("ready")
        wall = perf_counter() - self.started
        reference = (self.reference_before + hostinfo.reference_s()) / 2
        return message, wall, hostinfo.at_nominal_speed(wall, reference)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> int:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._timer.cancel()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code


def time_setup(inputs_path: Path) -> tuple[float, float]:
    """Wall and nominal-speed seconds of one fresh server's set-up."""
    child = Child(inputs_path, "setup", trace=False)
    try:
        return child.ready()[1:]
    finally:
        child.close()


# -- batch workloads -----------------------------------------------------------


def run_batch(inputs_path: Path, trace: bool,
              seconds: float) -> dict[str, Any]:
    """Run units, each in a fresh interpreter (a traced pair in a traced
    run), until ``seconds`` have passed; merge what the processes report.

    One process per unit makes every unit start cold and gives one
    set-up sample per unit; it also spreads the units over the host's
    cores instead of leaving the whole run on whichever core its one
    process landed on.
    """
    per_process = 2 if trace else 1
    merged: dict[str, Any] = {
        "units": [], "digests": [], "setups": [], "peak_rss_mb": 0.0,
        "attempted": 0, "failed": 0, "span_costs": [],
        "accounting_ratios": [],
        "trace": {"layers": {}, "counters": {}},
        "tape": {"hits": 0, "misses": 0, "resident_bytes": 0},
    }
    started = perf_counter()
    first = 0
    while (first < MIN_PROCESSES * per_process
           or perf_counter() - started < seconds):
        child = Child(inputs_path, "run", trace, "--first", str(first),
                      "--units", str(per_process))
        try:
            merged["setups"].append(child.ready()[1:])
            result = child.event("result")
        finally:
            code = child.close()
        if code != 0:
            raise RuntimeError(f"program exited with code {code}")
        _merge(merged, result)
        first += per_process
    attempted, failed = checks.same_outputs(merged["digests"])
    merged["attempted"] += attempted
    merged["failed"] += failed
    return merged


def _merge(merged: dict[str, Any], result: dict[str, Any]) -> None:
    merged["units"] += result["units"]
    merged["digests"] += result["digests"]
    merged["attempted"] += result["attempted"]
    merged["failed"] += result["failed"]
    merged["peak_rss_mb"] = max(merged["peak_rss_mb"],
                                result["peak_rss_mb"])
    merged["report"] = result["report"]
    if "trace" not in result:
        return
    cost = result["span_cost_s"]
    merged["span_costs"].append(cost)
    # the process's traced unit, compensated for its spans, against its
    # untraced unit: both ran in one interpreter, one after the other
    traced = [u for u in result["units"] if u["traced"]]
    plain = [u for u in result["units"] if not u["traced"]]
    merged["accounting_ratios"].append(
        sum(u["wall_s"] - u["spans"] * cost for u in traced)
        / sum(u["wall_s"] for u in plain))
    merged["spans_file"] = result["spans_file"]
    for name, row in result["trace"]["layers"].items():
        total = merged["trace"]["layers"].setdefault(name, [0, 0.0, 0.0])
        for i, value in enumerate(row):
            total[i] += value
    counters = merged["trace"]["counters"]
    for name, value in result["trace"]["counters"].items():
        counters[name] = counters.get(name, 0.0) + value
    tape = merged["tape"]
    tape["hits"] += result["tape"]["hits"]
    tape["misses"] += result["tape"]["misses"]
    tape["resident_bytes"] = max(tape["resident_bytes"],
                                 result["tape"]["resident_bytes"])


def median_at_nominal_speed(units: list[dict[str, Any]],
                            which: str) -> float:
    """Median of the ``which`` ("primary" or "secondary") time over
    ``units``, each at nominal host speed."""
    return statistics.median(
        hostinfo.at_nominal_speed(u[f"{which}_s"], u[f"{which}_ref_s"])
        for u in units)


def batch_figures(workload: str, result: dict[str, Any]) -> dict[str, Any]:
    """The workload's named figures from its untraced units (wall
    times), and ``primary_s``/``secondary_s`` at reference speed."""
    units = [u for u in result["units"] if not u["traced"]]
    primary = statistics.median(u["primary_s"] for u in units)
    secondary = statistics.median(u["secondary_s"] for u in units)
    figures: dict[str, Any] = {
        "units": len(units),
        "primary_s": median_at_nominal_speed(units, "primary"),
        "secondary_s": median_at_nominal_speed(units, "secondary"),
        "primary_wall_s": primary, "secondary_wall_s": secondary,
        "primary_samples_s": [u["primary_s"] for u in units],
        "secondary_samples_s": [u["secondary_s"] for u in units],
        "primary_reference_s": [u["primary_ref_s"] for u in units],
        "secondary_reference_s": [u["secondary_ref_s"] for u in units]}
    if workload == "paper_suite":
        figures["suite_s"] = primary
        figures["warm_suite_s"] = secondary
    elif workload == "tune_sweep":
        points = units[0]["points"]
        figures["points"] = points
        figures["tune_points_per_s"] = points / primary
        figures["warm_tune_points_per_s"] = points / secondary
    elif workload == "des_nemo768":
        events = units[0]["events"]
        figures["events"] = events
        figures["des_events_per_s"] = events / primary
        figures["des_events_per_s_sharded"] = events / secondary
    return figures


def batch_layers(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of a traced batch run.

    Self times are compensated for tracing: each span's measured cost
    (``span_cost_s``) is taken off its layer, and shares are of the
    traced wall minus all span costs, the estimate of the untraced wall.
    ``trace.accounting_error_pct`` compares that estimate with the
    measured untraced unit of the same process (median over processes).
    DES shares are of the wall of the sharded runs only.
    """
    traced = [u for u in result["units"] if u["traced"]]
    plain = [u for u in result["units"] if not u["traced"]]
    n = len(traced)
    layers = result["trace"]["layers"]
    counters = result["trace"]["counters"]
    cost = statistics.median(result["span_costs"])
    spans = sum(r[0] for r in layers.values())
    wall = sum(u["wall_s"] for u in traced) - spans * cost
    own = {name: max(0.0, r[2] - r[0] * cost) for name, r in layers.items()}

    def row(name: str) -> list[float]:
        return layers.get(name, [0, 0.0, 0.0])

    def pct(*names: str) -> float:
        return 100.0 * sum(own.get(name, 0.0) for name in names) / wall

    self_total = sum(own.values())
    tape = result["tape"]
    lookups = tape["hits"] + tape["misses"]
    batch_calls = row("batch")[0]
    sharded_s = counters.get("des.sharded_wall_s", 0.0)
    report = result["report"]
    out = {
        "ir.compile_calls": row("ir.compile")[0] / n,
        "ir.compile_pct": pct("ir.compile"),
        "tape.compile_calls": row("tape.compile")[0] / n,
        "tape.hit_ratio": tape["hits"] / lookups if lookups else 0.0,
        "tape.compile_pct": pct("tape.compile"),
        "tape.resident_bytes": float(tape["resident_bytes"]),
        "batch.calls": batch_calls / n,
        "batch.jobs": counters.get("batch.jobs", 0.0) / n,
        "batch.jobs_per_call": (counters.get("batch.jobs", 0.0) / batch_calls
                                if batch_calls else 0.0),
        "batch.self_pct": pct("batch"),
        "columns.chunks": row("columns")[0] / n,
        "columns.points": counters.get("columns.points", 0.0) / n,
        "columns.self_pct": pct("columns"),
        "tune.space_pct": pct("tune.space"),
        "tune.pareto_pct": pct("tune.pareto"),
        "network.p2p_calls": row("network.p2p")[0] / n,
        "network.hops_calls": row("network.hops")[0] / n,
        "network.self_pct": pct("network.p2p", "network.hops",
                                "network.build"),
        "harness.experiments": sum(u.get("experiments", 0)
                                   for u in traced) / n,
        "harness.self_pct": pct("harness.experiment"),
        "harness.max_experiment_pct": 100.0 * statistics.mean(
            u.get("max_experiment_s", 0.0) / u["primary_s"] for u in traced),
        "des.lower_pct": pct("des.lower"),
        "des.events": counters.get("des.events", 0.0) / n,
        "des.engine_pct": (100.0 * counters.get("des.engine_s", 0.0)
                           / sharded_s if sharded_s else 0.0),
        "des.critical_pct": (100.0 * counters.get("des.critical_s", 0.0)
                             / sharded_s if sharded_s else 0.0),
        "des.sync_pct": (100.0 * (sharded_s
                                  - counters.get("des.critical_s", 0.0))
                         / sharded_s if sharded_s else 0.0),
        "des.windows": counters.get("des.windows", 0.0) / n,
        "des.cross_messages": counters.get("des.cross_messages", 0.0) / n,
        "other_pct": 100.0 * (wall - self_total) / wall,
        "trace.overhead_pct": 100.0 * (
            statistics.mean(u["wall_s"] for u in traced)
            / statistics.mean(u["wall_s"] for u in plain) - 1.0),
        "trace.accounting_error_pct": 100.0 * (
            statistics.median(result["accounting_ratios"]) - 1.0),
        "inputs.distinct_tapes": float(report.get("distinct_tapes", 0)),
    }
    priced = out["batch.jobs"] + out["columns.points"]
    tapes = out["inputs.distinct_tapes"]
    out["inputs.points_per_tape"] = report.get(
        "points_per_tape", priced / tapes if tapes else 0.0)
    return out


# -- service_mix ---------------------------------------------------------------


def _get_stats(port: int) -> dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _rebased(requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
    first = requests[0]["due"]
    return [{"due": r["due"] - first, "body": r["body"]} for r in requests]


def run_service(inputs: dict[str, Any], inputs_path: Path,
                trace: bool) -> dict[str, Any]:
    """Drive the server child through the warm-up, then through
    :data:`SERVICE_BLOCKS` blocks of each measured stage, taking the
    stages in turn, so every stage samples the whole run and not just
    its own slice of it.  In a traced run every second round of blocks
    is traced, so traced and untraced requests see the same phases of
    the host."""
    child = Child(inputs_path, "run", trace)
    measured = [s for s in inputs["stages"] if s["name"] != "warmup"]
    sent_by: dict[str, list[Any]] = {s["name"]: [] for s in measured}
    #: latency (s) of every request at nominal host speed; failed ones
    #: miss every limit
    nominal_by: dict[str, list[float]] = {s["name"]: [] for s in measured}
    wall_by = {s["name"]: 0.0 for s in measured}
    warmup: list[Any] = []
    traced_sent: list[Any] = []
    plain_sent: list[Any] = []
    traced_wall = 0.0
    batches = queries = 0
    try:
        message, *setup = child.ready()
        port = message["port"]
        for stage in inputs["stages"]:
            if stage["name"] == "warmup":
                warmup += loadgen.run_stage("127.0.0.1", port,
                                            stage["requests"])[0]
        for block in range(SERVICE_BLOCKS):
            traced = trace and block % 2 == 1
            if traced:
                before = _get_stats(port)
                child.send("trace on")
                child.event("trace_on")
            for stage in measured:
                requests = stage["requests"]
                size = -(-len(requests) // SERVICE_BLOCKS)
                part = requests[block * size:(block + 1) * size]
                if not part:
                    continue
                before_s = hostinfo.reference_s()
                got, took = loadgen.run_stage("127.0.0.1", port,
                                              _rebased(part))
                reference = (before_s + hostinfo.reference_s()) / 2
                nominal_by[stage["name"]] += [
                    hostinfo.at_nominal_speed(s.latency_s, reference)
                    if s.status == 200 else float("inf") for s in got]
                sent_by[stage["name"]] += got
                wall_by[stage["name"]] += took
                if traced:
                    traced_sent += got
                    traced_wall += took
                else:
                    plain_sent += got
            if traced:
                child.send("trace off")
                child.event("trace_off")
                after = _get_stats(port)
                batches += after["batches"] - before["batches"]
                queries += after["queries"] - before["queries"]
        sent_all = warmup + [s for name in sent_by for s in sent_by[name]]
        stages = {name: loadgen.summarize(sent_by[name], wall_by[name])
                  for name in sent_by}
        final_stats = _get_stats(port)
        child.send("quit")
        result = child.event("result")
    finally:
        code = child.close()
    if code != 0:
        raise RuntimeError(f"server exited with code {code}")
    result.update(setup_s=setup, stages=stages, sent=sent_all,
                  nominal_latency_s=nominal_by,
                  service_stats=final_stats)
    if trace:
        result["layers"] = service_layers(
            result["trace"], result["span_cost_s"], traced_sent, plain_sent,
            traced_wall, batches, queries, final_stats)
    return result


def service_layers(trace: dict[str, Any], span_cost_s: float,
                   traced: list[Any], plain: list[Any], wall: float,
                   batches: int, queries: int,
                   stats: dict[str, Any]) -> dict[str, float]:
    """Per-request decomposition of the client round trip (shares of the
    mean round trip) plus layer busy shares of the traced wall.  The
    decomposition sums to the traced round trip by construction;
    ``trace.accounting_error_pct`` compares that round trip, less the
    cost of its spans, with the untraced round trip of the same run."""
    layers = trace["layers"]
    counters = trace["counters"]

    def mean(name: str) -> float:
        row = layers.get(name, [0, 0.0, 0.0])
        return row[1] / row[0] if row[0] else 0.0

    def busy(*names: str) -> float:
        return 100.0 * sum(layers.get(n, [0, 0.0, 0.0])[2]
                           for n in names) / wall

    ok = [s.round_trip_s for s in traced if s.status == 200]
    base = [s.round_trip_s for s in plain if s.status == 200]
    round_trip = statistics.mean(ok)
    handle = mean("service.handle")
    submit = mean("service.submit")
    jobs = counters.get("batch.jobs", 0.0)
    batch_job = counters.get("batch.job_s", 0.0) / jobs if jobs else 0.0
    encode = mean("service.encode")
    parse = mean("service.parse")
    def calls(name: str) -> float:
        return float(layers.get(name, [0])[0])

    tape = stats["tape_cache"]
    lookups = (tape["hits"] or 0) + (tape["misses"] or 0)
    spans = sum(row[0] for row in layers.values())
    return {
        "ir.compile_calls": calls("ir.compile"),
        "ir.compile_pct": busy("ir.compile"),
        "tape.compile_calls": calls("tape.compile"),
        "tape.hit_ratio": (tape["hits"] or 0) / lookups if lookups else 0.0,
        "tape.compile_pct": busy("tape.compile"),
        "tape.resident_bytes": float(tape["resident_bytes"] or 0),
        "batch.calls": calls("batch"),
        "batch.jobs": jobs,
        "batch.jobs_per_call": jobs / calls("batch") if calls("batch")
        else 0.0,
        "batch.self_pct": busy("batch"),
        "network.p2p_calls": calls("network.p2p"),
        "network.hops_calls": calls("network.hops"),
        "network.self_pct": busy("network.p2p", "network.hops",
                                 "network.build"),
        "service.transport_pct": 100.0 * (round_trip - handle) / round_trip,
        "service.admission_wait_pct": 100.0 * (submit - batch_job)
        / round_trip,
        "service.batch_pct": 100.0 * batch_job / round_trip,
        "service.encode_pct": 100.0 * encode / round_trip,
        "service.batches": float(batches),
        "service.jobs_per_batch": queries / batches if batches else 0.0,
        "other_pct": 100.0 * (handle - parse - submit - encode) / round_trip,
        "trace.overhead_pct": 100.0 * (round_trip / statistics.mean(base)
                                       - 1.0),
        "trace.accounting_error_pct": 100.0 * (
            (round_trip - spans / len(traced) * span_cost_s)
            / statistics.mean(base) - 1.0),
    }


def service_checks(inputs: dict[str, Any],
                   sent: list[Any]) -> tuple[int, int]:
    """Every request must succeed; a seeded sample of served bodies must
    be bit-exact against direct ``run_batch``."""
    from repro.service.core import CapacityService, ServiceConfig

    reference = CapacityService(ServiceConfig(quota_rate=1e9,
                                              quota_burst=1e9))
    try:
        checked, mismatched = checks.served_bodies(
            sent, reference, sample=inputs["check_limit"],
            seed=inputs["check_seed"])
    finally:
        reference.close()
    return (len(sent) + checked,
            sum(s.status != 200 for s in sent) + mismatched)


# -- the verdict ---------------------------------------------------------------


def verdict(attempted: int, failed: int,
            metrics: dict[str, float],
            names: tuple[tuple[str, str], ...]) -> dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names},
    }


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """One benchmark run; returns ``(report, verdict)``."""
    inputs = make.make_inputs(workload, seed, seconds)
    OUT_DIR.mkdir(exist_ok=True)
    inputs_path = OUT_DIR / f"inputs-{workload}-{os.getpid()}.json"
    inputs_path.write_text(make.canonical(inputs))
    try:
        if workload == "service_mix":
            setups = [time_setup(inputs_path) for _ in range(SETUP_PROBES)]
            result = run_service(inputs, inputs_path, trace)
            setups.append(result["setup_s"])
        else:
            result = run_batch(inputs_path, trace, seconds)
            setups = result["setups"]
    finally:
        inputs_path.unlink(missing_ok=True)
    metrics: dict[str, float] = {
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if workload == "service_mix":
        attempted, failed = service_checks(inputs, result["sent"])
        low, high = result["stages"]["low"], result["stages"]["high"]
        nominal = result["nominal_latency_s"]
        metrics["primary_ms"] = loadgen.percentile(nominal["low"], 50) * 1e3
        metrics["secondary_ms"] = loadgen.percentile(nominal["high"],
                                                     50) * 1e3
        figures = {
            "svc_p50_ms_low": low["p50_ms"], "svc_p99_ms_low": low["p99_ms"],
            "svc_p50_ms_high": high["p50_ms"],
            "svc_p99_ms_high": high["p99_ms"],
            "stages": result["stages"],
            "client_threads": loadgen.client_threads(),
        }
        properties = make.service_properties(inputs["stages"])
        layers = result.get("layers", {})
        layers["service.late_sends_pct"] = 100.0 * statistics.mean(
            s.late_s > loadgen.LATE_THRESHOLD_S for s in result["sent"])
        layers["inputs.repeat_pct"] = 100.0 * properties["repeat_share"]
        layers["inputs.distinct_tapes"] = float(properties["distinct_tapes"])
        layers["inputs.points_per_tape"] = properties["points_per_tape"]
    else:
        attempted, failed = result["attempted"], result["failed"]
        figures = batch_figures(workload, result)
        metrics["primary_ms"] = figures["primary_s"] * 1e3
        metrics["secondary_ms"] = figures["secondary_s"] * 1e3
        properties = dict(result["report"])
        layers = batch_layers(result) if trace else {}
    if trace:
        checked, wrong = checks.trace_accounting(
            layers["trace.accounting_error_pct"], ACCOUNTING_TOLERANCE)
        attempted += checked
        failed += wrong
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(layers)
        answer = verdict(attempted, failed, values, PER_LAYER)
    else:
        answer = verdict(attempted, failed, metrics, END_TO_END)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": hostinfo.host_metadata(ROOT),
        "input_properties": properties, "figures": figures,
        "end_to_end": metrics,
        "setup_samples_s": [nominal for _, nominal in setups],
        "setup_wall_samples_s": [wall for wall, _ in setups],
        "failed_share": failed / attempted if attempted else 0.0,
        "spans_file": result.get("spans_file"),
    }
    if trace:
        # absolute self seconds (uncompensated) per traced unit; for
        # service_mix, totals over the traced halves of the stages
        n = sum(u["traced"] for u in result.get("units", [])) or 1
        report["layer_self_s"] = {
            name: row[2] / n
            for name, row in sorted(result["trace"]["layers"].items())}
    return report, answer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=make.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test (src/repro) is missing "
              f"from {ROOT}", file=sys.stderr)
        return 2
    report, answer = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
