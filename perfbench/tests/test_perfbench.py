"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import (checks, hostinfo, inputs, loadgen, run,  # noqa: E402
                       tracing)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeds -------------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_gives_byte_identical_inputs(workload: str) -> None:
    first = inputs.canonical(inputs.make_inputs(workload, 7, 16))
    again = inputs.canonical(inputs.make_inputs(workload, 7, 16))
    other = inputs.canonical(inputs.make_inputs(workload, 8, 16))
    assert first == again
    assert first != other


def test_service_schedule_shape() -> None:
    stages = inputs.make_inputs("service_mix", 3, 16)["stages"]
    assert [s["name"] for s in stages] == ["warmup", "low", "high"]
    for stage in stages[1:]:
        dues = [r["due"] for r in stage["requests"]]
        assert len(dues) >= inputs.SERVICE_MIN_SAMPLES
        assert dues == sorted(dues)
    props = inputs.service_properties(stages)
    assert 0.3 < props["repeat_share"] < 0.7


def test_tune_point_count_does_not_depend_on_seed() -> None:
    specs = [inputs.make_inputs("tune_sweep", seed, 16)["spec"]
             for seed in (1, 2)]
    assert specs[0]["scenario_spread"] != specs[1]["scenario_spread"]
    assert specs[0]["scenarios"] == specs[1]["scenarios"]


# -- output checks -----------------------------------------------------------


def _suite_payloads() -> tuple[list[dict], list[str]]:
    import repro.harness  # noqa: F401
    from repro.harness.experiment import list_experiments
    from repro.harness.parallel import run_experiments

    order = sorted(list_experiments())[:2]
    return run_experiments(order, jobs=1), order


def test_corrupted_expectation_counts_as_failed() -> None:
    payloads, order = _suite_payloads()
    attempted, failed = checks.suite_pass(payloads, order)
    assert attempted > 0 and failed == 0
    broken = json.loads(json.dumps(payloads))
    broken[0]["result"]["expectations"][0]["holds"] = False
    assert checks.suite_pass(broken, order) == (attempted, 1)
    assert checks.suite_pass(payloads, order[::-1])[1] == 1


def test_changed_repeat_counts_as_failed() -> None:
    assert checks.same_outputs(["a", "a", "a"]) == (3, 0)
    assert checks.same_outputs(["a", "b", "a"]) == (3, 1)


def test_sharded_mismatch_counts_as_failed() -> None:
    single = {"elapsed": 1.0, "events": 10}
    assert checks.sharded_matches(single, dict(single)) == (1, 0)
    assert checks.sharded_matches(single, {"elapsed": 1.0,
                                           "events": 11}) == (1, 1)


def test_corrupted_frontier_point_counts_as_failed() -> None:
    from repro.tune import TuneSpec, tune

    spec = TuneSpec("nemo", "cte-arm", 16, scenarios=1)
    result = tune(spec, workers=0)
    size = sum(len(p) for p in result.frontiers.values())
    assert checks.reprice_frontier(result, spec, sample=size,
                                   seed=0) == (size, 0)
    name = sorted(result.frontiers)[0]
    points = list(result.frontiers[name])
    points[0] = dataclasses.replace(points[0],
                                    time_s=points[0].time_s * (1 + 1e-15))
    broken = dataclasses.replace(
        result, frontiers={**result.frontiers, name: tuple(points)})
    attempted, failed = checks.reprice_frontier(broken, spec, sample=size,
                                                seed=0)
    assert attempted == size and failed == 1


def test_corrupted_response_body_counts_as_failed() -> None:
    from repro.service.core import CapacityService, ServiceConfig

    run_inputs = {"check_seed": 1, "check_limit": 50}
    bodies = [r["body"] for r in inputs.make_inputs(
        "service_mix", 4, 16)["stages"][0]["requests"][:6]]
    service = CapacityService(ServiceConfig(quota_rate=1e9, quota_burst=1e9))
    try:
        sent = []
        for i, body in enumerate(bodies):
            status, response = service.handle(body)
            sent.append(loadgen.Sent(i, body, status, 0.001, 0.0, 0.001,
                                     response))
    finally:
        service.close()
    assert run.service_checks(run_inputs, sent) == (12, 0)
    sent[2].response = dict(sent[2].response,
                            elapsed_seconds=sent[2].response[
                                "elapsed_seconds"] * 2)
    assert run.service_checks(run_inputs, sent) == (12, 1)
    sent[3].status = 503
    assert run.service_checks(run_inputs, sent)[1] == 2


def test_trace_accounting_miss_counts_as_failed() -> None:
    assert checks.trace_accounting(-4.0, 0.25) == (1, 0)
    assert checks.trace_accounting(26.0, 0.25) == (1, 1)


# -- measuring ---------------------------------------------------------------


def test_unit_times_scale_to_reference_speed() -> None:
    nominal = hostinfo.REFERENCE_NOMINAL_S
    units = [{"primary_s": 2.0, "primary_ref_s": 2 * nominal},
             {"primary_s": 1.0, "primary_ref_s": nominal},
             {"primary_s": 1.5, "primary_ref_s": 3 * nominal}]
    assert run.median_at_nominal_speed(units, "primary") == pytest.approx(1.0)


# -- names -------------------------------------------------------------------


def test_printed_names_match_benchmark_json() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in SPEC[key]] == list(names)
        values = {name: 1.0 for name, _ in names}
        printed = run.verdict(3, 0, values, names)
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert list(printed["metrics"]) == [name for name, _ in names]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


# -- tracing -----------------------------------------------------------------


def test_tracer_restores_originals_and_accounts_self_time() -> None:
    import repro.ir.batch as batch
    import repro.tune.engine as engine
    from repro.network.model import NetworkModel

    original = batch.compile_tape
    method = NetworkModel.__dict__["p2p_time"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.compile_tape is not original
        payloads, _ = _suite_payloads()
        assert payloads
    finally:
        tracer.uninstall()
    assert batch.compile_tape is original
    assert engine.compile_tape is original
    assert NetworkModel.__dict__["p2p_time"] is method
    snap = tracer.snapshot()
    for calls, inclusive, own in snap["layers"].values():
        assert calls > 0 and 0.0 <= own <= inclusive + 1e-9
    top = snap["layers"]["harness.experiment"]
    total_self = sum(row[2] for row in snap["layers"].values())
    assert total_self == pytest.approx(top[1], rel=1e-6)


def test_des_counters_come_from_the_sharded_run_only() -> None:
    tracer = tracing.Tracer()

    def stats(n_shards: int) -> SimpleNamespace:
        return SimpleNamespace(n_shards=n_shards, events=10, windows=3,
                               cross_messages=4,
                               shard_wall_s={0: 0.5, 1: 0.25})

    tracer._observe("des.run_sharded", (), (None, stats(1)), 0.9)
    assert tracer.counters == {}
    tracer._observe("des.run_sharded", (), (None, stats(2)), 0.6)
    assert tracer.counters == {
        "des.sharded_wall_s": 0.6, "des.events": 10, "des.windows": 3,
        "des.cross_messages": 4, "des.engine_s": 0.75, "des.critical_s": 0.5}
