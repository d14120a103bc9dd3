"""Seeded inputs of the four benchmark workloads.

Everything a workload's program sees is generated here from the seed and
written to a JSON file; the program never sees the seed itself.  The same
``(workload, seed, seconds)`` always yields byte-identical inputs (see
:func:`canonical`), which the benchmark's tests pin.
"""

from __future__ import annotations

import json
import random
from typing import Any

WORKLOADS = ("paper_suite", "tune_sweep", "service_mix", "des_nemo768")

#: tune_sweep draws ``scenario_spread`` uniformly from this range; the
#: point count depends only on ``scenarios``, so it stays 1,105,920.
TUNE_SPREAD_RANGE = (0.10, 0.20)

#: service_mix: arrival rates (requests/s) of the warm-up, low and high
#: stages, and the minimum sample count of each measured stage.
SERVICE_WARMUP = (1.0, 100.0)    # (seconds, rate)
SERVICE_LOW_HZ = 100.0
SERVICE_HIGH_HZ = 150.0
SERVICE_MIN_SAMPLES = 1000

#: node counts a fresh service query may move to (every shape in
#: ``DEFAULT_SCENARIOS`` prices at all of them; nemo needs >= 8 nodes).
SERVICE_NODE_CHOICES = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64)
SERVICE_MIN_NODES = {"nemo": 8}
#: what-if knobs a fresh query perturbs, and the factor range drawn.
SERVICE_FRESH_KEYS = ("comm_scale", "bandwidth_scale", "rate_scale")
SERVICE_FRESH_RANGE = (0.5, 2.0)
#: share of service queries that carry fresh overrides or node counts.
SERVICE_FRESH_SHARE = 0.5
SERVICE_CLIENTS = 4


def canonical(inputs: dict[str, Any]) -> str:
    """The byte form the program receives."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))


def make_inputs(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """Inputs of one run of ``workload`` (``seconds`` sizes the service
    stages; the batch workloads are timed by the caller)."""
    rng = random.Random(f"{workload}:{seed}")
    base: dict[str, Any] = {"workload": workload}
    if workload == "paper_suite":
        from repro.harness.experiment import list_experiments
        import repro.harness  # noqa: F401  (populates the registry)

        order = sorted(list_experiments())
        rng.shuffle(order)
        base["experiments"] = order
    elif workload == "tune_sweep":
        lo, hi = TUNE_SPREAD_RANGE
        base["spec"] = {"app": "nemo", "cluster": "cte-arm", "n_nodes": 16,
                        "scenarios": 16,
                        "scenario_spread": round(rng.uniform(lo, hi), 6)}
        base["check_points"] = 32
        base["check_seed"] = rng.randrange(1 << 30)
    elif workload == "des_nemo768":
        # one fixed program; the seed orders single/sharded runs per pair
        base["program"] = {"app": "nemo", "cluster": "cte-arm",
                           "n_nodes": 16, "steps": 1}
        base["sharded"] = {"n_shards": 2, "workers": 2}
        base["order_bits"] = [rng.randrange(2) for _ in range(64)]
    elif workload == "service_mix":
        base["stages"] = service_stages(rng, seconds)
        base["check_seed"] = rng.randrange(1 << 30)
        base["check_limit"] = 200
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    return base


def service_stages(rng: random.Random,
                   seconds: float) -> list[dict[str, Any]]:
    """Warm-up, low and high stages of seeded open-loop Poisson arrivals.

    The measured time left after the warm-up is split between the low
    and high stages in proportion to the time each needs for
    :data:`SERVICE_MIN_SAMPLES` arrivals; neither gets fewer.
    """
    from repro.service.traffic import DEFAULT_SCENARIOS

    warm_s, warm_hz = SERVICE_WARMUP
    need_low = SERVICE_MIN_SAMPLES / SERVICE_LOW_HZ
    need_high = SERVICE_MIN_SAMPLES / SERVICE_HIGH_HZ
    spare = max(0.0, seconds - warm_s - need_low - need_high)
    low_s = need_low + spare * need_low / (need_low + need_high)
    high_s = need_high + spare * need_high / (need_low + need_high)
    weights = [s.weight for s in DEFAULT_SCENARIOS]
    stages = []
    for name, duration, rate in (("warmup", warm_s, warm_hz),
                                 ("low", low_s, SERVICE_LOW_HZ),
                                 ("high", high_s, SERVICE_HIGH_HZ)):
        count = round(duration * rate)
        if name != "warmup":
            count = max(SERVICE_MIN_SAMPLES, count)
        t = 0.0
        requests = []
        for _ in range(count):
            t += rng.expovariate(rate)
            shape = rng.choices(DEFAULT_SCENARIOS, weights)[0]
            body = shape.query(f"client-{rng.randrange(SERVICE_CLIENTS)}") \
                .to_request()
            if rng.random() < SERVICE_FRESH_SHARE:
                body = _fresh(rng, body)
            requests.append({"due": round(t, 6), "body": body})
        stages.append({"name": name, "rate_hz": rate, "requests": requests})
    return stages


def _fresh(rng: random.Random, body: dict[str, Any]) -> dict[str, Any]:
    """A what-if variant of ``body`` that misses the result memo."""
    out = dict(body)
    overrides = dict(out["overrides"])
    lo, hi = SERVICE_FRESH_RANGE
    overrides[rng.choice(SERVICE_FRESH_KEYS)] = round(rng.uniform(lo, hi), 9)
    out["overrides"] = overrides
    if rng.random() < 0.3:
        floor = SERVICE_MIN_NODES.get(out["workload"], 1)
        out["n_nodes"] = rng.choice(
            [n for n in SERVICE_NODE_CHOICES if n >= floor])
    return out


def request_key(body: dict[str, Any]) -> str:
    """Identity of a priced question (the client does not change the
    answer, so it is not part of the key)."""
    return canonical({k: v for k, v in body.items() if k != "client"})


def service_properties(stages: list[dict[str, Any]]) -> dict[str, Any]:
    """Input properties a cache-dependent change can quote: the share of
    requests that repeat an earlier request, and how many distinct tape
    structures (workload, cluster, node count) the requests need."""
    seen: set[str] = set()
    tapes: set[tuple[str, str, int]] = set()
    total = repeats = 0
    for stage in stages:
        for request in stage["requests"]:
            body = request["body"]
            key = request_key(body)
            total += 1
            repeats += key in seen
            seen.add(key)
            tapes.add((body["workload"], body["cluster"], body["n_nodes"]))
    return {
        "requests": total,
        "repeat_share": repeats / total if total else 0.0,
        "distinct_tapes": len(tapes),
        "points_per_tape": total / len(tapes) if tapes else 0.0,
    }
