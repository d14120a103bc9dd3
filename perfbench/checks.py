"""Output checks of the benchmark workloads.

Each check returns ``(attempted, failed)``: the number of outputs it
examined and how many were wrong.  A failed, refused or wrong operation
counts once against the run's ``failed`` total, so ``failed / attempted``
is the run's failed share.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable


def digest(obj: Any) -> str:
    """Stable content hash of a JSON-shaped object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def suite_pass(payloads: list[dict[str, Any]],
               order: list[str]) -> tuple[int, int]:
    """One pass of the paper suite: payloads come back in input order and
    every paper expectation holds.  Attempted = expectations checked."""
    attempted = failed = 0
    if [p.get("experiment") for p in payloads] != order:
        return 1, 1
    for payload in payloads:
        for expectation in payload["result"]["expectations"]:
            attempted += 1
            failed += expectation.get("holds") is not True
    return attempted, failed


def same_outputs(digests: Iterable[str]) -> tuple[int, int]:
    """Repeated units of one run must produce identical outputs: each
    repeat that differs from the first counts as failed."""
    items = list(digests)
    if not items:
        return 0, 0
    first = items[0]
    return len(items), sum(d != first for d in items)


def frontier_digest(result: Any) -> str:
    """Identity of a tune result's frontiers (every point, every field)."""
    from dataclasses import asdict

    return digest({
        "frontiers": {name: [asdict(p) for p in points]
                      for name, points in result.frontiers.items()},
        "union": [asdict(p) for p in result.frontier],
        "n_points": result.n_points,
    })


def reprice_frontier(result: Any, spec: Any, *, sample: int,
                     seed: int) -> tuple[int, int]:
    """Re-price a seeded sample of frontier points one by one through
    chunk-serial ``run_batch`` and require bit-identical times."""
    import random

    from repro.apps import get_app
    from repro.ir.batch import BatchJob, shared_batch_backend
    from repro.tune import build_space
    from repro.tune.engine import decode_point
    from repro.verify.runner import resolve_cluster

    cluster = resolve_cluster(spec.cluster, spec.n_nodes)
    app = get_app(spec.app)
    space = build_space(app, cluster, spec.n_nodes, scenarios=spec.scenarios,
                        scenario_spread=spec.scenario_spread,
                        pricing=spec.pricing)
    steps = app.steps_per_run if spec.steps is None else spec.steps
    points = sorted({p.point_id: p for name in sorted(result.frontiers)
                     for p in result.frontiers[name]}.items())
    rng = random.Random(seed)
    chosen = rng.sample(points, min(sample, len(points)))
    flag_rate = {f.name: f.rate_scale for f in space.flags}
    policy_index = {p.value: i for i, p in enumerate(space.policies)}
    backend = shared_batch_backend()
    failed = 0
    for point_id, point in chosen:
        info = decode_point(space, point_id)
        template = space.templates[info["template_index"]]
        page = template.page_factors[policy_index[info["page_policy"]]]
        job = BatchJob(
            app.program(template.mapping), cluster, spec.n_nodes,
            mapping=template.mapping, binary=template.binary,
            check_memory=False, pricing=info["pricing"],
            overrides={"rate_scale": flag_rate[info["flags"]],
                       "comm_scale": info["comm_scale"],
                       "bandwidth_scale": page * info["bandwidth_jitter"]})
        direct = backend.run_batch([job])[0]
        failed += direct.elapsed * steps != point.time_s
    return len(chosen), failed


def sharded_matches(single: dict[str, Any],
                    sharded: dict[str, Any]) -> tuple[int, int]:
    """A sharded DES run must equal the single-engine run: same virtual
    elapsed time and the same event count."""
    same = (single["elapsed"] == sharded["elapsed"]
            and single["events"] == sharded["events"])
    return 1, 0 if same else 1


def served_bodies(sent: list[Any], reference: Any, *, sample: int,
                  seed: int) -> tuple[int, int]:
    """A seeded sample of the served 200 bodies must be bit-exact against
    direct ``run_batch`` (the service's own audit,
    :func:`~repro.service.traffic.verify_bit_exactness`)."""
    import random

    from repro.service.traffic import (
        Arrival,
        Scenario,
        _Sample,
        verify_bit_exactness,
    )

    ok = [s for s in sent if s.status == 200 and s.response is not None]
    chosen = sorted(random.Random(seed).sample(range(len(ok)),
                                               min(sample, len(ok))))
    samples = []
    for i in chosen:
        body = ok[i].body
        scenario = Scenario(
            "sampled", body["workload"], body["cluster"], body["n_nodes"],
            body["steps"], tuple(sorted(body["overrides"].items())))
        samples.append(_Sample(Arrival(ok[i].index, 0.0, scenario,
                                       body["client"]),
                               ok[i].status, ok[i].latency_s,
                               ok[i].response))
    audit = verify_bit_exactness(samples, reference, limit=len(samples))
    return audit["checked"], audit["mismatches"]


def trace_accounting(error_pct: float, tolerance: float) -> tuple[int, int]:
    """A traced run's compensated wall (self times plus ``other``) must
    match the untraced wall within ``tolerance`` (a share)."""
    return 1, int(abs(error_pct) > 100 * tolerance)
