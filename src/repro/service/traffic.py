"""Synthetic traffic harness: seeded open-loop load for the service.

Locust-style **open-loop** discipline: arrivals fire at schedule times
drawn from a seeded non-homogeneous Poisson process, *regardless* of
whether earlier requests completed — so offered load is controlled by
the schedule, not by service latency (closed-loop generators hide
saturation by self-throttling).

* :func:`arrival_schedule` — deterministic: same seed, byte-identical
  schedule.  Arrival times come from inverse-transform sampling of the
  integrated rate (piecewise-constant stages, so constant rates, step
  ramps and stress ramps are all just stage lists); unit-exponential
  increments are drawn from one child stream and scenario/client
  assignments from two others, so scaling the rate preserves the i-th
  arrival's scenario (and offered load is provably monotone in the rate:
  ``t_i = Λ⁻¹(Sᵢ/scale)`` shrinks as ``scale`` grows).
* :func:`run_loadtest` — drives a :class:`~repro.service.CapacityService`
  in-process or over HTTP, one open-loop dispatcher + worker pool,
  and reports p50/p99 latency, throughput, and error rate.
* :func:`virtual_report` — the same reporter over a *simulated* batch
  server (deterministic service times), used by the property suite:
  same seed ⇒ byte-identical report.
* :func:`find_saturation` — sweeps constant-rate stages and returns the
  measured saturation point: the lowest offered rate whose achieved
  throughput drops below ``threshold`` × offered (p99 reported per
  stage).  :func:`loadtest_bench` packages all of it as the
  ``BENCH_service.json`` payload behind ``repro-lab loadtest``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.service.core import CapacityService, Query, encode_result
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng

__all__ = [
    "Arrival",
    "DEFAULT_SCENARIOS",
    "Report",
    "Scenario",
    "TrafficConfig",
    "arrival_schedule",
    "find_saturation",
    "loadtest_bench",
    "ramp_stages",
    "run_loadtest",
    "schedule_digest",
    "virtual_report",
]


@dataclass(frozen=True)
class Scenario:
    """One query shape in the traffic mix."""

    name: str
    workload: str
    cluster: str = "cte-arm"
    n_nodes: int = 1
    steps: int = 1
    overrides: tuple[tuple[str, float], ...] = ()
    weight: float = 1.0

    def query(self, client: str) -> Query:
        return Query(workload=self.workload, cluster=self.cluster,
                     n_nodes=self.n_nodes, steps=self.steps,
                     overrides=self.overrides, client=client)


#: the stock mix: cheap bench lookups dominate, app pricings (including a
#: what-if override, the compiler/flag-search query shape) ride along.
DEFAULT_SCENARIOS: tuple[Scenario, ...] = (
    Scenario("stream-node", "stream", "cte-arm", 1, weight=3.0),
    Scenario("hpcg-8", "hpcg", "cte-arm", 8, weight=2.0),
    Scenario("linpack-mn4-16", "linpack", "mn4", 16, weight=1.0),
    Scenario("nemo-16-degraded", "nemo", "cte-arm", 16,
             overrides=(("comm_scale", 1.25),), weight=1.0),
    Scenario("gromacs-8", "gromacs", "cte-arm", 8, weight=2.0),
    Scenario("wrf-4", "wrf", "cte-arm", 4, weight=1.0),
)


@dataclass(frozen=True)
class TrafficConfig:
    """A reproducible open-loop load shape.

    ``stages`` is a tuple of ``(duration_seconds, rate_hz)`` — constant
    load is one stage, a step ramp is several (see :func:`ramp_stages`).
    """

    stages: tuple[tuple[float, float], ...] = ((2.0, 100.0),)
    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS
    n_clients: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("traffic needs at least one stage")
        for duration, rate in self.stages:
            if duration <= 0 or rate < 0:
                raise ConfigurationError(
                    "stage durations must be positive and rates >= 0")
        if not self.scenarios:
            raise ConfigurationError("traffic needs at least one scenario")
        if any(s.weight <= 0 for s in self.scenarios):
            raise ConfigurationError("scenario weights must be positive")
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be >= 1")

    @property
    def duration_s(self) -> float:
        return sum(d for d, _ in self.stages)


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: fire scenario as client at time ``t``."""

    index: int
    t: float
    scenario: Scenario
    client: str


def ramp_stages(start_hz: float, stop_hz: float, n_stages: int,
                total_duration_s: float) -> tuple[tuple[float, float], ...]:
    """A linear step ramp from ``start_hz`` to ``stop_hz``."""
    if n_stages < 1:
        raise ConfigurationError("ramp needs at least one stage")
    span = (stop_hz - start_hz) / max(1, n_stages - 1)
    return tuple(
        (total_duration_s / n_stages, start_hz + i * span)
        for i in range(n_stages)
    )


def _invert_hazard(stages: tuple[tuple[float, float], ...],
                   target: float) -> float | None:
    """Time ``t`` with integrated rate ``Λ(t) == target``, or None when
    the whole schedule accumulates less hazard than ``target``."""
    t0 = 0.0
    accumulated = 0.0
    for duration, rate in stages:
        gained = duration * rate
        if accumulated + gained >= target and rate > 0:
            return t0 + (target - accumulated) / rate
        accumulated += gained
        t0 += duration
    return None


def arrival_schedule(config: TrafficConfig, *,
                     rate_scale: float = 1.0) -> list[Arrival]:
    """The deterministic open-loop schedule for ``config``.

    ``rate_scale`` multiplies every stage rate without re-drawing the
    randomness: the i-th arrival keeps its scenario and client, only its
    time moves — the seam the monotonicity property pins.
    """
    if rate_scale <= 0:
        raise ConfigurationError("rate_scale must be positive")
    rng_gaps = make_rng(config.seed, "service-traffic", "gaps")
    rng_mix = make_rng(config.seed, "service-traffic", "mix")
    rng_clients = make_rng(config.seed, "service-traffic", "clients")
    weights = [s.weight for s in config.scenarios]
    total_weight = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total_weight
        cumulative.append(acc)

    out: list[Arrival] = []
    hazard = 0.0
    while True:
        hazard += float(rng_gaps.exponential(1.0))
        t = _invert_hazard(config.stages, hazard / rate_scale)
        if t is None:
            break
        u = float(rng_mix.random())
        chosen = config.scenarios[-1]
        for scenario, edge in zip(config.scenarios, cumulative):
            if u <= edge:
                chosen = scenario
                break
        client = f"client-{int(rng_clients.integers(config.n_clients))}"
        out.append(Arrival(index=len(out), t=t, scenario=chosen,
                           client=client))
    return out


def schedule_digest(schedule: list[Arrival]) -> str:
    """Canonical JSON of a schedule (byte-identity comparisons)."""
    return json.dumps(
        [
            {
                "index": a.index,
                "t": a.t,
                "scenario": a.scenario.name,
                "workload": a.scenario.workload,
                "cluster": a.scenario.cluster,
                "n_nodes": a.scenario.n_nodes,
                "overrides": dict(a.scenario.overrides),
                "client": a.client,
            }
            for a in schedule
        ],
        sort_keys=True,
    )


# -- reporting ----------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 100)  # ceil(q/100 * n)
    rank = min(len(sorted_values), max(1, int(rank)))
    return sorted_values[rank - 1]


@dataclass
class _Sample:
    """Outcome of one dispatched arrival."""

    arrival: Arrival
    status: int
    latency_s: float
    body: dict[str, Any] | None = None


@dataclass
class Report:
    """Latency/throughput digest of one loadtest run."""

    offered: int
    completed: int
    rejected: int
    errors: int
    duration_s: float
    throughput_rps: float
    error_rate: float
    latency_ms: dict[str, float]
    per_scenario: dict[str, int]
    per_status: dict[str, int]
    saturation: dict[str, Any] | None = None
    mode: str = "in-process"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "duration_seconds": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "error_rate": self.error_rate,
            "latency_ms": dict(sorted(self.latency_ms.items())),
            "per_scenario": dict(sorted(self.per_scenario.items())),
            "per_status": dict(sorted(self.per_status.items())),
            "mode": self.mode,
        }
        if self.saturation is not None:
            out["saturation"] = self.saturation
        return out


def _build_report(samples: list[_Sample], duration_s: float,
                  mode: str) -> Report:
    completed = [s for s in samples if s.status == 200]
    rejected = [s for s in samples if s.status == 429]
    errors = [s for s in samples
              if s.status != 200 and s.status != 429]
    latencies = sorted(s.latency_s for s in completed)
    per_scenario: dict[str, int] = {}
    per_status: dict[str, int] = {}
    for s in samples:
        per_scenario[s.arrival.scenario.name] = (
            per_scenario.get(s.arrival.scenario.name, 0) + 1)
        per_status[str(s.status)] = per_status.get(str(s.status), 0) + 1
    span = max(duration_s, 1e-9)
    return Report(
        offered=len(samples),
        completed=len(completed),
        rejected=len(rejected),
        errors=len(errors),
        duration_s=duration_s,
        throughput_rps=len(completed) / span,
        error_rate=(len(errors) + len(rejected)) / max(1, len(samples)),
        latency_ms={
            "p50": _percentile(latencies, 50) * 1e3,
            "p90": _percentile(latencies, 90) * 1e3,
            "p99": _percentile(latencies, 99) * 1e3,
            "mean": (sum(latencies) / len(latencies) * 1e3
                     if latencies else 0.0),
            "max": latencies[-1] * 1e3 if latencies else 0.0,
        },
        per_scenario=per_scenario,
        per_status=per_status,
        mode=mode,
    )


# -- virtual (deterministic) execution ----------------------------------------


def virtual_report(config: TrafficConfig, *,
                   per_item_s: float = 5e-4, batch_overhead_s: float = 1e-3,
                   max_batch: int = 64,
                   rate_scale: float = 1.0) -> Report:
    """Deterministic replay of the schedule through a simulated batch
    server (FIFO, linear batch cost; like the service's batcher, a pass
    starts once the server is free and takes every queued arrival).  A pure
    function of ``(config, parameters)`` — same seed, byte-identical
    report — used for capacity planning and the property suite; wall
    measurements come from :func:`run_loadtest`.
    """
    schedule = arrival_schedule(config, rate_scale=rate_scale)
    samples: list[_Sample] = []
    next_free = 0.0
    i = 0
    makespan = config.duration_s
    while i < len(schedule):
        first = schedule[i]
        start = max(next_free, first.t)
        batch = [a for a in schedule[i:i + max_batch] if a.t <= start]
        finish = start + batch_overhead_s + per_item_s * len(batch)
        for arrival in batch:
            samples.append(_Sample(arrival, 200, finish - arrival.t))
        makespan = max(makespan, finish)
        next_free = finish
        i += len(batch)
    return _build_report(samples, makespan, "virtual")


# -- real execution -----------------------------------------------------------


def _http_dispatch(url: str, query: Query,
                   retries: int = 2) -> tuple[int, dict[str, Any]]:
    import urllib.error
    import urllib.request

    data = json.dumps(query.to_request()).encode()
    request = urllib.request.Request(
        f"{url}/v1/price", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    # Transport-level failures (connection reset/refused while the
    # ThreadingHTTPServer churns through its accept queue) are retried:
    # /v1/price is a pure function of the request body, so a resend
    # cannot double-count anything, and a vanished sample would otherwise
    # abort the whole open-loop run.
    for attempt in range(retries + 1):
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read())
            except ValueError:
                body = {"error": str(exc), "status": exc.code}
            return exc.code, body
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            if attempt == retries:
                raise
            time.sleep(0.05 * (attempt + 1))
    raise AssertionError("unreachable")


def run_loadtest(config: TrafficConfig, *,
                 service: CapacityService | None = None,
                 url: str | None = None,
                 time_compression: float = 1.0,
                 keep_bodies: bool = False,
                 max_workers: int = 32) -> tuple[Report, list[_Sample]]:
    """Fire the schedule open-loop against a live service.

    Target is either an in-process :class:`CapacityService` (default: a
    fresh one) or a base ``url`` of a running HTTP server.
    ``time_compression > 1`` divides every arrival gap (the schedule
    stays the quota clock, so admission decisions are unchanged).
    Returns ``(report, samples)``; samples carry response bodies when
    ``keep_bodies`` so callers can check bit-exactness.
    """
    from concurrent.futures import ThreadPoolExecutor

    if url is not None and service is not None:
        raise ConfigurationError("pass a service or a url, not both")
    owned: CapacityService | None = None
    if url is None and service is None:
        service = owned = CapacityService()
    schedule = arrival_schedule(config)
    samples: list[_Sample | None] = [None] * len(schedule)
    lock = threading.Lock()

    def dispatch(arrival: Arrival) -> None:
        query = arrival.scenario.query(arrival.client)
        t0 = time.perf_counter()
        if url is not None:
            status, body = _http_dispatch(url, query)
        else:
            assert service is not None
            # the *schedule* is the quota clock: deterministic admission
            status, body = service.handle(query.to_request(),
                                          now=arrival.t)
        latency = time.perf_counter() - t0
        with lock:
            samples[arrival.index] = _Sample(
                arrival, status, latency,
                body if keep_bodies else None)

    started = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            for arrival in schedule:
                lag = arrival.t / time_compression - (
                    time.perf_counter() - started)
                if lag > 0:
                    time.sleep(lag)
                pool.submit(dispatch, arrival)
        duration = time.perf_counter() - started
    finally:
        if owned is not None:
            owned.close()
    done = [s for s in samples if s is not None]
    assert len(done) == len(schedule), "open-loop drop: a sample vanished"
    mode = "http" if url is not None else "in-process"
    return _build_report(done, duration, mode), done


def find_saturation(rates_hz: list[float], *,
                    duration_s: float = 1.0,
                    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS,
                    seed: int = 0,
                    threshold: float = 0.9,
                    time_compression: float = 1.0,
                    make_service: Callable[[], CapacityService] | None = None,
                    ) -> dict[str, Any]:
    """Sweep constant offered rates and locate the saturation point.

    Definition (recorded in docs/SERVICE.md): the **saturation point**
    is the lowest offered rate whose achieved throughput falls below
    ``threshold`` × offered; ``max_sustained_rps`` is the highest
    offered rate that still met the threshold.  Each stage runs a fresh
    service so queue backlog never leaks between stages.
    """
    stages_out: list[dict[str, Any]] = []
    saturation_rps: float | None = None
    max_sustained: float | None = None
    for rate in sorted(rates_hz):
        config = TrafficConfig(stages=((duration_s, rate),),
                               scenarios=scenarios, seed=seed)
        svc = make_service() if make_service is not None \
            else CapacityService()
        try:
            report, _ = run_loadtest(config, service=svc,
                                     time_compression=time_compression)
        finally:
            svc.close()
        offered_rps = report.offered / max(report.duration_s, 1e-9)
        achieved = report.throughput_rps
        ok = achieved >= threshold * offered_rps
        stages_out.append({
            "offered_rps_nominal": rate,
            "offered_rps_measured": offered_rps,
            "achieved_rps": achieved,
            "p50_ms": report.latency_ms["p50"],
            "p99_ms": report.latency_ms["p99"],
            "error_rate": report.error_rate,
            "sustained": ok,
        })
        if ok:
            max_sustained = rate
        elif saturation_rps is None:
            saturation_rps = rate
    return {
        "threshold": threshold,
        "stages": stages_out,
        "saturation_rps": saturation_rps,
        "max_sustained_rps": max_sustained,
    }


# -- the BENCH_service.json payload -------------------------------------------


def verify_bit_exactness(samples: list[_Sample],
                         reference: CapacityService,
                         limit: int = 200) -> dict[str, Any]:
    """Re-price completed samples directly through ``run_batch`` and
    compare byte-for-byte with the served bodies."""
    checked = 0
    mismatches = 0
    for sample in samples:
        if sample.status != 200 or sample.body is None:
            continue
        if checked >= limit:
            break
        query = sample.arrival.scenario.query(sample.arrival.client)
        job = reference.job_for(query)
        direct = reference.batcher.backend.run_batch([job])[0]
        expected = encode_result(query, direct)
        if json.dumps(expected, sort_keys=True) != json.dumps(
                sample.body, sort_keys=True):
            mismatches += 1
        checked += 1
    return {"checked": checked, "mismatches": mismatches,
            "identical": mismatches == 0}


def loadtest_bench(*, quick: bool = False, seed: int = 0,
                   scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS,
                   stages: tuple[tuple[float, float], ...] | None = None,
                   saturation_rates: list[float] | None = None,
                   ) -> dict[str, Any]:
    """The full ``BENCH_service.json`` payload: one mixed-rate loadtest
    (with bit-exactness audit) plus the saturation sweep."""
    if stages is None:
        stages = (((0.5, 60.0), (0.5, 120.0)) if quick
                  else ((1.0, 100.0), (1.0, 200.0), (1.0, 400.0)))
    if saturation_rates is None:
        saturation_rates = [100.0, 400.0] if quick else \
            [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0]
    config = TrafficConfig(stages=stages, scenarios=scenarios, seed=seed)
    service = CapacityService()
    try:
        report, samples = run_loadtest(config, service=service,
                                       keep_bodies=True)
        audit = verify_bit_exactness(samples, service)
        stats = service.stats()
    finally:
        service.close()
    # the saturation sweep measures *backend* capacity, so quotas are
    # opened wide — otherwise per-client admission control (a policy
    # choice) masquerades as the saturation point.
    from repro.service.core import ServiceConfig

    unquota = ServiceConfig(quota_rate=1e9, quota_burst=1e9)
    saturation = find_saturation(
        saturation_rates, duration_s=0.5 if quick else 1.0,
        scenarios=scenarios, seed=seed,
        make_service=lambda: CapacityService(unquota))
    report.saturation = saturation
    return {
        "config": {
            "stages": [list(s) for s in stages],
            "scenarios": [s.name for s in scenarios],
            "seed": seed,
            "n_clients": config.n_clients,
        },
        "loadtest": report.to_dict(),
        "service_stats": stats,
        "bit_exact_vs_run_batch": audit,
        "saturation": saturation,
    }


def write_bench(payload: dict[str, Any], out: Path) -> None:
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
