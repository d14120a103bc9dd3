"""Property tests for the synthetic traffic harness.

The generator's contract (ISSUE 8): same seed → byte-identical schedule
and virtual report; offered load is monotone in the arrival-rate scale;
realised scenario mixes track the configured weights.  All properties
run on synthetic workload labels — nothing is priced — so the suite is
fast enough for hypothesis to sweep shapes drawn from
:func:`tests.strategies.traffic_configs`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.traffic import (
    Report,
    Scenario,
    TrafficConfig,
    arrival_schedule,
    ramp_stages,
    schedule_digest,
    virtual_report,
)
from repro.util.errors import ConfigurationError

from .strategies import traffic_configs


# -- determinism --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(config=traffic_configs())
def test_same_seed_same_schedule(config):
    first = arrival_schedule(config)
    second = arrival_schedule(config)
    assert schedule_digest(first) == schedule_digest(second)


@settings(max_examples=15, deadline=None)
@given(config=traffic_configs())
def test_same_seed_byte_identical_virtual_report(config):
    first = json.dumps(virtual_report(config).to_dict(), sort_keys=True)
    second = json.dumps(virtual_report(config).to_dict(), sort_keys=True)
    assert first == second


@settings(max_examples=15, deadline=None)
@given(config=traffic_configs())
def test_different_seed_different_schedule(config):
    """A reseeded generator must actually re-draw the randomness (equal
    schedules would mean the seed is ignored)."""
    schedule = arrival_schedule(config)
    if len(schedule) < 10:
        return  # tiny schedules can collide legitimately
    other = TrafficConfig(stages=config.stages, scenarios=config.scenarios,
                          n_clients=config.n_clients,
                          seed=config.seed ^ 0x5EED)
    assert schedule_digest(schedule) != schedule_digest(
        arrival_schedule(other))


# -- schedule shape -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(config=traffic_configs())
def test_schedule_is_ordered_and_in_range(config):
    schedule = arrival_schedule(config)
    names = {s.name for s in config.scenarios}
    previous = 0.0
    for i, arrival in enumerate(schedule):
        assert arrival.index == i
        assert previous <= arrival.t <= config.duration_s
        assert arrival.scenario.name in names
        client_id = int(arrival.client.removeprefix("client-"))
        assert 0 <= client_id < config.n_clients
        previous = arrival.t


@settings(max_examples=30, deadline=None)
@given(config=traffic_configs())
def test_no_arrivals_inside_zero_rate_stages(config):
    """A silent ramp segment offers no load; the hazard inversion must
    skip it rather than divide by zero or park arrivals inside it."""
    schedule = arrival_schedule(config)
    t0 = 0.0
    for duration, rate in config.stages:
        if rate == 0.0:
            inside = [a for a in schedule if t0 < a.t < t0 + duration]
            assert not inside
        t0 += duration


@settings(max_examples=20, deadline=None)
@given(config=traffic_configs())
def test_offered_load_tracks_integrated_hazard(config):
    """The arrival count is Poisson with mean Λ = Σ duration·rate; allow
    a generous 6-sigma band so the property never flakes."""
    expected = sum(d * r for d, r in config.stages)
    count = len(arrival_schedule(config))
    slack = 6.0 * max(expected, 1.0) ** 0.5
    assert expected - slack <= count <= expected + slack


# -- monotonicity -------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(config=traffic_configs())
def test_offered_load_monotone_in_rate_scale(config):
    counts = [len(arrival_schedule(config, rate_scale=s))
              for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert counts == sorted(counts)


@settings(max_examples=20, deadline=None)
@given(config=traffic_configs())
def test_rate_scale_preserves_arrival_identities(config):
    """Scaling the rate moves arrival *times* only: the i-th arrival
    keeps its scenario and client, and scaling up is a pure extension
    (prefix property of the shared hazard stream)."""
    base = arrival_schedule(config)
    scaled = arrival_schedule(config, rate_scale=3.0)
    assert len(scaled) >= len(base)
    for a, b in zip(base, scaled):
        assert a.scenario.name == b.scenario.name
        assert a.client == b.client


def test_rate_scale_must_be_positive():
    with pytest.raises(ConfigurationError):
        arrival_schedule(TrafficConfig(), rate_scale=0.0)


# -- scenario mix -------------------------------------------------------------


def test_mix_fractions_track_weights():
    scenarios = (
        Scenario("a", "synthetic-a", weight=1.0),
        Scenario("b", "synthetic-b", weight=2.0),
        Scenario("c", "synthetic-c", weight=5.0),
    )
    config = TrafficConfig(stages=((10.0, 200.0),), scenarios=scenarios,
                           n_clients=4, seed=7)
    schedule = arrival_schedule(config)
    assert len(schedule) > 1500
    counts = {s.name: 0 for s in scenarios}
    for arrival in schedule:
        counts[arrival.scenario.name] += 1
    total_weight = sum(s.weight for s in scenarios)
    for scenario in scenarios:
        want = scenario.weight / total_weight
        got = counts[scenario.name] / len(schedule)
        assert abs(got - want) < 0.05, (scenario.name, got, want)


@settings(max_examples=15, deadline=None)
@given(config=traffic_configs())
def test_every_client_represented_on_busy_schedules(config):
    schedule = arrival_schedule(config)
    if len(schedule) < 50 * config.n_clients:
        return
    clients = {a.client for a in schedule}
    assert len(clients) == config.n_clients


# -- ramps and validation -----------------------------------------------------


def test_ramp_stages_linear_and_duration_preserving():
    stages = ramp_stages(50.0, 250.0, 5, 10.0)
    assert len(stages) == 5
    assert sum(d for d, _ in stages) == pytest.approx(10.0)
    rates = [r for _, r in stages]
    assert rates == [50.0, 100.0, 150.0, 200.0, 250.0]


def test_ramp_single_stage_uses_start_rate():
    assert ramp_stages(40.0, 400.0, 1, 2.0) == ((2.0, 40.0),)


def test_ramp_rejects_zero_stages():
    with pytest.raises(ConfigurationError):
        ramp_stages(1.0, 2.0, 0, 1.0)


@pytest.mark.parametrize("kwargs", [
    {"stages": ()},
    {"stages": ((0.0, 10.0),)},
    {"stages": ((1.0, -1.0),)},
    {"scenarios": ()},
    {"scenarios": (Scenario("x", "synthetic-x", weight=0.0),)},
    {"n_clients": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TrafficConfig(**kwargs)


# -- report invariants --------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(config=traffic_configs())
def test_virtual_report_accounting(config):
    report = virtual_report(config)
    assert isinstance(report, Report)
    assert report.offered == len(arrival_schedule(config))
    assert report.offered == report.completed + report.rejected + report.errors
    assert report.rejected == 0 and report.errors == 0  # virtual never drops
    assert report.error_rate == 0.0
    assert sum(report.per_scenario.values()) == report.offered
    assert sum(report.per_status.values()) == report.offered
    assert report.duration_s >= config.duration_s
    if report.offered:
        assert report.throughput_rps > 0
        lat = report.latency_ms
        assert 0 <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]


@settings(max_examples=10, deadline=None)
@given(config=traffic_configs())
def test_virtual_latency_grows_with_offered_load(config):
    """A slower per-item cost can only hurt the virtual p99 — the
    simulated server is work-conserving FIFO."""
    fast = virtual_report(config, per_item_s=1e-4)
    slow = virtual_report(config, per_item_s=5e-3)
    if fast.offered == 0:
        return
    assert slow.latency_ms["p99"] >= fast.latency_ms["p99"]


@settings(max_examples=25, deadline=None)
@given(duration=st.floats(0.5, 5.0), seed=st.integers(0, 2**16),
       per_item_s=st.floats(1e-5, 1e-2),
       batch_overhead_s=st.floats(0.0, 1e-2))
def test_lone_arrival_at_idle_server_is_priced_at_once(
        duration, seed, per_item_s, batch_overhead_s):
    """Like the service's batcher, the virtual server starts a pass as
    soon as it is free: a lone arrival at ``t`` finishes at exactly
    ``t + batch_overhead_s + per_item_s`` (no coalescing wait)."""
    config = TrafficConfig(stages=((duration, 1.0 / duration),), seed=seed)
    schedule = arrival_schedule(config)
    assume(len(schedule) == 1)
    t = schedule[0].t
    report = virtual_report(config, per_item_s=per_item_s,
                            batch_overhead_s=batch_overhead_s)
    finish = t + batch_overhead_s + per_item_s
    assert report.latency_ms["max"] == (finish - t) * 1e3
    assert report.duration_s == max(config.duration_s, finish)
