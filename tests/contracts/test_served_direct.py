"""served ≡ direct: seeded open-loop traffic through a real HTTP server
keeps the SERVICE.md accounting and every served body is byte-identical
to a direct ``run_batch`` pass."""

from repro.service import (
    CapacityService,
    ServiceConfig,
    ServiceServer,
    TrafficConfig,
    run_loadtest,
    verify_bit_exactness,
)


def test_http_loadtest_bodies_match_direct_run_batch():
    config = TrafficConfig(stages=((0.5, 100.0),), seed=3)
    service_config = ServiceConfig(quota_rate=1e6, quota_burst=1e6)
    with ServiceServer(CapacityService(service_config)) as server:
        report, samples = run_loadtest(
            config, url=server.url, keep_bodies=True, time_compression=10.0)
    assert report.offered >= 30
    assert report.offered == report.completed + report.rejected + report.errors
    assert report.errors == 0, report.per_status
    assert report.rejected == 0
    assert report.latency_ms["p50"] <= report.latency_ms["p99"]
    with CapacityService(service_config) as reference:
        audit = verify_bit_exactness(samples, reference)
    assert audit["checked"] >= 30 and audit["identical"], audit
