"""served ≡ direct: seeded requests through a real HTTP server come back
with bodies byte-identical to a direct ``run_batch`` pass.

:func:`send` is a small ``http.client`` sender the service tests share:
keep-alive connections, several at once so the admission batcher stacks
requests into one tape pass.
"""

from __future__ import annotations

import http.client
import json
import random
from concurrent.futures import ThreadPoolExecutor
from typing import Any
from urllib.parse import urlsplit

from repro.service import (
    DEFAULT_SCENARIOS,
    Arrival,
    CapacityService,
    ServiceConfig,
    ServiceServer,
    verify_bit_exactness,
)
from repro.service.traffic import _Sample


def _post(conn: http.client.HTTPConnection,
         data: bytes) -> tuple[int, dict[str, Any]]:
    """POST raw bytes to ``/v1/price``; the reply status and JSON body."""
    conn.request("POST", "/v1/price", body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def send(url: str, bodies: list[bytes],
         workers: int = 4) -> list[tuple[int, dict[str, Any]]]:
    """Send every body, ``workers`` connections at once, replies in order."""
    address = urlsplit(url)

    def run(share: list[int]) -> list[tuple[int, tuple[int, dict]]]:
        conn = http.client.HTTPConnection(address.hostname, address.port,
                                          timeout=30)
        try:
            return [(i, _post(conn, bodies[i])) for i in share]
        finally:
            conn.close()

    shares = [list(range(k, len(bodies), workers)) for k in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        replies = dict(pair for part in pool.map(run, shares) for pair in part)
    return [replies[i] for i in range(len(bodies))]


def test_http_loadtest_bodies_match_direct_run_batch():
    rng = random.Random(3)
    weights = [s.weight for s in DEFAULT_SCENARIOS]
    arrivals = [Arrival(i, 0.0, rng.choices(DEFAULT_SCENARIOS, weights)[0],
                        f"client-{rng.randrange(4)}") for i in range(48)]
    bodies = [json.dumps(a.scenario.query(a.client).to_request()).encode()
              for a in arrivals]
    service_config = ServiceConfig(quota_rate=1e6, quota_burst=1e6)
    with ServiceServer(CapacityService(service_config)) as server:
        replies = send(server.url, bodies)
    statuses = [status for status, _ in replies]
    assert statuses.count(429) == 0
    assert statuses == [200] * len(arrivals), statuses
    samples = [_Sample(a, status, 0.0, body)
               for a, (status, body) in zip(arrivals, replies)]
    with CapacityService(service_config) as reference:
        audit = verify_bit_exactness(samples, reference)
    assert audit["checked"] == len(arrivals) >= 30, audit
    assert audit["mismatches"] == 0, audit
