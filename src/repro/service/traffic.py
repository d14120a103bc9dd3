"""Request shapes for driving the service, and the served ≡ direct audit.

* :class:`Scenario` — one query shape (workload, cluster, node count,
  overrides) with a weight in a traffic mix; :data:`DEFAULT_SCENARIOS`
  is the stock mix load generators draw from.
* :class:`Arrival` / :class:`_Sample` — one scheduled request and the
  outcome of sending it.
* :func:`verify_bit_exactness` — re-prices served samples directly
  through ``run_batch`` and byte-compares the bodies (served ≡ direct).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.service.core import CapacityService, Query, encode_result

__all__ = [
    "Arrival",
    "DEFAULT_SCENARIOS",
    "Scenario",
    "verify_bit_exactness",
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
class Arrival:
    """One scheduled request: fire scenario as client at time ``t``."""

    index: int
    t: float
    scenario: Scenario
    client: str


@dataclass
class _Sample:
    """Outcome of one dispatched arrival."""

    arrival: Arrival
    status: int
    latency_s: float
    body: dict[str, Any] | None = None


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
