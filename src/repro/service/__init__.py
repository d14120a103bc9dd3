"""Capacity-planning service: the lab's serving layer (docs/SERVICE.md).

A long-running server answering "price workload W on cluster C at N
nodes with overrides O" through the batched analytic substrate, with
admission batching, per-client token-bucket quotas, and a byte-budgeted
warm-tape cache; paired with the request shapes load generators draw
from and the served ≡ direct audit.  ``repro-lab serve`` is the CLI
entry point.
"""

from repro.service.core import (
    AdmissionBatcher,
    CapacityService,
    Query,
    QuotaRegistry,
    ServiceConfig,
    ServiceError,
    TokenBucket,
    encode_result,
)
from repro.service.httpd import ServiceServer, serve_forever
from repro.service.traffic import (
    DEFAULT_SCENARIOS,
    Arrival,
    Scenario,
    verify_bit_exactness,
)

__all__ = [
    "AdmissionBatcher",
    "Arrival",
    "CapacityService",
    "DEFAULT_SCENARIOS",
    "Query",
    "QuotaRegistry",
    "Scenario",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "TokenBucket",
    "encode_result",
    "serve_forever",
    "verify_bit_exactness",
]
