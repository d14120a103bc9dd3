"""The ``analytic`` backend: closed-form pricing of an IR program.

This is the cost model behind the paper-scale figures, O(#phases) per
evaluation.  Per phase occurrence:

* :class:`~repro.ir.ops.ComputeOp` — roofline
  ``max(flops / aggregate_rate, data_seconds) * imbalance`` where the
  aggregate rate uses the *toolchain-model* sustained per-core rate of the
  op's kernel class (or the op's explicit ``rate_per_core``) and the data
  arm comes from the pricing model (``bytes / aggregate_bandwidth`` under
  the default roofline); fixed-``seconds`` ops charge their wall time
  directly;
* :class:`~repro.ir.ops.MemOp` — the pricing model's data arm alone;
* :class:`~repro.ir.ops.CommOp` — the closed forms of
  :class:`~repro.network.collectives.CollectiveCosts` over the cluster's
  network model; :class:`~repro.ir.ops.Barrier` prices as
  ``costs.barrier()``;
* :class:`~repro.ir.ops.SerialOp` — charged once per occurrence, not
  divided by ranks (the Amdahl term).

The arithmetic lives in one place, the tape evaluator of
:mod:`repro.ir.batch`; ``analytic`` is that engine under its historical
registry name, so :attr:`RunResult.backend` reports ``"analytic"``.
"""

from __future__ import annotations

from repro.ir.backend import BACKENDS
from repro.ir.batch import BatchAnalyticBackend


class AnalyticBackend(BatchAnalyticBackend):
    """Closed-form roofline + collective-cost pricing (no simulation)."""

    name = "analytic"


BACKENDS[AnalyticBackend.name] = AnalyticBackend
