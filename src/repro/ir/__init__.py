"""Engine-agnostic workload intermediate representation (IR).

The paper's central method is running *the same* workloads on two machines
and attributing the gap to micro-architecture and toolchain.  This package
gives the laboratory the software analogue: every workload — the five
application models and the synthetic benchmarks — is expressed **once** as
a typed operation stream and evaluated under any of three pluggable
execution backends:

* :class:`AnalyticBackend` / :class:`BatchAnalyticBackend` (registry
  names ``analytic`` / ``batch``, one engine) — closed-form roofline
  compute plus the analytic collective costs, including Amdahl serial
  fractions and the Table-IV NP memory gating, compiled to a flat numpy
  tape (:func:`compile_tape`) and evaluated for one point or a whole
  *vector* of (cluster, n_nodes, overrides) points in one pass.
  O(phases) cost; powers the 192-node figures.  The optimizer passes of
  :mod:`repro.ir.optimize` shrink programs before taping or DES lowering.
* :class:`FastCollBackend` — the DES with the closed-form per-rank
  collective recurrences of :mod:`repro.simmpi.fastcoll` substituted for
  the simulated message exchange.  Exact for bulk-synchronous programs.
* :class:`DESBackend` — the fully simulated path: the IR is lowered to a
  real simmpi rank program (virtual payloads, per-message events), with
  optional verify recording, NIC contention, fault injection and
  resilience policies.

Vocabulary: :class:`ComputeOp`, :class:`MemOp`, :class:`SerialOp`,
:class:`CommOp`, :class:`Barrier` inside :class:`Phase` blocks, repeated
by :class:`Loop` nodes of a :class:`Program`.  See ``docs/IR.md``.

The static analyzer (:mod:`repro.ir.analyze`, ``repro-lab analyze``)
checks the same op streams — communication safety, resource bounds,
optimizer-pass soundness — without executing any backend; see
``docs/ANALYSIS.md``.
"""

from repro.ir.ops import (
    Barrier,
    CommOp,
    ComputeOp,
    Loop,
    MemOp,
    Op,
    Phase,
    SerialOp,
)
from repro.ir.program import Program, compile_phases
from repro.ir.serialize import from_dict, from_json, to_dict, to_json
from repro.ir.backend import (
    BACKENDS,
    Backend,
    RunResult,
    get_backend,
)
from repro.ir.analytic import AnalyticBackend
from repro.ir.batch import (
    BatchAnalyticBackend,
    BatchJob,
    Tape,
    compile_tape,
    set_tape_budget,
    tape_cache_stats,
)
from repro.ir.desbackend import DESBackend, FastCollBackend
from repro.ir.lower import grid_dims, grid_neighbors, lower
from repro.ir.optimize import (
    PASS_VERSION,
    collapse_loops,
    fold_constants,
    fuse_ops,
    op_count,
    optimize_program,
)
from repro.ir.analyze import (
    ANALYZE_VERSION,
    PassCertificate,
    analyze_program,
    certified_optimize,
    certify,
    effect_summary,
    static_clean,
)

__all__ = [
    "Barrier",
    "CommOp",
    "ComputeOp",
    "Loop",
    "MemOp",
    "Op",
    "Phase",
    "SerialOp",
    "Program",
    "compile_phases",
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
    "Backend",
    "RunResult",
    "BACKENDS",
    "get_backend",
    "AnalyticBackend",
    "BatchAnalyticBackend",
    "BatchJob",
    "Tape",
    "set_tape_budget",
    "tape_cache_stats",
    "compile_tape",
    "FastCollBackend",
    "DESBackend",
    "grid_dims",
    "grid_neighbors",
    "lower",
    "PASS_VERSION",
    "fold_constants",
    "fuse_ops",
    "collapse_loops",
    "optimize_program",
    "op_count",
    "ANALYZE_VERSION",
    "PassCertificate",
    "analyze_program",
    "certified_optimize",
    "certify",
    "effect_summary",
    "static_clean",
]
