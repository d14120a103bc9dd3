"""Effect summaries and pass-soundness certificates.

The optimizer passes (:mod:`repro.ir.optimize`) promise to preserve
program semantics.  Until now that promise was enforced statistically —
property tests comparing analytic costs inside a 1e-12 band.  This module
replaces trust with a *certificate*: an exact, canonical summary of every
phase's effects computed in rational arithmetic (:class:`~fractions.Fraction`
conversion from floats is exact), designed so that every **legal** pass
transformation leaves the summary bit-identical while every semantics
change alters it.

Canonical form per phase name (order-insensitive, like the analytic
backend's accumulation):

* pure-flops roofline work — total flops per model key
  ``(kernel, rate, dtype, imbalance)``; fusion sums flops, collapsing
  scales them: both preserve the total exactly;
* pure-bytes roofline work — total bytes per model key (same argument);
* mixed flops+bytes ops — totals per ``(model key, flops:bytes ratio)``:
  the roofline ``max`` is positively homogeneous, so scaling along a ray
  is exact, while merging ops of *different* ratios (which would change
  the cost) lands in different buckets and is caught;
* fixed-seconds compute — total of ``seconds x imbalance``;
* serial seconds, memory bytes — plain totals;
* communication — total ``count`` per ``(kind, size, neighbors, root)``
  for whole counts; *fractional* counts (step-subsampled in the DES
  lowering, hence not linear) are kept as an exact multiset instead;
* barriers — total occurrence count.

:func:`certify` compares the summaries of a program before and after
optimization.  Structure is compared **exactly** — phase names, model
keys, comm multisets, flops:bytes ratios: dropping, inventing, or
re-bucketing an op always fails.  Numeric totals are compared in exact
rational arithmetic with a single allowance: the documented float
reassociation of ``fuse_ops``/``collapse_loops`` (``k*(a+b)`` vs
``k*a + k*b``), bounded at rel 2**-45 (~3e-14) — four hundred times
tighter than an ulp-per-op drift bound needs and ~30000x tighter than
the 1e-12 statistical band this module replaces.  ``fold_constants``
alone is bit-exact and needs no allowance.

:func:`certified_optimize` runs the standard pass pipeline and attaches
the certificate (memoized — Programs are frozen/hashable).  The analyzer
version feeds the experiment cache key (``ANALYZE_VERSION``) so a
pass-semantics bug can never silently poison cached figure data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.ir.ops import Barrier, CommOp, ComputeOp, Loop, MemOp, Op, Phase, SerialOp
from repro.ir.optimize import optimize_program
from repro.ir.program import Program
from repro.machine.models import PricingModel, resolve_pricing
from repro.util.memo import Memo, content_key

__all__ = [
    "PassCertificate",
    "PhaseEffect",
    "certified_optimize",
    "certify",
    "effect_summary",
]


def _frac(x: float | int) -> Fraction:
    return Fraction(x)


@dataclass(frozen=True)
class PhaseEffect:
    """Canonical effects of one phase name, exact and order-insensitive."""

    flops: tuple  # ((kernel, rate, dtype, imbalance), total_flops) sorted
    pure_bytes: tuple  # (model key, total_bytes) sorted
    mixed: tuple  # ((model key, ratio), (total_flops, total_bytes)) sorted
    fixed_seconds: Fraction
    serial_seconds: Fraction
    mem_bytes: Fraction
    comm: tuple  # ((kind, size, neighbors, root), total_count) sorted
    fractional_comm: tuple  # ((kind, size, neighbors, root, count), mult)
    barriers: Fraction


class _Accumulator:
    def __init__(self, ray_homogeneous: bool = True) -> None:
        self.ray_homogeneous = ray_homogeneous
        self.flops: dict = {}
        self.pure_bytes: dict = {}
        self.mixed: dict = {}
        self.fixed_seconds = Fraction(0)
        self.serial_seconds = Fraction(0)
        self.mem_bytes = Fraction(0)
        self.comm: dict = {}
        self.fractional_comm: dict = {}
        self.barriers = Fraction(0)

    def add_op(self, op: Op, mult: int) -> None:
        m = Fraction(mult)
        if isinstance(op, ComputeOp):
            if op.seconds is not None:
                self.fixed_seconds += m * _frac(op.seconds) * _frac(op.imbalance)
                return
            key = (op.kernel, None if op.rate_per_core is None
                   else _frac(op.rate_per_core), op.dtype, _frac(op.imbalance))
            f, b = _frac(op.flops), _frac(op.bytes_moved)
            if f and b:
                # ratio bucketing is sound only for ray-homogeneous pricing
                # (roofline/ECM: both arms linear along a flops:bytes ray);
                # under a non-homogeneous model mixed ops must survive as
                # an exact multiset — any merge/split fails the certificate
                bucket = ((key, f / b) if self.ray_homogeneous
                          else (key, f, b))
                tf, tb = self.mixed.get(bucket, (Fraction(0), Fraction(0)))
                self.mixed[bucket] = (tf + m * f, tb + m * b)
            elif f:
                self.flops[key] = self.flops.get(key, Fraction(0)) + m * f
            elif b:
                self.pure_bytes[key] = (
                    self.pure_bytes.get(key, Fraction(0)) + m * b)
        elif isinstance(op, MemOp):
            self.mem_bytes += m * _frac(op.bytes_moved)
        elif isinstance(op, SerialOp):
            self.serial_seconds += m * _frac(op.seconds)
        elif isinstance(op, CommOp):
            if op.count <= 0:
                return
            key = (op.kind, op.size, op.neighbors, op.root)
            if op.count >= 1:
                self.comm[key] = (
                    self.comm.get(key, Fraction(0)) + m * _frac(op.count))
            else:
                fkey = key + (_frac(op.count),)
                self.fractional_comm[fkey] = (
                    self.fractional_comm.get(fkey, Fraction(0)) + m)
        elif isinstance(op, Barrier):
            self.barriers += m

    def freeze(self) -> PhaseEffect:
        def clean(d: dict) -> tuple:
            # keys can mix None / enums / Fractions in one slot, which do
            # not order against each other — sort by repr (deterministic).
            return tuple(sorted(
                ((k, v) for k, v in d.items()
                 if v != 0 and v != (Fraction(0), Fraction(0))),
                key=lambda kv: repr(kv[0]),
            ))

        return PhaseEffect(
            flops=clean(self.flops),
            pure_bytes=clean(self.pure_bytes),
            mixed=clean(self.mixed),
            fixed_seconds=self.fixed_seconds,
            serial_seconds=self.serial_seconds,
            mem_bytes=self.mem_bytes,
            comm=clean(self.comm),
            fractional_comm=clean(self.fractional_comm),
            barriers=self.barriers,
        )


def effect_summary(
    program: Program, *, ray_homogeneous: bool = True
) -> dict[str, PhaseEffect]:
    """Canonical per-phase-name effect summary of ``program``."""
    acc: dict[str, _Accumulator] = {}

    def walk(items: tuple[Phase | Loop, ...], mult: int) -> None:
        for item in items:
            if isinstance(item, Loop):
                walk(item.body, mult * item.count)
            else:
                a = acc.setdefault(item.name, _Accumulator(ray_homogeneous))
                if mult:
                    for op in item.ops:
                        a.add_op(op, mult)

    walk(program.body, 1)
    return {name: a.freeze() for name, a in acc.items()}


@dataclass(frozen=True)
class PassCertificate:
    """The verdict of comparing effect summaries before/after passes."""

    ok: bool
    mismatches: tuple[str, ...]
    digest: str

    def render(self) -> str:
        if self.ok:
            return f"pass certificate OK ({self.digest[:12]})"
        return "pass certificate FAILED: " + "; ".join(self.mismatches)


_FIELDS = ("flops", "pure_bytes", "mixed", "fixed_seconds",
           "serial_seconds", "mem_bytes", "comm", "fractional_comm",
           "barriers")

#: relative allowance for the documented float reassociation of the
#: fuse/collapse passes (``k*(a+b)`` vs ``k*a + k*b``): a handful of ulps
#: of drift per fused/scaled chain, bounded comfortably by 2**-45.  Any
#: *semantic* change moves totals by whole op contributions — tens of
#: orders of magnitude above this line.
_REASSOC_TOL = Fraction(1, 2 ** 45)


def _close(a: Fraction, b: Fraction) -> bool:
    if a == b:
        return True
    if (a > 0) != (b > 0):
        return False
    return abs(a - b) <= _REASSOC_TOL * max(abs(a), abs(b))


def _values_close(va: object, vb: object) -> bool:
    if isinstance(va, tuple) and isinstance(vb, tuple):  # mixed: (F, B)
        return len(va) == len(vb) and all(
            _close(x, y) for x, y in zip(va, vb))
    return isinstance(va, Fraction) and isinstance(vb, Fraction) and (
        _close(va, vb))


def _field_mismatch(field_name: str, va: object, vb: object) -> bool:
    """True when the field differs beyond the reassociation allowance."""
    if isinstance(va, Fraction) and isinstance(vb, Fraction):
        return not _close(va, vb)
    assert isinstance(va, tuple) and isinstance(vb, tuple)
    da, db = dict(va), dict(vb)  # keyed multisets; keys compare exactly
    if set(da) != set(db):
        return True
    return any(not _values_close(da[k], db[k]) for k in da)


def certify(
    before: Program, after: Program, *,
    pricing: str | PricingModel | None = None,
) -> PassCertificate:
    """Certify that ``after`` has the effects of ``before`` — exact in
    structure, exact-modulo-reassociation in the numeric totals.

    ``pricing`` selects the cost model whose soundness conditions apply:
    a non-ray-homogeneous model tightens the mixed-op comparison to an
    exact multiset (see :class:`_Accumulator`).
    """
    model = resolve_pricing(pricing)
    a = effect_summary(before, ray_homogeneous=model.ray_homogeneous)
    b = effect_summary(after, ray_homogeneous=model.ray_homogeneous)
    mismatches: list[str] = []
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        if only_a:
            mismatches.append(f"phases dropped: {only_a}")
        if only_b:
            mismatches.append(f"phases invented: {only_b}")
    for name in sorted(set(a) & set(b)):
        ea, eb = a[name], b[name]
        if ea == eb:
            continue
        for field_name in _FIELDS:
            va, vb = getattr(ea, field_name), getattr(eb, field_name)
            if _field_mismatch(field_name, va, vb):
                mismatches.append(
                    f"phase {name!r}: {field_name} {va!r} != {vb!r}")
    digest = content_key((model.identity(), a, b)).hex()
    return PassCertificate(
        ok=not mismatches, mismatches=tuple(mismatches), digest=digest)


_CERTIFIED: Memo[tuple[Program, PassCertificate]] = Memo(
    "analyze.certified_optimize", 512)


def certified_optimize(
    program: Program, pricing: str | PricingModel | None = None
) -> tuple[Program, PassCertificate]:
    """Run the standard pass pipeline and certify it on this program.

    The pricing spec is resolved to a concrete model name BEFORE the memo
    lookup, so running under another :class:`~repro.context.RunContext`
    pricing model can never return a certificate minted under this one.
    """
    pricing_name = resolve_pricing(pricing).name

    def run() -> tuple[Program, PassCertificate]:
        optimized = optimize_program(program)
        return optimized, certify(program, optimized, pricing=pricing_name)

    return _CERTIFIED.get_or_compute((program, pricing_name), run)
