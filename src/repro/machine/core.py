"""Core pipeline model: peak and sustained floating-point throughput.

Encodes the paper's two core-level observations:

* the µKernel (pure FMA stream, no dependencies) reaches ~100 % of the
  theoretical peak on both machines (Fig. 1) — peaks are first-principles;
* for *general scalar code* the A64FX core is much weaker than Skylake
  because of its narrower out-of-order window and fewer scalar ports — the
  ``scalar_ooo_efficiency`` factor models sustained scalar IPC on real
  application code relative to the FMA-stream peak.  This factor is the
  mechanism behind the 2-4x application slowdown of Section V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.machine.isa import DType, ExecMode, VectorISA, SCALAR, lanes
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class CoreModel:
    """One CPU core: frequency, FMA pipes, ISAs, and sustained-efficiency knobs.

    Parameters
    ----------
    frequency_hz:
        Core clock (Turbo disabled on both machines, Table I).
    fma_pipes:
        SIMD FMA execution pipes; both A64FX (2x FLA/FLB) and Skylake-SP
        (2x port-0/5 FMA) have two.
    vector_isas:
        Vector extensions, widest first; ``vector_isa`` picks the widest.
    scalar_ooo_efficiency:
        Fraction of scalar FMA-stream peak sustained on dependency-rich
        application code (calibrated: A64FX ~0.35, Skylake ~1.0 relative).
    per_core_stream_bw:
        Single-thread sustainable memory bandwidth (B/s); limits STREAM
        scaling at low thread counts before the NUMA roof binds.
    """

    name: str
    frequency_hz: float
    fma_pipes: int = 2
    vector_isas: tuple[VectorISA, ...] = ()
    scalar_ooo_efficiency: float = 1.0
    per_core_stream_bw: float = 12.0e9
    ukernel_efficiency: float = 0.99
    #: Extra throughput factor on gather/scatter-dominated kernels (FEM
    #: assembly, SpMV): the A64FX's L1/L2 latencies are high and its load
    #: queues shallow, so data-dependent indirection costs it more than a
    #: Skylake.  Calibrated against Fig. 9 (Alya Assembly, 4.96x gap).
    irregular_access_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError("core frequency must be positive")
        if self.fma_pipes < 1:
            raise ConfigurationError("need at least one FMA pipe")
        if not 0.0 < self.scalar_ooo_efficiency <= 1.0:
            raise ConfigurationError("scalar_ooo_efficiency must be in (0, 1]")

    @property
    def vector_isa(self) -> VectorISA:
        """The widest available vector extension (SVE / AVX-512)."""
        if not self.vector_isas:
            return SCALAR
        return max(self.vector_isas, key=lambda isa: isa.vector_bits)

    def peak_flops(
        self,
        dtype: DType = DType.DOUBLE,
        mode: ExecMode = ExecMode.VECTOR,
        isa: VectorISA | None = None,
    ) -> float:
        """Theoretical peak flop/s: ``s * i * f * o`` (paper Section III-A)."""
        chosen = isa if isa is not None else (
            self.vector_isa if mode is ExecMode.VECTOR else SCALAR
        )
        s = lanes(chosen, dtype, mode)
        i = self.fma_pipes
        f = self.frequency_hz
        o = 2  # fused multiply-add
        return s * i * f * o

    def sustained_flops(
        self,
        dtype: DType = DType.DOUBLE,
        *,
        vector_fraction: float = 1.0,
        vector_efficiency: float = 1.0,
    ) -> float:
        """Sustained flop/s on application code.

        ``vector_fraction`` of the work runs on the vector unit at
        ``vector_efficiency`` of vector peak (the toolchain model supplies
        both); the remainder runs on the scalar pipeline throttled by the
        core's out-of-order efficiency.  Combined with the harmonic rule:
        time = vf/Rv + (1-vf)/Rs per unit of work.
        """
        if not 0.0 <= vector_fraction <= 1.0:
            raise ConfigurationError("vector_fraction must be in [0, 1]")
        return _sustained_rate(self, dtype, vector_fraction, vector_efficiency)

    def ukernel_flops(self, dtype: DType, mode: ExecMode) -> float:
        """What the FPU µKernel sustains: ~99 % of peak (Fig. 1).

        The µKernel is hand-written FMA assembly with no dependencies, so it
        is immune to the compiler and OOO limitations that throttle
        applications.
        """
        return self.peak_flops(dtype, mode) * self.ukernel_efficiency


@lru_cache(maxsize=4096)
def _sustained_rate(
    core: CoreModel, dtype: DType, vector_fraction: float, vector_efficiency: float
) -> float:
    """Memoized harmonic-rule rate: CoreModel is frozen/hashable and the
    rate is pure in its arguments, and campaigns evaluate the same few
    (machine, kernel-class) combinations millions of times."""
    rv = core.peak_flops(dtype, ExecMode.VECTOR) * max(vector_efficiency, 1e-12)
    rs = core.peak_flops(dtype, ExecMode.SCALAR) * core.scalar_ooo_efficiency
    vf = vector_fraction
    return 1.0 / (vf / rv + (1.0 - vf) / rs)
