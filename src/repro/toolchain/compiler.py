"""Compiler profiles and the binaries they produce.

A :class:`CompilerProfile` is a model of one toolchain installed on one of
the clusters.  ``profile.build(app, kernels)`` either raises the deployment
failure documented in the paper (compile hang, cmake error, runtime abort)
or returns a :class:`Binary` whose per-kernel-class vectorization outcomes
feed :meth:`repro.machine.core.CoreModel.sustained_flops`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

from repro.machine.core import CoreModel
from repro.machine.isa import DType
from repro.toolchain.kernels import IRREGULAR, KernelClass
from repro.util.errors import CompileError, ConfigurationError, ToolchainError


@dataclass(frozen=True)
class VectorizationResult:
    """Outcome of auto-vectorizing one kernel class.

    ``vector_fraction`` — fraction of the kernel's dynamic flops executed on
    the vector unit; ``vector_efficiency`` — achieved fraction of vector peak
    while vectorized (masks, gathers and remainders cost throughput).
    """

    vector_fraction: float
    vector_efficiency: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.vector_fraction <= 1.0:
            raise ConfigurationError("vector_fraction must be in [0, 1]")
        if not 0.0 < self.vector_efficiency <= 1.0:
            raise ConfigurationError("vector_efficiency must be in (0, 1]")


#: Fully scalar outcome — what GNU 8 produced for SVE on irregular loops.
SCALAR_ONLY = VectorizationResult(vector_fraction=0.0, vector_efficiency=1e-6)


@dataclass(frozen=True)
class CompilerProfile:
    """One toolchain: identity, vectorization maturity, deployment failures.

    Parameters
    ----------
    vec_table:
        kernel class -> vectorization outcome on this profile's target ISA.
        Missing classes fall back to ``SCALAR_ONLY``.
    language_efficiency:
        multiplicative throughput factor per source language, capturing
        code-generation quirks (the Fujitsu C STREAM triad reaching half the
        Fortran bandwidth, Fig. 3 — unexplained in the paper, reproduced as
        a calibrated constant).
    failures:
        application name -> exception factory; ``build`` raises it.  Encodes
        Section V: Fujitsu hangs on Alya, errors on NEMO/Gromacs, OpenIFS
        aborts at run time.
    """

    name: str
    version: str
    family: str  # "fujitsu" | "gnu" | "intel"
    target_isa: str  # "SVE" | "AVX512" | "NEON"
    vec_table: Mapping[KernelClass, VectorizationResult] = field(default_factory=dict)
    language_efficiency: Mapping[str, float] = field(default_factory=dict)
    failures: Mapping[str, Callable[[], ToolchainError]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.name}/{self.version}"

    @cached_property
    def fingerprint(self) -> bytes:
        """Digest of the frozen tree's content, once per object (batch
        keys).  A function's repr carries its memory address, so each
        ``failures`` factory enters by its qualified name instead."""
        failures = tuple(sorted(
            (app, f"{fn.__module__}.{fn.__qualname__}")
            for app, fn in self.failures.items()))
        content = replace(self, failures=failures)  # type: ignore[arg-type]
        return hashlib.sha256(repr(content).encode()).digest()

    def vectorization(self, kernel: KernelClass) -> VectorizationResult:
        """Vectorization outcome for a kernel class (scalar if unknown)."""
        return self.vec_table.get(kernel, SCALAR_ONLY)

    def lang_factor(self, language: str) -> float:
        return self.language_efficiency.get(language.lower(), 1.0)

    def build(
        self,
        application: str,
        kernels: tuple[KernelClass, ...],
        *,
        language: str = "fortran",
        flags: str = "",
    ) -> "Binary":
        """Compile ``application``; raise its documented failure if any.

        The returned Binary may itself fail later (``runtime_failure``),
        modeling OpenIFS building under Fujitsu but aborting at execution.
        """
        failure = self.failures.get(application.lower())
        if failure is not None:
            exc = failure()
            if isinstance(exc, CompileError):
                raise exc
            # Runtime failures let the build succeed and poison the binary.
            return Binary(
                application=application,
                compiler=self,
                kernels=kernels,
                language=language,
                flags=flags,
                runtime_failure=exc,
            )
        return Binary(
            application=application,
            compiler=self,
            kernels=kernels,
            language=language,
            flags=flags,
        )


@dataclass(frozen=True)
class Binary:
    """A built application: the compiler outcome applied to its kernels."""

    application: str
    compiler: CompilerProfile
    kernels: tuple[KernelClass, ...]
    language: str = "fortran"
    flags: str = ""
    runtime_failure: ToolchainError | None = None

    def check_runnable(self) -> None:
        """Raise the stored runtime failure, if any (OpenIFS under Fujitsu)."""
        if self.runtime_failure is not None:
            raise self.runtime_failure

    def vectorization(self, kernel: KernelClass) -> VectorizationResult:
        if kernel not in self.kernels:
            raise ConfigurationError(
                f"{self.application} has no kernel class {kernel.value!r}"
            )
        return self.compiler.vectorization(kernel)

    def sustained_flops(
        self, core: CoreModel, kernel: KernelClass, dtype: DType = DType.DOUBLE
    ) -> float:
        """Per-core sustained flop/s for one kernel class of this binary."""
        self.check_runnable()
        vec = self.vectorization(kernel)
        rate = core.sustained_flops(
            dtype,
            vector_fraction=vec.vector_fraction,
            vector_efficiency=vec.vector_efficiency,
        )
        if kernel in IRREGULAR:
            rate *= core.irregular_access_efficiency
        return rate * self.compiler.lang_factor(self.language)
