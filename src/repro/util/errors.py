"""Exception hierarchy for the repro cluster-evaluation laboratory.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
toolchain errors intentionally mirror the deployment failures reported in
Section V of the paper (compiler hangs, cmake errors, runtime aborts).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid machine, network, or experiment configuration."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All simulated processes are blocked and no events are pending.

    When the failing run had a verify recorder attached
    (``World.run(..., verify=True)``), ``diagnostics`` carries the
    wait-for-graph postmortem (a ``repro.verify.DiagnosticReport``).
    """

    diagnostics = None


class RankFailureError(SimulationError):
    """A simulated rank died or gave up on a dead/unresponsive peer.

    Raised inside rank programs by the resilience layer (node crash, recv
    retries exhausted against a failed node, rendezvous send into an
    unreachable link).  ``World.run`` with an active
    :class:`repro.resilience.ResilienceState` converts it into a
    :class:`repro.resilience.RankFailure` outcome in
    ``WorldResult.rank_results`` instead of aborting the run.
    """

    def __init__(self, message: str, *, rank: int | None = None,
                 peer: int | None = None, kind: str = "failure"):
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        #: ``crash`` | ``peer-dead`` | ``suspected`` | ``send-unreachable``
        self.kind = kind


class WorkerLostError(ReproError):
    """A persistent pool worker process died in the middle of a call.

    Raised by :class:`repro.util.procpool.PersistentPool` instead of
    the bare pipe error (``EOFError``/``BrokenPipeError``); the pool is
    already closed when it propagates.  ``worker`` is the worker's index
    in the pool and ``exitcode`` its process exit code (negative: killed
    by that signal; None: the process could not be reaped).
    """

    def __init__(self, message: str, *, worker: int | None = None,
                 exitcode: int | None = None):
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode


class ToolchainError(ReproError):
    """Base class for compiler/toolchain failures (paper Section V)."""

    def __init__(self, message: str, *, compiler: str = "", application: str = ""):
        super().__init__(message)
        self.compiler = compiler
        self.application = application


class CompileError(ToolchainError):
    """The modeled compiler refused or failed to build an application.

    Mirrors e.g. the Fujitsu compiler hanging on Alya's most complex Fortran
    modules or erroring out on NEMO (paper Sections V-A and V-B).
    """


class CompileHang(CompileError):
    """The modeled compiler hangs (never terminates) on this input."""


class RuntimeFailure(ToolchainError):
    """The application built but aborts at run time.

    Mirrors OpenIFS built with the Fujitsu compiler failing during execution
    (paper Section V-D).
    """


class AllocationError(ReproError):
    """The scheduler cannot satisfy a job's node/memory request."""


class OutOfMemoryError(AllocationError):
    """A job's per-node working set exceeds node memory.

    Mirrors the "NP" entries of Table IV: Alya, OpenIFS and NEMO cannot run
    on a low number of A64FX nodes because each node only has 32 GB.
    """
