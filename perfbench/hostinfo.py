"""The host: metadata recorded with every result (results compare only
across like hosts: same core count, CPU model and library versions), and
its current speed, which end-to-end times are scaled by."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any


#: End-to-end times are reported at a nominal host speed.  On a shared
#: 2-vCPU KVM guest (Intel Xeon) the speed flips between two levels
#: ~1.45x apart over seconds to minutes, so a run's median wall time
#: depends on which level it caught.  A fixed pure-Python loop
#: (:func:`reference_s`) timed just before and just after each timed
#: operation follows those flips (correlation 0.95 with a cold tune over
#: 82 tunes), so each operation's time is scaled by this nominal loop
#: time over the loop time measured around it (:func:`at_nominal_speed`).
#: Wall times stay in the report.
REFERENCE_NOMINAL_S = 0.025


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current
    speed."""
    t0 = perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 1023] = total
    return perf_counter() - t0


def at_nominal_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference``
    seconds, scaled to a host on which it takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith(("model name", "cpu model")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(root: Path, *args: str) -> str | None:
    """``git`` output in ``root`` only (never a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """Content hash of the program's sources (identifies a checkout that
    is not a git repository)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_metadata(root: Path) -> dict[str, Any]:
    import numpy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "source_digest": source_digest(root),
    }
