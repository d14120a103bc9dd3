"""Parallel sweep executor: fan experiments out over worker processes.

``run_experiments`` executes a list of registered experiments with
``jobs`` worker processes and returns JSON-safe payloads **in input
order** regardless of completion order, so ``--jobs 1`` and ``--jobs 8``
produce byte-identical output.

An optional on-disk cache keyed by the
:func:`~repro.util.memo.content_key` of the experiment id, the run
context and a content hash of the whole ``repro`` source tree makes
repeated sweeps free:
any source edit changes the fingerprint and invalidates every entry, so
stale results can never be served.  Each payload carries both the
``to_dict`` form and the pre-rendered text (with and without figures),
so cache hits serve every CLI output mode without re-running anything.

Speedup scales with available cores; on a single-core host the win
comes from the cache, not the fan-out.  The first uncached experiment is
always run in-process as a timing probe; a pool is only spawned when the
measured per-task cost times the remaining task count clears
:func:`repro.util.procpool.pool_min_seconds` (``REPRO_POOL_MIN_SECONDS``,
default 2 s), and tasks are then dispatched in contiguous chunks rather
than one process round-trip each — so ``--jobs N`` never loses to
``--jobs 1`` on small or fast suites.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.context import RunContext, current, using
from repro.harness.experiment import run_experiment
from repro.util.errors import ConfigurationError
from repro.util.memo import content_key

#: Environment variable naming the default cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"

_fingerprint: str | None = None


def source_fingerprint() -> str:
    """Content hash over every ``repro`` source file (computed once)."""
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


def cache_key(exp_id: str, backend: str | None = None,
              pricing: str | None = None) -> str:
    """Cache file stem for one experiment under the current source tree.

    The run context (:func:`repro.context.current`, with ``backend`` and
    ``pricing`` replaced when given) — backend, pricing model, DES shard
    and worker counts — the IR optimizer pass version, and the static
    analyzer version enter its :func:`~repro.util.memo.content_key` with
    the source fingerprint, so a cached analytic
    result is never served for a DES (or fastcoll) request, a roofline
    result never for an ECM one, a 1-shard result never for an 8-shard
    one, and a pass-semantics or analyzer-behavior change invalidates
    results even if it ships without a source diff (e.g. a data-only
    toggle) — the pass-soundness certificate is only as good as the
    analyzer that issued it.
    """
    from repro.ir.analyze import ANALYZE_VERSION
    from repro.ir.optimize import PASS_VERSION

    ctx = current().derive(backend=backend, pricing=pricing)
    digest = content_key((exp_id, ctx, PASS_VERSION, ANALYZE_VERSION,
                          source_fingerprint()))
    return f"{exp_id}-{digest.hex()[:16]}"


def _run_one_text(exp_id: str, ctx: RunContext) -> tuple[str, float]:
    """Worker: run one experiment under ``ctx``, returning its payload as
    **serialized JSON** plus the wall seconds it took.

    The text crosses the process boundary exactly once and is what the
    parent writes to the cache verbatim — the old path pickled the big
    payload dict back to the parent and then re-serialized it there,
    paying twice for large DES results.
    """
    import repro.harness  # noqa: F401  (populate REGISTRY in spawned workers)

    start = time.perf_counter()
    with using(ctx):
        result = run_experiment(exp_id)
        rendered, rendered_no_figure = result.render_both()
        payload = {
            "experiment": exp_id,
            "result": result.to_dict(),
            "rendered": rendered,
            "rendered_no_figure": rendered_no_figure,
        }
    return json.dumps(payload), time.perf_counter() - start


#: per-task timing of the most recent ``run_experiments`` call:
#: ``[(experiment id, wall seconds, source)]`` with source one of
#: ``"probe"|"pool"|"serial"|"cache"|"corrupt"``; a ``"corrupt"`` cache
#: entry is followed by the experiment's fresh run.
_last_stats: list[tuple[str, float, str]] = []


def last_run_stats() -> list[tuple[str, float, str]]:
    """Per-task wall times of the most recent :func:`run_experiments`
    call (cache hits report ~0 with source ``"cache"``, unreadable cache
    entries ~0 with source ``"corrupt"``)."""
    return list(_last_stats)


def resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    """Explicit argument, else the ``REPRO_CACHE_DIR`` environment
    variable, else no caching."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def run_experiments(
    exp_ids: list[str],
    *,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    backend: str | None = None,
    pricing: str | None = None,
) -> list[dict]:
    """Run experiments and return their payloads in input order.

    ``jobs`` > 1 fans uncached experiments out over that many worker
    processes.  ``cache_dir`` (or ``$REPRO_CACHE_DIR``) enables the
    on-disk result cache; ``None`` disables caching entirely.  Every
    experiment runs under the current :class:`~repro.context.RunContext`
    with ``backend`` and ``pricing`` replaced when given; the context is
    part of the cache key and is handed to each worker process.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    ctx = current().derive(backend=backend, pricing=pricing)  # validates
    global _last_stats
    stats: list[tuple[str, float, str]] = []
    cache = resolve_cache_dir(cache_dir)
    payloads: dict[str, dict] = {}
    missing: list[str] = []
    for exp_id in exp_ids:
        if exp_id in payloads or exp_id in missing:
            continue
        if cache is not None:
            path = cache / f"{cache_key(exp_id, backend, pricing)}.json"
            if path.is_file():
                try:
                    payloads[exp_id] = json.loads(path.read_text())
                except (OSError, ValueError):
                    # Unreadable or truncated entry: a counted miss; the
                    # fresh run below republishes it.
                    stats.append((exp_id, 0.0, "corrupt"))
                else:
                    stats.append((exp_id, 0.0, "cache"))
                    continue
        missing.append(exp_id)
    if missing:
        # Probe: run the first missing experiment in-process and time it.
        # Worker processes cost O(1 s) each to spawn and re-import; if the
        # measured per-task cost says the remaining work is cheaper than
        # that, a pool can only lose to serial (the old unconditional
        # fan-out ran *slower* than --jobs 1 on small suites).
        text, per_task = _run_one_text(missing[0], ctx)
        fresh = [text]
        stats.append((missing[0], per_task, "probe"))
        rest = missing[1:]
        use_pool = False
        if rest and jobs > 1:
            from repro.util.procpool import pool_min_seconds

            use_pool = per_task * len(rest) >= pool_min_seconds()
        if use_pool:
            workers = min(jobs, len(rest))
            # Chunk instead of one task per process dispatch: amortizes
            # pickling/IPC over len(rest)/workers tasks per round trip.
            # Workers ship back the serialized text, never the payload
            # dict, so a large result is serialized exactly once.
            chunksize = max(1, math.ceil(len(rest) / workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for exp_id, (text, wall) in zip(rest, pool.map(
                        _run_one_text, rest, [ctx] * len(rest),
                        chunksize=chunksize)):
                    fresh.append(text)
                    stats.append((exp_id, wall, "pool"))
        else:
            for exp_id in rest:
                text, wall = _run_one_text(exp_id, ctx)
                fresh.append(text)
                stats.append((exp_id, wall, "serial"))
        for exp_id, text in zip(missing, fresh):
            payloads[exp_id] = json.loads(text)
            if cache is not None:
                cache.mkdir(parents=True, exist_ok=True)
                path = cache / f"{cache_key(exp_id, backend, pricing)}.json"
                tmp = path.with_name(
                    f"{path.stem}.{os.getpid()}-{os.urandom(8).hex()}.tmp")
                # The worker-serialized text is the cache entry verbatim:
                # reloaded payloads serialize byte-identically to fresh
                # ones because both come from the same dump.
                tmp.write_text(text)
                tmp.replace(path)  # atomic publish; writers never share a temp
    _last_stats = stats
    return [payloads[exp_id] for exp_id in exp_ids]
