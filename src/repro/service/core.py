"""Capacity-planning service core: quotas, admission batching, pricing.

The paper evaluates a *production* system — one that answers capacity
questions ("what does workload W cost on cluster C at N nodes?") for a
whole user population.  This module is that serving layer over the
batched substrate:

* :class:`Query` — one JSON-shaped capacity question: workload (any
  bundled bench or application), cluster preset, node count, steps, and
  the :data:`~repro.ir.batch.OVERRIDE_KEYS` what-if knobs;
* :class:`TokenBucket` / per-client quotas — 429-style admission control
  that is a *pure function* of the request timestamps (the clock is
  injectable, so a seeded arrival schedule produces deterministic
  rejections);
* :class:`AdmissionBatcher` — coalesces concurrent in-flight queries
  into one stacked :meth:`~repro.ir.batch.BatchAnalyticBackend.run_batch`
  tape pass on a single worker thread;
* :class:`CapacityService` — validation, quota check, batching, and the
  canonical response encoding.  Responses are bit-identical to a direct
  ``run_batch`` call for the same point — the concurrency suite in
  ``tests/test_service.py`` and the ``scripts/check.sh`` smoke pin it.

Everything is stdlib + the existing lab; see ``docs/SERVICE.md``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.ir.backend import RunResult
from repro.ir.batch import (
    BatchAnalyticBackend,
    BatchJob,
    set_tape_budget,
    tape_cache_stats,
    validate_overrides,
)
from repro.ir.program import Program
from repro.machine.cluster import ClusterModel
from repro.util.errors import (
    ConfigurationError,
    OutOfMemoryError,
    ToolchainError,
)
from repro.util.memo import Memo, memo_stats

__all__ = [
    "AdmissionBatcher",
    "CapacityService",
    "Query",
    "QuotaRegistry",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
]

#: entry bounds of a service's own memos: cluster presets by name, and
#: compiled programs per distinct (workload, cluster, n_nodes, steps).
CLUSTER_MEMO_ENTRIES = 64
PROGRAM_MEMO_ENTRIES = 1024

#: largest ``steps`` a query may ask for; the tape's loop multiplicities
#: are int64 columns, and a billion steps is far past any capacity question.
MAX_STEPS = 10**9


class ServiceError(Exception):
    """A request-level failure carrying its HTTP-style status code."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after

    def body(self) -> dict[str, Any]:
        out: dict[str, Any] = {"error": self.message, "status": self.status}
        if self.retry_after is not None:
            out["retry_after_seconds"] = self.retry_after
        return out


@dataclass(frozen=True)
class Query:
    """One capacity question, validated from its JSON form."""

    workload: str
    cluster: str
    n_nodes: int
    steps: int = 1
    overrides: tuple[tuple[str, float], ...] = ()
    client: str = "anonymous"
    pricing: str = "roofline"

    @classmethod
    def from_request(cls, payload: Mapping[str, Any]) -> "Query":
        """Validate a JSON request body; raises :class:`ServiceError`
        (status 400) on any malformed field."""
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        unknown = set(payload) - {"workload", "cluster", "n_nodes", "steps",
                                  "overrides", "client", "pricing"}
        if unknown:
            raise ServiceError(
                400, f"unknown request field(s) {sorted(unknown)}")
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ServiceError(400, "workload must be a non-empty string")
        cluster = payload.get("cluster", "cte-arm")
        if not isinstance(cluster, str):
            raise ServiceError(400, "cluster must be a string")
        n_nodes = payload.get("n_nodes", 1)
        if not isinstance(n_nodes, int) or isinstance(n_nodes, bool) \
                or n_nodes < 1:
            raise ServiceError(400, "n_nodes must be a positive integer")
        steps = payload.get("steps", 1)
        if not isinstance(steps, int) or isinstance(steps, bool) \
                or not 1 <= steps <= MAX_STEPS:
            raise ServiceError(
                400, f"steps must be an integer in [1, {MAX_STEPS}]")
        raw = payload.get("overrides", {})
        if not isinstance(raw, Mapping):
            raise ServiceError(400, "overrides must be an object")
        try:
            # the shared validation seam (repro.ir.batch): service and
            # batch layers accept exactly the same override keys and values
            overrides = tuple(sorted(validate_overrides(raw).items()))
        except ConfigurationError as exc:
            raise ServiceError(400, str(exc)) from None
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise ServiceError(400, "client must be a non-empty string")
        pricing = payload.get("pricing", "roofline")
        if not isinstance(pricing, str):
            raise ServiceError(400, "pricing must be a string")
        pricing = pricing.lower()
        from repro.machine.models import PRICING_MODELS

        if pricing not in PRICING_MODELS:
            raise ServiceError(
                400, f"unknown pricing model {pricing!r}; choose from "
                f"{', '.join(sorted(PRICING_MODELS))}")
        return cls(workload=workload.lower(), cluster=cluster.lower(),
                   n_nodes=n_nodes, steps=steps,
                   overrides=overrides, client=client,
                   pricing=pricing)

    def to_request(self) -> dict[str, Any]:
        """The JSON request body equivalent of this query."""
        return {
            "workload": self.workload,
            "cluster": self.cluster,
            "n_nodes": self.n_nodes,
            "steps": self.steps,
            "overrides": dict(self.overrides),
            "client": self.client,
            "pricing": self.pricing,
        }


class TokenBucket:
    """Classic token bucket over an *injected* clock.

    ``burst`` tokens capacity, refilled at ``rate`` tokens/second; a
    request costs one token.  All state transitions are a pure function
    of the sequence of ``now`` values, so a seeded arrival schedule
    yields byte-identical admission decisions on every replay.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ConfigurationError("quota rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0
        self._primed = False

    def try_acquire(self, now: float) -> tuple[bool, float]:
        """Take one token at time ``now``; returns ``(granted,
        retry_after_seconds)`` (retry_after is 0.0 when granted)."""
        if not self._primed:
            self._last = now
            self._primed = True
        elapsed = max(0.0, now - self._last)
        self._last = max(self._last, now)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate

    def full_at(self, now: float) -> bool:
        """Refilled to ``burst`` by ``now``: as good as a fresh bucket."""
        return self._tokens + max(0.0, now - self._last) * self.rate >= self.burst


class QuotaRegistry:
    """Per-client token buckets, created lazily with shared limits.

    ``now`` is clamped to the latest value seen.  Full buckets, which
    answer exactly like fresh ones, are dropped whenever the table has
    doubled since the last sweep (and holds at least ``MIN_SWEEP``).
    """

    MIN_SWEEP = 64

    def __init__(self, rate: float, burst: float) -> None:
        self._rate = rate
        self._burst = burst
        self._buckets: dict[str, TokenBucket] = {}
        self._now = float("-inf")
        self._sweep_at = self.MIN_SWEEP
        self._lock = threading.Lock()

    def admit(self, client: str, now: float) -> tuple[bool, float]:
        with self._lock:
            now = self._now = max(self._now, now)
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self._sweep_at:
                    self._buckets = {c: b for c, b in self._buckets.items()
                                     if not b.full_at(now)}
                    self._sweep_at = max(self.MIN_SWEEP, 2 * len(self._buckets))
                bucket = self._buckets[client] = TokenBucket(self._rate, self._burst)
            return bucket.try_acquire(now)


@dataclass
class _Pending:
    """One in-flight query waiting for its batched result."""

    job: BatchJob
    done: threading.Event = field(default_factory=threading.Event)
    result: RunResult | None = None
    error: BaseException | None = None


class AdmissionBatcher:
    """Coalesce concurrent queries into stacked ``run_batch`` passes.

    Submitting threads enqueue a :class:`BatchJob` and block; a single
    daemon worker wakes on the first arrival and prices everything
    already queued (up to ``max_batch`` jobs) at once in one vectorized
    tape pass; queries arriving during a pass form the next batch.

    Per-job faults are isolated: if a stacked pass raises or returns the
    wrong number of results, the batch is re-run job-by-job so only the
    offending query observes the error.  If the worker dies, stranded
    callers get a 503 at once and :attr:`fault` holds it until a later
    pass succeeds; the next submit restarts the worker.
    """

    def __init__(self, backend: BatchAnalyticBackend | None = None, *,
                 max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.backend = backend if backend is not None \
            else BatchAnalyticBackend()
        self.max_batch = max_batch
        self._queue: list[_Pending] = []
        self._wake = threading.Condition()
        self._closed = False
        self._worker: threading.Thread | None = None
        self.fault: ServiceError | None = None  # the worker's last death
        # -- observability ---------------------------------------------------
        self.queries = 0
        self.batches = 0
        self.largest_batch = 0
        self.batched_queries = 0  # queries that shared a pass with others

    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._run, name="repro-service-batcher", daemon=True)
            self._worker.start()

    def submit(self, job: BatchJob, timeout: float | None = 60.0) -> RunResult:
        """Price one job through the shared batching pass (blocking)."""
        pending = _Pending(job)
        with self._wake:
            if self._closed:
                raise ServiceError(503, "service is shutting down")
            self._ensure_worker()
            self._queue.append(pending)
            self._wake.notify()
        if not pending.done.wait(timeout):
            raise ServiceError(504, "query timed out in the admission queue")
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def close(self) -> None:
        """Stop accepting work and wake the worker to drain and exit."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=5.0)

    # -- worker --------------------------------------------------------------

    def _run(self) -> None:
        batch: list[_Pending] = []
        try:
            while True:
                with self._wake:
                    while not self._queue and not self._closed:
                        self._wake.wait()
                    if not self._queue:
                        return
                    batch = self._queue[: self.max_batch]
                    del self._queue[: self.max_batch]
                self._price(batch)
                self.fault = None
        except BaseException as exc:  # re-raised once no caller can hang
            error = ServiceError(503, f"pricing worker failed: {exc!r}")
            with self._wake:  # the next submit starts a fresh worker
                stranded, self._queue = batch + self._queue, []
                self._worker, self.fault = None, error
            for pending in stranded:
                if not pending.done.is_set():
                    pending.error = error
                    pending.done.set()
            raise

    def _price(self, batch: list[_Pending]) -> None:
        self.queries += len(batch)
        self.batches += 1
        self.largest_batch = max(self.largest_batch, len(batch))
        if len(batch) > 1:
            self.batched_queries += len(batch)
        try:
            results = self.backend.run_batch([p.job for p in batch])
            if len(results) != len(batch):
                raise RuntimeError(f"{len(results)} results, {len(batch)} jobs")
        except Exception:
            for pending in batch:  # isolate the faulty job
                self._price_one(pending)
        else:
            for pending, result in zip(batch, results):
                pending.result = result
                pending.done.set()

    def _price_one(self, pending: _Pending) -> None:
        try:
            (pending.result,) = self.backend.run_batch([pending.job])
        except Exception as exc:  # delivered to the submitting thread
            pending.error = exc
        pending.done.set()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`CapacityService` instance."""

    quota_rate: float = 50.0       # tokens/second per client
    quota_burst: float = 20.0      # bucket capacity per client
    max_batch: int = 64            # stacked jobs per tape pass
    tape_budget_bytes: int | None = None  # warm-tape memory budget
    queue_timeout_s: float = 60.0  # per-query wait bound

    def __post_init__(self) -> None:
        if self.quota_rate <= 0 or self.quota_burst <= 0:
            raise ConfigurationError("quota rate and burst must be positive")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.tape_budget_bytes is not None and self.tape_budget_bytes < 1:
            raise ConfigurationError(
                "tape_budget_bytes must be a positive byte count")
        if self.queue_timeout_s <= 0:
            raise ConfigurationError("queue_timeout_s must be positive")


class CapacityService:
    """The capacity-planning server core (transport-agnostic).

    ``handle(request) -> (status, body)`` is the whole API; the HTTP
    front end (:mod:`repro.service.httpd`) drives it, and tests call it
    directly.  The clock is injectable per call, so quota decisions
    under a seeded schedule are deterministic.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 backend: BatchAnalyticBackend | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        if self.config.tape_budget_bytes is not None:
            set_tape_budget(self.config.tape_budget_bytes)
        self.batcher = AdmissionBatcher(backend,
                                        max_batch=self.config.max_batch)
        self.quotas = QuotaRegistry(self.config.quota_rate,
                                    self.config.quota_burst)
        self._clusters: Memo[ClusterModel] = Memo(
            "service.clusters", CLUSTER_MEMO_ENTRIES, register=False)
        self._programs: Memo[Program] = Memo(
            "service.programs", PROGRAM_MEMO_ENTRIES, register=False)
        self.rejected = 0
        self.failed = 0

    # -- resolution (cached, shared across requests) -------------------------

    def _cluster(self, name: str) -> ClusterModel:
        """Cluster preset by name — one shared instance per name so the
        batch layer's id-memoized fingerprints stay warm."""
        from repro.verify.runner import resolve_cluster

        hit = self._clusters.get(name)
        if hit is not None:
            return hit
        try:
            cluster = resolve_cluster(name)
        except ConfigurationError as exc:
            raise ServiceError(400, str(exc)) from exc
        return self._clusters.put(name, cluster)

    def _program(self, query: Query, cluster: ClusterModel) -> Program:
        """The workload IR for this query (bench or app), memoized per
        (workload, cluster, n_nodes, steps) up to
        :data:`PROGRAM_MEMO_ENTRIES` recent keys."""
        key = (query.workload, query.cluster, query.n_nodes, query.steps)
        hit = self._programs.get(key)
        if hit is not None:
            return hit
        from repro.ir.analyze.catalog import target

        try:
            resolved = target(query.workload, cluster, query.n_nodes,
                              steps=query.steps)
        except KeyError as exc:
            from repro.apps import ALL_APPS
            from repro.ir.analyze.catalog import BENCH_NAMES

            raise ServiceError(
                404, f"unknown workload {query.workload!r}; choose a bench "
                f"{sorted(BENCH_NAMES)} or app {sorted(ALL_APPS)}") from exc
        except (ConfigurationError, OutOfMemoryError) as exc:
            raise ServiceError(422, str(exc)) from exc
        return self._programs.put(key, resolved.program)

    def job_for(self, query: Query) -> BatchJob:
        """Resolve a validated query to the exact :class:`BatchJob` the
        service prices — the reference point for bit-identity tests."""
        cluster = self._cluster(query.cluster)
        if query.n_nodes > cluster.n_nodes:
            raise ServiceError(
                422, f"{query.cluster} has {cluster.n_nodes} nodes; "
                f"cannot price {query.n_nodes}")
        program = self._program(query, cluster)
        try:
            program.check_feasible(cluster, query.n_nodes)
        except OutOfMemoryError as exc:
            raise ServiceError(422, str(exc)) from exc
        return BatchJob(program, cluster, query.n_nodes,
                        check_memory=False,
                        overrides=dict(query.overrides) or None,
                        pricing=query.pricing)

    # -- the API -------------------------------------------------------------

    def price(self, query: Query, *, now: float | None = None) -> dict[str, Any]:
        """Answer one validated query; raises :class:`ServiceError` for
        quota/validation/feasibility failures."""
        stamp = time.monotonic() if now is None else now
        granted, retry_after = self.quotas.admit(query.client, stamp)
        if not granted:
            self.rejected += 1
            raise ServiceError(
                429, f"quota exceeded for client {query.client!r}",
                retry_after=retry_after)
        job = self.job_for(query)
        try:
            result = self.batcher.submit(
                job, timeout=self.config.queue_timeout_s)
        except ServiceError:
            self.failed += 1
            raise
        except (ToolchainError, ConfigurationError, OutOfMemoryError) as exc:
            self.failed += 1
            raise ServiceError(422, str(exc)) from exc
        except KeyError as exc:
            # Registry presets without Table III toolchain defaults (e.g.
            # an app workload on thunderx2) surface here from the batch
            # layer's compiler resolution.
            self.failed += 1
            raise ServiceError(422, str(exc.args[0]) if exc.args
                               else str(exc)) from exc
        except Exception as exc:  # a backend bug: typed, not a dropped reply
            self.failed += 1
            raise ServiceError(500, f"pricing failed: {exc!r}") from exc
        times = (result.elapsed, *result.phase_seconds.values(),
                 *result.phase_compute.values(), *result.phase_comm.values())
        if not all(map(math.isfinite, times)):  # e.g. a subnormal scale
            self.failed += 1
            raise ServiceError(
                422, f"{query.workload} on {query.n_nodes} nodes prices to "
                f"a non-finite time under overrides {dict(query.overrides)}")
        return encode_result(query, result)

    def handle(self, payload: Mapping[str, Any], *,
               now: float | None = None) -> tuple[int, dict[str, Any]]:
        """The transport-facing entry: JSON body in, (status, body) out."""
        try:
            query = Query.from_request(payload)
            return 200, self.price(query, now=now)
        except ServiceError as exc:
            return exc.status, exc.body()

    def health(self) -> tuple[int, dict[str, Any]]:
        """The /v1/health reply: 503 while the batcher is faulted."""
        fault = self.batcher.fault
        return (200, {"status": "ok"}) if fault is None else (503, fault.body())

    def stats(self) -> dict[str, Any]:
        """Service counters + cache residency (the /v1/stats body):
        ``memos`` holds the counters of every registered memo and of the
        service's own; ``tape_cache`` repeats the tape memo's."""
        batcher = self.batcher
        return {
            "queries": batcher.queries,
            "batches": batcher.batches,
            "largest_batch": batcher.largest_batch,
            "batched_queries": batcher.batched_queries,
            "rejected": self.rejected,
            "failed": self.failed,
            "tape_cache": tape_cache_stats(),
            "memos": {**memo_stats(),
                      **{memo.name: memo.stats()
                         for memo in (self._clusters, self._programs)}},
        }

    def close(self) -> None:
        self.batcher.close()

    def __enter__(self) -> "CapacityService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def encode_result(query: Query, result: RunResult) -> dict[str, Any]:
    """Canonical (deterministic, key-sorted) response body for one
    priced query — the shape pinned by ``tests/golden/
    service_responses.json``."""
    return {
        "workload": query.workload,
        "cluster": query.cluster,
        "n_nodes": query.n_nodes,
        "steps": result.steps,
        "overrides": dict(query.overrides),
        "pricing": query.pricing,
        "n_ranks": result.n_ranks,
        "backend": result.backend,
        "elapsed_seconds": result.elapsed,
        "seconds_per_step": result.seconds_per_step,
        "phase_seconds": {k: result.phase_seconds[k]
                          for k in sorted(result.phase_seconds)},
        "phase_compute": {k: result.phase_compute[k]
                          for k in sorted(result.phase_compute)},
        "phase_comm": {k: result.phase_comm[k]
                       for k in sorted(result.phase_comm)},
    }
