"""Spans around the program's public entry points, installed from outside.

:class:`Tracer` wraps the functions and methods listed in :data:`LAYERS`
by patching them in place (every ``repro.*`` module that imported a
wrapped function by name is patched too) and restores the originals on
:meth:`Tracer.uninstall`.  Nothing is patched unless a traced run asks
for it, so untraced runs execute the program unmodified.

Each call records a span: layer name, start, end, the enclosing span
(per thread) and the thread.  A layer's *self* time is its span's
duration minus the time its child spans cover; summed over all layers it
equals the time covered by top-level spans, so ``wall - sum(self)`` is
the untraced remainder ("other").  Each thread records into its own
log, so recording takes no lock.  Aggregates are exact; the kept spans
are capped at :data:`MAX_SPANS` per thread and written out with the
summary.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: (layer, owner, attribute, kind) — owner is a module path or
#: ``module:Class``; kind is "function", "method", "classmethod" or
#: "generator" (a method returning an iterator: each ``next`` is a span).
LAYERS: tuple[tuple[str, str, str, str], ...] = (
    ("ir.compile", "repro.apps.base:AppModel", "program", "method"),
    ("ir.compile", "repro.ir.analyze.catalog", "target", "function"),
    ("tape.compile", "repro.ir.batch", "compile_tape", "function"),
    ("batch", "repro.ir.batch:BatchAnalyticBackend", "run_batch", "method"),
    ("columns", "repro.ir.batch:BatchAnalyticBackend",
     "run_override_columns", "generator"),
    ("tune.space", "repro.tune.space", "build_space", "function"),
    ("tune.pareto", "repro.tune.pareto", "pareto_indices", "function"),
    ("network.p2p", "repro.network.model:NetworkModel", "p2p_time", "method"),
    ("network.hops", "repro.network.model:NetworkModel", "hops", "method"),
    ("network.build", "repro.network.model", "network_for", "function"),
    ("harness.experiment", "repro.harness.experiment", "run_experiment",
     "function"),
    ("service.parse", "repro.service.core:Query", "from_request",
     "classmethod"),
    ("service.handle", "repro.service.core:CapacityService", "handle",
     "method"),
    ("service.submit", "repro.service.core:AdmissionBatcher", "submit",
     "method"),
    ("service.encode", "repro.service.core", "encode_result", "function"),
    ("des.lower", "repro.ir.lower", "lower", "function"),
    ("des.run_sharded", "repro.des.shard.driver", "run_sharded", "function"),
)


#: spans kept per thread for the spans file (aggregates stay exact)
MAX_SPANS = 50_000

#: layers whose results carry work counts (see ``Tracer._observe``)
_OBSERVED = frozenset({"batch", "columns", "des.run_sharded"})


class _ThreadLog:
    """One thread's open-span stack, totals and kept spans (written only
    by that thread, so recording takes no lock)."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[list[float]] = []  # [span id, child s, start]
        self.layers: dict[str, list[float]] = {}
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.dropped = 0


class Tracer:
    """In-memory span recorder with exact per-layer self-time totals."""

    def __init__(self) -> None:
        #: free-form counts recorded at the same boundaries
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> (attribute, original, wrapper); holding the
        #: wrapper keeps its id from being reused while installed
        self._wrappers: dict[int, tuple[str, Any, Any]] = {}

    # -- recording -------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(
                threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
        return log

    def _close(self, name: str, log: _ThreadLog,
               frame: list[float]) -> float:
        end = perf_counter()
        stack = log.stack
        stack.pop()
        span_id, child, start = frame
        duration = end - start
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = int(stack[-1][0])
        row = log.layers.get(name)
        if row is None:
            row = log.layers[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if len(log.spans) < MAX_SPANS:
            log.spans.append((int(span_id), parent, name, log.thread,
                              start, end))
        else:
            log.dropped += 1
        return duration

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        ids = self._ids

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer._log()
            frame = [next(ids), 0.0, perf_counter()]
            log.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(name, log, frame)
            if name in _OBSERVED:
                tracer._observe(name, args, result, duration)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, name: str,
                       fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        tracer = self
        ids = self._ids

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = iter(fn(*args, **kwargs))
            while True:
                log = tracer._log()
                frame = [next(ids), 0.0, perf_counter()]
                log.stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = tracer._close(name, log, frame)
                tracer._observe(name, args, item, duration)
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _observe(self, name: str, args: tuple, result: Any,
                 duration: float) -> None:
        """Work counts of the boundaries that carry them."""
        if name == "batch":
            self.count("batch.jobs", len(args[1]))
            # job-weighted batch time: a job's share of the pass it rode in
            self.count("batch.job_s", duration * len(args[1]))
        elif name == "columns":
            self.count("columns.points", len(result))
        elif name == "des.run_sharded":
            _, stats = result
            if stats.n_shards < 2:
                return  # the single-engine run has no window sync
            self.count("des.sharded_wall_s", duration)
            self.count("des.events", stats.events)
            self.count("des.windows", stats.windows)
            self.count("des.cross_messages", stats.cross_messages)
            walls = list(stats.shard_wall_s.values())
            self.count("des.engine_s", sum(walls))
            self.count("des.critical_s", max(walls))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :data:`LAYERS` (idempotent)."""
        if self._patches:
            return
        import importlib

        for name, owner, attr, kind in LAYERS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if kind == "classmethod":
                    bound = getattr(cls, attr)
                    patched: Any = staticmethod(self.wrap(name, bound))
                elif kind == "generator":
                    patched = self.wrap_generator(name, raw)
                else:
                    patched = self.wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            self._wrappers[id(wrapped)] = (attr, original, wrapped)
            for mod in _repro_modules():
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, including copies of a wrapper
        that modules imported while it was installed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for mod in _repro_modules():
            for attr, original, wrapped in self._wrappers.values():
                if getattr(mod, attr, None) is wrapped:
                    setattr(mod, attr, original)
        self._wrappers.clear()

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Per-layer ``[calls, inclusive s, self s]`` summed over threads,
        and the counters."""
        layers: dict[str, list[float]] = {}
        with self._lock:
            logs = list(self._logs)
            counters = dict(self.counters)
        for log in logs:
            for name, row in list(log.layers.items()):
                total = layers.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(row):
                    total[i] += value
        return {"layers": layers, "counters": counters}

    def span_count(self) -> int:
        """Spans recorded so far, on all threads."""
        return int(sum(row[0] for row in self.snapshot()["layers"].values()))

    def write(self, path: Path) -> None:
        """Write the summary and the kept spans as one JSON document."""
        snap = self.snapshot()
        with self._lock:
            logs = list(self._logs)
        payload = {
            "layers": {k: {"calls": int(v[0]), "inclusive_s": v[1],
                           "self_s": v[2]}
                       for k, v in sorted(snap["layers"].items())},
            "counters": dict(sorted(snap["counters"].items())),
            "spans_kept": sum(len(log.spans) for log in logs),
            "spans_dropped": sum(log.dropped for log in logs),
            "span_fields": ["id", "parent", "layer", "thread",
                            "start_s", "end_s"],
            "spans": [span for log in logs for span in log.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


#: calls per round of the :func:`span_cost` probe
_PROBE_CALLS = 20_000


def span_cost() -> float:
    """Measured seconds one span adds to a call, for overhead
    compensation: a wrapped method taking arguments, called inside an
    open span (as the hot network methods are), against the plain one;
    the median of several rounds."""
    tracer = Tracer()

    class Probe:
        def call(self, a: int, b: int) -> int:
            return a

    probe = Probe()

    def loop() -> float:
        t0 = perf_counter()
        for i in range(_PROBE_CALLS):
            probe.call(i, b=i)
        return perf_counter() - t0

    outer = tracer.wrap("outer", loop)
    plain = Probe.__dict__["call"]
    costs = []
    for _ in range(5):
        base = loop()
        Probe.call = tracer.wrap("probe", plain)  # type: ignore[method-assign]
        try:
            traced = outer()
        finally:
            Probe.call = plain  # type: ignore[method-assign]
        costs.append((traced - base) / _PROBE_CALLS)
    return max(0.0, statistics.median(costs))


def _repro_modules() -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if name.startswith("repro") and mod is not None]
