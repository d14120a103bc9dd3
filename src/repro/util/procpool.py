"""Persistent worker processes with per-call wall-time accounting.

:class:`~concurrent.futures.ProcessPoolExecutor` re-pickles the task
function per dispatch and gives no per-task timing; the sharded DES
driver (:mod:`repro.des.shard.driver`) instead needs long-lived workers
that hold heavy state (built sub-worlds) across hundreds of small
window-boundary exchanges.  A :class:`PersistentPool` spawns one process
per init payload, builds a handler object inside each via a module-level
factory, and then routes ``call_all`` batches over pipes — measuring the
handler wall time worker-side, so the stats separate simulation work
from IPC.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import Connection, wait
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from repro.util.errors import ConfigurationError, WorkerLostError

#: Environment variable overriding the pool cost threshold (seconds).
POOL_MIN_ENV = "REPRO_POOL_MIN_SECONDS"

#: Minimum estimated serial cost (seconds) of the *remaining* work before
#: a worker pool pays for itself.  Spawning interpreters and re-importing
#: ``repro`` costs O(1 s) per worker; below this, in-process execution
#: wins (the old path lost to serial on small suites — 0.93x speedup).
POOL_MIN_SECONDS = 2.0


def pool_min_seconds() -> float:
    """Pool cost threshold: ``$REPRO_POOL_MIN_SECONDS`` override, else
    :data:`POOL_MIN_SECONDS`.

    Every probe-then-pool call site shares it: the experiment sweep
    (:mod:`repro.harness.parallel`), the streaming batch driver
    (:meth:`repro.ir.batch.BatchAnalyticBackend.run_batch_stream`) and the
    tuner (:mod:`repro.tune.engine`) spawn workers only when the measured
    serial cost of the remaining work clears it.
    """
    env = os.environ.get(POOL_MIN_ENV)
    if not env:
        return POOL_MIN_SECONDS
    try:
        return float(env)
    except ValueError:
        raise ConfigurationError(
            f"{POOL_MIN_ENV} must be a number, got {env!r}"
        ) from None


def _pool_worker(
    conn: Connection, factory: Callable[[Any], Any], init: Any
) -> None:
    try:
        handler = factory(init)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        _send_error(conn, exc, 0.0)
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        t0 = perf_counter()
        try:
            result = handler.handle(msg[1])
        except BaseException as exc:  # noqa: BLE001 - forwarded
            _send_error(conn, exc, perf_counter() - t0)
            continue
        conn.send(("ok", result, perf_counter() - t0))


def _send_error(conn: Connection, exc: BaseException, wall: float) -> None:
    try:
        conn.send(("err", exc, wall))
    except Exception:
        # Unpicklable exception: forward a picklable stand-in.
        conn.send(("err", RuntimeError(f"worker failed: {exc!r}"), wall))


class PersistentPool:
    """One process per init payload; batched request/reply over pipes."""

    def __init__(
        self,
        factory: Callable[[Any], Any],
        inits: list[Any],
    ) -> None:
        ctx = multiprocessing.get_context()
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        #: per-worker handler wall seconds, one entry per completed call.
        self.call_walls: list[list[float]] = [[] for _ in inits]
        for init in inits:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker,
                args=(child_conn, factory, init),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def __len__(self) -> int:
        return len(self._procs)

    def call_all(self, messages: list[Any]) -> list[Any]:
        """Send ``messages[i]`` to worker ``i``; gather replies in worker
        order.  A worker-side exception is re-raised here after the whole
        batch has been collected (no worker is left mid-protocol); a
        worker that dies raises :class:`~repro.util.errors.WorkerLostError`
        with the pool closed."""
        if len(messages) != len(self._conns):
            raise ValueError(
                f"{len(messages)} messages for {len(self._conns)} workers"
            )
        for i, msg in enumerate(messages):
            self._send(i, ("call", msg))
        replies: list[Any] = []
        error: BaseException | None = None
        for i in range(len(self._conns)):
            kind, payload, wall = self._recv(i)
            self.call_walls[i].append(wall)
            if kind == "err":
                error = error if error is not None else payload
                replies.append(None)
            else:
                replies.append(payload)
        if error is not None:
            self.close()
            raise error
        return replies

    def imap(self, messages: Iterable[Any]) -> Iterator[Any]:
        """Pipelined ordered map: stream any number of messages through
        the fixed worker set, yielding results in INPUT order.

        Unlike :meth:`call_all` (one message per worker, a barrier per
        round), ``imap`` keeps every worker busy: an idle worker
        immediately receives the next message while slower ones are still
        computing, and a bounded reorder buffer (2x the worker count)
        restores input order — so both memory and outstanding work stay
        bounded for million-point streams.  The input iterable is
        consumed lazily.  A worker-side exception stops dispatch, drains
        the in-flight calls, closes the pool, and re-raises; a dead
        worker raises :class:`~repro.util.errors.WorkerLostError` with the
        pool closed.  Abandoning the generator mid-stream leaves in-flight
        calls un-collected; ``close()`` still shuts the workers down
        cleanly.
        """
        feed = enumerate(iter(messages))
        pending: dict[int, int] = {}   # worker index -> message index
        done: dict[int, Any] = {}      # message index -> result
        by_conn = {id(conn): w for w, conn in enumerate(self._conns)}
        idle = list(range(len(self._conns)))
        next_out = 0
        exhausted = False
        error: BaseException | None = None
        max_buffered = max(2, 2 * len(self._conns))
        while True:
            while (idle and not exhausted and error is None
                   and len(done) < max_buffered):
                try:
                    idx, msg = next(feed)
                except StopIteration:
                    exhausted = True
                    break
                worker = idle.pop()
                pending[worker] = idx
                self._send(worker, ("call", msg))
            if not pending:
                break
            for conn in wait([self._conns[w] for w in pending]):
                worker = by_conn[id(conn)]
                kind, payload, wall = self._recv(worker)
                self.call_walls[worker].append(wall)
                idx = pending.pop(worker)
                idle.append(worker)
                if kind == "err":
                    error = error if error is not None else payload
                else:
                    done[idx] = payload
            while error is None and next_out in done:
                yield done.pop(next_out)
                next_out += 1
        if error is not None:
            self.close()
            raise error
        while next_out in done:
            yield done.pop(next_out)
            next_out += 1

    def map(self, messages: Iterable[Any]) -> list[Any]:
        """Materialized :meth:`imap` — all results, in input order."""
        return list(self.imap(messages))

    def _send(self, worker: int, msg: Any) -> None:
        try:
            self._conns[worker].send(msg)
        except (BrokenPipeError, ConnectionResetError, EOFError) as exc:
            raise self._lost(worker) from exc

    def _recv(self, worker: int) -> Any:
        try:
            return self._conns[worker].recv()
        except (ConnectionResetError, EOFError) as exc:
            raise self._lost(worker) from exc

    def _lost(self, worker: int) -> WorkerLostError:
        """Close the pool after ``worker`` died; the error to raise.

        The survivors are mid-call, so they are terminated rather than
        asked to stop (a reply nobody reads could block them on a full
        pipe until ``close`` gives up on them).
        """
        proc = self._procs[worker]
        proc.join(timeout=5.0)
        for other in self._procs:
            if other.is_alive():
                other.terminate()
        self.close()
        return WorkerLostError(
            f"pool worker {worker} died mid-call "
            f"(exit code {proc.exitcode})",
            worker=worker, exitcode=proc.exitcode,
        )

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
