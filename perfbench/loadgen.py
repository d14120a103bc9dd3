"""Open-loop HTTP load generator that does not hide queueing.

Requests fire at their scheduled due times whether or not earlier ones
have completed.  The generator is one process with at most ``nproc``
client threads, each holding one keep-alive connection; when every
thread is busy at a due time, the request goes out late.  Latency is
timed from the **due** time, so a stall is charged to every request it
delays, and the lateness of each send is recorded separately
(``late_s``) so a generator that falls behind is visible.

The stdlib server writes a response's headers and body in two segments,
so on a kept-alive connection Nagle's algorithm would hold the body until
the client's delayed acknowledgement (~40 ms).  The client therefore
acknowledges at once (``TCP_QUICKACK``, Linux) before every read.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Any

#: a send this much past its due time counts as late
LATE_THRESHOLD_S = 0.001
#: Linux-only socket option; elsewhere replies may wait on delayed ACKs
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


@dataclass
class Sent:
    """Outcome of one request."""

    index: int
    body: dict[str, Any]
    status: int
    latency_s: float     # response complete minus due time
    late_s: float        # send time minus due time
    round_trip_s: float  # response complete minus send time
    response: dict[str, Any] | None


def client_threads() -> int:
    """Client threads (and connections): ``nproc``, at most 4."""
    return max(1, min(4, os.cpu_count() or 1))


class _Connection:
    """One kept-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def _read(self) -> None:
        if _QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def post(self, data: bytes) -> tuple[int, dict[str, Any] | None]:
        """``POST /v1/price``; returns the status and the decoded body."""
        self.sock.sendall(
            f"POST /v1/price HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        while b"\r\n\r\n" not in self.buffer:
            self._read()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *fields = head.split(b"\r\n")
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise http.client.BadStatusLine(
                status_line.decode(errors="replace"))
        length = 0
        for field in fields:
            name, _, value = field.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._read()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        try:
            return int(parts[1]), json.loads(body)
        except ValueError:
            return int(parts[1]), None


def run_stage(host: str, port: int,
              requests: list[dict[str, Any]]) -> tuple[list[Sent], float]:
    """Send ``requests`` (``{"due": seconds, "body": {...}}``, due times
    relative to the stage start) open-loop; returns the outcomes in
    request order and the stage's wall seconds."""
    out: list[Sent | None] = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    errors: list[BaseException] = []
    start = perf_counter() + 0.005

    def worker() -> None:
        conn: _Connection | None = None
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                request = requests[i]
                due = start + request["due"]
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                sent = perf_counter()
                data = json.dumps(request["body"]).encode()
                status, response = 0, None
                for _ in range(2):  # one retry on a fresh connection
                    try:
                        if conn is None:
                            conn = _Connection(host, port)
                        status, response = conn.post(data)
                        break
                    except (http.client.HTTPException, OSError):
                        if conn is not None:
                            conn.close()
                        conn = None
                done = perf_counter()
                out[i] = Sent(i, request["body"], status, done - due,
                              sent - due, done - sent, response)
        except BaseException as exc:  # reported after join
            errors.append(exc)
        finally:
            if conn is not None:
                conn.close()

    pool = [threading.Thread(target=worker, name=f"loadgen-{k}")
            for k in range(client_threads())]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    wall = perf_counter() - start
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in pool) or any(s is None for s in out):
        raise RuntimeError("load generator did not finish its schedule")
    return [s for s in out if s is not None], wall


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(samples: list[Sent], wall_s: float) -> dict[str, Any]:
    """Latency digest of one stage (all requests, failed ones included:
    a failed request misses every latency limit)."""
    ok = [s for s in samples if s.status == 200]
    latencies = [s.latency_s * 1e3 if s.status == 200 else float("inf")
                 for s in samples]
    late = [s.late_s * 1e3 for s in samples]
    return {
        "samples": len(samples),
        "ok": len(ok),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "mean_ms": (sum(s.latency_s for s in ok) / len(ok) * 1e3
                    if ok else 0.0),
        "achieved_rps": len(ok) / wall_s if wall_s > 0 else 0.0,
        "late_mean_ms": sum(late) / len(late) if late else 0.0,
        "late_p99_ms": percentile(late, 99),
        "late_share": (sum(s.late_s > LATE_THRESHOLD_S for s in samples)
                       / len(samples) if samples else 0.0),
    }
