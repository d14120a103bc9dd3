"""Capacity-planning service: core semantics + the concurrency suite.

The load-bearing guarantees (ISSUE 8):

* responses served through the admission batcher are **bit-identical**
  to direct serial ``BatchAnalyticBackend.run_batch`` calls, under
  concurrent hammering;
* no query is dropped or double-answered under races;
* quota rejections are a pure function of a seeded arrival schedule;
* evicting a warm tape under memory pressure never changes results and
  the eviction policy actually bounds resident tape bytes;
* the pinned JSON response shapes in ``tests/golden/
  service_responses.json`` (regenerate with ``--update-golden``).
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.ir import Program, Phase, ComputeOp
from repro.ir.batch import (
    BatchAnalyticBackend,
    BatchJob,
    compile_tape,
    set_tape_budget,
    tape_cache_stats,
)
from repro.machine import cte_arm
from repro.service import (
    AdmissionBatcher,
    CapacityService,
    Query,
    ServiceConfig,
    ServiceError,
    TokenBucket,
    TrafficConfig,
    arrival_schedule,
    encode_result,
)
from repro.service.traffic import Scenario
from repro.util.errors import ConfigurationError

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fast service knobs for tests: a quota no test run can exhaust.
_FAST = ServiceConfig(quota_rate=1e6, quota_burst=1e6)


def _mixed_queries() -> list[Query]:
    """A representative query mix: benches + apps, both clusters, with
    and without overrides."""
    return [
        Query("stream", "cte-arm", 1),
        Query("hpcg", "cte-arm", 8),
        Query("osu", "cte-arm", 8),
        Query("linpack", "mn4", 16),
        Query("nemo", "cte-arm", 16, overrides=(("comm_scale", 1.25),)),
        Query("gromacs", "cte-arm", 8,
              overrides=(("bandwidth_scale", 0.5),)),
        Query("wrf", "mn4", 4),
        Query("alya", "cte-arm", 12, steps=2),
    ]


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        granted, retry = bucket.try_acquire(0.0)
        assert not granted and retry == pytest.approx(0.1)
        # a tenth of a second refills exactly one token
        assert bucket.try_acquire(0.1) == (True, 0.0)

    def test_deterministic_replay(self):
        stamps = [0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.53, 2.0]
        runs = []
        for _ in range(2):
            bucket = TokenBucket(rate=5.0, burst=2.0)
            runs.append([bucket.try_acquire(t) for t in stamps])
        assert runs[0] == runs[1]
        assert any(not granted for granted, _ in runs[0])

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_acquire(10.0)[0]
        # an out-of-order timestamp must not mint negative elapsed time
        granted, retry = bucket.try_acquire(5.0)
        assert not granted and retry > 0
        assert bucket.try_acquire(11.0)[0]

    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=-1.0)


# -- request validation -------------------------------------------------------


class TestQueryValidation:
    def test_round_trip(self):
        query = Query("nemo", "cte-arm", 16,
                      overrides=(("comm_scale", 1.25),), client="c1")
        assert Query.from_request(query.to_request()) == query

    @pytest.mark.parametrize("payload", [
        {},
        {"workload": ""},
        {"workload": 7},
        {"workload": "nemo", "n_nodes": 0},
        {"workload": "nemo", "n_nodes": True},
        {"workload": "nemo", "steps": -1},
        {"workload": "nemo", "overrides": {"bogus": 2.0}},
        {"workload": "nemo", "overrides": {"comm_scale": "x"}},
        {"workload": "nemo", "overrides": {"comm_scale": 0.0}},
        {"workload": "nemo", "n_nodes": 8,
         "overrides": {"compute_scale": float("inf")}},
        {"workload": "nemo", "client": ""},
        {"workload": "nemo", "surprise": 1},
    ])
    def test_malformed_rejected_with_400(self, payload):
        with pytest.raises(ServiceError) as err:
            Query.from_request(payload)
        assert err.value.status == 400

    def test_unknown_workload_is_404(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "no-such-thing"})
        assert status == 404
        assert "stream" in body["error"] and "nemo" in body["error"]

    def test_infeasible_point_is_422(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 2})
        assert status == 422
        assert "GB" in body["error"]

    def test_oversized_partition_is_422(self):
        with CapacityService(_FAST) as svc:
            status, _ = svc.handle({"workload": "hpcg", "n_nodes": 100000})
        assert status == 422

    def test_unknown_pricing_is_400(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 8,
                                       "pricing": "wat"})
        assert status == 400
        assert "ecm" in body["error"] and "roofline" in body["error"]

    def test_app_without_toolchain_defaults_is_422(self):
        # thunderx2 is a registered preset but carries no Table III
        # compiler defaults for the paper apps; benches still price.
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 8,
                                       "cluster": "thunderx2"})
            assert status == 422
            assert "compiler" in body["error"]
            status, body = svc.handle({"workload": "qcd", "n_nodes": 8,
                                       "cluster": "thunderx2",
                                       "pricing": "ecm"})
            assert status == 200
            assert body["pricing"] == "ecm"


# -- the concurrency suite ----------------------------------------------------


def _hammer(n_threads: int, worker) -> list:
    """Start ``n_threads`` barrier-released workers, join, re-raise."""
    barrier = threading.Barrier(n_threads)
    failures: list[BaseException] = []
    outputs: list = [None] * n_threads
    def runner(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            outputs[i] = worker(i)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)
    threads = [threading.Thread(target=runner, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "worker hung"
    if failures:
        raise failures[0]
    return outputs


class TestAdmissionBatcher:
    def test_concurrent_results_bit_identical_to_serial(self):
        queries = _mixed_queries()
        with CapacityService(_FAST) as svc:
            jobs = [svc.job_for(q) for q in queries]
            # serial reference, computed directly (no batcher involved)
            reference = BatchAnalyticBackend()
            expected = [reference.run_batch([job])[0] for job in jobs]

            n_threads = 16
            def worker(i: int):
                out = []
                for j, job in enumerate(jobs):
                    if (i + j) % 2 == 0:  # interleave differently per thread
                        out.append((j, svc.batcher.submit(job)))
                for j, job in reversed(list(enumerate(jobs))):
                    if (i + j) % 2 == 1:
                        out.append((j, svc.batcher.submit(job)))
                return out

            outputs = _hammer(n_threads, worker)
            stats = svc.batcher
            answered = sum(len(o) for o in outputs)
            assert stats.queries == answered == n_threads * len(jobs)
            assert stats.largest_batch > 1, "no coalescing happened"
            for out in outputs:
                for j, result in out:
                    want = expected[j]
                    assert result.elapsed == want.elapsed
                    assert result.phase_seconds == want.phase_seconds
                    assert result.phase_compute == want.phase_compute
                    assert result.phase_comm == want.phase_comm
                    assert result.n_ranks == want.n_ranks

    def test_no_drop_no_double_answer_under_races(self):
        cluster = cte_arm(16)
        program = Program(
            name="svc-race", steps=1,
            body=(Phase("p", (ComputeOp(seconds=1e-6),)),))
        batcher = AdmissionBatcher()
        try:
            n_threads, per_thread = 12, 8
            seen = []
            lock = threading.Lock()
            def worker(i: int):
                for k in range(per_thread):
                    result = batcher.submit(
                        BatchJob(program, cluster, 1 + (i + k) % 4))
                    with lock:
                        seen.append((i, k, result))
            _hammer(n_threads, worker)
            assert len(seen) == n_threads * per_thread
            assert len({(i, k) for i, k, _ in seen}) == len(seen)
            assert batcher.queries == n_threads * per_thread
            assert all(r.elapsed > 0 for _, _, r in seen)
        finally:
            batcher.close()

    def test_faulty_job_is_isolated_from_its_batch(self):
        cluster = cte_arm(8)
        program = Program(
            name="svc-isolate", steps=1,
            body=(Phase("p", (ComputeOp(seconds=1e-6),)),))
        good = BatchJob(program, cluster, 2)
        bad = BatchJob(program, cluster, 2, overrides={"bogus": 2.0})
        batcher = AdmissionBatcher()
        try:
            def worker(i: int):
                if i == 0:
                    with pytest.raises(ConfigurationError):
                        batcher.submit(bad)
                    return "bad"
                return batcher.submit(good)
            outputs = _hammer(6, worker)
            assert outputs.count("bad") == 1
            results = [o for o in outputs if o != "bad"]
            assert len(results) == 5
            assert len({r.elapsed for r in results}) == 1
        finally:
            batcher.close()

    def test_submit_after_close_is_503(self):
        batcher = AdmissionBatcher()
        batcher.close()
        with pytest.raises(ServiceError) as err:
            batcher.submit(BatchJob(
                Program(name="x", body=(Phase("p", (ComputeOp(seconds=1e-6),)),)),
                cte_arm(4), 1))
        assert err.value.status == 503

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionBatcher(max_batch=0)

    @pytest.mark.parametrize("kwargs", [
        {"quota_rate": 0.0},
        {"quota_burst": -1.0},
        {"max_batch": 0},
        {"tape_budget_bytes": -1},
        {"queue_timeout_s": 0.0},
    ])
    def test_service_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)

    def test_coalescing_window_knob_is_gone(self):
        """Batches form from whatever is already queued; a window setting
        must not come back silently."""
        with pytest.raises(TypeError):
            ServiceConfig(window_s=0.002)
        with pytest.raises(TypeError):
            AdmissionBatcher(window_s=0.002)


# -- natural batching and worker faults (stub backends) -----------------------


class _Died(BaseException):
    """Escapes ``except Exception``, so it kills the batcher's worker."""


def _die(killed: list) -> None:
    """Kill the calling batcher worker and record its thread, so a test
    can join it while its expected traceback is still in scope."""
    killed.append(threading.current_thread())
    raise _Died("backend died")


class _GatedBackend:
    """Stub backend: its first pass blocks until :attr:`release` is set
    (then raises :class:`_Died` when ``die``); every pass records its
    size and answers job ``j`` with ``("priced", j)`` — minus the last
    answer of a stacked pass when ``drop_last``."""

    def __init__(self, *, die: bool = False, drop_last: bool = False):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.passes: list[int] = []
        self.killed: list[threading.Thread] = []
        self.die = die
        self.drop_last = drop_last

    def run_batch(self, jobs):
        self.passes.append(len(jobs))
        if len(self.passes) == 1:
            self.entered.set()
            assert self.release.wait(10)
            if self.die:
                _die(self.killed)
        results = [("priced", job) for job in jobs]
        return results[:-1] if self.drop_last and len(jobs) > 1 else results


def _queue_behind_first_pass(batcher: AdmissionBatcher,
                             backend: _GatedBackend, n: int) -> dict:
    """Submit job 0 so the first pass blocks, queue jobs 1..n from one
    thread each, release the pass, and return every submit's outcome
    (its result or the exception it raised)."""
    outcomes: dict = {}

    def submit(i: int) -> None:
        try:
            outcomes[i] = batcher.submit(i, timeout=10)
        except BaseException as exc:  # the outcome under test
            outcomes[i] = exc

    first = threading.Thread(target=submit, args=(0,))
    first.start()
    assert backend.entered.wait(10)
    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(1, n + 1)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 10
    while len(batcher._queue) < n:  # every submit waits behind the pass
        assert time.monotonic() < deadline, "submits never queued"
        time.sleep(0.001)
    backend.release.set()
    for t in [first, *threads]:
        t.join(timeout=15)
    assert len(outcomes) == n + 1, "a submit hung"
    return outcomes


class TestNaturalBatching:
    def test_pass_takes_everything_queued_behind_a_busy_pass(self):
        backend = _GatedBackend()
        batcher = AdmissionBatcher(backend)
        try:
            outcomes = _queue_behind_first_pass(batcher, backend, 12)
        finally:
            batcher.close()
        assert backend.passes == [1, 12]
        assert outcomes == {i: ("priced", i) for i in range(13)}
        assert batcher.largest_batch == 12
        assert batcher.batched_queries == 12

    def test_queued_work_is_split_at_max_batch(self):
        backend = _GatedBackend()
        batcher = AdmissionBatcher(backend, max_batch=5)
        try:
            outcomes = _queue_behind_first_pass(batcher, backend, 12)
        finally:
            batcher.close()
        assert backend.passes == [1, 5, 5, 2]
        assert outcomes == {i: ("priced", i) for i in range(13)}

    def test_lone_query_is_priced_without_sleeping(self, monkeypatch):
        def no_sleep(seconds: float) -> None:
            raise AssertionError(f"the batcher slept {seconds} s")

        monkeypatch.setattr("repro.service.core.time.sleep", no_sleep)
        job = BatchJob(Program(name="svc-lone", body=(
            Phase("p", (ComputeOp(seconds=1e-6),)),)), cte_arm(4), 1)
        batcher = AdmissionBatcher()
        try:
            result = batcher.submit(job, timeout=5)
        finally:
            batcher.close()
        assert result.elapsed == \
            BatchAnalyticBackend().run_batch([job])[0].elapsed
        assert batcher.batches == 1

    def test_no_lost_or_crossed_answers_under_fast_switching(self):
        class Echo:
            def __init__(self):
                self.jobs = 0

            def run_batch(self, jobs):
                self.jobs += len(jobs)
                return [("priced", job) for job in jobs]

        backend = Echo()
        batcher = AdmissionBatcher(backend, max_batch=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(i: int):
                return [batcher.submit((i, k), timeout=10) == ("priced", (i, k))
                        for k in range(50)]
            outputs = _hammer(16, worker)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert all(all(out) and len(out) == 50 for out in outputs)
        assert batcher.queries == backend.jobs == 16 * 50
        assert batcher.largest_batch <= 8

    def test_short_stacked_pass_falls_back_to_job_by_job(self):
        backend = _GatedBackend(drop_last=True)
        batcher = AdmissionBatcher(backend)
        try:
            outcomes = _queue_behind_first_pass(batcher, backend, 6)
        finally:
            batcher.close()
        assert outcomes == {i: ("priced", i) for i in range(7)}
        assert backend.passes == [1, 6] + [1] * 6

    def test_short_single_pass_is_a_typed_500(self):
        class Empty:
            def run_batch(self, jobs):
                return []

        with CapacityService(_FAST, backend=Empty()) as svc:
            status, body = svc.handle({"workload": "stream"})
        assert status == 500
        assert "ValueError" in body["error"]

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_fails_every_stranded_caller_fast(self):
        backend = _GatedBackend(die=True)
        batcher = AdmissionBatcher(backend)
        try:
            t0 = time.monotonic()
            outcomes = _queue_behind_first_pass(batcher, backend, 8)
            assert time.monotonic() - t0 < 5.0
            assert backend.passes == [1]  # the queued jobs never ran
            assert all(isinstance(o, ServiceError) and o.status == 503
                       for o in outcomes.values()), outcomes
            assert "backend died" in batcher.fault.message
            for worker in backend.killed:
                worker.join(timeout=5)
                assert not worker.is_alive()
            # the next submit starts a fresh worker; a pass that succeeds
            # clears the fault
            assert batcher.submit(99, timeout=5) == ("priced", 99)
            assert batcher.fault is None
        finally:
            batcher.close()


class TestServiceConcurrency:
    def test_concurrent_handle_matches_serial_run_batch(self):
        queries = _mixed_queries()
        with CapacityService(_FAST) as svc:
            reference = BatchAnalyticBackend()
            expected = {
                q: json.dumps(
                    encode_result(q, reference.run_batch([svc.job_for(q)])[0]),
                    sort_keys=True)
                for q in queries
            }

            def worker(i: int):
                out = []
                for q in (queries if i % 2 else list(reversed(queries))):
                    status, body = svc.handle(q.to_request())
                    out.append((q, status, json.dumps(body, sort_keys=True)))
                return out

            outputs = _hammer(10, worker)
            for out in outputs:
                assert len(out) == len(queries)
                for q, status, body in out:
                    assert status == 200
                    assert body == expected[q], q


class TestQuotaDeterminism:
    def _statuses(self, schedule) -> list[int]:
        config = ServiceConfig(quota_rate=20.0, quota_burst=5.0)
        with CapacityService(config) as svc:
            return [
                svc.handle(a.scenario.query(a.client).to_request(),
                           now=a.t)[0]
                for a in schedule
            ]

    def test_rejections_pure_function_of_schedule(self):
        mix = (Scenario("cheap", "stream", "cte-arm", 1),
               Scenario("mid", "hpcg", "cte-arm", 8))
        config = TrafficConfig(stages=((0.5, 150.0),), scenarios=mix,
                               n_clients=2, seed=11)
        schedule = arrival_schedule(config)
        assert len(schedule) > 30
        first = self._statuses(schedule)
        second = self._statuses(schedule)
        assert first == second
        assert first.count(429) > 0, "schedule too gentle to test quotas"
        assert first.count(200) > 0

    def test_retry_after_is_positive(self):
        config = ServiceConfig(quota_rate=1.0, quota_burst=1.0)
        with CapacityService(config) as svc:
            request = {"workload": "stream", "n_nodes": 1, "client": "c"}
            assert svc.handle(request, now=0.0)[0] == 200
            status, body = svc.handle(request, now=0.0)
            assert status == 429
            assert body["retry_after_seconds"] > 0
            assert svc.stats()["rejected"] == 1


# -- warm-cache eviction ------------------------------------------------------


def _tapeful_program(i: int, rows: int = 64) -> Program:
    return Program(
        name=f"svc-evict-{i}", steps=1,
        body=(Phase("p", tuple(
            ComputeOp(seconds=(j + 1) * 1e-7) for j in range(rows))),))


class TestTapeEviction:
    def teardown_method(self):
        set_tape_budget(None)

    def test_budget_bounds_resident_bytes(self):
        tapes = [_tapeful_program(i) for i in range(24)]
        one = compile_tape(tapes[0]).nbytes
        budget = one * 5
        set_tape_budget(budget)
        for program in tapes:
            compile_tape(program)
            assert tape_cache_stats()["resident_bytes"] <= budget
        stats = tape_cache_stats()
        assert stats["evictions"] > 0
        assert stats["resident_bytes"] <= budget

    def test_oversized_tape_still_serves(self):
        set_tape_budget(1)  # nothing fits; the newest entry must stay
        tape = compile_tape(_tapeful_program(900))
        assert tape.n_rows == 64
        assert len(tape.cols["seconds"]) == 64

    def test_eviction_never_changes_results(self):
        query = Query("nemo", "cte-arm", 16,
                      overrides=(("serial_scale", 1.5),))
        with CapacityService(_FAST) as svc:
            warm1 = json.dumps(svc.handle(query.to_request())[1],
                               sort_keys=True)
            warm2 = json.dumps(svc.handle(query.to_request())[1],
                               sort_keys=True)
            # memory pressure: evict every warm tape, then re-price cold
            set_tape_budget(1)
            set_tape_budget(None)
            assert tape_cache_stats()["entries"] <= 1
            cold = json.dumps(svc.handle(query.to_request())[1],
                              sort_keys=True)
        assert warm1 == warm2 == cold

    def test_service_config_applies_budget(self):
        config = ServiceConfig(quota_rate=1e6, quota_burst=1e6,
                               tape_budget_bytes=123456)
        with CapacityService(config):
            assert tape_cache_stats()["budget_bytes"] == 123456


# -- golden responses ---------------------------------------------------------


def _golden_matrix() -> dict[str, Query]:
    return {
        "stream@cte-arm/1": Query("stream", "cte-arm", 1),
        "hpcg@cte-arm/8": Query("hpcg", "cte-arm", 8),
        "linpack@mn4/16": Query("linpack", "mn4", 16),
        "nemo@cte-arm/16+comm1.25": Query(
            "nemo", "cte-arm", 16, overrides=(("comm_scale", 1.25),)),
        "gromacs@cte-arm/8+bw0.5": Query(
            "gromacs", "cte-arm", 8, overrides=(("bandwidth_scale", 0.5),)),
        "wrf@mn4/4": Query("wrf", "mn4", 4),
        "alya@cte-arm/12x2steps": Query("alya", "cte-arm", 12, steps=2),
    }


def test_golden_service_responses(request):
    """Serialization drift in the service response shape is caught the
    same way the PR-3 trace snapshots catch DES drift."""
    with CapacityService(_FAST) as svc:
        got_dict = {}
        for key, query in sorted(_golden_matrix().items()):
            status, body = svc.handle(query.to_request())
            assert status == 200, (key, body)
            got_dict[key] = body
    got = json.dumps(got_dict, indent=2, sort_keys=True) + "\n"
    path = GOLDEN_DIR / "service_responses.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(got)
        pytest.skip(f"golden snapshot {path.name} rewritten")
    assert path.exists(), (
        f"missing golden snapshot {path}; run with --update-golden")
    assert got == path.read_text(), (
        "service responses drifted from service_responses.json; if "
        "intentional, regenerate with --update-golden and review the diff")


# -- HTTP front end -----------------------------------------------------------


class TestHTTP:
    @pytest.fixture()
    def server(self):
        from repro.service import ServiceServer

        config = ServiceConfig(quota_rate=1e6, quota_burst=1e6)
        with ServiceServer(CapacityService(config)) as srv:
            yield srv

    def _post(self, server, payload, headers=None):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/price",
            data=json.dumps(payload).encode()
            if not isinstance(payload, bytes) else payload,
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_price_matches_direct_run_batch(self, server):
        query = Query("hpcg", "cte-arm", 8)
        status, body = self._post(server, query.to_request())
        assert status == 200
        direct = BatchAnalyticBackend().run_batch(
            [server.service.job_for(query)])[0]
        assert body == encode_result(query, direct)

    def test_health_stats_and_unknown_path(self, server):
        import urllib.request

        with urllib.request.urlopen(server.url + "/v1/health",
                                    timeout=10) as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        with urllib.request.urlopen(server.url + "/v1/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["queries"] >= 0 and "tape_cache" in stats
        status, _ = self._post(server, {"workload": "stream"})
        assert status == 200
        import urllib.error
        try:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_keep_alive_replies_are_not_held_by_nagle(self, server):
        """A stock keep-alive client (delayed ACKs on) must not wait
        ~40 ms per reply for the body segment."""
        import http.client

        body = json.dumps({"workload": "stream"}).encode()
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        latencies = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("POST", "/v1/price", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                latencies.append(time.perf_counter() - t0)
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_is_503_within_a_second_and_unhealthy(self):
        from repro.service import ServiceServer

        class Dying:
            killed: list[threading.Thread] = []

            def run_batch(self, jobs):
                _die(self.killed)

        with ServiceServer(CapacityService(_FAST, backend=Dying())) as srv:
            for _ in range(2):  # the restarted worker dies the same way
                t0 = time.monotonic()
                status, body = self._post(srv, {"workload": "stream"})
                assert time.monotonic() - t0 < 1.0
                assert status == 503
                assert "backend died" in body["error"]
            status, body = self._get(srv, "/v1/health")
            assert status == 503
            assert "backend died" in body["error"]
            assert srv.service.stats()["failed"] == 2
        for worker in Dying.killed:
            worker.join(timeout=5)
            assert not worker.is_alive()

    def _get(self, server, path):
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_bad_json_is_400(self, server):
        status, body = self._post(server, b"{not json")
        assert status == 400
        assert "JSON" in body["error"]

    def test_client_header_feeds_quota(self):
        from repro.service import ServiceServer

        config = ServiceConfig(quota_rate=0.001, quota_burst=1.0)
        with ServiceServer(CapacityService(config)) as srv:
            ok = self._post(srv, {"workload": "stream"},
                            headers={"X-Client-Id": "h1"})
            assert ok[0] == 200
            status, body = self._post(srv, {"workload": "stream"},
                                      headers={"X-Client-Id": "h1"})
            assert status == 429
            assert body["retry_after_seconds"] > 0
            # a different client has its own bucket
            assert self._post(srv, {"workload": "stream"},
                              headers={"X-Client-Id": "h2"})[0] == 200

    def test_stats_expose_tape_cache_counters(self, server):
        """/v1/stats surfaces tape-memo hit/miss/eviction counters so
        tuner-sized workloads can be observed when served (ISSUE 10)."""
        import urllib.request
        from repro.ir.batch import clear_caches

        def cache_stats():
            with urllib.request.urlopen(server.url + "/v1/stats",
                                        timeout=10) as resp:
                return json.loads(resp.read())["tape_cache"]

        clear_caches()
        before = cache_stats()
        for key in ("hits", "misses", "evictions", "entries",
                    "resident_bytes"):
            assert key in before
        # first pricing of a workload compiles its tape (a miss); the
        # repeat is served from the warm tape (a hit)
        assert self._post(server, {"workload": "stream",
                                   "n_nodes": 3})[0] == 200
        mid = cache_stats()
        assert mid["misses"] > before["misses"]
        assert self._post(server, {"workload": "stream",
                                   "n_nodes": 3})[0] == 200
        after = cache_stats()
        assert after["hits"] > mid["hits"]
        assert after["entries"] >= 1

    def test_stats_expose_every_memo(self, server):
        """/v1/stats carries a ``memos`` block read from the memo
        registry plus the service's own cluster and program memos."""
        import urllib.request

        from repro.util.memo import MEMOS

        assert self._post(server, {"workload": "stream",
                                   "n_nodes": 2})[0] == 200
        with urllib.request.urlopen(server.url + "/v1/stats",
                                    timeout=10) as resp:
            memos = json.loads(resp.read())["memos"]
        assert set(memos) == set(MEMOS) | {"service.clusters",
                                           "service.programs"}
        for counters in memos.values():
            assert {"entries", "hits", "misses", "evictions"} <= set(counters)
        assert memos["service.programs"]["entries"] >= 1
        assert memos["batch.tapes"]["entries"] >= 1
