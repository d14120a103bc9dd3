"""The run context and the bounded memo layer.

``RunContext`` replaces the process-global run settings: it is validated
on construction, scoped to a ``with using(...)`` block and to the thread
that entered it.  ``Memo`` replaces the hand-rolled caches: LRU over an
entry bound and an optional byte budget, thread-safe, self-counting.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.context import RunContext, current, using
from repro.util.errors import ConfigurationError
from repro.util.memo import MEMOS, Memo, clear_memos, memo_stats

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_threads(targets, timeout: float = 60.0) -> None:
    """Start one thread per target, join each with a timeout and check
    that every one finished."""
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)


# -- RunContext ---------------------------------------------------------------


class TestRunContext:
    def test_defaults(self):
        assert current() == RunContext()
        assert current() == RunContext("analytic", "roofline", 1, 0)

    @pytest.mark.parametrize("changes", [
        {"backend": "quantum"}, {"pricing": "nope"}, {"des_shards": 0},
        {"des_workers": -1}, {"des_shards": 2.0}, {"des_shards": True},
    ])
    def test_invalid_fields_raise(self, changes):
        with pytest.raises(ConfigurationError):
            RunContext(**changes)

    def test_pricing_is_canonicalized(self):
        assert RunContext(pricing="ECM").pricing == "ecm"

    def test_using_restores_on_raise(self):
        outer = current()
        with pytest.raises(RuntimeError, match="boom"):
            with using(RunContext(pricing="ecm", des_shards=4)):
                assert current().pricing == "ecm"
                raise RuntimeError("boom")
        assert current() is outer

    def test_using_nests(self):
        with using(RunContext(backend="des")):
            with using(current().derive(pricing="ecm")):
                assert current() == RunContext("des", "ecm")
            assert current() == RunContext("des")
        assert current() == RunContext()

    def test_derive_keeps_none_fields(self):
        ctx = RunContext(backend="des", des_shards=3)
        assert ctx.derive(backend=None, pricing="ecm") == RunContext(
            "des", "ecm", 3)

    def test_key_names_every_field(self):
        keys = {RunContext().key(), RunContext(backend="des").key(),
                RunContext(pricing="ecm").key(),
                RunContext(des_shards=2).key(),
                RunContext(des_workers=2).key()}
        assert len(keys) == 5

    def test_threads_do_not_see_each_others_context(self):
        seen: dict[str, str] = {}
        inside = threading.Barrier(2)

        def run(name: str) -> None:
            with using(RunContext(pricing=name)):
                inside.wait(timeout=10)
                seen[name] = current().pricing

        _run_threads([lambda name=name: run(name)
                      for name in ("ecm", "roofline")])
        assert seen == {"ecm": "ecm", "roofline": "roofline"}


def _sweep(app, cluster, nodes):
    return {n: None if t is None else (t.phase_seconds, t.phase_compute,
                                       t.phase_comm, t.phase_flops_time,
                                       t.phase_bytes_time)
            for n, t in app.sweep_timings(cluster, nodes).items()}


def test_concurrent_sweeps_under_two_pricing_models():
    """Two threads sweep at once, one under ECM and one under roofline;
    each gets exactly its single-threaded answer (shared memos, cold and
    then warm)."""
    from repro.apps import NemoModel
    from repro.ir.batch import clear_caches
    from repro.machine import cte_arm

    app, cluster, nodes = NemoModel(), cte_arm(16), [4, 8, 16]
    want = {}
    for name in ("ecm", "roofline"):
        clear_caches()
        with using(RunContext(pricing=name)):
            want[name] = _sweep(app, cluster, nodes)
    assert want["ecm"] != want["roofline"]
    for _ in range(3):
        clear_caches()
        for _warm in range(2):
            got: dict[str, dict] = {}
            start = threading.Barrier(2)

            def run(name: str) -> None:
                with using(RunContext(pricing=name)):
                    start.wait(timeout=10)
                    got[name] = _sweep(app, cluster, nodes)

            _run_threads([lambda name=name: run(name) for name in want])
            assert got == want


# -- Memo ---------------------------------------------------------------------


class TestMemo:
    def test_lru_order_and_stats(self):
        memo: Memo[str] = Memo("test.lru", 2, register=False)
        assert memo.get("a") is None
        memo.put("a", "A")
        memo.put("b", "B")
        assert memo.get("a") == "A"        # a is now most recent
        memo.put("c", "C")                 # evicts b, the least recent
        assert memo.get("b") is None
        assert memo.get("a") == "A" and memo.get("c") == "C"
        assert len(memo) == 2
        assert memo.stats() == {"entries": 2, "resident_bytes": 0,
                                "budget_bytes": None, "hits": 3,
                                "misses": 3, "evictions": 1}
        memo.clear()
        assert len(memo) == 0
        assert memo.stats()["hits"] == memo.stats()["misses"] == 0

    def test_get_or_compute_computes_once(self):
        memo: Memo[int] = Memo("test.compute", 8, register=False)
        calls = []

        def compute() -> int:
            calls.append(1)
            return 7

        assert memo.get_or_compute("k", compute) == 7
        assert memo.get_or_compute("k", compute) == 7
        assert calls == [1]
        assert (memo.hits, memo.misses) == (1, 1)

    def test_byte_budget_evicts_and_newest_stays(self):
        memo: Memo[bytes] = Memo("test.bytes", 100, budget_bytes=10,
                                 sizeof=len, register=False)
        memo.put("a", b"1234")
        memo.put("b", b"1234")
        assert memo.stats()["resident_bytes"] == 8
        memo.put("c", b"1234")             # 12 > 10: evict a
        assert memo.get("a") is None and len(memo) == 2
        memo.put("big", b"x" * 50)         # over budget alone: still kept
        assert len(memo) == 1 and memo.get("big") == b"x" * 50
        assert memo.stats()["resident_bytes"] == 50
        memo.set_budget(None)
        memo.put("d", b"1")
        assert len(memo) == 2
        memo.set_budget(1)                 # evicts down at once
        assert len(memo) == 1 and memo.get("d") == b"1"
        assert memo.stats()["evictions"] == 4

    def test_raced_fill_keeps_the_first_value(self):
        memo: Memo[object] = Memo("test.race", 8, register=False)
        start = threading.Barrier(8)
        values = []

        def fill(i: int) -> None:
            def compute() -> object:
                start.wait(timeout=10)     # every thread misses first
                return ("value", i)

            values.append(memo.get_or_compute("k", compute))

        _run_threads([lambda i=i: fill(i) for i in range(8)])
        assert len({id(v) for v in values}) == 1
        assert (memo.misses, memo.hits, len(memo)) == (1, 7, 1)

    def test_threads_hammering_a_small_memo_lose_no_update(self):
        """More threads than cores fill and read overlapping keys of a
        memo smaller than the key space: every call is counted exactly
        once and the byte total matches the resident entries."""
        memo: Memo[bytes] = Memo("test.stress", 16, budget_bytes=200,
                                 sizeof=len, register=False)
        calls_per_thread, n_threads = 400, 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(seed: int) -> None:
                rng = random.Random(seed)
                for _ in range(calls_per_thread):
                    key = rng.randrange(40)
                    memo.get_or_compute(key, lambda k=key: b"x" * (k % 7 + 1))

            _run_threads([lambda i=i: work(i) for i in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == calls_per_thread * n_threads
        assert stats["misses"] - stats["evictions"] == len(memo) <= 16
        resident = [memo.get(k) for k in range(40)]
        assert stats["resident_bytes"] == sum(
            len(v) for v in resident if v is not None)

    def test_registry(self):
        memo: Memo[int] = Memo("test.registered", 4)
        try:
            memo.put("k", 1)
            assert memo_stats()["test.registered"]["entries"] == 1
            clear_memos()
            assert len(memo) == 0
        finally:
            del MEMOS["test.registered"]


def test_clear_caches_walks_exactly_the_process_memos():
    import repro.apps.base  # noqa: F401  (registers the sweep memo)
    import repro.ir.batch  # noqa: F401

    assert set(MEMOS) == {
        "apps.sweeps", "batch.binaries", "batch.networks", "batch.rank_bw",
        "batch.results", "batch.tapes"}


def test_pricing_keeps_no_cluster_alive():
    """Cluster and compiler digests live on the objects themselves, so a
    priced cluster that nothing else references is collected."""
    import gc
    import weakref

    from repro.apps import get_app
    from repro.ir.batch import BatchJob, shared_batch_backend
    from repro.machine import cte_arm

    cluster = cte_arm(4)
    app = get_app("nemo")
    mapping = app.mapping(cluster, 2)
    shared_batch_backend().run_batch([BatchJob(
        app.program(mapping), cluster, 2, mapping=mapping,
        check_memory=False)])
    ref = weakref.ref(cluster)
    del cluster, mapping
    gc.collect()
    assert ref() is None


# -- bounded residency under a long service replay ----------------------------


def test_service_replay_stays_within_every_memo_bound(monkeypatch):
    """A seeded replay of distinct queries (fresh ``steps``, ``n_nodes``
    1-16, three workloads) runs past every memo's bound; no memo grows
    beyond it, the service's program memo included."""
    import repro.service.core as core
    from repro.ir.batch import clear_caches, set_tape_budget

    bound = 24
    monkeypatch.setattr(core, "PROGRAM_MEMO_ENTRIES", bound)
    for memo in MEMOS.values():
        monkeypatch.setattr(memo, "max_entries", bound)
    clear_caches()
    rng = random.Random(2021)
    set_tape_budget(1 << 20)
    try:
        with core.CapacityService(core.ServiceConfig(
                quota_rate=1e9, quota_burst=1e9)) as svc:
            statuses = set()
            for i in range(150):
                status, _ = svc.handle({
                    "workload": rng.choice(("hpcg", "nemo", "stream")),
                    "cluster": "cte-arm", "n_nodes": rng.randint(1, 16),
                    "steps": i + 1})
                statuses.add(status)
                for memo in (*MEMOS.values(), svc._clusters,
                             svc._programs):
                    assert len(memo) <= bound, memo.name
            assert 200 in statuses
            stats = svc.stats()["memos"]
            assert stats["service.programs"]["evictions"] > 0
            assert stats["batch.tapes"]["evictions"] > 0
            assert stats["batch.results"]["evictions"] > 0
    finally:
        set_tape_budget(None)
        clear_caches()


# -- Program hashing ----------------------------------------------------------


def _hash_probe_program():
    from repro.ir import ComputeOp, Phase, Program

    return Program(name="hash-probe", steps=3, body=(
        Phase("solve", (ComputeOp(seconds=1e-3),)),
        Phase("halo", (ComputeOp(seconds=2e-3),))))


def test_program_hash_is_stored_once_and_not_pickled():
    program = _hash_probe_program()
    first = hash(program)
    assert program.__dict__["_hash"] == first == hash(program)
    assert "_hash" not in pickle.loads(pickle.dumps(program)).__dict__
    # the stored hash is not a field: equality and repr ignore it
    assert program == _hash_probe_program()
    assert "_hash" not in repr(program)


def test_unpickled_program_hashes_like_a_local_one(tmp_path):
    """Pickle a hashed Program here, unpickle it in a process with
    another PYTHONHASHSEED: a dict keyed by an equal Program built there
    must find it."""
    program = _hash_probe_program()
    hash(program)
    blob = tmp_path / "program.pkl"
    blob.write_bytes(pickle.dumps(program))
    code = (
        "import pickle\n"
        "from tests.test_context import _hash_probe_program\n"
        f"loaded = pickle.loads(open({str(blob)!r}, 'rb').read())\n"
        "table = {_hash_probe_program(): 'found'}\n"
        "assert table.get(loaded) == 'found', 'miss'\n"
    )
    root = SRC.parent
    # two seeds, so at least one differs from this process's
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": f"{SRC}:{root}",
                 "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
