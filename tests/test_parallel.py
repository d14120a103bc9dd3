"""The parallel sweep executor and its on-disk result cache."""

from __future__ import annotations

import json
import os

import pytest

import repro.harness  # noqa: F401  (populate the experiment registry)
from repro.harness.cli import main
from repro.harness.parallel import (
    cache_key,
    run_experiments,
    source_fingerprint,
)
from repro.util.errors import ConfigurationError

#: cheap experiments spanning table, figure, and extension shapes.
_IDS = ["table1_hardware", "fig1_fpu", "fig6_linpack", "ext_faults"]


class TestDeterminism:
    def test_jobs_1_and_4_byte_identical(self):
        serial = run_experiments(_IDS, jobs=1)
        fanout = run_experiments(_IDS, jobs=4)
        assert json.dumps(serial) == json.dumps(fanout)

    def test_input_order_preserved(self):
        payloads = run_experiments(list(reversed(_IDS)), jobs=4)
        assert [p["experiment"] for p in payloads] == list(reversed(_IDS))

    def test_duplicate_ids_run_once(self):
        payloads = run_experiments([_IDS[0], _IDS[0]], jobs=2)
        assert len(payloads) == 2
        assert payloads[0] == payloads[1]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_experiments(_IDS, jobs=0)


class TestResultCache:
    def test_cache_round_trip_identical(self, tmp_path):
        fresh = run_experiments(_IDS, jobs=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == len(_IDS)
        cached = run_experiments(_IDS, jobs=1, cache_dir=tmp_path)
        assert json.dumps(cached) == json.dumps(fresh)

    def test_ecm_batch_warm_pass_is_cached_and_identical(self, tmp_path):
        from repro.harness.parallel import last_run_stats

        ids = ["fig6_linpack", "fig11_nemo", "ext_ecm_kernels"]
        for exp_id in ids:
            assert (cache_key(exp_id, "batch", "ecm")
                    != cache_key(exp_id, "batch", "roofline"))
        cold = run_experiments(ids, cache_dir=tmp_path, backend="batch",
                               pricing="ecm")
        warm = run_experiments(ids, cache_dir=tmp_path, backend="batch",
                               pricing="ecm")
        assert [s[2] for s in last_run_stats()] == ["cache"] * len(ids)
        assert warm == cold

    def test_key_depends_on_source_fingerprint(self, monkeypatch):
        key = cache_key(_IDS[0])
        monkeypatch.setattr(
            "repro.harness.parallel._fingerprint", "0" * 64
        )
        assert cache_key(_IDS[0]) != key

    def test_fingerprint_is_stable(self):
        assert source_fingerprint() == source_fingerprint()

    def test_stale_entries_not_served(self, tmp_path, monkeypatch):
        run_experiments([_IDS[0]], cache_dir=tmp_path)
        # A source change rolls the fingerprint: the old entry is dead.
        monkeypatch.setattr(
            "repro.harness.parallel._fingerprint", "f" * 64
        )
        run_experiments([_IDS[0]], cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize("damage", ["truncate", "binary"])
    def test_corrupt_entry_is_a_counted_miss(self, tmp_path, damage):
        from repro.harness.parallel import last_run_stats

        fresh = run_experiments(_IDS[:2], jobs=1, cache_dir=tmp_path)
        path = tmp_path / f"{cache_key(_IDS[0])}.json"
        text = path.read_text()
        if damage == "truncate":
            path.write_text(text[: len(text) // 2])
        else:
            path.write_bytes(b"\xff\xfe\x00garbage")
        again = run_experiments(_IDS[:2], jobs=1, cache_dir=tmp_path)
        assert json.dumps(again) == json.dumps(fresh)
        assert [s[::2] for s in last_run_stats()] == [
            (_IDS[0], "corrupt"), (_IDS[1], "cache"), (_IDS[0], "probe")]
        # The fresh run republished the entry: the next sweep hits.
        assert path.read_text() == text
        run_experiments(_IDS[:2], jobs=1, cache_dir=tmp_path)
        assert [s[2] for s in last_run_stats()] == ["cache", "cache"]

    def test_writers_use_private_temp_files(self, tmp_path):
        # Another writer's in-flight shared-name temp file (here a
        # directory that cannot be overwritten) must not block publishing.
        path = tmp_path / f"{cache_key(_IDS[0])}.json"
        path.with_suffix(".tmp").mkdir()
        fresh = run_experiments([_IDS[0]], jobs=1, cache_dir=tmp_path)
        assert json.loads(path.read_text()) == fresh[0]
        assert [p.name for p in tmp_path.glob("*.tmp")] == [
            path.with_suffix(".tmp").name]


class TestPoolThreshold:
    def test_small_suite_never_spawns_a_pool(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("pool spawned below the cost threshold")

        monkeypatch.setattr(
            "repro.harness.parallel.ProcessPoolExecutor", boom
        )
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "1e9")
        payloads = run_experiments(_IDS, jobs=4)
        assert [p["experiment"] for p in payloads] == _IDS

    def test_forced_pool_matches_serial(self, monkeypatch):
        serial = run_experiments(_IDS, jobs=1)
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "0")
        fanout = run_experiments(_IDS, jobs=2)
        assert json.dumps(serial) == json.dumps(fanout)

    def test_bad_threshold_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "fast")
        with pytest.raises(ConfigurationError):
            run_experiments(_IDS, jobs=2)

    def test_cache_key_depends_on_pass_version(self, monkeypatch):
        key = cache_key(_IDS[0])
        monkeypatch.setattr("repro.ir.optimize.PASS_VERSION", 10**9)
        assert cache_key(_IDS[0]) != key


class TestCli:
    def test_run_jobs_json(self, capsys):
        assert main(["run", "fig1_fpu", "--json", "--jobs", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["experiment"] == "fig1_fpu"
        assert all(
            isinstance(e["holds"], bool) for e in out[0]["expectations"]
        )

    def test_run_cached_output_identical(self, tmp_path, capsys):
        main(["run", "fig1_fpu", "--cache-dir", str(tmp_path)])
        first = capsys.readouterr().out
        main(["run", "fig1_fpu", "--cache-dir", str(tmp_path)])
        assert capsys.readouterr().out == first

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "no_such_experiment"]) == 2

    def test_bad_run_context_rejected(self, capsys):
        # RunContext validates the DES fields; the CLI maps its error to 2
        assert main(["run", "fig1_fpu", "--des-shards", "0"]) == 2
        assert "des_shards" in capsys.readouterr().err
        assert main(["run", "fig1_fpu", "--des-shard-workers", "-1"]) == 2
        assert "des_workers" in capsys.readouterr().err


class _Echo:
    """Trivial persistent-pool handler: returns what it is sent."""

    def __init__(self, tag):
        self.tag = tag

    def handle(self, msg):
        if msg == "boom":
            raise ValueError("exploding handler")
        if msg == "die":
            os._exit(3)
        return (self.tag, msg)


def _make_echo(init):
    return _Echo(init)


class TestPersistentPool:
    def test_call_all_routes_by_worker(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_make_echo, ["a", "b"]) as pool:
            assert pool.call_all([1, 2]) == [("a", 1), ("b", 2)]
            assert pool.call_all([3, 4]) == [("a", 3), ("b", 4)]
            # Worker-side wall time is recorded per completed call.
            assert len(pool.call_walls[0]) == 2
            assert all(w >= 0.0 for w in pool.call_walls[0])

    def test_worker_exception_reraised_in_parent(self):
        from repro.harness.procpool import PersistentPool

        pool = PersistentPool(_make_echo, ["a", "b"])
        with pytest.raises(ValueError, match="exploding"):
            pool.call_all(["boom", 1])

    def test_dead_worker_raises_worker_lost(self):
        from repro.harness.procpool import PersistentPool
        from repro.util.errors import WorkerLostError

        pool = PersistentPool(_make_echo, ["a", "b"])
        with pytest.raises(WorkerLostError) as info:
            pool.call_all([1, "die"])
        assert (info.value.worker, info.value.exitcode) == (1, 3)
        assert not any(proc.is_alive() for proc in pool._procs)

    def test_dead_worker_stops_imap(self):
        from repro.harness.procpool import PersistentPool
        from repro.util.errors import WorkerLostError

        pool = PersistentPool(_make_echo, ["a", "b"])
        with pytest.raises(WorkerLostError, match="exit code 3"):
            list(pool.imap([1, 2, "die", 4, 5]))
        assert not any(proc.is_alive() for proc in pool._procs)

    def test_message_count_must_match_workers(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_make_echo, ["a"]) as pool:
            with pytest.raises(ValueError):
                pool.call_all([1, 2])


class TestRunStats:
    def test_per_task_wall_times_surface(self, tmp_path):
        from repro.harness.parallel import last_run_stats

        run_experiments(_IDS[:2], jobs=1, cache_dir=tmp_path)
        stats = last_run_stats()
        assert [s[0] for s in stats] == _IDS[:2]
        assert stats[0][2] == "probe"
        assert stats[1][2] == "serial"
        assert all(s[1] >= 0.0 for s in stats)
        # Second sweep is served from cache; the stats say so.
        run_experiments(_IDS[:2], jobs=1, cache_dir=tmp_path)
        assert [s[2] for s in last_run_stats()] == ["cache", "cache"]

    def test_cache_key_depends_on_backend_options(self):
        from repro.context import RunContext, using

        key = cache_key(_IDS[0], "des")
        with using(RunContext(des_shards=8)):
            assert cache_key(_IDS[0], "des") != key
        assert cache_key(_IDS[0], "des") == key
