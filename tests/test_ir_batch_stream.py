"""Streaming batched evaluation: bit-identity, budgets, pooling.

The contracts under test are ISSUE 10's tentpole guarantees:

* ``run_batch_stream`` is bit-identical to one big ``run_batch`` for
  ANY chunk size and ANY worker count;
* ``run_override_columns`` lanes are bit-identical to the equivalent
  scalar-``overrides`` jobs, for every override key and both pricing
  models, on 1-D columns and on broadcast grids with stacked jobs, for
  any chunk size;
* chunk sizing honors the memory budget (monotone, bounded, positive),
  and a grid pass's peak allocation stays below it;
* override validation reports the sorted allowed-key set, and an empty
  overrides dict is digest-equivalent to ``None``;
* ``PersistentPool.imap`` streams in input order and propagates errors.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.apps import get_app
from repro.ir.batch import (
    DEFAULT_STREAM_BUDGET,
    BatchJob,
    OVERRIDE_KEYS,
    clear_caches,
    compile_tape,
    shared_batch_backend,
    stream_chunk_points,
    validate_overrides,
)
from repro.ir import batch
from repro.machine.presets import cte_arm
from repro.util.errors import ConfigurationError, WorkerLostError

_ARM = cte_arm(64)


def _assert_results_equal(a, b):
    assert a.phase_seconds == b.phase_seconds
    assert a.phase_compute == b.phase_compute
    assert a.phase_comm == b.phase_comm
    assert a.phase_flops_time == b.phase_flops_time
    assert a.phase_bytes_time == b.phase_bytes_time
    assert a.elapsed == b.elapsed
    assert a.n_ranks == b.n_ranks


def _nemo_jobs(n_jobs, pricing="roofline"):
    app = get_app("nemo")
    mapping = app.mapping(_ARM, 16)
    program = app.program(mapping)
    binary = app.build(_ARM)
    vals = (1.0, 0.8, 1.2, 0.65, 1.45)
    return [
        BatchJob(
            program, _ARM, 16, mapping=mapping, binary=binary,
            check_memory=False, pricing=pricing,
            overrides={
                "comm_scale": vals[i % 5],
                "bandwidth_scale": vals[(i // 5) % 5],
                "rate_scale": vals[(i // 25) % 5],
            },
        )
        for i in range(n_jobs)
    ]


def _stacked_nemo_jobs(pricing="roofline"):
    """One NEMO structure group: the program at 8, 16 and 32 nodes."""
    app = get_app("nemo")
    binary = app.build(_ARM)
    jobs = []
    for n in (8, 16, 32):
        mapping = app.mapping(_ARM, n)
        jobs.append(BatchJob(app.program(mapping), _ARM, n,
                             mapping=mapping, binary=binary,
                             check_memory=False, pricing=pricing))
    return jobs


class _DyingChunkWorker(batch._StreamChunkWorker):
    """Stream worker whose process exits inside the 4-job chunk."""

    def handle(self, chunk):
        if len(chunk) == 4:
            os._exit(1)
        return super().handle(chunk)


class TestRunBatchStream:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 50, 500])
    def test_bit_identical_any_chunk_size(self, chunk):
        backend = shared_batch_backend()
        jobs = _nemo_jobs(50)
        direct = backend.run_batch(jobs)
        clear_caches()
        streamed = list(backend.run_batch_stream(iter(jobs),
                                                 chunk_points=chunk))
        assert len(streamed) == len(direct)
        for a, b in zip(direct, streamed):
            _assert_results_equal(a, b)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_any_worker_count(self, workers, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "0")
        backend = shared_batch_backend()
        jobs = _nemo_jobs(60)
        direct = backend.run_batch(jobs)
        clear_caches()
        streamed = list(backend.run_batch_stream(
            iter(jobs), chunk_points=7, workers=workers))
        assert len(streamed) == len(direct)
        for a, b in zip(direct, streamed):
            _assert_results_equal(a, b)

    def test_budget_derived_chunking_matches(self):
        backend = shared_batch_backend()
        jobs = _nemo_jobs(40)
        direct = backend.run_batch(jobs)
        clear_caches()
        # a tiny budget forces many small chunks; results must not move
        streamed = list(backend.run_batch_stream(
            iter(jobs), memory_budget_bytes=1 << 16))
        for a, b in zip(direct, streamed):
            _assert_results_equal(a, b)

    def test_worker_killed_mid_chunk_raises_then_reruns(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "0")
        backend = shared_batch_backend()
        jobs = _nemo_jobs(60)
        direct = backend.run_batch(jobs)
        clear_caches()
        # 60 jobs in chunks of 7: only the last chunk holds 4 jobs
        with monkeypatch.context() as m:
            m.setattr(batch, "_StreamChunkWorker", _DyingChunkWorker)
            t0 = time.monotonic()
            with pytest.raises(WorkerLostError, match="exit code 1"):
                list(backend.run_batch_stream(iter(jobs), chunk_points=7,
                                              workers=2))
            assert time.monotonic() - t0 < 10.0
        streamed = list(backend.run_batch_stream(iter(jobs), chunk_points=7,
                                                 workers=2))
        assert len(streamed) == len(direct)
        for a, b in zip(direct, streamed):
            _assert_results_equal(a, b)

    def test_empty_stream(self):
        backend = shared_batch_backend()
        assert list(backend.run_batch_stream(iter([]))) == []

    def test_bad_chunk_points(self):
        backend = shared_batch_backend()
        with pytest.raises(ConfigurationError, match="chunk_points"):
            list(backend.run_batch_stream(iter(_nemo_jobs(1)),
                                          chunk_points=0))


class TestRunOverrideColumns:
    @pytest.mark.parametrize("pricing", ["roofline", "ecm"])
    def test_lanes_match_scalar_jobs(self, pricing):
        backend = shared_batch_backend()
        jobs = _nemo_jobs(75, pricing=pricing)
        direct = backend.run_batch(jobs)
        clear_caches()
        base = BatchJob(jobs[0].program, _ARM, 16,
                        mapping=jobs[0].mapping, binary=jobs[0].binary,
                        check_memory=False, pricing=pricing)
        columns = {
            key: np.asarray([job.overrides[key] for job in jobs])
            for key in ("comm_scale", "bandwidth_scale", "rate_scale")
        }
        chunks = list(backend.run_override_columns(base, columns,
                                                   chunk_points=13))
        assert sum(len(c) for c in chunks) == len(jobs)
        offset = 0
        for chunk in chunks:
            assert chunk.start == offset
            for lane in range(len(chunk)):
                result = direct[offset + lane]
                assert chunk.elapsed[lane] == result.elapsed
                assert chunk.n_ranks == result.n_ranks
                for name, sec in result.phase_seconds.items():
                    assert chunk.phase_seconds[name][lane] == sec
                    assert (chunk.phase_compute[name][lane]
                            == result.phase_compute[name])
                    assert (chunk.phase_comm[name][lane]
                            == result.phase_comm[name])
                    assert (chunk.phase_flops_time[name][lane]
                            == result.phase_flops_time[name])
                    assert (chunk.phase_bytes_time[name][lane]
                            == result.phase_bytes_time[name])
            offset += len(chunk)

    @pytest.mark.parametrize("pricing", ["roofline", "ecm"])
    def test_grid_points_match_scalar_jobs_any_chunk(self, pricing):
        backend = shared_batch_backend()
        jobs = _stacked_nemo_jobs(pricing)
        rates = np.asarray([0.9, 1.0, 1.1])
        comms = np.asarray([0.8, 1.25])
        bws = np.asarray([[0.7, 1.0, 1.3], [1.2, 0.95, 0.6]])
        columns = {"rate_scale": rates[:, None, None],
                   "comm_scale": comms[None, :, None],
                   "bandwidth_scale": bws[None, :, :]}
        grid = (3, 2, 3)
        want = backend.run_batch([
            BatchJob(jobs[j].program, _ARM, jobs[j].n_nodes,
                     mapping=jobs[j].mapping, binary=jobs[j].binary,
                     check_memory=False, pricing=pricing,
                     overrides={"rate_scale": rates[f],
                                "comm_scale": comms[c],
                                "bandwidth_scale": bws[c, j]})
            for f, c, j in np.ndindex(*grid)])
        for chunk_points in (1, 2, 5, 6, 7, 18, 10**6):
            clear_caches()
            chunks = list(backend.run_override_columns(
                jobs, columns, chunk_points=chunk_points))
            start = 0
            for chunk in chunks:
                assert chunk.start == start
                assert 1 <= len(chunk) <= chunk_points
                start += len(chunk)
            assert start == len(want)
            elapsed = np.concatenate([c.elapsed.ravel() for c in chunks])
            assert elapsed.tolist() == [r.elapsed for r in want]
            for attr in ("phase_seconds", "phase_compute", "phase_comm",
                         "phase_flops_time", "phase_bytes_time"):
                for name, value in getattr(want[0], attr).items():
                    got = np.concatenate(
                        [getattr(c, attr)[name].ravel() for c in chunks])
                    assert got.tolist() == [getattr(r, attr)[name]
                                            for r in want]

    def test_rejects_mixed_structure_groups(self):
        backend = shared_batch_backend()
        job = _nemo_jobs(1)[0]
        base = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                        binary=job.binary, check_memory=False)
        ecm = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                       binary=job.binary, check_memory=False,
                       pricing="ecm")
        with pytest.raises(ConfigurationError, match="one tape structure"):
            list(backend.run_override_columns(
                [base, ecm], {"comm_scale": np.ones(2)}))

    def test_all_ones_column_matches_no_overrides(self):
        backend = shared_batch_backend()
        app = get_app("nemo")
        mapping = app.mapping(_ARM, 16)
        program = app.program(mapping)
        binary = app.build(_ARM)
        base = BatchJob(program, _ARM, 16, mapping=mapping, binary=binary,
                        check_memory=False)
        [plain] = backend.run_batch([base])
        chunks = list(backend.run_override_columns(
            base, {"comm_scale": np.ones(4)}))
        assert all(e == plain.elapsed for e in chunks[0].elapsed)

    def test_rejects_nonempty_job_overrides(self):
        backend = shared_batch_backend()
        job = _nemo_jobs(1)[0]
        with pytest.raises(ConfigurationError, match="must be empty"):
            list(backend.run_override_columns(
                job, {"comm_scale": np.ones(2)}))

    def test_rejects_bad_shapes_and_keys(self):
        backend = shared_batch_backend()
        jobs = _nemo_jobs(1)
        base = BatchJob(jobs[0].program, _ARM, 16,
                        mapping=jobs[0].mapping, binary=jobs[0].binary,
                        check_memory=False)
        with pytest.raises(ConfigurationError, match="broadcast"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.ones((2, 2)),
                       "rate_scale": np.ones(3)}))
        with pytest.raises(ConfigurationError, match="at least one axis"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.float64(2.0)}))
        with pytest.raises(ConfigurationError, match="empty"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.ones((3, 0))}))
        with pytest.raises(ConfigurationError, match="broadcast"):
            list(backend.run_override_columns(
                [base, base], {"comm_scale": np.ones(3)}))
        with pytest.raises(ConfigurationError, match="unknown override"):
            list(backend.run_override_columns(
                base, {"warp_factor": np.ones(2)}))
        with pytest.raises(ConfigurationError, match="one length"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.ones(2),
                       "rate_scale": np.ones(3)}))
        with pytest.raises(ConfigurationError,
                           match="at least one override column"):
            list(backend.run_override_columns(base, {}))


class TestChunkSizing:
    def test_budget_monotone_and_bounded(self):
        app = get_app("nemo")
        tape = compile_tape(app.program(app.mapping(_ARM, 16)))
        sizes = [stream_chunk_points(tape, budget)
                 for budget in (1, 1 << 16, 1 << 22, DEFAULT_STREAM_BUDGET)]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 1
        # doubling the budget at least doesn't shrink the chunk, and the
        # chunk charge stays within the budget once above the 1-point floor
        big = stream_chunk_points(tape, DEFAULT_STREAM_BUDGET)
        assert big * (DEFAULT_STREAM_BUDGET // big) <= DEFAULT_STREAM_BUDGET

    def test_columns_mode_fits_more_points(self):
        app = get_app("nemo")
        tape = compile_tape(app.program(app.mapping(_ARM, 16)))
        assert (stream_chunk_points(tape, 1 << 22, columns=True)
                > stream_chunk_points(tape, 1 << 22))

    def test_grid_pass_peak_below_budget(self):
        """The promise of :func:`stream_chunk_points`: one grid pass of
        stacked jobs, consumed chunk by chunk, allocates less than the
        budget at its peak (the same grid unchunked does not fit)."""
        import tracemalloc

        backend = shared_batch_backend()
        jobs = _stacked_nemo_jobs("ecm")
        columns = {
            "rate_scale": np.linspace(0.8, 1.2, 5)[:, None, None, None],
            "comm_scale": np.linspace(0.9, 1.1, 40)[None, :, None, None],
            "bandwidth_scale": np.linspace(0.7, 1.3, 120).reshape(
                1, 1, 40, 3),
        }
        budget = 1 << 18

        def peak(memory_budget_bytes):
            list(backend.run_override_columns(
                jobs, columns, memory_budget_bytes=memory_budget_bytes))
            tracemalloc.start()
            try:
                points = sum(len(chunk) for chunk in
                             backend.run_override_columns(
                                 jobs, columns,
                                 memory_budget_bytes=memory_budget_bytes))
                return points, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        points, chunked = peak(budget)
        assert points == 5 * 40 * 40 * 3
        assert chunked < budget
        assert peak(DEFAULT_STREAM_BUDGET)[1] > budget

    def test_rejects_nonpositive_budget(self):
        app = get_app("nemo")
        tape = compile_tape(app.program(app.mapping(_ARM, 16)))
        with pytest.raises(ConfigurationError, match="budget"):
            stream_chunk_points(tape, 0)


class TestValidateOverrides:
    def test_error_lists_sorted_allowed_keys(self):
        with pytest.raises(ConfigurationError) as err:
            validate_overrides({"zz_bogus": 1.0, "aa_bogus": 2.0})
        message = str(err.value)
        assert "['aa_bogus', 'zz_bogus']" in message
        assert f"choose from {sorted(OVERRIDE_KEYS)}" in message

    def test_accepts_none_and_empty(self):
        assert validate_overrides(None) == {}
        assert validate_overrides({}) == {}

    def test_empty_dict_digest_equivalent_to_none(self):
        backend = shared_batch_backend()
        job = _nemo_jobs(1)[0]
        none_job = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                            binary=job.binary, check_memory=False,
                            overrides=None)
        empty_job = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                             binary=job.binary, check_memory=False,
                             overrides={})
        ctx_none = backend._prepare(none_job)
        ctx_empty = backend._prepare(empty_job)
        assert ctx_none.digest is not None
        assert ctx_none.digest == ctx_empty.digest
        [a] = backend.run_batch([none_job])
        [b] = backend.run_batch([empty_job])
        _assert_results_equal(a, b)


class _Echo:
    def __init__(self, init):
        self._scale = init

    def handle(self, msg):
        if msg == "boom":
            raise ValueError("boom requested")
        return msg * self._scale


def _echo_factory(init):
    return _Echo(init)


class TestPersistentPoolImap:
    def test_ordered_streaming(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_echo_factory, [10, 10, 10]) as pool:
            results = list(pool.imap(range(50)))
        assert results == [i * 10 for i in range(50)]

    def test_map_matches_imap(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_echo_factory, [2, 2]) as pool:
            assert pool.map(range(9)) == [i * 2 for i in range(9)]

    def test_worker_error_propagates(self):
        from repro.harness.procpool import PersistentPool

        pool = PersistentPool(_echo_factory, [1, 1])
        with pytest.raises(ValueError, match="boom requested"):
            list(pool.imap(["a", "boom", "c", "d"]))

    def test_lazy_input_consumption(self):
        from repro.harness.procpool import PersistentPool

        pulled = []

        def feed():
            for i in range(40):
                pulled.append(i)
                yield i

        with PersistentPool(_echo_factory, [1, 1]) as pool:
            stream = pool.imap(feed())
            first = next(stream)
            # the reorder buffer bounds read-ahead: far fewer than the
            # whole input may have been consumed after one result
            assert first == 0
            assert len(pulled) < 40
            rest = list(stream)
        assert [first] + rest == list(range(40))
