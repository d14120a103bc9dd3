"""stream ≡ batch at 50k points: ``run_override_columns`` (the streaming
column path the tuner rides) equals plain ``run_batch`` on 200 scalar
probes of the same points, on 1-D lanes and on a broadcast grid with
three stacked jobs."""

import numpy as np

from repro.apps import get_app
from repro.ir.batch import BatchJob, clear_caches, shared_batch_backend
from repro.machine.presets import cte_arm

CLUSTER = cte_arm(64)
APP = get_app("nemo")
BINARY = APP.build(CLUSTER)


def nemo_job(nodes, **overrides):
    mapping = APP.mapping(CLUSTER, nodes)
    return BatchJob(APP.program(mapping), CLUSTER, nodes, mapping=mapping,
                    binary=BINARY, check_memory=False,
                    overrides=overrides or None)


def assert_probes_match(elapsed, sample, probes):
    clear_caches()
    for i, result in zip(sample, shared_batch_backend().run_batch(probes)):
        assert elapsed[i] == result.elapsed, (i, elapsed[i], result.elapsed)


def test_50k_lanes_match_scalar_jobs():
    n = 50_000
    grid = 1.0 + 0.4 * np.arange(n, dtype=np.float64) / (n - 1) - 0.2
    columns = {"comm_scale": grid, "bandwidth_scale": grid[::-1].copy(),
               "rate_scale": np.roll(grid, n // 3)}
    elapsed = np.concatenate([
        chunk.elapsed for chunk in shared_batch_backend().run_override_columns(
            nemo_job(16), columns, memory_budget_bytes=1 << 22)])
    assert elapsed.shape == (n,)
    sample = range(0, n, n // 199)
    probes = [nemo_job(16, **{k: float(v[i]) for k, v in columns.items()})
              for i in sample]
    assert len(probes) == 200
    assert_probes_match(elapsed, sample, probes)


def test_50k_grid_with_stacked_jobs_matches_scalar_jobs():
    stacked = [nemo_job(nodes) for nodes in (8, 16, 32)]
    rates = np.linspace(0.85, 1.1, 8)
    comms = np.linspace(0.8, 1.2, 40)
    bws = np.linspace(0.6, 1.4, 60 * 3).reshape(60, 3)
    columns = {"rate_scale": rates[:, None, None, None],
               "comm_scale": comms[None, :, None, None],
               "bandwidth_scale": bws[None, None, :, :]}
    shape = (8, 40, 60, 3)
    clear_caches()
    elapsed = np.concatenate([
        chunk.elapsed.ravel()
        for chunk in shared_batch_backend().run_override_columns(
            stacked, columns, memory_budget_bytes=1 << 22)])
    n = int(np.prod(shape))
    assert n >= 50_000 and elapsed.shape == (n,)
    sample = range(0, n, n // 199)
    probes = []
    for i in sample:
        f, c, b, j = np.unravel_index(i, shape)
        probes.append(nemo_job(stacked[j].n_nodes, rate_scale=float(rates[f]),
                               comm_scale=float(comms[c]),
                               bandwidth_scale=float(bws[b, j])))
    assert len(probes) == 200
    assert_probes_match(elapsed, sample, probes)
