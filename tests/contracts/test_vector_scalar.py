"""vector ≡ scalar: the full-size all-pairs network sweeps (Figs. 4-5,
``ext_faults``) equal the same sweeps priced one pair at a time through
``NetworkModel.p2p_time``, and ``pareto_indices`` equals the brute-force
dominance definition on 2,000 seeded arrays."""

import numpy as np
import pytest

from repro.bench.osu import (
    FIG4_SIZE,
    FIG5_SIZES,
    fig4_data,
    fig5_data,
    pairwise_bandwidth_map,
)
from repro.machine import cte_arm
from repro.network import network_for
from repro.network.faults import random_faults
from repro.tune import dominates, pareto_indices
from repro.util.rng import make_rng


def scalar_map(net, size):
    n = net.n_nodes
    return np.array([[np.nan if a == b else size / net.p2p_time(a, b, size)
                      for b in range(n)] for a in range(n)])


@pytest.mark.parametrize("healthy", [False, True])
def test_fig4_map(healthy):
    net = network_for(cte_arm(192), n_nodes=192, healthy=healthy)
    assert np.array_equal(fig4_data(healthy=healthy),
                          scalar_map(net, FIG4_SIZE), equal_nan=True)


def test_fig5_distributions():
    net = network_for(cte_arm(192), n_nodes=192)
    pairs = [(a, b) for a in range(192) for b in range(192) if a != b]
    idx = make_rng(7, "osu-pairs", 192, 1500).choice(len(pairs), size=1500,
                                                     replace=False)
    sample = [pairs[i] for i in np.sort(idx)]
    dists = fig5_data(max_pairs=1500)
    assert sorted(dists) == FIG5_SIZES
    for size in FIG5_SIZES:
        want = [size / net.p2p_time(a, b, size) for a, b in sample]
        assert np.array_equal(dists[size], want), size


@pytest.mark.parametrize("n_faults, direction",
                         [(1, "recv"), (3, "recv"), (2, "send"), (2, "both")])
def test_ext_faults_map(n_faults, direction):
    faults = random_faults(48, n_faults, directions=direction, seed=n_faults)
    net = network_for(cte_arm(48), n_nodes=48, faults=faults)
    assert np.array_equal(pairwise_bandwidth_map(net, size=256),
                          scalar_map(net, 256), equal_nan=True)


def test_pareto_matches_brute_force_dominance():
    """Small value pools force ties and exact duplicates; +-inf appears
    in both coordinates."""
    rng = np.random.default_rng(2021)
    pool = np.asarray([-np.inf, 0.0, 1.0, 1.5, 2.0, 3.0, 5.0, np.inf])
    for _ in range(2000):
        n = int(rng.integers(0, 64))
        t = rng.choice(pool[: int(rng.integers(2, pool.size + 1))], n)
        e = rng.choice(pool, n)
        # dom[j, i] == dominates((t[j], e[j]), (t[i], e[i]))
        dom = ((t[:, None] <= t) & (e[:, None] <= e)
               & ((t[:, None] < t) | (e[:, None] < e)))
        if n:
            j, i = rng.integers(0, n, 2)
            assert dom[j, i] == dominates((t[j], e[j]), (t[i], e[i]))
        want = np.flatnonzero(~dom.any(axis=0))
        assert pareto_indices(t, e).tolist() == want.tolist(), (t, e)
