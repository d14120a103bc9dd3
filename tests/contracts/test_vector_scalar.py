"""vector ≡ scalar: the full-size all-pairs network sweeps (Figs. 4-5,
``ext_faults``) equal the same sweeps priced one pair at a time through
``NetworkModel.p2p_time``; the protocol draws of ``ProtocolModel.factors``
and ``factor`` equal the per-lane ``derive_seed`` oracle; the weak-link
axis medians equal the per-node loop; and ``pareto_indices`` equals the
brute-force dominance definition on 2,000 seeded arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.osu import (
    FIG4_SIZE,
    FIG5_SIZES,
    fig4_data,
    fig5_data,
    find_weak_links,
    pairwise_bandwidth_map,
)
from repro.machine import cte_arm
from repro.network import network_for
from repro.network.faults import random_faults
from repro.network.linkmodel import OMNIPATH_LINK, TOFUD_LINK, ProtocolModel
from repro.tune import dominates, pareto_indices
from repro.util.rng import make_rng
from tests.oracles import protocol_factor_oracle


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


_PROTOCOLS = (TOFUD_LINK.protocol, OMNIPATH_LINK.protocol,
              ProtocolModel(slow_probability=0.5, seed=2021))


def _window_edges(proto):
    return (proto.bimodal_lo - 1, proto.bimodal_lo, proto.bimodal_hi - 1,
            proto.bimodal_hi, proto.large_threshold - 1,
            proto.large_threshold)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_protocol_draws_match_oracle(data):
    proto = data.draw(st.sampled_from(_PROTOCOLS))
    size = data.draw(st.sampled_from(_window_edges(proto))
                     | st.integers(1, 1 << 25))
    node = st.integers(0, 100_000)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=24))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    want = np.array([protocol_factor_oracle(proto, a, b, size)
                     for a, b in pairs], dtype=np.float64)
    got = proto.factors(src, dst, size)
    assert got.dtype == np.float64 and got.shape == src.shape
    assert got.tobytes() == want.tobytes()
    for a, b, w in zip(src, dst, want):  # numpy int64 scalars
        assert proto.factor(a, b, size) == w
        assert proto.factor(int(a), int(b), size) == w


def _per_node_medians(m):
    n = m.shape[0]
    return (np.array([np.nanmedian(m[:, k]) for k in range(n)]),
            np.array([np.nanmedian(m[k, :]) for k in range(n)]))


def _weak_link_maps():
    yield "fig4-faulty", fig4_data(), 0.5
    yield "fig4-healthy", fig4_data(healthy=True), 0.5
    for n_faults, direction in [(1, "recv"), (3, "recv"), (2, "send"),
                                (2, "both")]:
        faults = random_faults(48, n_faults, directions=direction,
                               seed=n_faults)
        net = network_for(cte_arm(48), n_nodes=48, faults=faults)
        yield f"ext-{n_faults}-{direction}", \
            pairwise_bandwidth_map(net, size=256), 0.6
    net = network_for(cte_arm(48), n_nodes=48,
                      faults=random_faults(48, 2, directions="both", seed=5))
    holed = pairwise_bandwidth_map(net, size=256)
    holed[7, :] = np.nan
    holed[:, 7] = np.nan
    yield "all-nan-row-and-column", holed, 0.6


@pytest.mark.filterwarnings("ignore:All-NaN slice encountered")
def test_weak_links_match_per_node_loop():
    flagged = 0
    for name, m, threshold in _weak_link_maps():
        cols, rows = _per_node_medians(m)
        assert np.nanmedian(m, axis=0).tobytes() == cols.tobytes(), name
        assert np.nanmedian(m, axis=1).tobytes() == rows.tobytes(), name
        cut = threshold * float(np.nanmedian(m))
        report = find_weak_links(m, threshold=threshold)
        assert report.weak_receivers == [
            k for k in range(len(cols)) if float(cols[k]) < cut], name
        assert report.weak_senders == [
            k for k in range(len(rows)) if float(rows[k]) < cut], name
        flagged += len(report.weak_receivers) + len(report.weak_senders)
    assert flagged  # the faulty maps do flag nodes


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
