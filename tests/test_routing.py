"""Torus routes and congestion accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import (
    alltoall_flows,
    analyze_congestion,
    dimension_order_route,
    halo_flows,
    link_loads,
)
from repro.network.torus import TorusTopology, tofu_d
from repro.util.errors import ConfigurationError
from tests.oracles import link_loads_oracle


@pytest.fixture(scope="module")
def torus():
    return tofu_d(24)


class TestRoutes:
    def test_route_length_equals_hops(self, torus):
        for a in range(0, 24, 5):
            for b in range(0, 24, 7):
                route = dimension_order_route(torus, a, b)
                assert len(route) == torus.hops(a, b)

    def test_route_is_connected(self, torus):
        """Each link starts where the previous one ended."""
        route = dimension_order_route(torus, 0, 23)
        node = 0
        for here, axis, step in route:
            assert here == node
            coords = list(torus.coords(node))
            coords[axis] = (coords[axis] + step) % torus.dims[axis]
            node = torus.node_at(tuple(coords))
        assert node == 23

    def test_self_route_empty(self, torus):
        assert dimension_order_route(torus, 5, 5) == []

    def test_short_way_around_ring(self):
        ring = TorusTopology((8,))
        route = dimension_order_route(ring, 0, 7)
        assert len(route) == 1 and route[0] == (0, 0, -1)


class TestLoads:
    def test_single_flow_loads_its_route(self, torus):
        loads = link_loads(torus, [(0, 5, 100.0)])
        assert sum(loads.values()) == 100.0 * torus.hops(0, 5)
        assert all(v == 100.0 for v in loads.values())

    def test_negative_volume_rejected(self, torus):
        with pytest.raises(ConfigurationError):
            link_loads(torus, [(0, 1, -5.0)])

    def test_alltoall_congestion_nonuniform(self, torus):
        report = analyze_congestion(torus, alltoall_flows(list(range(12))))
        assert report.max_load > 0
        assert report.imbalance >= 1.0
        assert report.n_links_used > 0

    def test_compact_halo_does_less_network_work(self, torus):
        """Topology-aware placement reduces *total* link traffic
        (bytes x hops) for stencil patterns — the scheduler ablation at the
        link level.  (Peak per-link load can go either way: compact
        placements concentrate, scattered ones spread.)"""
        compact = list(range(8))
        scattered = [0, 3, 7, 11, 14, 17, 20, 23]
        work = lambda nodes: sum(  # noqa: E731
            link_loads(torus, halo_flows(torus, nodes)).values())
        assert work(compact) < work(scattered)

    def test_empty_pattern(self, torus):
        report = analyze_congestion(torus, [])
        assert report.max_load == 0.0 and report.n_links_used == 0


_TORI = {48: tofu_d(48), 192: tofu_d(192)}

#: zero, exact and inexact binary fractions, and arbitrary finite floats
_volumes = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 3.0, 1e-3, 2.0**60]),
                     st.floats(0.0, 1e12, allow_nan=False))


@st.composite
def _patterns(draw):
    """A torus and flows on it, with self flows, repeats and zero volumes."""
    topo = _TORI[draw(st.sampled_from(sorted(_TORI)))]
    node = st.integers(0, topo.n_nodes - 1)
    flows = draw(st.lists(st.tuples(node, node, _volumes), max_size=60))
    if flows and draw(st.booleans()):
        flows += draw(st.lists(st.sampled_from(flows), max_size=20))
    flows += [(a, a, v) for a, _, v in flows[:draw(st.integers(0, 3))]]
    return topo, draw(st.permutations(flows))


class TestVectorizedLoads:
    """Dimension-order ``link_loads`` equals the per-route fold: same
    links, same insertion order, same float sums."""

    @settings(max_examples=80, deadline=None)
    @given(_patterns())
    def test_matches_per_route_fold(self, pattern):
        topo, flows = pattern
        got = link_loads(topo, flows)
        want = link_loads_oracle(topo, flows)
        assert list(got.items()) == list(want.items())
        assert analyze_congestion(topo, flows).total_load == sum(want.values())

    @settings(max_examples=30, deadline=None)
    @given(_patterns(), st.floats(-1e6, -1e-9))
    def test_negative_volume_rejected_anywhere(self, pattern, negative):
        topo, flows = pattern
        flows = flows + [(0, topo.n_nodes - 1, negative)]
        with pytest.raises(ConfigurationError):
            link_loads(topo, flows)

    def test_out_of_range_node_rejected(self, torus):
        with pytest.raises(ConfigurationError):
            link_loads(torus, [(0, 1, 1.0), (0, 24, 1.0)])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(_TORI)), st.data())
    def test_halo_matches_sorted_pair_loop(self, n, data):
        topo = _TORI[n]
        nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=24))
        want = []
        for a in nodes:
            dists = sorted((topo.hops(a, b), b) for b in nodes if b != a)
            want += [(a, b, 2.5) for _, b in dists[:6]]
        assert halo_flows(topo, nodes, 2.5) == want


class TestValiantRouting:
    def test_route_reaches_destination(self, torus):
        from repro.network.routing import valiant_route

        route = valiant_route(torus, 0, 17, seed=3)
        node = 0
        for here, axis, step in route:
            assert here == node
            coords = list(torus.coords(node))
            coords[axis] = (coords[axis] + step) % torus.dims[axis]
            node = torus.node_at(tuple(coords))
        assert node == 17

    def test_deterministic_per_seed(self, torus):
        from repro.network.routing import valiant_route

        assert valiant_route(torus, 0, 17, seed=3) == valiant_route(
            torus, 0, 17, seed=3)

    def test_spreads_hotspots_at_cost_of_work(self, torus):
        """The classic Valiant trade-off on an adversarial pattern: all
        nodes hammer one destination region."""
        flows = [(src, 23, 1.0) for src in range(20)]
        dor = link_loads(torus, flows)
        val = link_loads(torus, flows, routing="valiant", seed=1)
        # randomized routing spreads the traffic over more links and
        # carries a smaller fraction of it on the hottest link...
        assert len(val) > len(dor)
        assert max(val.values()) / sum(val.values()) \
            < max(dor.values()) / sum(dor.values())
        # ...while doing more total network work (the Valiant tax).
        assert sum(val.values()) > sum(dor.values())

    def test_unknown_routing_rejected(self, torus):
        with pytest.raises(ConfigurationError):
            link_loads(torus, [(0, 1, 1.0)], routing="teleport")
