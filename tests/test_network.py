"""Network models: topologies, link timing, faults, the network facade."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    FatTreeTopology,
    FaultModel,
    NetworkModel,
    TorusTopology,
    network_for,
    tofu_d,
)
from repro.network.faults import WEAK_NODE_INDEX, cte_arm_faults, random_faults
from repro.network.linkmodel import OMNIPATH_LINK, TOFUD_LINK, ProtocolModel
from repro.util.errors import ConfigurationError
from repro.util.units import KIB, MIB


class TestTorus:
    def test_tofu_dims_for_192(self):
        topo = tofu_d(192)
        assert topo.n_nodes == 192
        assert topo.dims[-3:] == (2, 3, 2)
        assert np.prod(topo.dims) == 192

    def test_coords_roundtrip(self):
        topo = TorusTopology((3, 4, 5))
        for node in range(topo.n_nodes):
            assert topo.node_at(topo.coords(node)) == node

    def test_hops_metric_properties(self):
        topo = TorusTopology((4, 3))
        for a in range(topo.n_nodes):
            assert topo.hops(a, a) == 0
            for b in range(topo.n_nodes):
                assert topo.hops(a, b) == topo.hops(b, a)
                assert topo.hops(a, b) <= topo.diameter

    def test_ring_wraparound(self):
        topo = TorusTopology((8,))
        assert topo.hops(0, 7) == 1  # wraps
        assert topo.hops(0, 4) == 4

    def test_neighbors_are_distance_one(self):
        topo = tofu_d(24)
        for nb in topo.neighbors(0):
            assert topo.hops(0, nb) == 1

    def test_diameter(self):
        assert TorusTopology((4, 4)).diameter == 4
        assert tofu_d(192).diameter == 4 // 2 + 1 + 1 + 1 + 1 + 1

    def test_tofu_rejects_non_multiple_of_12(self):
        with pytest.raises(ConfigurationError):
            tofu_d(100)

    def test_networkx_export(self):
        g = TorusTopology((3, 3)).to_networkx()
        assert g.number_of_nodes() == 9
        # 2-D torus: every node has degree 4 (radix-3 rings).
        assert all(d == 4 for _, d in g.degree())

    def test_average_hops_positive(self):
        assert 0 < TorusTopology((4, 4)).average_hops() <= 4


class TestFatTree:
    def test_hop_counts(self):
        topo = FatTreeTopology(96, nodes_per_leaf=24)
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 5) == 2  # same leaf
        assert topo.hops(0, 50) == 4  # cross leaves
        assert topo.diameter == 4

    def test_single_leaf_diameter(self):
        assert FatTreeTopology(8, nodes_per_leaf=24).diameter == 2

    def test_uplink_share(self):
        topo = FatTreeTopology(96, nodes_per_leaf=24, oversubscription=2.0)
        assert topo.uplink_share(1) == 1.0
        assert topo.uplink_share(12) == 1.0  # within taper capacity
        assert topo.uplink_share(24) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            topo.uplink_share(0)

    def test_neighbors_same_leaf(self):
        topo = FatTreeTopology(48, nodes_per_leaf=24)
        assert set(topo.neighbors(0)) == set(range(1, 24))


class TestLinkModel:
    def test_time_monotone_in_size(self):
        sizes = [64, 1024, 64 * KIB, MIB, 16 * MIB]
        times = [TOFUD_LINK.p2p_time(s, 2) for s in sizes]
        assert times == sorted(times)

    def test_time_monotone_in_hops(self):
        assert TOFUD_LINK.p2p_time(1024, 1) < TOFUD_LINK.p2p_time(1024, 6)

    def test_bandwidth_approaches_peak(self):
        bw = 64 * MIB / TOFUD_LINK.p2p_time(64 * MIB, 1)
        assert 0.8 * 6.8e9 < bw < 6.8e9

    def test_small_messages_latency_bound(self):
        bw = 256 / TOFUD_LINK.p2p_time(256, 1)
        assert bw < 0.2e9

    def test_shared_memory_faster_than_network(self):
        assert TOFUD_LINK.p2p_time(4096, 0) < TOFUD_LINK.p2p_time(4096, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            TOFUD_LINK.p2p_time(0, 1)

    def test_protocol_bimodal_window(self):
        proto = ProtocolModel()
        factors = {
            proto.factor(a, b, 64 * KIB) for a in range(30) for b in range(30)
        }
        assert factors == {1.0, proto.slow_factor}

    def test_protocol_deterministic(self):
        proto = ProtocolModel()
        assert proto.factor(3, 7, 8192) == proto.factor(3, 7, 8192)

    def test_omnipath_no_bimodality(self):
        factors = {
            OMNIPATH_LINK.protocol.factor(a, b, 64 * KIB)
            for a in range(20) for b in range(20)
        }
        assert factors == {1.0}

    @pytest.mark.parametrize("size", [0, -1, -4 * MIB])
    def test_factors_reject_nonpositive_size(self, size):
        pairs = np.arange(4)
        with pytest.raises(ConfigurationError):
            ProtocolModel().factors(pairs, pairs[::-1], size)
        with pytest.raises(ConfigurationError):
            ProtocolModel().factor(0, 1, size)

    @pytest.mark.parametrize("size", [64, 64 * KIB, 4 * MIB])
    def test_factors_reject_bad_pair_arrays(self, size):
        proto = ProtocolModel()
        flat, grid = np.arange(6), np.arange(6).reshape(2, 3)
        for src, dst in [(grid, grid), (grid.ravel(), grid),
                         (np.int64(3), np.int64(4)), (flat, flat[:5])]:
            with pytest.raises(ConfigurationError):
                proto.factors(src, dst, size)
        empty = np.array([], dtype=np.int64)
        assert proto.factors(empty, empty, size).shape == (0,)

    def test_large_message_jitter(self):
        proto = ProtocolModel()
        fs = [proto.factor(a, a + 1, 4 * MIB) for a in range(50)]
        assert max(fs) <= 1.0 and min(fs) >= 1.0 - proto.large_jitter
        assert len(set(fs)) > 10  # genuinely spread


class TestFaults:
    def test_pair_factor(self):
        fm = FaultModel().degrade_receiver(3, 0.25).degrade_sender(5, 0.5)
        assert fm.pair_factor(0, 3) == 0.25
        assert fm.pair_factor(5, 0) == 0.5
        assert fm.pair_factor(5, 3) == 0.125
        assert fm.pair_factor(0, 1) == 1.0

    def test_invalid_factor(self):
        with pytest.raises(ConfigurationError):
            FaultModel().degrade_receiver(0, -0.1)
        with pytest.raises(ConfigurationError):
            FaultModel().degrade_receiver(0, 1.5)

    def test_zero_factor_means_unreachable(self):
        fm = FaultModel().degrade_receiver(3, 0.0)
        assert fm.pair_factor(0, 3) == 0.0
        assert fm.has_unreachable()
        fm.restore(3)
        assert fm.pair_factor(0, 3) == 1.0
        assert not fm.has_unreachable()

    def test_cte_arm_default_fault(self):
        fm = cte_arm_faults()
        assert fm.recv_factors == {WEAK_NODE_INDEX: 0.25}
        assert not fm.send_factors

    def test_random_faults_reproducible(self):
        a = random_faults(48, 3, seed=9)
        b = random_faults(48, 3, seed=9)
        assert a.recv_factors == b.recv_factors

    def test_random_faults_bounds(self):
        with pytest.raises(ConfigurationError):
            random_faults(10, 11)


class TestNetworkModel:
    def test_network_for_arm_has_weak_node(self, arm):
        net = network_for(arm)
        assert isinstance(net.topology, TorusTopology)
        assert WEAK_NODE_INDEX in net.faults.recv_factors

    def test_healthy_override(self, arm):
        net = network_for(arm, healthy=True)
        assert net.faults.is_healthy()

    def test_small_partition_drops_fault(self, arm):
        net = network_for(arm, n_nodes=48)
        assert net.faults.is_healthy()  # weak node index 107 >= 48

    def test_mn4_is_fat_tree(self, mn4):
        net = network_for(mn4, n_nodes=96)
        assert isinstance(net.topology, FatTreeTopology)
        assert net.faults.is_healthy()

    def test_weak_node_asymmetry(self, arm):
        net = network_for(arm)
        healthy = net.measured_bandwidth(0, 50, 256)
        to_weak = net.measured_bandwidth(0, WEAK_NODE_INDEX, 256)
        from_weak = net.measured_bandwidth(WEAK_NODE_INDEX, 0, 256)
        assert to_weak < 0.5 * healthy
        assert from_weak > 0.7 * healthy

    def test_sendrecv_is_max_of_directions(self, arm):
        net = network_for(arm)
        t = net.sendrecv_time(0, WEAK_NODE_INDEX, 4096)
        assert t == pytest.approx(net.p2p_time(0, WEAK_NODE_INDEX, 4096))

    def test_tofu_partition_rounds_to_unit_group(self, arm):
        net = network_for(arm, n_nodes=17)
        assert net.n_nodes == 24

    def test_invalid_partition(self, arm):
        with pytest.raises(ConfigurationError):
            network_for(arm, n_nodes=0)


@st.composite
def _networks(draw):
    """A torus or fat tree of random size with random (possibly dead,
    possibly off-fabric) directional faults."""
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
        net = NetworkModel(TorusTopology(dims), TOFUD_LINK)
    else:
        n = draw(st.integers(1, 80))
        net = NetworkModel(
            FatTreeTopology(n, nodes_per_leaf=draw(st.integers(1, 24))),
            OMNIPATH_LINK)
    factor = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    node = st.integers(0, net.n_nodes + 3)
    for node_id, f in draw(st.dictionaries(node, factor, max_size=4)).items():
        net.faults.degrade_receiver(node_id, f)
    for node_id, f in draw(st.dictionaries(node, factor, max_size=4)).items():
        net.faults.degrade_sender(node_id, f)
    return net


#: shm/small (< 1 KiB), bimodal (1 KiB..256 KiB), the gap below 1 MiB,
#: and large (>= 1 MiB) message sizes.
_sizes = st.sampled_from([1, 8, 256, 1023, 1024, 4096, 65536, 262143,
                          262144, 512 * KIB, MIB, 4 * MIB, 16 * MIB])


class TestVectorPairPricing:
    """``p2p_times``/``hops_many`` are bit-identical to the scalar path."""

    @settings(max_examples=60, deadline=None)
    @given(_networks(), _sizes, st.data())
    def test_matches_scalar(self, net, size, data):
        node = st.integers(0, net.n_nodes - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=40))
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        want_hops = [net.topology.hops(a, b) for a, b in pairs]
        assert np.array_equal(net.topology.hops_many(src, dst), want_hops)
        want = [net.p2p_time(a, b, size) for a, b in pairs]
        assert np.array_equal(net.p2p_times(src, dst, size), want)

    def test_reads_faults_live(self, arm):
        net = network_for(arm)
        src, dst = np.array([0, 1, 2]), np.array([5, 5, 6])
        before = net.p2p_times(src, dst, 4096)
        net.apply_fault_transition(lambda fm: fm.degrade_receiver(5, 0.5))
        after = net.p2p_times(src, dst, 4096)
        assert np.array_equal(after[:2], 2.0 * before[:2])
        assert after[2] == before[2]

    def test_dead_direction_reads_zero_bandwidth(self, arm):
        net = network_for(arm, healthy=True)
        net.faults.degrade_sender(3, 0.0)
        times = net.p2p_times(np.array([3, 4]), np.array([4, 3]), 256)
        assert times[0] == math.inf and math.isfinite(times[1])
        assert (256 / times)[0] == 0.0

    def test_off_fabric_fault_keys_ignored(self, arm):
        net = network_for(arm, n_nodes=24, healthy=True)
        net.faults.degrade_receiver(500, 0.5).degrade_sender(-1, 0.0)
        src, dst = np.arange(24), np.arange(24)[::-1]
        want = [net.p2p_time(a, b, 256) for a, b in zip(src, dst)]
        assert np.array_equal(net.p2p_times(src, dst, 256), want)

    def test_rejects_bad_nodes_and_sizes(self, arm, mn4):
        net = network_for(arm, n_nodes=24)
        with pytest.raises(ConfigurationError):
            net.p2p_times(np.array([0, 24]), np.array([1, 2]), 256)
        with pytest.raises(ConfigurationError):
            net.p2p_times(np.array([-1]), np.array([1]), 256)
        with pytest.raises(ConfigurationError):
            net.p2p_times(np.array([0]), np.array([1]), 0)
        fat = network_for(mn4, n_nodes=48)
        with pytest.raises(ConfigurationError):
            fat.topology.hops_many(np.array([0]), np.array([48]))

    def test_bypasses_scalar_memo(self, arm):
        net = network_for(arm)
        nodes = np.arange(net.n_nodes)
        net.p2p_times(np.repeat(nodes, 2), np.tile(nodes, 2), 256)
        assert not net._base_cache and not net._hops_cache

    def test_average_hops_matches_pair_loop(self):
        for topo in (tofu_d(48), FatTreeTopology(50, nodes_per_leaf=8)):
            n = topo.n_nodes
            total = sum(topo.hops(a, b)
                        for a in range(n) for b in range(n) if a != b)
            assert topo.average_hops() == total / (n * (n - 1))
        assert FatTreeTopology(1).average_hops() == 0.0
