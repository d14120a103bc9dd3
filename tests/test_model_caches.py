"""Memoization layers of the network and kernel-time models.

The caches must be invisible: identical numbers to the uncached code, and
model mutation (fault injection, rebinding the link/topology) must take
effect immediately.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.machine import cte_arm, marenostrum4
from repro.machine.core import _SUSTAINED_RATES
from repro.machine.isa import DType
from repro.network import linkmodel, model
from repro.network.fattree import FatTreeTopology
from repro.network.linkmodel import OMNIPATH_LINK
from repro.network.model import NetworkModel, network_for
from repro.network.torus import TorusTopology
from repro.util.errors import ConfigurationError


class TestNetworkModelCache:
    def test_repeat_queries_hit_cache(self):
        net = network_for(cte_arm(24), healthy=True)
        first = net.p2p_time(0, 5, 4096)
        assert net.p2p_time(0, 5, 4096) == first
        assert (0, 5, 4096) in net._base_cache
        assert (0, 5) in net._hops_cache

    def test_fault_mutation_applies_live(self):
        """degrade_receiver after cached queries must change the answer."""
        net = network_for(cte_arm(24), healthy=True)
        healthy = net.p2p_time(0, 5, 4096)
        net.faults.degrade_receiver(5, 0.5)
        assert net.p2p_time(0, 5, 4096) == healthy / 0.5
        # Other pairs are unaffected.
        assert net.p2p_time(0, 6, 4096) == net.p2p_time(0, 6, 4096)

    def test_rebinding_link_invalidates(self):
        net = network_for(cte_arm(24), healthy=True)
        tofud = net.p2p_time(0, 5, 4096)
        net.link = OMNIPATH_LINK
        assert not net._base_cache or net.p2p_time(0, 5, 4096) != tofud
        assert net.p2p_time(0, 5, 4096) != tofud

    def test_explicit_invalidate(self):
        net = network_for(cte_arm(24), healthy=True)
        net.p2p_time(0, 5, 4096)
        net.invalidate_caches()
        assert not net._base_cache
        assert not net._hops_cache

    def test_matches_uncached_computation(self):
        """The cached result equals recomputing from the parts."""
        net = network_for(cte_arm(24))
        for src, dst, size in [(0, 1, 256), (3, 11, 65536), (2, 9, 1 << 20)]:
            expected = net.link.p2p_time(
                size, net.topology.hops(src, dst), src, dst
            ) / net.faults.pair_factor(src, dst)
            assert net.p2p_time(src, dst, size) == expected
            assert net.p2p_time(src, dst, size) == expected  # cached


@pytest.fixture()
def draws(monkeypatch):
    """Counts of protocol-draw lanes and ``hops_many`` calls."""
    counts = {"lanes": 0, "hops_many": 0}
    unit_draws = linkmodel._unit_draws

    def counted_draws(seed, tag, src, dst, size):
        counts["lanes"] += len(src)
        return unit_draws(seed, tag, src, dst, size)

    def counted_hops(cls):
        hops_many = cls.hops_many

        def wrapper(self, a, b):
            counts["hops_many"] += 1
            return hops_many(self, a, b)
        monkeypatch.setattr(cls, "hops_many", wrapper)

    monkeypatch.setattr(linkmodel, "_unit_draws", counted_draws)
    counted_hops(TorusTopology)
    counted_hops(FatTreeTopology)
    return counts


class TestVectorBaseMemo:
    """``p2p_times`` memoizes pre-fault base arrays in
    ``network.base_times`` and applies the fault state live."""

    SRC, DST = np.arange(0, 20), np.arange(4, 24)

    def test_repeat_call_is_a_hit_without_draws(self, draws):
        model._BASE_TIMES.clear()
        net = network_for(cte_arm(24))
        first = net.p2p_times(self.SRC, self.DST, 4096)
        assert draws == {"lanes": 20, "hops_many": 1}
        again = network_for(cte_arm(24)).p2p_times(self.SRC, self.DST, 4096)
        assert np.array_equal(again, first)
        assert draws == {"lanes": 20, "hops_many": 1}
        assert model._BASE_TIMES.stats()["hits"] == 1

    def test_fault_edit_between_calls_applies(self):
        net = network_for(cte_arm(24), healthy=True)
        healthy = net.p2p_times(self.SRC, self.DST, 4096)
        net.faults.degrade_receiver(5, 0.5)
        degraded = net.p2p_times(self.SRC, self.DST, 4096)
        assert degraded[1] == healthy[1] / 0.5
        assert np.array_equal(np.delete(degraded, 1), np.delete(healthy, 1))
        net.apply_fault_transition(lambda fm: fm.degrade_sender(0, 0.0))
        assert net.p2p_times(self.SRC, self.DST, 4096)[0] == np.inf

    def test_other_link_or_dims_miss(self, draws):
        model._BASE_TIMES.clear()
        net = NetworkModel(TorusTopology((2, 3, 4)), linkmodel.TOFUD_LINK)
        base = net.p2p_times(self.SRC, self.DST, 4096)
        net.link = dataclasses.replace(net.link, latency_s=2e-6)
        other_link = net.p2p_times(self.SRC, self.DST, 4096)
        net.topology = TorusTopology((4, 3, 2))
        other_dims = net.p2p_times(self.SRC, self.DST, 4096)
        assert draws["hops_many"] == 3
        assert model._BASE_TIMES.stats()["misses"] == 3
        assert not np.array_equal(other_link, base)
        assert not np.array_equal(other_dims, other_link)

    def test_in_place_topology_edit_misses(self):
        fat = FatTreeTopology(48, nodes_per_leaf=24)
        net = NetworkModel(fat, OMNIPATH_LINK)
        before = net.p2p_times(np.array([0]), np.array([5]), 256)
        fat.nodes_per_leaf = 4
        after = net.p2p_times(np.array([0]), np.array([5]), 256)
        assert after[0] > before[0]  # 2 -> 4 hops

    def test_clear_caches_empties_it(self):
        from repro.ir.batch import clear_caches

        network_for(cte_arm(24)).p2p_times(self.SRC, self.DST, 256)
        assert len(model._BASE_TIMES)
        clear_caches()
        assert not len(model._BASE_TIMES)

    def test_returned_array_is_fresh(self):
        net = network_for(cte_arm(24), healthy=True)
        first = net.p2p_times(self.SRC, self.DST, 4096)
        want = first.copy()
        first[:] = -1.0
        assert np.array_equal(net.p2p_times(self.SRC, self.DST, 4096), want)

    def test_nonpositive_size_raises_every_call(self):
        net = network_for(cte_arm(24))
        net.p2p_times(self.SRC, self.DST, 4096)
        for _ in range(2):
            for size in (0, -4096):
                with pytest.raises(ConfigurationError):
                    net.p2p_times(self.SRC, self.DST, size)


def test_warm_fig5_draws_nothing(draws):
    """A second ``fig5_netdist`` run in one process makes no protocol
    draws and computes no hop counts; the cold run makes 19,500 lanes
    (13 windowed sizes x 1,500 pairs) over 25 ``hops_many`` calls."""
    from repro.harness.experiment import run_experiment

    model._BASE_TIMES.clear()
    first = run_experiment("fig5_netdist").to_dict()
    assert draws == {"lanes": 19500, "hops_many": 25}
    draws.update(lanes=0, hops_many=0)
    assert run_experiment("fig5_netdist").to_dict() == first
    assert draws == {"lanes": 0, "hops_many": 0}


class TestKernelRateCache:
    def test_sustained_flops_memoized(self):
        core = cte_arm(2).node.core_model
        _SUSTAINED_RATES.clear()
        first = core.sustained_flops(
            DType.DOUBLE, vector_fraction=0.8, vector_efficiency=0.5
        )
        again = core.sustained_flops(
            DType.DOUBLE, vector_fraction=0.8, vector_efficiency=0.5
        )
        assert again == first
        stats = _SUSTAINED_RATES.stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1

    def test_distinct_cores_distinct_entries(self):
        arm = cte_arm(2).node.core_model
        skx = marenostrum4(2).node.core_model
        a = arm.sustained_flops(DType.DOUBLE, vector_fraction=0.9,
                                vector_efficiency=0.6)
        b = skx.sustained_flops(DType.DOUBLE, vector_fraction=0.9,
                                vector_efficiency=0.6)
        assert a != b

    def test_matches_direct_formula(self):
        from repro.machine.isa import ExecMode

        core = cte_arm(2).node.core_model
        vf, ve = 0.7, 0.45
        rv = core.peak_flops(DType.DOUBLE, ExecMode.VECTOR) * ve
        rs = core.peak_flops(DType.DOUBLE, ExecMode.SCALAR) * (
            core.scalar_ooo_efficiency
        )
        expected = 1.0 / (vf / rv + (1.0 - vf) / rs)
        got = core.sustained_flops(
            DType.DOUBLE, vector_fraction=vf, vector_efficiency=ve
        )
        assert got == expected
