"""Machine models: ISAs, cores, caches, memory, NUMA, nodes, presets.

The Table I assertions here are exact — peaks are first-principles.
"""

import pytest

from repro.machine import (
    AVX512,
    NEON,
    SCALAR,
    SVE512,
    CacheHierarchy,
    CoreModel,
    DType,
    ExecMode,
    MemoryModel,
    cte_arm,
    get_preset,
    lanes,
    marenostrum4,
    table1,
)
from repro.util.errors import ConfigurationError
from repro.util.units import GB, KIB, MIB


class TestISA:
    def test_lane_counts(self):
        assert SVE512.lanes(DType.DOUBLE) == 8
        assert SVE512.lanes(DType.SINGLE) == 16
        assert SVE512.lanes(DType.HALF) == 32
        assert NEON.lanes(DType.DOUBLE) == 2
        assert AVX512.lanes(DType.DOUBLE) == 8

    def test_avx512_half_promotes_to_single(self):
        assert not AVX512.supports(DType.HALF)
        assert AVX512.effective_dtype(DType.HALF) is DType.SINGLE
        assert AVX512.lanes(DType.HALF) == AVX512.lanes(DType.SINGLE) == 16

    def test_sve_supports_fp16(self):
        assert SVE512.supports(DType.HALF)

    def test_scalar_mode_single_lane(self):
        assert lanes(SVE512, DType.DOUBLE, ExecMode.SCALAR) == 1
        assert lanes(SCALAR, DType.HALF, ExecMode.VECTOR) == 4  # 64-bit reg


class TestCoreModel:
    def test_a64fx_peaks_match_table1(self, arm):
        core = arm.node.core_model
        assert core.peak_flops(DType.DOUBLE) == pytest.approx(70.4e9)
        assert core.peak_flops(DType.SINGLE) == pytest.approx(140.8e9)
        assert core.peak_flops(DType.HALF) == pytest.approx(281.6e9)
        assert core.peak_flops(DType.DOUBLE, ExecMode.SCALAR) == pytest.approx(8.8e9)

    def test_skylake_peaks_match_table1(self, mn4):
        core = mn4.node.core_model
        assert core.peak_flops(DType.DOUBLE) == pytest.approx(67.2e9)
        assert core.peak_flops(DType.HALF) == pytest.approx(134.4e9)  # promoted

    def test_ukernel_near_peak(self, arm):
        core = arm.node.core_model
        ratio = core.ukernel_flops(DType.DOUBLE, ExecMode.VECTOR) / core.peak_flops()
        assert 0.95 < ratio < 1.0

    def test_sustained_between_scalar_and_vector(self, arm):
        core = arm.node.core_model
        s = core.sustained_flops(vector_fraction=0.5, vector_efficiency=0.3)
        scalar_only = core.sustained_flops(vector_fraction=0.0,
                                           vector_efficiency=0.3)
        assert scalar_only < s < core.peak_flops()

    def test_sustained_monotone_in_vector_fraction(self, arm):
        core = arm.node.core_model
        rates = [
            core.sustained_flops(vector_fraction=v, vector_efficiency=0.3)
            for v in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert rates == sorted(rates)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreModel(name="x", frequency_hz=-1)
        with pytest.raises(ConfigurationError):
            CoreModel(name="x", frequency_hz=1e9, scalar_ooo_efficiency=0.0)

    def test_vector_fraction_bounds(self, arm):
        with pytest.raises(ConfigurationError):
            arm.node.core_model.sustained_flops(vector_fraction=1.5)


class TestCaches:
    def test_a64fx_hierarchy(self, arm):
        caches = arm.node.caches
        assert caches.level("L1").size_bytes == 64 * KIB
        assert caches.level("L2").total_bytes == 32 * MIB
        assert caches.last_level.name == "L2"

    def test_stream_rule(self, arm, mn4):
        # E >= max(1e7, 4S/8)
        assert arm.node.caches.stream_min_elements() == max(
            10**7, 4 * 32 * MIB // 8
        )
        assert mn4.node.caches.stream_min_elements() == max(
            10**7, 4 * 66 * MIB // 8
        )

    def test_unknown_level_rejected(self, arm):
        with pytest.raises(ConfigurationError):
            arm.node.caches.level("L9")

    def test_fits_in(self, mn4):
        assert mn4.node.caches.fits_in(512 * KIB, "L2")
        assert not mn4.node.caches.fits_in(2 * MIB, "L2")

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(levels=())


class TestMemoryAndNUMA:
    def test_hbm_peak(self, arm):
        domain = arm.node.domains[0]
        assert domain.memory.peak_bandwidth == pytest.approx(256e9)
        assert domain.memory.capacity_bytes == 8 * GB

    def test_ddr4_peak(self, mn4):
        domain = mn4.node.domains[0]
        assert domain.memory.peak_bandwidth == pytest.approx(128e9)

    def test_local_stream_bw_saturates(self, arm):
        d = arm.node.domains[0]
        assert d.local_stream_bw(1) < d.local_stream_bw(6)
        assert d.local_stream_bw(12) == pytest.approx(
            d.memory.sustainable_bandwidth
        )
        assert d.local_stream_bw(0) == 0.0

    def test_invalid_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryModel("x", channels=0, channel_bw=1.0, capacity_bytes=1)


class TestNode:
    def test_core_counts(self, arm, mn4):
        assert arm.node.cores == 48 and mn4.node.cores == 48
        assert len(arm.node.domains) == 4 and len(mn4.node.domains) == 2

    def test_node_peaks_match_table1(self, arm, mn4):
        assert arm.node.peak_flops == pytest.approx(3379.2e9)
        assert mn4.node.peak_flops == pytest.approx(3225.6e9)
        assert arm.node.peak_memory_bandwidth == pytest.approx(1024e9)
        assert mn4.node.peak_memory_bandwidth == pytest.approx(256e9)

    def test_memory_per_node(self, arm, mn4):
        assert arm.node.memory_bytes == 32 * GB
        assert mn4.node.memory_bytes == 96 * GB

    def test_domain_of_core(self, arm):
        assert arm.node.domain_of_core(0).index == 0
        assert arm.node.domain_of_core(11).index == 0
        assert arm.node.domain_of_core(12).index == 1
        assert arm.node.domain_of_core(47).index == 3

    def test_core_out_of_range(self, arm):
        with pytest.raises(ConfigurationError):
            arm.node.domain_of_core(48)

    def test_cores_of_domain(self, arm):
        assert list(arm.node.cores_of_domain(1)) == list(range(12, 24))


class TestClusterAndPresets:
    def test_sizes(self, arm, mn4):
        assert arm.n_nodes == 192 and mn4.n_nodes == 192
        assert cte_arm().total_cores == 192 * 48
        assert marenostrum4().n_nodes == 3456

    def test_cluster_peaks(self, arm):
        assert arm.peak_flops == pytest.approx(192 * 3379.2e9)
        assert arm.peak_flops_nodes(10) == pytest.approx(10 * 3379.2e9)

    def test_partition_bounds(self, arm):
        with pytest.raises(ConfigurationError):
            arm.peak_flops_nodes(500)

    def test_get_preset_aliases(self):
        assert get_preset("CTE-Arm").name == "CTE-Arm"
        assert get_preset("mn4").name == "MareNostrum 4"
        with pytest.raises(KeyError):
            get_preset("summit")

    def test_colors_match_paper(self, arm, mn4):
        assert arm.plot_color == "red" and mn4.plot_color == "blue"

    def test_table1_renders_key_rows(self):
        text = table1().render()
        for expected in ("70.40", "67.20", "3379.20", "3225.60", "TofuD",
                         "Intel OmniPath", "HBM", "DDR4-2666", "192", "3456",
                         "1024 GB/s", "256 GB/s"):
            assert expected in text
