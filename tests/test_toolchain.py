"""Toolchain models: profiles, build failures, sustained rates, flag tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine.isa import DType
from repro.toolchain import (
    APP_BUILDS,
    COMPILERS,
    FUJITSU_1_2_26B,
    GNU_8_3_1_SVE,
    GNU_8_4_2,
    GNU_11_0_0,
    INTEL_2018_4,
    KernelClass,
    default_compiler_for,
    get_compiler,
    table2,
    table3,
)
from repro.toolchain.compiler import SCALAR_ONLY, VectorizationResult
from repro.util.errors import (
    CompileError,
    CompileHang,
    ConfigurationError,
    RuntimeFailure,
)

K = KernelClass


class TestProfiles:
    def test_registry_complete(self):
        assert "Fujitsu/1.2.26b" in COMPILERS
        assert "GNU/8.3.1-sve" in COMPILERS
        assert get_compiler("Intel/2018.4") is INTEL_2018_4
        with pytest.raises(KeyError):
            get_compiler("Cray/12")

    def test_fingerprint_is_a_content_key(self):
        """The same profile digests the same in two fresh interpreters
        with different hash seeds (no memory address leaks in)."""
        script = ("from repro.toolchain import COMPILERS\n"
                  "for label in sorted(COMPILERS):\n"
                  "    print(label, COMPILERS[label].fingerprint.hex())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(out.stdout.splitlines())
        assert len(digests[0]) == len(COMPILERS) == 8
        assert digests[0] == digests[1]

    def test_unknown_kernel_is_scalar(self):
        assert GNU_8_3_1_SVE.vectorization(K.IO) is SCALAR_ONLY

    def test_gnu_sve_worse_than_intel_on_irregular(self):
        for k in (K.FEM_ASSEMBLY, K.SPMV, K.SCALAR_PHYSICS):
            g = GNU_8_3_1_SVE.vectorization(k)
            i = INTEL_2018_4.vectorization(k)
            assert g.vector_fraction < i.vector_fraction

    def test_everyone_vectorizes_stream(self):
        for profile in COMPILERS.values():
            assert profile.vectorization(K.STREAM).vector_fraction == 1.0

    def test_vectorization_result_validation(self):
        with pytest.raises(ConfigurationError):
            VectorizationResult(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            VectorizationResult(0.5, 0.0)


class TestDeploymentFailures:
    """The Section V deployment story, as exceptions."""

    def test_fujitsu_hangs_on_alya(self):
        with pytest.raises(CompileHang):
            FUJITSU_1_2_26B.build("Alya", (K.FEM_ASSEMBLY,))

    def test_fujitsu_errors_on_nemo(self):
        with pytest.raises(CompileError):
            FUJITSU_1_2_26B.build("NEMO", (K.STENCIL,))

    def test_fujitsu_cmake_fails_on_gromacs(self):
        with pytest.raises(CompileError):
            FUJITSU_1_2_26B.build("Gromacs", (K.MD_NONBONDED,))

    def test_fujitsu_openifs_builds_then_aborts(self):
        binary = FUJITSU_1_2_26B.build("OpenIFS", (K.SPECTRAL,))
        with pytest.raises(RuntimeFailure):
            binary.check_runnable()

    def test_gnu831_too_old_for_gromacs(self):
        with pytest.raises(CompileError):
            GNU_8_3_1_SVE.build("Gromacs", (K.MD_NONBONDED,))

    def test_gnu11_builds_gromacs(self):
        binary = GNU_11_0_0.build("Gromacs", (K.MD_NONBONDED,))
        binary.check_runnable()

    def test_gnu_builds_everything_else(self):
        for app, kernels in [("Alya", (K.FEM_ASSEMBLY,)),
                             ("NEMO", (K.STENCIL,)),
                             ("OpenIFS", (K.SPECTRAL,)),
                             ("WRF", (K.STENCIL,))]:
            GNU_8_3_1_SVE.build(app, kernels).check_runnable()


class TestSustainedRates:
    def test_assembly_gap_near_paper(self, arm, mn4):
        """The Alya Assembly compute-rate gap should be ~4.9x (Fig. 9)."""
        b_arm = GNU_8_3_1_SVE.build("Alya", (K.FEM_ASSEMBLY,))
        b_mn4 = GNU_8_4_2.build("Alya", (K.FEM_ASSEMBLY,))
        ra = b_arm.sustained_flops(arm.node.core_model, K.FEM_ASSEMBLY)
        rm = b_mn4.sustained_flops(mn4.node.core_model, K.FEM_ASSEMBLY)
        assert 4.4 < rm / ra < 5.5

    def test_irregular_penalty_applies_only_on_a64fx(self, arm, mn4):
        b = GNU_8_3_1_SVE.build("Alya", (K.FEM_ASSEMBLY, K.KRYLOV))
        core = arm.node.core_model
        # KRYLOV (regular) must not carry the irregular penalty.
        krylov = b.sustained_flops(core, K.KRYLOV)
        assert krylov > b.sustained_flops(core, K.FEM_ASSEMBLY)
        assert mn4.node.core_model.irregular_access_efficiency == 1.0

    def test_rate_positive_for_all_kernels(self, arm):
        b = GNU_8_3_1_SVE.build("NEMO", tuple(K))
        for k in K:
            assert b.sustained_flops(arm.node.core_model, k) > 0

    def test_unknown_kernel_for_binary_rejected(self, arm):
        b = GNU_8_3_1_SVE.build("NEMO", (K.STENCIL,))
        with pytest.raises(ConfigurationError):
            b.sustained_flops(arm.node.core_model, K.SPECTRAL)

    def test_dtype_single_faster_than_double(self, arm):
        b = INTEL_2018_4.build("x", (K.STENCIL,))
        core = arm.node.core_model
        assert b.sustained_flops(core, K.STENCIL, DType.SINGLE) > \
            b.sustained_flops(core, K.STENCIL, DType.DOUBLE)


class TestDefaultsAndTables:
    def test_table3_defaults(self):
        assert default_compiler_for("alya", "cte-arm") is GNU_8_3_1_SVE
        assert default_compiler_for("alya", "MareNostrum 4") is GNU_8_4_2
        assert default_compiler_for("gromacs", "cte-arm") is GNU_11_0_0
        assert default_compiler_for("gromacs", "mn4") is INTEL_2018_4
        with pytest.raises(KeyError):
            default_compiler_for("hpl", "cte-arm")

    def test_app_builds_cover_all_ten(self):
        assert len(APP_BUILDS) == 10
        apps = {a for a, _ in APP_BUILDS}
        assert apps == {"alya", "nemo", "gromacs", "openifs", "wrf"}

    def test_table2_flags_verbatim(self):
        table = table2()
        assert len(table.rows) == 4
        text = table.render()
        assert "-Kzfill=100" in text
        assert "-O3 -xHost" in text
        assert "-Kprefetch_sequential=soft" in text
        assert "-qopenmp-link=static" in text

    def test_table3_flags_verbatim(self):
        table = table3()
        assert len(table.rows) == 10
        text = table.render()
        assert "-msve-vector-bits=512" in text
        assert "-xCORE-AVX512" in text
        assert "Fujitsu/1.1.18" in text  # Alya's MPI flavour on CTE-Arm
