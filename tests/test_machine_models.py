"""The pluggable machine-model layer (PR 9).

Three contracts:

* the default :class:`RooflineModel` reproduces the historical inline
  analytic arithmetic **bit-for-bit** (the committed EXPERIMENTS.md
  figures must not move under the refactor);
* the :class:`ECMModel` is priced identically by the scalar oracle
  (``tests/oracles.py``) and the tape engine, and never prices below the
  roofline (it only adds a non-negative hierarchy term to the memory arm);
* preset and pricing registries drive name resolution everywhere —
  aliases, error listings, cache keys, certificates.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings

from repro.ir import (
    Barrier,
    BatchAnalyticBackend,
    BatchJob,
    CommOp,
    ComputeOp,
    DESBackend,
    Loop,
    MemOp,
    Phase,
    Program,
    SerialOp,
    certified_optimize,
    certify,
)
from repro.context import RunContext, current, using
from repro.ir.analytic import AnalyticBackend
from repro.machine import (
    MACHINES,
    ECMModel,
    PRICING_MODELS,
    RooflineModel,
    cte_arm,
    get_preset,
    get_pricing_model,
    marenostrum4,
    pricing_model_names,
    resolve_pricing,
    thunderx2,
)
from repro.simmpi.mapping import RankMapping
from repro.toolchain.kernels import KernelClass
from repro.util.errors import ConfigurationError

from tests.oracles import analytic_oracle
from tests.strategies import ir_programs


def _mixed_program(steps: int = 3) -> Program:
    """Fixed-seconds, roofline, memory and serial ops in one program."""
    return Program(
        name="mixed",
        body=(Loop(steps, (Phase("work", (
            ComputeOp(flops=2.0e12, bytes_moved=3.0e11,
                      rate_per_core=1.1e9, imbalance=1.25),
            ComputeOp(flops=5.0e11, rate_per_core=2.0e9),
            ComputeOp(seconds=1.5e-3, imbalance=1.1),
            MemOp(7.0e10),
            SerialOp(2.0e-4),
        )),)),),
        steps=steps,
        ranks_per_node=4,
        threads_per_rank=1,
    )


class TestRegistry:
    def test_names_cover_the_paper_machines_plus_tx2(self):
        names = MACHINES.names()
        for name in ("cte-arm", "marenostrum4", "fugaku", "thunderx2"):
            assert name in names

    @pytest.mark.parametrize("alias, cluster_name", [
        ("tx2", "ThunderX2"),
        ("a64fx", "CTE-Arm"),
        ("mn4", "MareNostrum 4"),
        ("CTE-Arm", "CTE-Arm"),
        ("MareNostrum_4", "MareNostrum 4"),
    ])
    def test_aliases_resolve(self, alias, cluster_name):
        assert get_preset(alias).name == cluster_name

    def test_unknown_preset_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered presets:.*cte-arm"):
            get_preset("summit")

    def test_preset_kwargs_forwarded(self):
        assert get_preset("tx2", n_nodes=3).n_nodes == 3

    def test_registry_metadata(self):
        preset = MACHINES.resolve("thunderx2")
        assert preset.power == "thunderx2"
        assert preset.pricing == "roofline"
        assert "NEON" in preset.isa_notes

    def test_resolve_cluster_uses_registry(self):
        from repro.verify.runner import resolve_cluster

        assert resolve_cluster("tx2").name == "ThunderX2"
        assert resolve_cluster("tx2", 5).n_nodes == 5
        with pytest.raises(ConfigurationError, match="choose from.*thunderx2"):
            resolve_cluster("summit")

    def test_power_model_resolved_through_registry(self):
        from repro.power import power_model_for

        assert power_model_for(thunderx2()).name == "ThunderX2 node"
        assert power_model_for(cte_arm()).name == "A64FX node"


class TestPricingRegistry:
    def test_builtins_registered(self):
        assert pricing_model_names() == ("ecm", "roofline")
        assert isinstance(get_pricing_model("roofline"), RooflineModel)
        assert isinstance(get_pricing_model("ecm"), ECMModel)

    def test_unknown_model_lists_names(self):
        with pytest.raises(ConfigurationError, match="ecm, roofline"):
            get_pricing_model("lognormal")

    def test_default_round_trip(self):
        assert current().pricing == "roofline"
        with using(RunContext(pricing="ecm")):
            assert resolve_pricing(None).name == "ecm"

    def test_set_default_validates(self):
        with pytest.raises(ConfigurationError):
            RunContext(pricing="nope")
        assert current().pricing == "roofline"

    def test_registration_invalidates_batch_caches(self):
        from repro.ir import batch
        from repro.machine.models import register_pricing_model

        cluster = cte_arm(8)
        program = _mixed_program(1)
        engine = BatchAnalyticBackend()
        engine.run(program, cluster, 4, check_memory=False)
        assert batch._RESULT_MEMO

        class _Probe(RooflineModel):
            name = "test-probe"

        try:
            register_pricing_model(_Probe())
            assert not batch._RESULT_MEMO
            assert resolve_pricing("test-probe").name == "test-probe"
        finally:
            del PRICING_MODELS["test-probe"]


class TestRooflineDifferential:
    """The model must replicate the historical arithmetic bit-for-bit."""

    @pytest.mark.parametrize("make_cluster, n_nodes",
                             [(cte_arm, 8), (marenostrum4, 8)])
    def test_elapsed_matches_historical_expression(self, make_cluster,
                                                   n_nodes):
        cluster = make_cluster(16)
        program = _mixed_program()
        mapping = RankMapping(cluster, n_nodes=n_nodes, ranks_per_node=4)
        result = AnalyticBackend().run(program, cluster, n_nodes,
                                       mapping=mapping, check_memory=False)
        n_ranks = mapping.n_ranks
        agg_bw = n_ranks * mapping.rank_memory_bandwidth(0)
        # the pre-refactor inline loop, replicated op by op, in order
        expected_phase = 0.0
        for op in program.body[0].body[0].ops:
            if isinstance(op, ComputeOp):
                if op.seconds is not None:
                    expected_phase += op.seconds * op.imbalance
                    continue
                agg = n_ranks * mapping.rank_compute_rate(0, op.rate_per_core)
                t_flops = op.flops / agg
                t_bytes = op.bytes_moved / agg_bw if op.bytes_moved else 0.0
                expected_phase += max(t_flops, t_bytes) * op.imbalance
            elif isinstance(op, MemOp):
                expected_phase += op.bytes_moved / agg_bw
            elif isinstance(op, SerialOp):
                expected_phase += op.seconds
        expected = 0.0
        for _ in range(program.steps):
            expected += expected_phase
        assert result.elapsed == expected  # bit-exact, not approx

    def test_missing_rate_message_unchanged(self):
        from repro.toolchain.profiles import GNU_8_3_1_SVE

        cluster = cte_arm(8)
        program = Program(
            name="bad", body=(Phase("p", (ComputeOp(flops=1.0e9),)),),
            ranks_per_node=4, kernels=(KernelClass.STREAM,))
        binary = GNU_8_3_1_SVE.build("bad", (KernelClass.STREAM,))
        with pytest.raises(
                ConfigurationError,
                match="compute op in phase 'p' needs a kernel class or an "
                "explicit rate_per_core"):
            AnalyticBackend().run(program, cluster, 2, binary=binary,
                                  check_memory=False)


class TestECM:
    def test_never_below_roofline_fixed(self):
        cluster = cte_arm(16)
        program = _mixed_program()
        roof = AnalyticBackend().run(program, cluster, 8,
                                     check_memory=False, pricing="roofline")
        ecm = AnalyticBackend().run(program, cluster, 8,
                                    check_memory=False, pricing="ecm")
        assert ecm.elapsed >= roof.elapsed

    @settings(max_examples=40, deadline=None)
    @given(program=ir_programs(rich=True))
    def test_never_below_roofline_property(self, program):
        cluster = cte_arm(16)
        engine = AnalyticBackend()
        roof = engine.run(program, cluster, 4, check_memory=False,
                          pricing="roofline")
        ecm = engine.run(program, cluster, 4, check_memory=False,
                         pricing="ecm")
        assert ecm.elapsed >= roof.elapsed - 1e-15 * abs(roof.elapsed)

    @settings(max_examples=25, deadline=None)
    @given(program=ir_programs(rich=True))
    def test_batch_matches_scalar_bit_exact(self, program):
        cluster = cte_arm(16)
        scalar = analytic_oracle(program, cluster, 4, check_memory=False,
                                 pricing="ecm")
        batched = BatchAnalyticBackend().run(program, cluster, 4,
                                             check_memory=False,
                                             pricing="ecm")
        assert batched.elapsed == scalar.elapsed
        assert batched.phase_seconds == scalar.phase_seconds

    def test_bench_kernels_separate_under_ecm(self):
        """The satellite benches exist to surface the hierarchy term."""
        from repro.bench.spmv import pricing_points

        roof, ecm = pricing_points(marenostrum4(192), 8)
        assert ecm.seconds > roof.seconds * 1.15

    @pytest.mark.parametrize("bench", ["spmv", "qcd"])
    def test_bench_kernels_never_below_roofline(self, bench):
        """The spmv/qcd node sweep on both paper clusters."""
        module = importlib.import_module(f"repro.bench.{bench}")
        for cluster in (cte_arm(192), marenostrum4(192)):
            for n in (1, 2, 4, 8, 16, 32, 64):
                roof, ecm = module.pricing_points(cluster, n)
                assert ecm.seconds >= roof.seconds, (cluster.name, n)

    @pytest.mark.parametrize("bench", ["spmv", "qcd"])
    def test_bench_kernels_batch_matches_scalar_oracle(self, bench):
        """Batched ECM pricing of the bench programs equals the scalar
        oracle walk bit-for-bit (model identity is part of the cache key)."""
        module = importlib.import_module(f"repro.bench.{bench}")
        for cluster in (cte_arm(192), marenostrum4(192)):
            program = module.ir_program(cluster, 16)
            scalar = analytic_oracle(program, cluster, 16, check_memory=False,
                                     pricing="ecm")
            batched = BatchAnalyticBackend().run(program, cluster, 16,
                                                 check_memory=False,
                                                 pricing="ecm")
            assert batched.elapsed == scalar.elapsed, cluster.name


class TestBatchCacheIdentity:
    def test_model_identity_in_job_digest(self):
        cluster = cte_arm(16)
        program = _mixed_program(1)
        engine = BatchAnalyticBackend()
        digests = set()
        for name in ("roofline", "ecm"):
            job = BatchJob(program, cluster, 4, check_memory=False,
                           pricing=name)
            digests.add(engine._prepare(job).digest)
        assert len(digests) == 2

    def test_cold_equals_warm_under_ecm(self):
        from repro.ir.batch import clear_caches

        cluster = cte_arm(16)
        program = _mixed_program()
        engine = BatchAnalyticBackend()
        clear_caches()
        cold = engine.run(program, cluster, 8, check_memory=False,
                          pricing="ecm")
        warm = engine.run(program, cluster, 8, check_memory=False,
                          pricing="ecm")
        assert warm.elapsed == cold.elapsed
        assert warm.phase_seconds == cold.phase_seconds


class TestDESIntegration:
    def _program(self) -> Program:
        return Program(
            name="mem-bound",
            body=(Phase("p", (
                ComputeOp(flops=1.0e10, bytes_moved=4.0e11,
                          rate_per_core=2.0e9),
                CommOp("allreduce", 8),
                Barrier(),
            )),),
            ranks_per_node=2,
        )

    def test_ecm_at_least_roofline(self):
        cluster = cte_arm(8)
        engine = DESBackend()
        roof = engine.run(self._program(), cluster, 4, trace=False,
                          check_memory=False, pricing="roofline")
        ecm = engine.run(self._program(), cluster, 4, trace=False,
                         check_memory=False, pricing="ecm")
        assert ecm.elapsed >= roof.elapsed

    def test_default_pricing_unchanged_path(self):
        cluster = cte_arm(8)
        engine = DESBackend()
        default = engine.run(self._program(), cluster, 4, trace=False,
                             check_memory=False)
        roof = engine.run(self._program(), cluster, 4, trace=False,
                          check_memory=False, pricing="roofline")
        assert default.elapsed == roof.elapsed

    def test_sharded_rejects_non_roofline(self):
        cluster = cte_arm(8)
        with pytest.raises(ConfigurationError,
                           match="sharded DES supports only the default"):
            DESBackend().run(self._program(), cluster, 4, trace=False,
                             check_memory=False, shards=2, pricing="ecm")


class TestPassSoundness:
    def test_certificates_keyed_by_model(self):
        program = _mixed_program()
        opt_roof, cert_roof = certified_optimize(program)
        opt_ecm, cert_ecm = certified_optimize(program, pricing="ecm")
        assert cert_roof.ok and cert_ecm.ok
        assert opt_roof == opt_ecm
        assert cert_roof.digest != cert_ecm.digest

    def test_certify_ok_under_both_models(self):
        from repro.ir import optimize_program

        program = _mixed_program()
        optimized = optimize_program(program)
        for name in pricing_model_names():
            assert certify(program, optimized, pricing=name).ok


class TestHarnessCacheKey:
    def test_pricing_in_cache_key(self):
        from repro.harness.parallel import cache_key

        assert (cache_key("fig6_linpack", "analytic", "roofline")
                != cache_key("fig6_linpack", "analytic", "ecm"))

    def test_sweep_memo_keyed_by_default_pricing(self):
        from repro.apps import NemoModel

        app = NemoModel()
        cluster = cte_arm(16)
        base = app.sweep_timings(cluster, [8])
        with using(RunContext(pricing="ecm")):
            ecm = app.sweep_timings(cluster, [8])
        again = app.sweep_timings(cluster, [8])
        assert ecm[8].total >= base[8].total
        assert again[8].total == base[8].total
