"""Simulating backends: the IR lowered onto the discrete-event MPI.

:class:`DESBackend` runs the fully simulated path — per-message events,
optional verify recording, NIC contention, fault injection, resilience
policies.  :class:`FastCollBackend` is the same lowering with the
closed-form per-rank collective recurrences of
:mod:`repro.simmpi.fastcoll` substituted for the simulated exchange of
the big collectives; it is exact (to FP association) on bulk-synchronous
programs and orders of magnitude faster at scale.
"""

from __future__ import annotations

from typing import Any

from repro.context import current
from repro.ir.backend import BACKENDS, Backend, RunResult
from repro.ir.lower import lower
from repro.ir.program import Program
from repro.machine.cluster import ClusterModel
from repro.machine.models import PricingModel, RooflineModel, resolve_pricing
from repro.network.model import NetworkModel
from repro.simmpi.mapping import RankMapping
from repro.simmpi.world import World
from repro.toolchain.compiler import Binary
from repro.util.errors import ConfigurationError


class DESBackend(Backend):
    """Fully simulated execution of the IR (discrete-event simmpi)."""

    name = "des"
    #: substitute fastcoll closed forms for big collectives.
    fast_collectives = False

    def run(
        self,
        program: Program,
        cluster: ClusterModel,
        n_nodes: int,
        *,
        mapping: RankMapping | None = None,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        check_memory: bool = True,
        verify: bool | str = False,
        trace: bool | str = True,
        nic_contention: bool = False,
        compute_noise: float = 0.0,
        noise_seed: int = 0,
        heterogeneity: Any = None,
        fault_schedule: Any = None,
        resilience: Any = None,
        optimize: bool = False,
        shards: int | None = None,
        shard_workers: int | None = None,
        shard_granularity: str = "node",
        hybrid: bool = False,
        pricing: str | PricingModel | None = None,
        **kwargs: Any,
    ) -> RunResult:
        model = resolve_pricing(pricing)
        if optimize:
            # collapse invariant time-step loops before lowering: a
            # 1000-iteration loop becomes one scaled phase, shrinking the
            # emitted rank program by the trip count (documented ~1 ulp
            # reassociation; see repro.ir.optimize).
            from repro.ir.optimize import optimize_program

            program = optimize_program(program)
        if check_memory:
            program.check_feasible(cluster, n_nodes)
        mapping = self._mapping(program, cluster, n_nodes, mapping)
        if verify == "auto":
            # record-and-check only when the static analyzer could not
            # prove the communication pattern safe — the common clean case
            # skips the recorder entirely (memoized per program x scale).
            from repro.ir.analyze import static_clean

            verify = not static_clean(program, mapping.n_ranks)
        binary = self._binary(program, cluster, binary)
        ctx = current()
        if shards is None:
            shards = ctx.des_shards
        if shard_workers is None:
            shard_workers = ctx.des_workers
        shard_stats = None
        if shards > 1:
            # Sharded path: cross-shard traffic forbids the closed-form
            # collectives (the outbox needs every message), so this is
            # always the fully simulated exchange.  A requested shard
            # count is clamped to the partition's unit count so one
            # `--des-shards` setting works across a whole node-count sweep
            # (the merged result is byte-identical for any count anyway);
            # a 1-node point simply falls through to the single engine.
            units = mapping.n_nodes
            if shard_granularity == "cmg":
                units *= len(mapping.cluster.node.domains)
            shards = min(shards, units)
        if shards > 1:
            if not isinstance(model, RooflineModel):
                raise ConfigurationError(
                    "sharded DES supports only the default roofline "
                    f"pricing; got {model.name!r} — run with shards=1"
                )
            from repro.des.shard import ShardedSpec, run_sharded

            spec = ShardedSpec(
                program=program,
                mapping=mapping,
                n_shards=shards,
                granularity=shard_granularity,
                binary=binary,
                verify=bool(verify),
                world_kwargs=dict(
                    network=network,
                    trace=trace,
                    nic_contention=nic_contention,
                    compute_noise=compute_noise,
                    noise_seed=noise_seed,
                    heterogeneity=heterogeneity,
                    fault_schedule=fault_schedule,
                    resilience=resilience,
                    **kwargs,
                ),
            )
            world_result, stats = run_sharded(spec, workers=shard_workers)
            shard_stats = stats.to_dict()
        else:
            # Hybrid fast path: when the static analyzer proves the
            # program communication-clean (provably bulk-synchronous
            # phases), big collectives take the fastcoll closed forms —
            # mid-run, per collective instance, once the fault timeline
            # is quiet (see World._use_fastcoll).
            use_hybrid = False
            if (hybrid and not self.fast_collectives and not nic_contention
                    and not verify):
                from repro.ir.analyze import static_clean

                use_hybrid = static_clean(program, mapping.n_ranks)
            world = World(
                mapping,
                network=network,
                trace=trace,
                fast_collectives=self.fast_collectives or use_hybrid,
                hybrid_collectives=use_hybrid,
                nic_contention=nic_contention,
                compute_noise=compute_noise,
                noise_seed=noise_seed,
                heterogeneity=heterogeneity,
                fault_schedule=fault_schedule,
                resilience=resilience,
                **kwargs,
            )
            world_result = world.run(
                lower(program, mapping, binary, pricing=model),
                verify=verify)
        result = RunResult(
            backend=self.name,
            program=program.name,
            cluster=cluster.name,
            n_nodes=n_nodes,
            n_ranks=mapping.n_ranks,
            elapsed=world_result.elapsed,
            steps=program.steps,
            world=world_result,
            shard_stats=shard_stats,
        )
        for name in program.phase_names():
            result.phase_seconds[name] = world_result.phase_time(
                name, reduction="max")
        return result


class FastCollBackend(DESBackend):
    """DES with closed-form collective recurrences (simmpi.fastcoll)."""

    name = "fastcoll"
    fast_collectives = True


BACKENDS[DESBackend.name] = DESBackend
BACKENDS[FastCollBackend.name] = FastCollBackend
