"""The windowed conservative driver: run shard sub-worlds in lockstep
lookahead windows and merge their results deterministically.

Execution model (classic conservative / YAWNS synchronization):

1. compute the global floor ``t0`` — the earliest pending calendar entry
   of any shard, or the earliest in-flight cross-shard message;
2. let every shard process its events in ``[t0, t0 + lookahead]``; sends
   to remote ranks land in the shard's outbox stamped with their virtual
   delivery time, which the lookahead proof guarantees to be ``>= t0 +
   lookahead`` for sends initiated inside the window;
3. harvest all outboxes, sort by the canonical ``(time, src_shard,
   seq)`` key, and inject into the destination shards;
4. repeat until every calendar is drained and nothing is in flight.

Every window consumes at least one calendar entry somewhere (the floor
event itself), so the loop terminates whenever the unsharded simulation
would.  The canonical sort in step 3 makes each engine's injection
sequence — and therefore its event calendar — independent of worker
scheduling: the merged result is byte-identical for any shard count and
any worker count.

Workers are persistent processes (:class:`repro.util.procpool.
PersistentPool`): each owns a contiguous block of shards, rebuilds them
locally from the picklable :class:`ShardedSpec` (the lowered rank
program is a closure and cannot cross a pipe), and exchanges only
window-boundary messages with the driver.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.des.shard.partition import (
    ShardPlan,
    cross_shard_rank_pairs,
    lookahead,
)
from repro.des.shard.subworld import CrossMsg, ShardResult, ShardWorld
from repro.des.trace import TraceRecorder
from repro.ir.lower import lower
from repro.network.model import network_for
from repro.simmpi.world import WorldResult
from repro.util.errors import ConfigurationError, DeadlockError

if TYPE_CHECKING:
    from repro.ir.program import Program
    from repro.resilience.policy import RankFailure
    from repro.resilience.state import Detection
    from repro.verify.recorder import CommRecorder
    from repro.simmpi.mapping import RankMapping
    from repro.toolchain.compiler import Binary
    from repro.verify.diagnostics import DiagnosticReport

_INF = float("inf")


@dataclass
class ShardedSpec:
    """Everything a worker needs to rebuild its shards.

    Must stay picklable end to end: the IR :class:`Program`, the frozen
    :class:`RankMapping`, and plain world kwargs all are; the *lowered*
    rank program is not, so lowering happens inside each host.
    ``world_kwargs`` is deep-copied per shard — each sub-world must own
    its network fault state, heterogeneity model, and noise amplitude,
    or one shard's injector would mutate another's timing mid-window.
    """

    program: "Program"
    mapping: "RankMapping"
    n_shards: int
    granularity: str = "node"
    binary: "Binary | None" = None
    verify: bool = False
    world_kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass
class ShardStats:
    """Driver-side accounting of one sharded run."""

    n_shards: int
    granularity: str
    lookahead_s: float
    windows: int
    cross_messages: int
    events: int
    shard_events: dict[int, int]
    #: summed per-window wall seconds per shard (worker-side clock).
    shard_wall_s: dict[int, float]
    workers: int
    #: refined cross-shard channel count, or None when the symbolic
    #: inventory was unavailable and the all-pairs bound was used.
    inventory_pairs: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_shards": self.n_shards,
            "granularity": self.granularity,
            "lookahead_s": self.lookahead_s,
            "windows": self.windows,
            "cross_messages": self.cross_messages,
            "events": self.events,
            "shard_events": dict(self.shard_events),
            "shard_wall_s": dict(self.shard_wall_s),
            "workers": self.workers,
            "inventory_pairs": self.inventory_pairs,
        }


class MergedResilience:
    """Union of the per-shard resilience bookkeeping.

    Duck-types the result surface of
    :class:`~repro.resilience.state.ResilienceState` (``failed_nodes``,
    ``failed_ranks``, ``finish_times``, ``detections``, ``suspects``,
    ``report``) so campaign summaries and tests read a merged
    ``WorldResult.resilience`` exactly like an unsharded one.
    """

    def __init__(self) -> None:
        from repro.verify.diagnostics import DiagnosticReport

        self.failed_nodes: set[int] = set()
        self.failed_ranks: "dict[int, RankFailure]" = {}
        self.finish_times: dict[int, float] = {}
        self.detections: "list[Detection]" = []
        self.suspects: "list[Detection]" = []
        self.report: "DiagnosticReport" = DiagnosticReport(
            title="dynamic faults"
        )


# -- the per-worker shard host ----------------------------------------------


class _ShardHost:
    """Owns a set of shard sub-worlds inside one process (the driver's
    for the sequential mode, a persistent worker's otherwise)."""

    def __init__(self, spec: ShardedSpec, shard_ids: list[int]) -> None:
        self.spec = spec
        self.plan = ShardPlan.build(
            spec.mapping, spec.n_shards, granularity=spec.granularity
        )
        # sharding is roofline-only (DESBackend refuses other models), so
        # no host, in the driver or a worker, reads the run context
        self._rank_program = lower(spec.program, spec.mapping, spec.binary,
                                   pricing="roofline")
        self.shards: dict[int, ShardWorld] = {}
        for s in shard_ids:
            kwargs = copy.deepcopy(spec.world_kwargs)
            self.shards[s] = ShardWorld(spec.mapping, self.plan, s, **kwargs)

    def handle(self, msg: tuple) -> Any:
        op = msg[0]
        if op == "start":
            return self._start()
        if op == "step":
            return self._step(msg[1], msg[2])
        if op == "finish":
            return self._finish()
        raise ConfigurationError(f"unknown shard-host op {op!r}")

    def _start(self) -> dict[int, tuple[float, int]]:
        out = {}
        for s, world in self.shards.items():
            world.start(self._rank_program, verify=self.spec.verify)
            out[s] = (world.next_time(), world.live)
        return out

    def _step(
        self, t_end: float, inject: dict[int, list[CrossMsg]]
    ) -> dict[int, tuple[float, int, list[CrossMsg], float]]:
        out = {}
        for s, world in self.shards.items():
            t0 = perf_counter()
            for m in inject.get(s, ()):
                world.inject(m)
            world.run_window(t_end)
            out[s] = (
                world.next_time(),
                world.live,
                world.drain_outbox(),
                perf_counter() - t0,
            )
        return out

    def _finish(self) -> dict[int, ShardResult]:
        return {s: world.finish() for s, world in self.shards.items()}


def _make_host(init: tuple[ShardedSpec, list[int]]) -> _ShardHost:
    """Module-level factory so the persistent pool can pickle it."""
    return _ShardHost(*init)


class _LocalGroup:
    """Sequential in-process execution of every shard."""

    def __init__(self, spec: ShardedSpec, shard_sets: list[list[int]]) -> None:
        self.hosts = [_ShardHost(spec, ids) for ids in shard_sets]

    def call_all(self, msgs: list[tuple]) -> list[Any]:
        return [h.handle(m) for h, m in zip(self.hosts, msgs)]

    def close(self) -> None:
        pass


class _PoolGroup:
    """Shard execution over persistent worker processes."""

    def __init__(self, spec: ShardedSpec, shard_sets: list[list[int]]) -> None:
        from repro.util.procpool import PersistentPool

        self.pool = PersistentPool(
            _make_host, [(spec, ids) for ids in shard_sets]
        )

    def call_all(self, msgs: list[tuple]) -> list[Any]:
        return self.pool.call_all(msgs)

    def close(self) -> None:
        self.pool.close()


def _shard_sets(n_shards: int, workers: int) -> list[list[int]]:
    """Contiguous balanced shard blocks, one per worker slot."""
    n_groups = max(1, min(workers, n_shards))
    q, r = divmod(n_shards, n_groups)
    sets, lo = [], 0
    for g in range(n_groups):
        hi = lo + q + (1 if g < r else 0)
        sets.append(list(range(lo, hi)))
        lo = hi
    return sets


# -- the driver --------------------------------------------------------------


def run_sharded(
    spec: ShardedSpec, *, workers: int = 0
) -> tuple[WorldResult, ShardStats]:
    """Run ``spec`` sharded and merge into one :class:`WorldResult`.

    ``workers=0`` runs every shard sequentially in this process (no IPC;
    still windowed, still byte-identical to the parallel mode);
    ``workers>=1`` spawns that many persistent worker processes, each
    owning a contiguous block of shards.
    """
    if spec.world_kwargs.get("nic_contention") and spec.n_shards > 1:
        raise ConfigurationError(
            "nic_contention is incompatible with des shards > 1"
        )
    plan = ShardPlan.build(
        spec.mapping, spec.n_shards, granularity=spec.granularity
    )
    network = spec.world_kwargs.get("network")
    if network is None:
        network = network_for(
            spec.mapping.cluster, n_nodes=spec.mapping.n_nodes
        )
    pairs = (
        cross_shard_rank_pairs(spec.program, plan)
        if plan.n_shards > 1 else set()
    )
    la = lookahead(network, spec.mapping, plan, rank_pairs=pairs)
    shard_sets = _shard_sets(plan.n_shards, workers)
    group: _LocalGroup | _PoolGroup
    if workers >= 1:
        group = _PoolGroup(spec, shard_sets)
    else:
        group = _LocalGroup(spec, shard_sets)
    stats = ShardStats(
        n_shards=plan.n_shards,
        granularity=plan.granularity,
        lookahead_s=la,
        windows=0,
        cross_messages=0,
        events=0,
        shard_events={s: 0 for s in range(plan.n_shards)},
        shard_wall_s={s: 0.0 for s in range(plan.n_shards)},
        workers=len(shard_sets) if workers >= 1 else 0,
        inventory_pairs=len(pairs) if pairs is not None else None,
    )
    try:
        next_times: dict[int, float] = {}
        lives: dict[int, int] = {}
        for reply in group.call_all([("start",)] * len(shard_sets)):
            for s, (nt, live) in reply.items():
                next_times[s] = nt
                lives[s] = live
        pending: dict[int, list[CrossMsg]] = {}
        while True:
            t0 = min(next_times.values())
            for msgs in pending.values():
                for m in msgs:
                    if m.time < t0:
                        t0 = m.time
            if t0 == _INF:
                break
            t_end = t0 + la
            step_msgs = []
            for ids in shard_sets:
                step_msgs.append((
                    "step",
                    t_end,
                    {s: pending.pop(s) for s in ids if s in pending},
                ))
            harvest: list[CrossMsg] = []
            for reply in group.call_all(step_msgs):
                for s, (nt, live, outbox, wall) in reply.items():
                    next_times[s] = nt
                    lives[s] = live
                    harvest.extend(outbox)
                    stats.shard_wall_s[s] += wall
            stats.windows += 1
            if harvest:
                # Canonical injection order: independent of which worker
                # answered first, so every engine's calendar — and the
                # merged result — is schedule-invariant.
                harvest.sort(key=lambda m: (m.time, m.src_shard, m.seq))
                stats.cross_messages += len(harvest)
                for m in harvest:
                    pending.setdefault(
                        plan.shard_of_rank(m.dst_rank), []
                    ).append(m)
        results: dict[int, ShardResult] = {}
        for reply in group.call_all([("finish",)] * len(shard_sets)):
            results.update(reply)
        for s, res in results.items():
            stats.shard_events[s] = res.events_processed
            stats.events += res.events_processed
        blocked = sum(lives.values())
        if blocked:
            _raise_deadlock(spec, results, blocked)
        return _merge(spec, plan, results), stats
    finally:
        group.close()


def _raise_deadlock(
    spec: ShardedSpec, results: dict[int, ShardResult], blocked: int
) -> None:
    exc = DeadlockError(
        f"{blocked} process(es) blocked forever across "
        f"{spec.n_shards} shard(s) (mismatched send/recv or "
        "un-triggered event)"
    )
    if spec.verify:
        from repro.verify.deadlock import diagnose_deadlock

        recorder = _merge_recorders(results)
        if recorder is not None:
            report = diagnose_deadlock(recorder)
            exc = DeadlockError(f"{exc}\n{report.render()}")
            exc.diagnostics = report  # type: ignore[attr-defined]
    raise exc


# -- result merging ----------------------------------------------------------


def _actor_key(actor: str) -> tuple[int, int | str]:
    """Numeric ordering for ``rankN`` actors, lexical for the rest."""
    if actor.startswith("rank") and actor[4:].isdigit():
        return (0, int(actor[4:]))
    return (1, actor)


def _merge_trace(
    shards: list[ShardResult],
) -> TraceRecorder:
    first = shards[0].trace
    merged = TraceRecorder(enabled=first.enabled, mode=first.mode)
    if merged.mode == "full":
        records = [r for sh in shards for r in sh.trace.records]
        # Stable canonical order: (start, actor).  Each actor's own
        # records arrive in its program order (nondecreasing starts), so
        # the per-(phase, actor) totals accumulate in exactly the same
        # order as in the unsharded run — bit-identical floats.
        records.sort(key=lambda r: (r.start, _actor_key(r.actor)))
        for r in records:
            merged.record(r.start, r.duration, r.actor, r.phase, r.detail)
    elif merged.mode == "aggregate":
        totals = merged._totals
        for sh in shards:
            for key, duration in sh.trace._totals.items():
                totals[key] = totals.get(key, 0.0) + duration
    return merged


def _merge_recorders(results: dict[int, ShardResult]) -> CommRecorder | None:
    events = []
    seen = False
    for s in sorted(results):
        evs = results[s].recorder_events
        if evs is None:
            continue
        seen = True
        events.extend(evs)
    if not seen:
        return None
    from repro.verify.recorder import CommRecorder

    recorder = CommRecorder()
    for ev in events:
        recorder.events.append(replace(ev, seq=len(recorder.events)))
    return recorder


def _merge_resilience(
    shards: list[ShardResult],
) -> MergedResilience | None:
    parts = [sh.resilience for sh in shards if sh.resilience is not None]
    if not parts:
        return None
    from repro.verify.diagnostics import Diagnostic

    merged = MergedResilience()
    for part in parts:
        merged.failed_nodes |= part.failed_nodes
        merged.failed_ranks.update(part.failed_ranks)
        merged.finish_times.update(part.finish_times)
        merged.detections.extend(part.detections)
        merged.suspects.extend(part.suspects)
    merged.detections.sort(key=lambda d: (d.time, d.by_rank, d.peer))
    merged.suspects.sort(key=lambda d: (d.time, d.by_rank, d.peer))
    # Injector-global diagnostics (degrade/recover/straggler/noise) are
    # emitted once per shard for the same schedule event: dedupe them.
    # RES001 crash reports name only the shard-local killed ranks: fuse
    # the reports of one (node, time) into one with the full rank list.
    crashes: dict[tuple[int, float], list[int]] = {}
    rest: list[Diagnostic] = []
    seen_keys: set[tuple] = set()
    for part in parts:
        for diag in part.diagnostics:
            if diag.rule_id == "RES001":
                key = (diag.details["node"], diag.details["time"])
                crashes.setdefault(key, []).extend(diag.details["ranks"])
                continue
            dedupe = (diag.rule_id, diag.message, diag.location)
            if diag.rule_id in ("RES004", "RES005", "RES006", "RES007"):
                if dedupe in seen_keys:
                    continue
                seen_keys.add(dedupe)
            rest.append(diag)
    for (node, at), ranks in crashes.items():
        ranks = sorted(set(ranks))
        rest.append(Diagnostic(
            "RES001",
            f"node {node} crashed at t={at:.6g}s, "
            f"terminating rank(s) {ranks}",
            location=f"node {node}",
            details={"node": node, "time": at, "ranks": ranks},
        ))
    rest.sort(key=lambda d: (d.details.get("time", _INF), d.rule_id))
    merged.report.extend(rest)
    return merged


def _merge(
    spec: ShardedSpec,
    plan: ShardPlan,
    results: dict[int, ShardResult],
) -> WorldResult:
    shards = [results[s] for s in sorted(results)]
    rank_results = [
        results[plan.shard_of_rank(rank)].rank_results[rank]
        for rank in range(plan.n_ranks)
    ]
    resilience = _merge_resilience(shards)
    last_event = max(sh.last_event_time for sh in shards)
    if (resilience is not None
            and len(resilience.finish_times) == plan.n_ranks):
        elapsed = max(resilience.finish_times.values())
    else:
        elapsed = last_event
    result = WorldResult(
        elapsed=elapsed,
        rank_results=rank_results,
        trace=_merge_trace(shards),
        resilience=resilience,  # type: ignore[arg-type]
    )
    recorder = _merge_recorders(results)
    if recorder is not None:
        from repro.verify.mpi_rules import check_recorded

        result.diagnostics = check_recorded(
            recorder, title="MPI message check"
        )
    return result
