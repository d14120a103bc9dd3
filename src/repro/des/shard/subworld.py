"""Per-shard sub-world: a :class:`~repro.simmpi.world.World` that owns a
contiguous block of ranks and diverts cross-shard traffic into an outbox.

A :class:`ShardWorld` sees the *full* mapping and network — rank ids,
node placements, and transfer times are identical to the unsharded run —
but only creates generator processes for its own ranks.  The single
delivery seam (:meth:`~repro.simmpi.world.World.schedule_delivery`) is
overridden: a message bound for a remote rank is appended to the outbox
*at send time*, stamped with its virtual delivery time.  Because the
driver only runs windows of one conservative lookahead, every such
message's delivery time is at or beyond the current window's end — the
receiving shard can always still schedule it.

Fault schedules are applied *per shard*: each sub-world runs its own
injector over the same global schedule against its own
:class:`~repro.network.model.NetworkModel` copy, so link-fault timing is
identical everywhere, while rank kills only happen in the shard that owns
the rank (:meth:`ResilienceState.attach_processes` with a dict).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.des.shard.partition import ShardPlan
from repro.des.trace import TraceRecorder
from repro.simmpi.world import RankProgram, World, _Delivery
from repro.util.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.des.engine import Process
    from repro.simmpi.mapping import RankMapping
    from repro.resilience.policy import RankFailure
    from repro.resilience.state import Detection
    from repro.verify.diagnostics import Diagnostic
    from repro.verify.recorder import CommEvent


@dataclass(frozen=True)
class CrossMsg:
    """One cross-shard message in flight.

    ``(time, src_shard, seq)`` is the canonical merge order: the driver
    sorts every window's harvest by it before injection, which makes the
    injection sequence — and therefore each receiving engine's calendar —
    independent of worker scheduling.  ``seq`` is the per-shard send
    counter, so two messages from one shard at one instant keep their
    program order.
    """

    time: float
    src_shard: int
    seq: int
    dst_rank: int
    src: int  # sender's communicator-local rank (channel matching key)
    key: tuple
    payload: Any


@dataclass
class ShardResilience:
    """Picklable snapshot of one shard's ResilienceState after a run."""

    failed_nodes: set[int]
    failed_ranks: "dict[int, RankFailure]"
    finish_times: dict[int, float]
    detections: "list[Detection]"
    suspects: "list[Detection]"
    diagnostics: "list[Diagnostic]"


@dataclass
class ShardResult:
    """Everything one shard contributes to the merged WorldResult."""

    shard: int
    rank_results: dict[int, Any]
    trace: TraceRecorder
    recorder_events: "list[CommEvent] | None"
    resilience: ShardResilience | None
    last_event_time: float
    events_processed: int
    #: per-window wall-clock seconds of this shard (filled by the host).
    window_walls: list[float] = field(default_factory=list)


class ShardWorld(World):
    """One shard's slice of a simulated MPI world."""

    def __init__(
        self,
        mapping: "RankMapping",
        plan: ShardPlan,
        shard_index: int,
        **kwargs: Any,
    ) -> None:
        if plan.n_shards > 1:
            if kwargs.get("nic_contention"):
                raise ConfigurationError(
                    "nic_contention is incompatible with des shards > 1: "
                    "NIC grant order among same-instant requests would "
                    "depend on the shard cut"
                )
            # Closed-form collectives skip the per-message schedule and
            # with it the cross-shard outbox; always simulate in full.
            kwargs["fast_collectives"] = False
            kwargs["hybrid_collectives"] = False
        super().__init__(mapping, **kwargs)
        if plan.n_ranks != mapping.n_ranks:
            raise ConfigurationError(
                f"shard plan covers {plan.n_ranks} ranks, mapping has "
                f"{mapping.n_ranks}"
            )
        self.plan = plan
        self.shard_index = shard_index
        #: this shard's contiguous rank block (the locality test of
        #: :meth:`schedule_delivery`).
        self._local = plan.local_ranks(shard_index)
        self.outbox: list[CrossMsg] = []
        self._out_seq = 0
        self._processes: "dict[int, Process]" = {}

    # -- the cross-shard seam ------------------------------------------------

    def schedule_delivery(
        self,
        dst_rank: int,
        src_comm_rank: int,
        key: tuple,
        payload: Any,
        t_transfer: float,
    ) -> None:
        if dst_rank in self._local:
            super().schedule_delivery(
                dst_rank, src_comm_rank, key, payload, t_transfer
            )
            return
        self._out_seq += 1
        self.outbox.append(CrossMsg(
            time=self.engine.now + t_transfer,
            src_shard=self.shard_index,
            seq=self._out_seq,
            dst_rank=dst_rank,
            src=src_comm_rank,
            key=key,
            payload=payload,
        ))

    def drain_outbox(self) -> list[CrossMsg]:
        out = self.outbox
        self.outbox = []
        return out

    def inject(self, msg: CrossMsg) -> None:
        """Schedule a remote shard's message for local delivery.

        The lookahead invariant makes ``msg.time >= engine.now`` for every
        legally windowed exchange; violating it would mean a cross-shard
        message was delivered into a shard's past, so it is a hard error,
        not a silent clamp.
        """
        if msg.time < self.engine.now:
            raise SimulationError(
                f"cross-shard message for rank {msg.dst_rank} arrives at "
                f"t={msg.time:g}s, but shard {self.shard_index} is already "
                f"at t={self.engine.now:g}s — lookahead violated"
            )
        self.engine._schedule(msg.time, _Delivery(
            self.channel(msg.dst_rank), msg.src, msg.key, msg.payload))

    # -- run lifecycle (start / windows / finish) ----------------------------

    def start(
        self,
        program: RankProgram,
        *args: Any,
        verify: bool = False,
        **kwargs: Any,
    ) -> None:
        """Create this shard's rank processes (mirrors ``World.run``'s
        prologue; the event loop itself is driven window by window)."""
        if verify and self.recorder is None:
            from repro.verify.recorder import CommRecorder

            self.recorder = CommRecorder()
        state = self.resilience
        if state is not None:
            state.start_injector()
        procs: "dict[int, Process]" = {}
        for rank in self._local:
            comm = self.comm(rank)
            gen = program(comm, *args, **kwargs)
            if state is not None:
                gen = state.supervise(rank, gen)
            procs[rank] = self.engine.process(gen, label=f"rank{rank}")
        if state is not None:
            state.attach_processes(procs)
        self._processes = procs

    def run_window(self, until: float) -> int:
        """Process every local event up to ``until``; never a deadlock
        error (idle shards are normal mid-run)."""
        return self.engine.run_window(until)

    def next_time(self) -> float:
        return self.engine.next_time()

    @property
    def live(self) -> int:
        return self.engine.live

    def finish(self) -> ShardResult:
        """Collect this shard's results once the driver declared the run
        globally complete."""
        rank_results = {
            rank: proc.value
            for rank, proc in self._processes.items()
            if proc.triggered  # deadlocked ranks have no value yet
        }
        state = self.resilience
        res = None
        if state is not None:
            res = ShardResilience(
                failed_nodes=set(state.failed_nodes),
                failed_ranks=dict(state.failed_ranks),
                finish_times=dict(state.finish_times),
                detections=list(state.detections),
                suspects=list(state.suspects),
                diagnostics=list(state.report),
            )
        return ShardResult(
            shard=self.shard_index,
            rank_results=rank_results,
            trace=self.trace,
            recorder_events=(
                list(self.recorder.events)
                if self.recorder is not None else None
            ),
            resilience=res,
            last_event_time=self.engine.last_event_time,
            events_processed=self.engine.events_processed,
        )
