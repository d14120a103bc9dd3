"""World: wires a rank mapping, a network model and a DES engine together
and runs SPMD rank programs to completion in virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.des.engine import Engine
from repro.des.resources import Channel, Resource
from repro.des.trace import TraceRecorder
from repro.network.model import NetworkModel, network_for
from repro.simmpi.comm import Comm
from repro.simmpi.mapping import RankMapping
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError
from repro.util.units import KIB

if TYPE_CHECKING:
    from repro.resilience.policy import RankFailure, ResiliencePolicy
    from repro.resilience.schedule import FaultSchedule
    from repro.resilience.state import ResilienceState
    from repro.verify.diagnostics import DiagnosticReport
    from repro.verify.recorder import CommRecorder

RankProgram = Callable[..., Generator[Any, Any, Any]]

_INF = float("inf")


class _Delivery:
    """Calendar entry that lands one message in a rank's mailbox: what a
    Timeout with a put callback did, without the event and the closure."""

    __slots__ = ("channel", "src", "key", "payload")

    def __init__(self, channel: Channel, src: int, key: tuple,
                 payload: Any) -> None:
        self.channel = channel
        self.src = src
        self.key = key
        self.payload = payload

    def _resolve(self) -> None:
        self.channel.put(self.src, self.key, self.payload)


@dataclass
class WorldResult:
    """Outcome of one simulated SPMD execution."""

    elapsed: float  # virtual seconds from start to last rank finishing
    rank_results: list[Any]
    trace: TraceRecorder
    #: post-run MPI checker findings (``World.run(..., verify=True)`` only).
    diagnostics: "DiagnosticReport | None" = field(default=None)
    #: dynamic-fault bookkeeping (worlds with a FaultSchedule/policy only):
    #: failure detections, applied transitions, RES diagnostics.
    resilience: "ResilienceState | None" = field(default=None)

    @property
    def rank_failures(self) -> "list[RankFailure]":
        """Ranks that did not complete (crashed node, dead peer, ...)."""
        from repro.resilience.policy import RankFailure

        return [r for r in self.rank_results if isinstance(r, RankFailure)]

    @property
    def completed(self) -> bool:
        """True when every rank ran to normal completion."""
        return not self.rank_failures

    def phase_time(self, phase: str, *, reduction: str = "max") -> float:
        """Aggregate a traced phase over ranks.

        Matches the phase exactly, or any sub-phase under the ``phase:``
        hierarchy separator (``comm.set_phase`` names the phase; operations
        append ``:send``/``:compute``/... suffixes) — the shared
        :func:`repro.des.trace.phase_matches` rule.  Reads the recorder's
        per-(phase, actor) index, so it works identically in ``"full"``
        and ``"aggregate"`` trace modes without scanning records.

        ``max`` reproduces the paper's 'slowest process' reduction used for
        the Alya phase plots; ``mean`` averages; ``sum`` totals.
        """
        per = self.trace.per_actor(phase)
        if not per:
            return 0.0
        values = list(per.values())
        if reduction == "max":
            return max(values)
        if reduction == "mean":
            return sum(values) / len(values)
        if reduction == "sum":
            return sum(values)
        raise ConfigurationError(f"unknown reduction {reduction!r}")


class World:
    """A simulated MPI world over a cluster partition."""

    def __init__(
        self,
        mapping: RankMapping,
        *,
        network: NetworkModel | None = None,
        eager_threshold: int = 32 * KIB,
        send_overhead_s: float = 0.2e-6,
        trace: bool | str = True,
        fast_collectives: bool = False,
        hybrid_collectives: bool = False,
        nic_contention: bool = False,
        compute_noise: float = 0.0,
        noise_seed: int = 0,
        heterogeneity=None,
        fault_schedule: "FaultSchedule | None" = None,
        resilience: "ResiliencePolicy | None" = None,
    ):
        self.mapping = mapping
        self.network = network if network is not None else network_for(
            mapping.cluster, n_nodes=mapping.n_nodes
        )
        if self.network.n_nodes < mapping.n_nodes:
            raise ConfigurationError(
                f"network has {self.network.n_nodes} nodes, mapping needs "
                f"{mapping.n_nodes}"
            )
        self.eager_threshold = eager_threshold
        self.send_overhead_s = send_overhead_s
        self.engine = Engine()
        if isinstance(trace, bool):
            trace_mode = "full" if trace else "off"
        else:
            trace_mode = trace
        self.trace = TraceRecorder(enabled=trace_mode != "off", mode=trace_mode)
        #: substitute closed-form durations for the simulated message
        #: exchange of the big collectives (see :mod:`repro.simmpi.fastcoll`).
        #: ``run(verify=True)`` and NIC-contention worlds always take the
        #: fully simulated path.
        self.fast_collectives = fast_collectives
        #: with a fault schedule attached, allow closed-form collectives
        #: once the fault timeline is exhausted (see ``_use_fastcoll``).
        self.hybrid_collectives = hybrid_collectives
        self._fastcoll = None
        #: per-collective-instance fastcoll decisions of the hybrid gate:
        #: (comm_id, coll_seq) -> [decision, ranks seen].
        self._hybrid_gate: dict[tuple[int, int], list] = {}
        self._channels: dict[int, Channel] = {}
        self._comm_ids: dict[tuple, int] = {}
        #: serialize rendezvous injections per node (real NICs do).
        self.nic_contention = nic_contention
        self._nics: dict[int, Resource] = {}
        #: relative OS-jitter amplitude on compute phases (0 = none).
        if not 0.0 <= compute_noise < 1.0:
            raise ConfigurationError("compute_noise must be in [0, 1)")
        self.compute_noise = compute_noise
        self._noise_seed = noise_seed
        #: per-rank draw counters: rank r's k-th compute phase always sees
        #: the same jitter regardless of how ranks interleave in the
        #: calendar — which is what lets a sharded run (repro.des.shard)
        #: reproduce an unsharded one bit-exactly under noise.
        self._noise_draws: dict[int, int] = {}
        #: optional per-node/core performance deviations
        #: (:class:`repro.bench.variability.HeterogeneityModel`).
        self.heterogeneity = heterogeneity
        #: communication event log for the verify layer (set by
        #: ``run(verify=True)`` or attached explicitly).
        self.recorder: "CommRecorder | None" = None
        #: dynamic fault injection + MPI robustness (see repro.resilience);
        #: created when a schedule or a policy is supplied.
        self.resilience: "ResilienceState | None" = None
        if fault_schedule is not None or resilience is not None:
            from repro.resilience.policy import ResiliencePolicy
            from repro.resilience.schedule import FaultSchedule
            from repro.resilience.state import ResilienceState

            self.resilience = ResilienceState(
                self,
                fault_schedule if fault_schedule is not None else FaultSchedule(),
                resilience if resilience is not None else ResiliencePolicy(),
            )

    def _use_fastcoll(self, comm: "Comm | None" = None) -> bool:
        """Analytic collectives apply only when nothing observes or
        perturbs the full per-message schedule: no verify recorder, no NIC
        contention model, no dynamic fault schedule (fault factors may
        change *during* a collective), and no statically dead link (the
        closed forms cannot represent an unreachable pair).

        With ``hybrid_collectives`` a world *with* a fault schedule takes
        the closed forms for collectives that provably run on a constant
        fabric: once the schedule's last network transition has passed
        (and nothing is unreachable or dead), every later collective is
        exact under the closed forms.  The decision must be identical on
        every rank of one collective instance — ranks straddling the
        boundary would half-simulate, half-shortcut the same collective
        and deadlock — so the *first arriver* decides per (comm_id,
        coll_seq) and the rest follow.
        """
        if (not self.fast_collectives or self.recorder is not None
                or self.nic_contention):
            return False
        state = self.resilience
        if state is None:
            return not self.network.faults.has_unreachable()
        if not self.hybrid_collectives or comm is None:
            return False
        key = (comm._comm_id, comm._coll_seq)
        entry = self._hybrid_gate.get(key)
        if entry is None:
            decision = (
                state.network_quiet(self.engine.now)
                and not state.failed_ranks
                and not self.network.faults.has_unreachable()
            )
            entry = [decision, 0]
            self._hybrid_gate[key] = entry
        entry[1] += 1
        if entry[1] >= comm.size:
            del self._hybrid_gate[key]
        return bool(entry[0])

    @property
    def fastcoll(self):
        """The lazily created fast-collective coordinator."""
        if self._fastcoll is None:
            from repro.simmpi.fastcoll import FastCollectives

            self._fastcoll = FastCollectives(self)
        return self._fastcoll

    def compute_slowdown(self, rank: int) -> float:
        """1/performance-factor of the node hosting ``rank`` (>= 1 slow)."""
        if self.heterogeneity is None:
            return 1.0
        node = self.mapping.node_of(rank)
        first_core = self.mapping.placement_of(rank).cores[0]
        factor = self.heterogeneity.factor(node, first_core)
        if factor <= 0:
            raise ConfigurationError("heterogeneity factor must be positive")
        return 1.0 / factor

    def nic(self, node: int) -> Resource:
        """The injection port of one node (capacity-1 resource)."""
        res = self._nics.get(node)
        if res is None:
            res = Resource(self.engine, capacity=1, label=f"nic{node}")
            self._nics[node] = res
        return res

    def noise_factor(self, rank: int) -> float:
        """Deterministic multiplicative jitter for one compute phase.

        Draw counters are per *rank*: the k-th compute of rank r sees
        jitter ``rng(seed, "noise", r, k)`` independent of how the ranks
        happen to interleave on the calendar, so any execution that
        preserves each rank's own op order (sharded included) reproduces
        the same perturbations.
        """
        if self.compute_noise == 0.0:
            return 1.0
        from repro.util.rng import make_rng

        draw = self._noise_draws.get(rank, 0) + 1
        self._noise_draws[rank] = draw
        rng = make_rng(self._noise_seed, "noise", rank, draw)
        return 1.0 + self.compute_noise * float(rng.random())

    def comm_id_for(self, key: tuple) -> int:
        """Deterministically allocate a communicator id for a split key.

        All ranks performing the same logical split request the same key and
        therefore receive the same id, regardless of request order.
        """
        if key not in self._comm_ids:
            self._comm_ids[key] = len(self._comm_ids) + 1
        return self._comm_ids[key]

    def channel(self, rank: int) -> Channel:
        ch = self._channels.get(rank)
        if ch is None:
            ch = Channel(self.engine, label=f"rank{rank}")
            self._channels[rank] = ch
        return ch

    def comm(self, rank: int) -> Comm:
        return Comm(self, rank)

    def schedule_delivery(
        self,
        dst_rank: int,
        src_comm_rank: int,
        key: tuple,
        payload: Any,
        t_transfer: float,
    ) -> None:
        """Schedule a message to land in ``dst_rank``'s mailbox after
        ``t_transfer`` seconds.

        This is the single seam through which every simulated message
        reaches its destination (``Comm._isend`` and the NIC-contention
        path both call it) — and therefore the one method a sharded
        sub-world (:class:`repro.des.shard.subworld.ShardWorld`) overrides
        to divert cross-shard deliveries into its outbox *at send time*,
        when the delivery is still guaranteed to be at least one lookahead
        in the future.  ``src_comm_rank`` is the sender's rank *within the
        sending communicator* (channel matching is by communicator-local
        source).
        """
        if not 0.0 <= t_transfer < _INF:
            raise SimulationError(
                f"delivery delay must be finite and >= 0, got {t_transfer}"
            )
        self.engine._schedule(self.engine.now + t_transfer, _Delivery(
            self.channel(dst_rank), src_comm_rank, key, payload))

    def run(
        self,
        program: RankProgram,
        *args: Any,
        verify: bool = False,
        **kwargs: Any,
    ) -> WorldResult:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        The program is a generator function; per-rank return values are
        collected in rank order.  Raises DeadlockError on mismatched
        communication.

        With ``verify=True`` every communication operation is logged and the
        MPI checker runs over the log: a completed run returns its findings
        in ``WorldResult.diagnostics`` (unmatched messages, collective
        divergence, ...), and a deadlock raises a :class:`DeadlockError`
        carrying the wait-for-graph postmortem — which ranks block on which
        operations — instead of the engine's bare message.

        Worlds with a fault schedule or resilience policy attached run the
        fault injector alongside the ranks; a rank that dies (node crash,
        timeout against a dead peer) yields a
        :class:`~repro.resilience.RankFailure` in ``rank_results`` rather
        than hanging the run, and ``WorldResult.resilience`` carries the
        detection bookkeeping and RES diagnostics.
        """
        if verify and self.recorder is None:
            from repro.verify.recorder import CommRecorder

            self.recorder = CommRecorder()
        n = self.mapping.n_ranks
        state = self.resilience
        if state is not None:
            state.start_injector()
        processes = []
        for rank in range(n):
            comm = self.comm(rank)
            gen = program(comm, *args, **kwargs)
            if state is not None:
                gen = state.supervise(rank, gen)
            processes.append(self.engine.process(gen, label=f"rank{rank}"))
        if state is not None:
            state.attach_processes(processes)
        try:
            elapsed = self.engine.run()
        except DeadlockError as exc:
            if self.recorder is None:
                raise
            from repro.verify.deadlock import diagnose_deadlock

            report = diagnose_deadlock(self.recorder)
            err = DeadlockError(f"{exc}\n{report.render()}")
            err.diagnostics = report
            raise err from exc
        if state is not None:
            elapsed = state.elapsed(fallback=elapsed)
        result = WorldResult(
            elapsed=elapsed,
            rank_results=[p.value for p in processes],
            trace=self.trace,
            resilience=state,
        )
        if self.recorder is not None:
            from repro.verify.mpi_rules import check_recorded

            result.diagnostics = check_recorded(
                self.recorder, title="MPI message check"
            )
        return result
