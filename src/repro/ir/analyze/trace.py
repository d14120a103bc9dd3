"""Symbolic per-rank unrolling of an IR program's communication structure.

The static analyzers do not execute anything: they reason over *traces* —
per-rank sequences of abstract communication events produced by unrolling
a :class:`~repro.ir.program.Program` with exactly the lowering rules of
:mod:`repro.ir.lower` (same process grids, same partner arithmetic, same
fractional-count subsampling), minus the payloads and the clock.

Event vocabulary
----------------

* :class:`SendEv` — a nonblocking message injection (simmpi sends never
  block the matching walk: eager sends buffer, rendezvous sends only delay
  *time*, not matching order).
* :class:`RecvEv` — a blocking receive from a specific source on a
  specific channel.
* :class:`CollEv` — entry into a collective algorithm (barriers included,
  mirroring ``Comm._rec_collective`` which numbers barriers in the same
  per-communicator sequence).  Symmetric collectives are *synchronizing*:
  completing one happens-after every rank entered it.  Rooted collectives
  (bcast/reduce/gather) are not — the root can run ahead on eager sends.

Channels
--------

A channel is the matching key of the simulated MPI: user sendrecvs all
share ``("user", 0)`` (the lowering passes no tag); collective-internal
messages use per-kind negative tag bases.  ``tag_scheme`` selects between
the post-PR-3 instance-numbered keys (``("coll", kind, call_index)``) and
the historical constant keys (``("coll", kind)``) — the latter exists so
the overtaking analyzer can be regression-tested against the exact bug
class property testing once found dynamically.

Loop bounds
-----------

Loops unroll up to ``max_unroll`` iterations (iteration 0 always fires
fractional-count CommOps, since ``step % period == 0`` holds at step 0),
so every op kind appears in the trace; ``Traces.truncated`` records that
the analysis covered a prefix of a longer loop.  Two iterations already
expose every cross-iteration hazard the analyzers model, because the
hazard/matching relations only depend on adjacency, not on the iteration
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from repro.ir.lower import _comm_reps, _halo_ndims, flatten_phases, grid_neighbors
from repro.ir.ops import Barrier, CommOp
from repro.ir.program import Program
from repro.util.errors import ConfigurationError
from repro.util.memo import Memo

__all__ = [
    "CollEv",
    "DEFAULT_EAGER_THRESHOLD",
    "DEFAULT_MAX_UNROLL",
    "Event",
    "RecvEv",
    "ROOTED_KINDS",
    "SYNC_KINDS",
    "SendEv",
    "Traces",
    "USER_CHANNEL",
    "unroll",
]

#: loop trips :func:`unroll` covers by default (see "Loop bounds" above).
DEFAULT_MAX_UNROLL = 4

#: mirrors ``World.eager_threshold`` (32 KiB): messages at or below this
#: size are buffered eagerly; larger ones rendezvous.
DEFAULT_EAGER_THRESHOLD = 32 * 1024

#: collective kinds whose *completion* on any rank happens-after *entry*
#: of every rank (each rank waits on messages from all others, directly
#: or transitively) — the synchronization the overtaking rule credits.
SYNC_KINDS = frozenset({"barrier", "allreduce", "allgather", "alltoall"})

#: rooted collectives: the root (or the leaves) can complete before the
#: other ranks have entered, so they do NOT synchronize.
ROOTED_KINDS = frozenset({"bcast", "reduce", "gather"})

#: the matching key of every user-level sendrecv (the lowering passes no
#: explicit tag, so they all share tag 0 on the world communicator).
USER_CHANNEL = ("user", 0)


class SendEv(NamedTuple):
    """Nonblocking injection of one message."""

    dst: int
    channel: tuple
    size: int
    op_id: int
    phase: str


class RecvEv(NamedTuple):
    """Blocking receive of one message from ``src`` on ``channel``."""

    src: int
    channel: tuple
    size: int
    op_id: int
    phase: str


class CollEv(NamedTuple):
    """Entry into collective call number ``index`` (per-rank counter)."""

    kind: str
    size: int
    root: int | None
    index: int
    channel: tuple
    op_id: int
    phase: str

    @property
    def synchronizing(self) -> bool:
        return self.kind in SYNC_KINDS


Event = Union[SendEv, RecvEv, CollEv]


@dataclass
class Traces:
    """The unrolled per-rank event sequences of one program."""

    n_ranks: int
    per_rank: list[list[Event]]
    eager_threshold: int = DEFAULT_EAGER_THRESHOLD
    truncated: bool = False
    #: op_id -> human label ("phase/kind") for diagnostics.
    op_labels: dict[int, str] = field(default_factory=dict)

    def events(self, rank: int) -> list[Event]:
        return self.per_rank[rank]


_NEIGHBORS: Memo[tuple[int, ...]] = Memo("analyze.neighbors", 4096)


def _neighbors(rank: int, p: int, ndims: int) -> tuple[int, ...]:
    return _NEIGHBORS.get_or_compute(
        (rank, p, ndims),
        lambda: tuple(grid_neighbors(rank, p, ndims=ndims)))


def _flatten(
    program: Program, max_unroll: int
) -> tuple[list[tuple[str, CommOp | Barrier]], bool]:
    """Rank-independent occurrence schedule: ``(phase_name, op)`` pairs in
    program order, loops unrolled to at most ``max_unroll`` trips."""
    phases, truncated = flatten_phases(program.body, max_unroll)
    sched: list[tuple[str, CommOp | Barrier]] = []
    for phase, step in phases:
        for op in phase.ops:
            if isinstance(op, Barrier):
                sched.append((phase.name, op))
            elif isinstance(op, CommOp):
                for _ in range(_comm_reps(op, step)):
                    sched.append((phase.name, op))
    return sched, truncated


def unroll(
    program: Program,
    n_ranks: int,
    *,
    tag_scheme: str = "instance",
    max_unroll: int = DEFAULT_MAX_UNROLL,
    eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
) -> Traces:
    """Unroll ``program`` into per-rank abstract communication traces.

    ``tag_scheme`` is ``"instance"`` (collective channels carry the
    per-rank call index — the production ``Comm._tagged`` scheme) or
    ``"constant"`` (the pre-fix per-kind constant tag bases, kept for
    regression-testing the overtaking analyzer).
    """
    if tag_scheme not in ("instance", "constant"):
        raise ConfigurationError(
            f"unknown tag scheme {tag_scheme!r}; choose instance or constant"
        )
    if n_ranks < 1:
        raise ConfigurationError("need at least one rank")
    sched, truncated = _flatten(program, max_unroll)
    op_labels = {
        op_id: f"{phase}/{'barrier' if isinstance(op, Barrier) else op.kind}"
        for op_id, (phase, op) in enumerate(sched)
    }
    instance = tag_scheme == "instance"
    per_rank: list[list[Event]] = []
    p = n_ranks
    for r in range(p):
        events: list[Event] = []
        coll_idx = 0
        for op_id, (phase, op) in enumerate(sched):
            if isinstance(op, Barrier):
                chan = ("coll", "barrier", coll_idx) if instance else (
                    "coll", "barrier")
                events.append(
                    CollEv("barrier", 1, None, coll_idx, chan, op_id, phase))
                coll_idx += 1
                continue
            kind = op.kind
            if kind == "halo":
                for nb in _neighbors(r, p, _halo_ndims(op.neighbors)):
                    events.append(
                        SendEv(nb, USER_CHANNEL, op.size, op_id, phase))
                    events.append(
                        RecvEv(nb, USER_CHANNEL, op.size, op_id, phase))
            elif kind == "ring":
                if p > 1:
                    right = (r + 1) % p
                    left = (r - 1) % p
                    events.append(
                        SendEv(right, USER_CHANNEL, op.size, op_id, phase))
                    events.append(
                        RecvEv(left, USER_CHANNEL, op.size, op_id, phase))
            elif kind == "p2p":
                partner = r ^ 1
                if partner < p:
                    events.append(
                        SendEv(partner, USER_CHANNEL, op.size, op_id, phase))
                    events.append(
                        RecvEv(partner, USER_CHANNEL, op.size, op_id, phase))
            else:  # collective kinds
                chan = ("coll", kind, coll_idx) if instance else ("coll", kind)
                root = op.root if kind in ROOTED_KINDS else None
                events.append(
                    CollEv(kind, op.size, root, coll_idx, chan, op_id, phase))
                coll_idx += 1
        per_rank.append(events)
    return Traces(
        n_ranks=p,
        per_rank=per_rank,
        eager_threshold=eager_threshold,
        truncated=truncated,
        op_labels=op_labels,
    )
