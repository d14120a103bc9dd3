"""The per-rank communicator: point-to-point, collectives, modeled compute.

Every operation is a generator to be driven with ``yield from`` inside a
rank program.  Collectives are explicit message-passing algorithms (binomial
trees, recursive doubling, ring, pairwise exchange) taken from the classic
MPICH implementations, so collective cost scales with log/linear rank count
through the same link model as the paper's point-to-point measurements.
"""

from __future__ import annotations

import enum
import math
from typing import Any

import numpy as np

from repro.des.engine import Event
from repro.simmpi.payload import VirtualPayload, payload_size
from repro.util.errors import ConfigurationError, RankFailureError, SimulationError


class ReduceOp(enum.Enum):
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    def apply(self, a: Any, b: Any) -> Any:
        """Combine two payloads (virtual payloads stay virtual)."""
        if isinstance(a, VirtualPayload) or isinstance(b, VirtualPayload):
            return a if isinstance(a, VirtualPayload) else b
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.MAX:
            return np.maximum(a, b)
        if self is ReduceOp.MIN:
            return np.minimum(a, b)
        return a * b


class Request:
    """Handle of a nonblocking operation (MPI_Request).

    ``yield from request.wait()`` suspends until completion and returns the
    received payload (for irecv) or None (for isend);
    ``comm.waitall(requests)`` waits for a batch.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: Event, kind: str):
        self.event = event
        self.kind = kind

    @property
    def complete(self) -> bool:
        return self.event.triggered

    def wait(self):
        value = yield self.event
        return value if self.kind == "recv" else None


class Comm:
    """One rank's view of a simulated communicator.

    The world communicator has ``group=None``; subcommunicators produced by
    :meth:`split` carry an explicit group (local rank -> world rank) and a
    tag namespace so traffic of different communicators never matches.
    """

    def __init__(
        self,
        world: "repro.simmpi.world.World",  # noqa: F821
        rank: int,
        *,
        group: tuple[int, ...] | None = None,
        comm_id: int = 0,
    ):
        self.world = world
        self.rank = rank
        self.size = len(group) if group is not None else world.mapping.n_ranks
        self._group = group
        self._comm_id = comm_id
        self._phase = "main"
        self._split_seq = 0
        #: per-communicator collective call counter (fast-path matching).
        self._coll_seq = 0
        state = world.resilience
        #: no receive timeout to arm: a blocking receive is a bare wait on
        #: the posted-receive event, with no :meth:`_recv` frame around it.
        self._plain_recv = state is None or state.policy.recv_timeout is None

    # ------------------------------------------------------------------ util

    def world_rank(self, local: int) -> int:
        """Translate a rank of this communicator to a world rank."""
        return self._group[local] if self._group is not None else local

    def _tagged(self, tag: int) -> tuple[int, ...]:
        """Namespace a tag with the communicator id.

        Collective-internal tags (negative by convention) additionally
        carry the per-communicator collective instance number: adjacent
        collectives reuse the same tag base, and a small message from
        call N+1 can finish its transfer before a large one from call N —
        without the instance number in the channel key, a rank still
        inside call N would consume it.  The 3-tuple shape also keeps
        internal traffic invisible to user MPI_ANY_TAG receives, which
        match the ``(comm_id, None)`` 2-tuple wildcard only.
        """
        if tag < 0:
            return (self._comm_id, tag, self._coll_seq)
        return (self._comm_id, tag)

    def _get(self, source: int, tag: int | None) -> Event:
        """Posted receive: next message from ``source`` with ``tag``
        (``None`` matches any tag *within this communicator*)."""
        me = self.world_rank(self.rank)
        key = (self._comm_id, None) if tag is None else self._tagged(tag)
        if self.world.recorder is not None:
            self.world.recorder.record_recv(
                me, self.world_rank(source), tag, self._comm_id, self._phase
            )
        return self.world.channel(me).get(source, key)

    def _recv(self, source: int, tag: int | None):
        """Blocking receive of the next matching message.

        With a resilience policy active this is where the MPI-level
        robustness semantics live: the wait is re-armed up to
        ``max_retries`` times with exponential backoff (straggler-aware —
        a slow peer is retried, not declared dead), a timeout against a
        node known to have crashed raises a rank failure (peer-death
        detection), and exhausted retries without failure evidence give up
        as a *suspected* failure.  Every collective receive goes through
        here too, so collectives inherit the same semantics.
        """
        ev = self._get(source, tag)
        state = self.world.resilience
        if state is None or state.policy.recv_timeout is None:
            return (yield ev)
        from repro.des.resources import AnyOf

        engine = self.world.engine
        pol = state.policy
        wait = pol.recv_timeout
        me = self.world_rank(self.rank)
        peer = self.world_rank(source)
        for _attempt in range(pol.max_retries + 1):
            idx, value = yield AnyOf(engine, [ev, engine.timeout(wait)])
            if idx == 0:
                return value
            wait *= pol.backoff
            node = self.world.mapping.node_of(peer)
            if state.is_node_failed(node):
                state.note_detection(me, peer, engine.now)
                raise RankFailureError(
                    f"rank {me}: peer rank {peer} lost (node {node} failed)",
                    rank=me, peer=peer, kind="peer-dead",
                )
        state.note_suspect(me, peer, engine.now)
        raise RankFailureError(
            f"rank {me}: no message from rank {peer} after "
            f"{pol.max_retries + 1} timed waits",
            rank=me, peer=peer, kind="suspected",
        )

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.world.engine.now

    def set_phase(self, phase: str) -> None:
        """Label subsequent operations for the trace (Alya's phase timers)."""
        self._phase = phase

    @property
    def phase(self) -> str:
        return self._phase

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ConfigurationError(f"peer {peer} out of range 0..{self.size - 1}")
        if peer == self.rank:
            raise SimulationError(f"rank {self.rank} messaging itself")

    def _rec_collective(
        self, op: str, *, root: int | None = None, nbytes: int | None = None
    ) -> None:
        """Mark a collective entry: bump the per-communicator instance
        counter (namespacing the internal channel keys, see ``_tagged``)
        and log the entry when a verify recorder is attached."""
        self._coll_seq += 1
        rec = self.world.recorder
        if rec is not None:
            rec.record_collective(
                self.world_rank(self.rank),
                op,
                self._comm_id,
                self._phase,
                root=root,
                nbytes=nbytes,
            )

    @staticmethod
    def _rec_size(payload: Any, size: int | None) -> int | None:
        """Declared payload bytes for the recorder (None = undeclared)."""
        if payload is None and size is None:
            return None
        return payload_size(payload, size)

    def _trace(self, start: float, phase_suffix: str) -> None:
        trace = self.world.trace
        if trace.mode == "off":
            return
        trace.record(
            start,
            self.now - start,
            actor=f"rank{self.world_rank(self.rank)}",
            phase=f"{self._phase}:{phase_suffix}",
        )

    # ----------------------------------------------------------- point2point

    def _isend(self, dest: int, payload: Any, tag: int, size: int | None) -> Event:
        """Initiate a send; returns the sender-side completion event.

        Delivery to the destination mailbox is scheduled independently at
        the full transfer time.  Small (eager) messages free the sender
        after the injection overhead; large (rendezvous) messages hold the
        sender for the whole transfer — which also serializes successive
        large sends from one rank, as a real NIC does.
        """
        self._check_peer(dest)
        nbytes = max(1, payload_size(payload, size))
        world = self.world
        src_world = self.world_rank(self.rank)
        dst_world = self.world_rank(dest)
        if world.recorder is not None:
            world.recorder.record_send(
                src_world, dst_world, tag, self._comm_id, nbytes, self._phase
            )
        # RankMapping.node_of without its range checks: both ranks are
        # members of this communicator (``_check_peer`` validated dest).
        per_node = world.mapping.ranks_per_node
        src_node = src_world // per_node
        dst_node = dst_world // per_node
        t_transfer = world.network.p2p_time(src_node, dst_node, nbytes) if (
            src_node != dst_node
        ) else world.network.link.p2p_time(nbytes, 0)
        tagged = self._tagged(tag)
        rendezvous = nbytes > world.eager_threshold
        if t_transfer == math.inf:
            return self._send_unreachable(dst_world, rendezvous)
        if world.nic_contention and rendezvous and src_node != dst_node:
            # Serialize this node's rendezvous injections through its NIC;
            # the sender completes (and the message arrives) when its turn
            # through the port finishes.
            return world.engine.process(
                self._nic_transfer(src_node, t_transfer, dst_world, tagged,
                                   payload),
                label=f"nic-send:{self.rank}->{dest}",
            )
        world.schedule_delivery(dst_world, self.rank, tagged, payload,
                                t_transfer)
        if not rendezvous:
            return world.engine.timeout(world.send_overhead_s)
        return world.engine.timeout(t_transfer)

    def _send_unreachable(self, dst_world: int, rendezvous: bool) -> Event:
        """Send into a dead link (factor 0.0): the message is lost.

        Eager sends are fire-and-forget — the sender proceeds after its
        injection overhead, as a real NIC would.  A rendezvous send holds
        the sender: with a resilience policy it fails with a rank failure
        after ``send_timeout``; without one the returned event never fires,
        so the blocked sender surfaces as DeadlockError at calendar drain
        (an error, not a hang).
        """
        world = self.world
        if not rendezvous:
            return world.engine.timeout(world.send_overhead_s)
        ev = world.engine.event(
            label=f"send-unreachable:{self.rank}->{dst_world}"
        )
        state = world.resilience
        if state is not None and state.policy.send_timeout is not None:
            me = self.world_rank(self.rank)

            def _expire(_t: Event) -> None:
                state.note_send_failure(me, dst_world, world.engine.now)
                ev.fail(RankFailureError(
                    f"rank {me}: rendezvous send to rank {dst_world} "
                    "timed out (destination unreachable)",
                    rank=me, peer=dst_world, kind="send-unreachable",
                ))

            world.engine.timeout(state.policy.send_timeout).add_callback(_expire)
        return ev

    def _nic_transfer(self, node: int, t_transfer: float, dst_world: int,
                      tagged: tuple, payload: Any):
        # Delivery is committed at NIC-grant time (grant + t_transfer)
        # through the world's delivery seam, so a sharded world sees the
        # message the moment its timing is decided, not after the fact.
        nic = self.world.nic(node)
        yield nic.acquire()
        try:
            self.world.schedule_delivery(dst_world, self.rank, tagged,
                                         payload, t_transfer)
            yield self.world.engine.timeout(t_transfer)
        finally:
            nic.release()

    def send(self, dest: int, payload: Any = None, *, tag: int = 0,
             size: int | None = None):
        """Blocking send (returns when the sender side completes)."""
        start = self.now
        yield self._isend(dest, payload, tag, size)
        self._trace(start, "send")

    def recv(self, source: int, *, tag: int | None = None):
        """Blocking receive; returns the payload."""
        self._check_peer(source)
        start = self.now
        data = (yield self._get(source, tag)) if self._plain_recv else (
            yield from self._recv(source, tag))
        self._trace(start, "recv")
        return data

    def sendrecv(
        self,
        dest: int,
        payload: Any = None,
        *,
        source: int | None = None,
        tag: int = 0,
        size: int | None = None,
    ):
        """MPI_Sendrecv: concurrent send and receive (the OSU loop body)."""
        src = dest if source is None else source
        self._check_peer(src)
        start = self.now
        send_done = self._isend(dest, payload, tag, size)
        data = (yield self._get(src, tag)) if self._plain_recv else (
            yield from self._recv(src, tag))
        yield send_done
        self._trace(start, "sendrecv")
        return data

    # ------------------------------------------------------------ collectives

    def barrier(self):
        """Dissemination barrier: ceil(log2(p)) rounds of 1-byte exchanges."""
        self._rec_collective("barrier")
        p = self.size
        if p == 1:
            return
        start = self.now
        world = self.world
        if world._use_fastcoll(self):
            yield from world.fastcoll.participate(self, "barrier", None, {})
            self._trace(start, "barrier")
            return
        k = 1
        while k < p:
            dest = (self.rank + k) % p
            src = (self.rank - k) % p
            send_done = self._isend(dest, None, tag=-1 - k, size=1)
            (yield self._get(src, -1 - k)) if self._plain_recv else (
                yield from self._recv(src, -1 - k))
            yield send_done
            k <<= 1
        self._trace(start, "barrier")

    def bcast(self, payload: Any = None, *, root: int = 0, size: int | None = None):
        """Binomial-tree broadcast; every rank returns the payload."""
        self._rec_collective("bcast", root=root,
                             nbytes=self._rec_size(payload, size))
        p = self.size
        if p == 1:
            return payload
        start = self.now
        world = self.world
        if world._use_fastcoll(self):
            data = yield from world.fastcoll.participate(
                self, "bcast", payload, {"root": root, "size": size}
            )
            self._trace(start, "bcast")
            return data
        relative = (self.rank - root) % p
        tag = -1000
        mask = 1
        data = payload
        highest = None
        while mask < p:
            if relative & mask:
                src = (relative - mask + root) % p
                data = (yield self._get(src, tag)) if self._plain_recv else (
                    yield from self._recv(src, tag))
                highest = mask
                break
            mask <<= 1
        # Forward to children: all masks below the bit we received on
        # (the root forwards from the largest power of two below p).
        send_mask = (highest >> 1) if highest is not None else _floor_pow2(p)
        while send_mask > 0:
            dst_rel = relative + send_mask
            if dst_rel < p:
                dst = (dst_rel + root) % p
                yield self._isend(dst, data, tag, size)
            send_mask >>= 1
        self._trace(start, "bcast")
        return data

    def reduce(
        self,
        payload: Any,
        *,
        op: ReduceOp = ReduceOp.SUM,
        root: int = 0,
        size: int | None = None,
    ):
        """Binomial-tree reduction; only ``root`` returns the result."""
        self._rec_collective("reduce", root=root,
                             nbytes=self._rec_size(payload, size))
        p = self.size
        start = self.now
        world = self.world
        if p > 1 and world._use_fastcoll(self):
            result = yield from world.fastcoll.participate(
                self, "reduce", payload, {"op": op, "root": root, "size": size}
            )
            self._trace(start, "reduce")
            return result
        result = payload
        if p > 1:
            relative = (self.rank - root) % p
            tag = -2000
            mask = 1
            while mask < p:
                if relative & mask:
                    dst = (relative - mask + root) % p
                    yield self._isend(dst, result, tag, size)
                    break
                src_rel = relative + mask
                if src_rel < p:
                    src = (src_rel + root) % p
                    partial = (yield self._get(src, tag)) if self._plain_recv else (
                        yield from self._recv(src, tag))
                    result = op.apply(result, partial)
                mask <<= 1
        self._trace(start, "reduce")
        return result if self.rank == root else None

    def allreduce(
        self, payload: Any, *, op: ReduceOp = ReduceOp.SUM, size: int | None = None
    ):
        """Recursive-doubling allreduce (reduce+bcast for non-powers of two)."""
        self._rec_collective("allreduce",
                             nbytes=self._rec_size(payload, size))
        p = self.size
        if p == 1:
            return payload
        start = self.now
        world = self.world
        if world._use_fastcoll(self):
            result = yield from world.fastcoll.participate(
                self, "allreduce", payload, {"op": op, "size": size}
            )
            self._trace(start, "allreduce")
            return result
        tag = -3000
        result = payload
        if p & (p - 1) == 0:
            mask = 1
            while mask < p:
                partner = self.rank ^ mask
                ptag = tag - mask
                send_done = self._isend(partner, result, ptag, size)
                other = (yield self._get(partner, ptag)) if self._plain_recv else (
                    yield from self._recv(partner, ptag))
                yield send_done
                result = op.apply(result, other)
                mask <<= 1
        else:
            reduced = yield from self.reduce(result, op=op, root=0, size=size)
            result = yield from self.bcast(
                reduced if self.rank == 0 else None, root=0, size=size
            )
        self._trace(start, "allreduce")
        return result

    def gather(self, payload: Any, *, root: int = 0, size: int | None = None):
        """Binomial-tree gather; root returns the list indexed by rank."""
        self._rec_collective("gather", root=root,
                             nbytes=self._rec_size(payload, size))
        p = self.size
        start = self.now
        collected: dict[int, Any] = {self.rank: payload}
        nbytes = payload_size(payload, size)
        if p > 1:
            relative = (self.rank - root) % p
            tag = -4000
            mask = 1
            while mask < p:
                if relative & mask:
                    dst = (relative - mask + root) % p
                    yield self._isend(
                        dst, collected, tag, size=nbytes * len(collected)
                    )
                    break
                src_rel = relative + mask
                if src_rel < p:
                    src = (src_rel + root) % p
                    part = (yield self._get(src, tag)) if self._plain_recv else (
                        yield from self._recv(src, tag))
                    collected.update(part)
                mask <<= 1
        self._trace(start, "gather")
        if self.rank == root:
            return [collected[r] for r in range(p)]
        return None

    def allgather(self, payload: Any, *, size: int | None = None):
        """Ring allgather: p-1 steps, each forwarding one block."""
        self._rec_collective("allgather",
                             nbytes=self._rec_size(payload, size))
        p = self.size
        if p == 1:
            return [payload]
        start = self.now
        world = self.world
        if world._use_fastcoll(self):
            blocks = yield from world.fastcoll.participate(
                self, "allgather", payload, {"size": size}
            )
            self._trace(start, "allgather")
            return blocks
        blocks: list[Any] = [None] * p
        blocks[self.rank] = payload
        nbytes = payload_size(payload, size)
        right = (self.rank + 1) % p
        left = (self.rank - 1) % p
        tag = -5000
        carry_idx = self.rank
        for _step in range(p - 1):
            send_done = self._isend(
                right, (carry_idx, blocks[carry_idx]), tag, size=nbytes
            )
            idx, data = (yield self._get(left, tag)) if self._plain_recv else (
                yield from self._recv(left, tag))
            yield send_done
            blocks[idx] = data
            carry_idx = idx
        self._trace(start, "allgather")
        return blocks

    def alltoall(self, payloads: list[Any], *, size: int | None = None):
        """Pairwise-exchange alltoall; returns the received list by source.

        ``payloads[d]`` goes to rank d; ``size`` (if given) is the per-block
        byte count.
        """
        p = self.size
        if len(payloads) != p:
            raise ConfigurationError("alltoall needs one payload per rank")
        self._rec_collective(
            "alltoall",
            nbytes=self._rec_size(payloads[0] if payloads else None, size),
        )
        start = self.now
        world = self.world
        if p > 1 and world._use_fastcoll(self):
            received = yield from world.fastcoll.participate(
                self, "alltoall", payloads, {"size": size}
            )
            self._trace(start, "alltoall")
            return received
        received: list[Any] = [None] * p
        received[self.rank] = payloads[self.rank]
        tag = -6000
        for k in range(1, p):
            dst = (self.rank + k) % p
            src = (self.rank - k) % p
            send_done = self._isend(dst, payloads[dst], tag - k, size)
            received[src] = (yield self._get(src, tag - k)) if self._plain_recv else (
                yield from self._recv(src, tag - k))
            yield send_done
        self._trace(start, "alltoall")
        return received

    def scatter(self, payloads: list[Any] | None, *, root: int = 0,
                size: int | None = None):
        """Flat scatter from root; each rank returns its block."""
        self._rec_collective(
            "scatter",
            root=root,
            nbytes=None if size is None else size,
        )
        p = self.size
        start = self.now
        tag = -7000
        if self.rank == root:
            if payloads is None or len(payloads) != p:
                raise ConfigurationError("root must supply one payload per rank")
            for dst in range(p):
                if dst != root:
                    yield self._isend(dst, payloads[dst], tag, size)
            mine = payloads[root]
        else:
            mine = (yield self._get(root, tag)) if self._plain_recv else (
                yield from self._recv(root, tag))
        self._trace(start, "scatter")
        return mine

    # ---------------------------------------------------------------- compute

    def compute(
        self,
        seconds: float | None = None,
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        flops_per_core: float | None = None,
        label: str = "compute",
    ):
        """Advance virtual time for a compute phase.

        Either pass ``seconds`` directly, or pass work (``flops`` and/or
        ``bytes_moved``) plus the sustained per-core rate from the
        toolchain model; the rank's roofline time is charged:
        ``max(flops / rank_rate, bytes / rank_bandwidth)``.
        """
        start = self.now
        if seconds is None:
            if flops < 0 or bytes_moved < 0:
                raise ConfigurationError("work must be non-negative")
            t_flops = 0.0
            if flops > 0:
                if flops_per_core is None or flops_per_core <= 0:
                    raise ConfigurationError(
                        "flops work needs a positive flops_per_core rate"
                    )
                rate = self.world.mapping.rank_compute_rate(
                        self.world_rank(self.rank), flops_per_core)
                t_flops = flops / rate
            t_bytes = 0.0
            if bytes_moved > 0:
                bw = self.world.mapping.rank_memory_bandwidth(
                    self.world_rank(self.rank))
                t_bytes = bytes_moved / bw
            seconds = max(t_flops, t_bytes)
        if seconds < 0:
            raise ConfigurationError("compute time must be non-negative")
        seconds *= self.world.noise_factor(self.world_rank(self.rank))
        seconds *= self.world.compute_slowdown(self.world_rank(self.rank))
        if seconds > 0:
            yield self.world.engine.timeout(seconds)
        trace = self.world.trace
        if trace.mode != "off":
            trace.record(start, seconds,
                         actor=f"rank{self.world_rank(self.rank)}",
                         phase=f"{self._phase}:{label}")

    # ------------------------------------------------------------ nonblocking

    def isend(self, dest: int, payload: Any = None, *, tag: int = 0,
              size: int | None = None) -> Request:
        """Nonblocking send; returns a :class:`Request`."""
        return Request(self._isend(dest, payload, tag, size), kind="send")

    def irecv(self, source: int, *, tag: int | None = None) -> Request:
        """Nonblocking receive; ``wait()`` returns the payload."""
        self._check_peer(source)
        return Request(self._get(source, tag), kind="recv")

    def waitall(self, requests: list[Request]):
        """Wait for every request; returns irecv payloads in request order
        (None for sends) — MPI_Waitall."""
        from repro.des.resources import AllOf

        start = self.now
        values = yield AllOf(self.world.engine, [r.event for r in requests])
        self._trace(start, "waitall")
        return [v if r.kind == "recv" else None
                for v, r in zip(values, requests)]

    def waitany(self, requests: list[Request]):
        """Wait for the first completion; returns (index, payload-or-None)
        — MPI_Waitany."""
        from repro.des.resources import AnyOf

        start = self.now
        idx, value = yield AnyOf(self.world.engine,
                                 [r.event for r in requests])
        self._trace(start, "waitall")
        return idx, (value if requests[idx].kind == "recv" else None)

    # ----------------------------------------------------- communicator mgmt

    def split(self, color: int, key: int | None = None):
        """MPI_Comm_split: collectively partition into subcommunicators.

        Every rank of this communicator must call with its ``color``; ranks
        sharing a color form a new communicator ordered by ``key`` (default:
        current rank).  Returns the new :class:`Comm` for this rank.
        """
        self._rec_collective("split")
        self._split_seq += 1
        entries = yield from self.allgather(
            (int(color), self.rank if key is None else int(key), self.rank)
        )
        mine = sorted(
            (k, r) for c, k, r in entries if c == int(color)
        )
        group = tuple(self.world_rank(r) for _k, r in mine)
        new_rank = [r for _k, r in mine].index(self.rank)
        comm_id = self.world.comm_id_for(
            (self._comm_id, self._split_seq, int(color))
        )
        sub = Comm(self.world, new_rank, group=group, comm_id=comm_id)
        sub._phase = self._phase
        return sub

    def dup(self):
        """MPI_Comm_dup: same group, fresh tag namespace (collective)."""
        return (yield from self.split(0, key=self.rank))

    # ------------------------------------------------- additional collectives

    def reduce_scatter_block(self, payloads: list[Any], *,
                             op: ReduceOp = ReduceOp.SUM,
                             size: int | None = None):
        """MPI_Reduce_scatter_block via ring: p-1 steps, each combining and
        forwarding one block; returns this rank's reduced block."""
        p = self.size
        if len(payloads) != p:
            raise ConfigurationError("need one payload block per rank")
        self._rec_collective(
            "reduce_scatter",
            nbytes=self._rec_size(payloads[0] if payloads else None, size),
        )
        if p == 1:
            return payloads[0]
        start = self.now
        tag = -8000
        right = (self.rank + 1) % p
        left = (self.rank - 1) % p
        # Ring schedule: block b starts at rank (b+1) % p and travels
        # rightward, folding one contribution per hop; after p-1 steps it
        # arrives, fully reduced, at rank b.
        acc = [payloads[i] for i in range(p)]
        for k in range(1, p):
            send_idx = (self.rank - k) % p
            recv_idx = (self.rank - k - 1) % p
            send_done = self._isend(right, (send_idx, acc[send_idx]),
                                    tag - k, size)
            idx, part = (yield self._get(left, tag - k)) if self._plain_recv else (
                yield from self._recv(left, tag - k))
            yield send_done
            assert idx == recv_idx
            acc[recv_idx] = op.apply(acc[recv_idx], part)
        self._trace(start, "reduce_scatter")
        return acc[self.rank]

    def scan(self, payload: Any, *, op: ReduceOp = ReduceOp.SUM,
             size: int | None = None, exclusive: bool = False):
        """MPI_Scan / MPI_Exscan via a linear chain.

        Inclusive scan returns op(payload_0..payload_rank); exclusive scan
        returns op(payload_0..payload_{rank-1}) and None on rank 0.
        """
        self._rec_collective("scan", nbytes=self._rec_size(payload, size))
        start = self.now
        tag = -9000
        prefix = None
        if self.rank > 0:
            prefix = (yield self._get(self.rank - 1, tag)) if self._plain_recv else (
                yield from self._recv(self.rank - 1, tag))
        inclusive = payload if prefix is None else op.apply(prefix, payload)
        if self.rank + 1 < self.size:
            yield self._isend(self.rank + 1, inclusive, tag, size)
        self._trace(start, "scan")
        return prefix if exclusive else inclusive


def _floor_pow2(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    p = 1
    while p << 1 < n:
        p <<= 1
    return p
