"""Shard partitioning and conservative-lookahead computation.

A :class:`ShardPlan` splits the rank space of one
:class:`~repro.simmpi.mapping.RankMapping` into contiguous blocks of
*units* — whole nodes (default) or CMGs/NUMA domains — so that every
rank, and every NIC, belongs to exactly one shard.  Contiguity matters:
the block rank distribution (``node_of(rank) = rank // ranks_per_node``)
makes rank->shard a constant-time division, and per-shard rank ranges
stay contiguous, which keeps the merged result ordering trivial.

Lookahead derivation
--------------------

The conservative window length is a *lower bound on the transfer time of
any cross-shard message*.  With the LogGP link model
(:mod:`repro.network.linkmodel`),

    t(s, h) = L0 + h*Lh + (s + s_half) / (B * proto(s) * derate(h))

is minimized over sizes at ``s = 1`` for any fixed pair: ``proto(1) = 1``
(one byte is below the bimodal window) while ``proto(s) <= 1``, so
``t(s, h) >= t(1, h)``; and ``t(1, h)`` is nondecreasing in hops
(per-hop latency adds, the hop derate only shrinks bandwidth).  Fault
factors divide the base time by a value in ``[0, 1]``
(:class:`~repro.network.faults.FaultModel` validates the range), so any
fault state — including mid-run degrade/recover transitions — only makes
messages *slower* than the pre-fault base.  Hence

    lookahead = min over cross-shard node pairs of  base t(1, hops(a, b))

never exceeds an actual cross-shard transfer time.  When a shard
boundary cuts through a node (CMG granularity), the shared-memory
transport is the floor: ``t_shm(1) = shm_latency + 1/shm_bandwidth``.

The cross-shard *channel inventory* — which (src, dst) rank pairs can
actually exchange messages, from the symbolic unrolling of the IR
lowering (:mod:`repro.ir.analyze.trace`) — refines the bound: a program
whose only cross-shard traffic is nearest-neighbor halos gets the
one-hop lookahead even on a large fabric.  The inventory is only used
when the unrolling is complete (not truncated); a partial inventory
could miss the fastest link and break conservatism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.ir.program import Program
    from repro.network.model import NetworkModel
    from repro.simmpi.mapping import RankMapping

#: node count above which the all-pairs hop minimization is replaced by
#: the universal one-hop floor (still conservative, just less tight).
ALL_PAIRS_NODE_CAP = 1024

#: rank count above which the symbolic channel inventory is skipped
#: (mirrors the static analyzer's own tractability cap).
INVENTORY_RANK_CAP = 4096

GRANULARITIES = ("node", "cmg")


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of partition units (nodes or CMGs) to shards.

    Units are split into ``n_shards`` contiguous, balanced blocks; the
    first ``n_units % n_shards`` shards own one extra unit.  All index
    math is closed-form — the plan is cheap to pickle and to rebuild
    inside worker processes.
    """

    n_shards: int
    granularity: str
    n_units: int
    units_per_node: int
    ranks_per_unit: int
    n_ranks: int

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ConfigurationError(
                f"unknown shard granularity {self.granularity!r}; "
                f"choose from {GRANULARITIES}"
            )
        if self.n_shards < 1:
            raise ConfigurationError("need at least one shard")
        if self.n_shards > self.n_units:
            raise ConfigurationError(
                f"{self.n_shards} shards over {self.n_units} "
                f"{self.granularity} unit(s); shards cannot be empty"
            )

    @classmethod
    def build(
        cls,
        mapping: "RankMapping",
        n_shards: int,
        *,
        granularity: str = "node",
    ) -> "ShardPlan":
        """Plan ``n_shards`` over ``mapping`` at the given granularity.

        CMG granularity uses the node model's NUMA domain count and
        requires ``ranks_per_node`` to divide evenly across domains (the
        paper's 48-rank A64FX nodes split 12 ranks per CMG).
        """
        if granularity == "cmg":
            units_per_node = len(mapping.cluster.node.domains)
            if mapping.ranks_per_node % units_per_node:
                raise ConfigurationError(
                    f"cmg granularity needs ranks_per_node "
                    f"({mapping.ranks_per_node}) divisible by the node's "
                    f"{units_per_node} NUMA domains"
                )
            ranks_per_unit = mapping.ranks_per_node // units_per_node
        else:
            units_per_node = 1
            ranks_per_unit = mapping.ranks_per_node
        return cls(
            n_shards=n_shards,
            granularity=granularity,
            n_units=mapping.n_nodes * units_per_node,
            units_per_node=units_per_node,
            ranks_per_unit=ranks_per_unit,
            n_ranks=mapping.n_ranks,
        )

    # -- index math ----------------------------------------------------------

    def unit_range(self, shard: int) -> range:
        """The contiguous units shard ``shard`` owns."""
        q, r = divmod(self.n_units, self.n_shards)
        lo = shard * q + min(shard, r)
        return range(lo, lo + q + (1 if shard < r else 0))

    def shard_of_unit(self, unit: int) -> int:
        q, r = divmod(self.n_units, self.n_shards)
        pivot = r * (q + 1)
        if unit < pivot:
            return unit // (q + 1)
        return r + (unit - pivot) // q

    def shard_of_rank(self, rank: int) -> int:
        return self.shard_of_unit(rank // self.ranks_per_unit)

    def shard_of_node(self, node: int) -> int:
        """Shard of the node's *first* unit (== the node's only shard at
        node granularity)."""
        return self.shard_of_unit(node * self.units_per_node)

    def local_ranks(self, shard: int) -> range:
        units = self.unit_range(shard)
        return range(units.start * self.ranks_per_unit,
                     units.stop * self.ranks_per_unit)

    def local_nodes(self, shard: int) -> range:
        """Nodes with at least one unit in ``shard`` (may overlap between
        adjacent shards at CMG granularity)."""
        units = self.unit_range(shard)
        return range(units.start // self.units_per_node,
                     (units.stop - 1) // self.units_per_node + 1)

    @property
    def splits_nodes(self) -> bool:
        """True when some node's units land in different shards."""
        if self.units_per_node == 1:
            return False
        return any(
            self.shard_of_unit(node * self.units_per_node)
            != self.shard_of_unit((node + 1) * self.units_per_node - 1)
            for node in range(self.n_units // self.units_per_node)
        )


def cross_shard_rank_pairs(
    program: "Program", plan: ShardPlan
) -> set[tuple[int, int]] | None:
    """Cross-shard (src, dst) rank pairs of the program's lowering.

    Built from the symbolic unrolling of the real lowering rules: user
    sends/recvs contribute their exact pairs; a collective whose members
    straddle shards contributes every cross-shard member pair (its
    internal algorithm may connect any two members).  Returns None when
    the inventory cannot be trusted to be complete — truncated unrolling,
    rank count over :data:`INVENTORY_RANK_CAP`, or an analysis failure —
    and the caller must fall back to the all-pairs bound.
    """
    if plan.n_ranks > INVENTORY_RANK_CAP:
        return None
    from repro.ir.analyze.trace import CollEv, RecvEv, SendEv, unroll
    from repro.util.errors import ReproError

    try:
        traces = unroll(program, plan.n_ranks)
    except ReproError:
        return None
    if traces.truncated:
        # A longer loop could only repeat channels already seen on the
        # unrolled iterations *if* every iteration is structurally alike;
        # fractional-count CommOps break that, so stay conservative.
        return None
    pairs: set[tuple[int, int]] = set()
    for rank in range(plan.n_ranks):
        my_shard = plan.shard_of_rank(rank)
        for ev in traces.events(rank):
            if isinstance(ev, SendEv):
                if plan.shard_of_rank(ev.dst) != my_shard:
                    pairs.add((rank, ev.dst))
            elif isinstance(ev, RecvEv):
                if plan.shard_of_rank(ev.src) != my_shard:
                    pairs.add((ev.src, rank))
            elif isinstance(ev, CollEv) and plan.n_shards > 1:
                # The lowering's collectives span the world communicator:
                # their internal algorithms may connect any two ranks, so
                # the inventory degenerates to all pairs — signal the
                # caller to use the (cheaper) node-level all-pairs bound.
                return None
    return pairs


def lookahead(
    network: "NetworkModel",
    mapping: "RankMapping",
    plan: ShardPlan,
    *,
    rank_pairs: set[tuple[int, int]] | None = None,
) -> float:
    """Conservative window length: the minimum pre-fault transfer time of
    any possible cross-shard message (see the module docstring for the
    proof of conservatism)."""
    link = network.link
    shm_floor = link.p2p_time(1, 0)
    if rank_pairs is not None:
        if not rank_pairs:
            # No cross-shard traffic at all: any finite window works;
            # pick the cross-fabric maximum so windows stay few.
            return max(shm_floor, link.p2p_time(1, 1))
        best = math.inf
        for src, dst in rank_pairs:
            a, b = mapping.node_of(src), mapping.node_of(dst)
            t = shm_floor if a == b else link.p2p_time(1, network.hops(a, b))
            if t < best:
                best = t
        return best
    if plan.splits_nodes:
        return shm_floor
    n_nodes = mapping.n_nodes
    if n_nodes > ALL_PAIRS_NODE_CAP:
        # One hop is the least any two distinct nodes can be apart and
        # t(1, h) is nondecreasing in h: still a valid lower bound.
        return link.p2p_time(1, 1)
    nodes = np.arange(n_nodes)
    shard = np.array([plan.shard_of_node(a) for a in range(n_nodes)])
    cross = shard[:, None] != shard[None, :]
    hops = network.topology.hops_many(nodes[:, None], nodes[None, :])[cross]
    return min((link.p2p_time(1, int(h)) for h in np.unique(hops)),
               default=math.inf)
