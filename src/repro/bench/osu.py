"""OSU-style network campaigns (paper Section III-C, Figs. 4-5).

The paper's custom benchmark loops N MPI_Sendrecv calls of a fixed size
between one rank on each of two nodes and reports B = s*N / (t_e - t_s).
Fig. 4 runs it for *all* node pairs at 256 B and maps the bandwidth; Fig. 5
histograms all pairs across message sizes from 1 B to 16 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.presets import cte_arm
from repro.network.model import NetworkModel, network_for
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng

#: message sizes swept in Fig. 5: powers of two, 1 B .. 16 MiB.
FIG5_SIZES = [2**k for k in range(0, 25)]
FIG4_SIZE = 256


def _ordered_pairs(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map flat indices into the canonical (sender-major, self-pairs
    skipped) order of the ``n * (n - 1)`` ordered pairs to ``(a, b)``."""
    a, j = np.divmod(flat, n - 1)
    return a, j + (j >= a)


def pairwise_bandwidth_map(
    network: NetworkModel, *, size: int = FIG4_SIZE, n_nodes: int | None = None
) -> np.ndarray:
    """Matrix M[sender, receiver] of measured bandwidth (B/s).

    The diagonal (self-pairs) is NaN, as in the paper's map.
    """
    n = network.n_nodes if n_nodes is None else n_nodes
    if n <= 0:
        raise ConfigurationError("bandwidth map needs at least one node")
    if n > network.n_nodes:
        raise ConfigurationError("more nodes requested than the fabric has")
    m = np.full((n, n), np.nan)
    a, b = _ordered_pairs(n, np.arange(n * (n - 1)))
    m[a, b] = size / network.p2p_times(a, b, size)
    return m


def bandwidth_distribution(
    network: NetworkModel,
    *,
    sizes: list[int] | None = None,
    max_pairs: int | None = 4000,
    seed: int = 7,
) -> dict[int, np.ndarray]:
    """Per-size arrays of all-pairs bandwidth samples (Fig. 5's histogram).

    ``max_pairs`` subsamples the 192*191 ordered pairs deterministically to
    keep sweeps fast; ``None`` uses every pair.  The subsample is drawn
    from the repo-wide seeding discipline (:func:`repro.util.rng.make_rng`
    namespaced by campaign and fabric size) and kept in canonical pair
    order, so the same ``(seed, n, max_pairs)`` always yields the same
    sample arrays — across runs and worker processes.
    """
    sizes = FIG5_SIZES if sizes is None else sizes
    n = network.n_nodes
    n_pairs = n * (n - 1)
    if max_pairs is not None and n_pairs > max_pairs:
        rng = make_rng(seed, "osu-pairs", n, max_pairs)
        flat = np.sort(rng.choice(n_pairs, size=max_pairs, replace=False))
    else:
        flat = np.arange(n_pairs)
    a, b = _ordered_pairs(n, flat)
    return {size: size / network.p2p_times(a, b, size) for size in sizes}


@dataclass
class WeakLinkReport:
    """Nodes whose receive or send bandwidth is anomalously low."""

    weak_receivers: list[int] = field(default_factory=list)
    weak_senders: list[int] = field(default_factory=list)


def find_weak_links(
    bandwidth_map: np.ndarray, *, threshold: float = 0.5
) -> WeakLinkReport:
    """Detect asymmetric weak nodes from an all-pairs map.

    A node is flagged as a weak receiver (sender) when the median bandwidth
    of its column (row) is below ``threshold`` times the global median —
    the automated version of the paper's visual identification of
    ``arms0b1-11c``.
    """
    if bandwidth_map.ndim != 2 or bandwidth_map.shape[0] != bandwidth_map.shape[1]:
        raise ConfigurationError("bandwidth map must be square")
    cut = threshold * float(np.nanmedian(bandwidth_map))
    return WeakLinkReport(
        weak_receivers=np.flatnonzero(
            np.nanmedian(bandwidth_map, axis=0) < cut).tolist(),
        weak_senders=np.flatnonzero(
            np.nanmedian(bandwidth_map, axis=1) < cut).tolist())


def diagonal_banding_score(bandwidth_map: np.ndarray) -> float:
    """Quantify Fig. 4's diagonal patterns.

    Computes the variance of per-diagonal means relative to the global
    variance: near 1 means bandwidth is a function of |sender - receiver|
    (strong banding, as a torus produces); near 0 means no structure (as a
    non-blocking fat tree produces).
    """
    n = bandwidth_map.shape[0]
    values = bandwidth_map[~np.isnan(bandwidth_map)]
    total_var = float(np.var(values))
    if total_var == 0:
        return 0.0
    diag_means = []
    weights = []
    for off in range(1, n):
        d1 = np.diagonal(bandwidth_map, offset=off)
        d2 = np.diagonal(bandwidth_map, offset=-off)
        d = np.concatenate([d1[~np.isnan(d1)], d2[~np.isnan(d2)]])
        if d.size:
            diag_means.append(float(np.mean(d)))
            weights.append(d.size)
    between_var = float(
        np.average(
            (np.array(diag_means) - np.mean(values)) ** 2, weights=np.array(weights)
        )
    )
    return between_var / total_var


# ---------------------------------------------------------------------------
# Additional OSU-suite style tests (extensions beyond the paper's Fig. 4-5)
# ---------------------------------------------------------------------------


def latency(network: NetworkModel, a: int, b: int, *, size: int = 8) -> float:
    """osu_latency: one-way small-message latency in seconds."""
    return network.p2p_time(a, b, size)


def bidirectional_bandwidth(
    network: NetworkModel, a: int, b: int, *, size: int = 1 << 20
) -> float:
    """osu_bibw: both directions active; full-duplex links double the rate."""
    return 2.0 * size / network.sendrecv_time(a, b, size)


def message_rate(
    network: NetworkModel, a: int, b: int, *, size: int = 8, window: int = 64,
    injection_overhead_s: float = 0.2e-6,
) -> float:
    """osu_mbw_mr-style message rate (messages/second).

    A window of eager messages is injected back-to-back (one injection
    overhead each) and the window completes when the last message lands.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    t_window = window * injection_overhead_s + network.p2p_time(a, b, size)
    return window / t_window


def allreduce_scaling(
    cluster, node_counts: list[int], *, size: int = 8, ranks_per_node: int = 48
) -> dict[int, float]:
    """Allreduce latency vs partition size (extension campaign).

    Returns seconds per allreduce at each node count, through the IR
    analytic collective model on the cluster's fabric — one program
    structure against a vector of node counts, priced in a single
    :class:`~repro.ir.batch.BatchAnalyticBackend` pass (bit-identical to
    the scalar ``AnalyticBackend`` loop it replaces).
    """
    from repro.ir import CommOp, Phase, Program
    from repro.ir.batch import BatchJob, shared_batch_backend

    program = Program(
        name="osu-allreduce",
        body=(Phase("allreduce", (CommOp("allreduce", size),)),),
        ranks_per_node=ranks_per_node,
    )
    jobs = [BatchJob(program, cluster, n, check_memory=False)
            for n in node_counts]
    results = shared_batch_backend().run_batch(jobs)
    return {n: result.phase_comm["allreduce"]
            for n, result in zip(node_counts, results)}


def fig4_data(*, n_nodes: int = 192, healthy: bool = False) -> np.ndarray:
    """The 192x192 CTE-Arm map at 256 B."""
    network = network_for(cte_arm(n_nodes), n_nodes=n_nodes, healthy=healthy)
    return pairwise_bandwidth_map(network, size=FIG4_SIZE)


def fig5_data(
    *, n_nodes: int = 192, max_pairs: int | None = 2000, seed: int = 7
) -> dict[int, np.ndarray]:
    """Per-size bandwidth distributions on CTE-Arm."""
    network = network_for(cte_arm(n_nodes), n_nodes=n_nodes)
    return bandwidth_distribution(network, max_pairs=max_pairs, seed=seed)


def ir_program(*, size: int = 1 << 20, iterations: int = 100):
    """The OSU ping-pong loop as engine-agnostic IR.

    Each iteration is one pairwise exchange of ``size`` bytes (rank ``r``
    with ``r ^ 1`` — the multi-pair osu_mbw layout); run with one rank
    per node so every exchange crosses the fabric.
    """
    from repro.ir import CommOp, Loop, Phase, Program

    return Program(
        name="osu-pingpong",
        body=(Loop(iterations, (Phase("pingpong", (
            CommOp("p2p", size),
        )),)),),
        steps=iterations,
        ranks_per_node=1,
    )
