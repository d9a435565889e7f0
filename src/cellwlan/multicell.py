"""Coupled cell-level model of a multi-cell CSMA/CA network.

Each cell alternates between backoff (contending), transmission (active)
and freezes (blocked by an active neighbor).  When every cell pair is
either completely dependent or completely independent, the set of active
cells evolves as a reversible Markov process over the independent sets of
the contention graph, with a product-form stationary law driven by one
access intensity per cell.  The per-node attempt probabilities and the
per-cell collision probabilities are then coupled through that law, giving
an N-dimensional fixed point.  This module computes all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcf import (BackoffParams, MacPhyParams, _slot_outcomes, _whole,
                  attempt_probability, damped_fixed_point,
                  frame_exchange_times, solve_single_cell)
from .topology import ContentionGraph, StateSpace, enumerate_independent_sets

LOG_ZERO = -np.inf
# a batch of fixed-point rows holds at most this many (row, state) floats
# in each of its arrays: 8 MB
_BATCH_STATES = 1 << 20
# stationary_distribution runs blocks of this many states for every row
_GEMV_STATES = 4096


def activation_rate(beta, node_count, slot_time):
    """Rate at which a contending cell grabs the channel.

    Per backoff slot the cell attempts with probability 1 - (1-beta)^n, so
    the time to activation is geometric with that success probability.
    Accepts scalars or arrays.
    """
    p_idle, _ = _slot_outcomes(np.asarray(beta, dtype=float),
                               np.asarray(node_count, dtype=float))
    return (1.0 - p_idle) / slot_time


def mean_activity_time(beta, node_count, t_success, t_collision):
    """Mean duration of one channel occupancy by the cell.

    An activation is a success when exactly one of the cell's n nodes
    attempted in the activating slot.  beta -> 0 degenerates to a sure
    success.  Accepts scalars or arrays.
    """
    p_idle, p_succ = _slot_outcomes(np.asarray(beta, dtype=float),
                                    np.asarray(node_count, dtype=float))
    p_any = 1.0 - p_idle
    p_succ = np.where(p_any > 0.0, p_succ / np.where(p_any > 0.0, p_any, 1.0),
                      1.0)
    return p_succ * t_success + (1.0 - p_succ) * t_collision


def stationary_distribution(state_space: StateSpace, rho) -> np.ndarray:
    """Product-form stationary law over the independent sets.

    pi(A) is proportional to the product of the access intensities of the
    members of A.  Computed in log space so extreme intensities stay
    finite.  A (rows, cells) ``rho`` gives one law per row: one gemv per
    row (a matrix product's rows are not bit-equal to it), each block of
    ``_GEMV_STATES`` states run for every row while it is in cache.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim not in (1, 2) or rho.shape[-1] != len(state_space.cells):
        raise ValueError("need one access intensity per cell")
    if not ((rho >= 0.0) & (rho < np.inf)).all():
        raise ValueError(f"rho = {rho} must be finite and >= 0")
    silent = rho == 0.0
    # 0 * -inf is nan, so keep the products finite and kill the states
    # that contain a silent cell afterwards
    log_rho = np.log(np.where(silent, 1.0, rho)).reshape(-1, rho.shape[-1])
    logw = np.empty((len(log_rho), len(state_space)))
    for s in range(0, len(state_space), _GEMV_STATES):
        block = state_space.active_float[s:s + _GEMV_STATES]
        for row, out in zip(log_rho, logw[:, s:s + _GEMV_STATES]):
            np.matmul(block, row, out=out)
    logw = logw.reshape(rho.shape[:-1] + (-1,))
    if silent.any():
        logw[silent @ state_space.active_float.T > 0.0] = LOG_ZERO
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def collision_probability(state_space: StateSpace, pi, beta,
                          node_counts) -> np.ndarray:
    """Collision probability per cell, averaged over the states in which
    the cell is contending.

    Works on the state space's ``collision_index``: the law's mass is
    summed per (cell, pattern of contending neighbors), each pattern's
    collision probability is a product of silence probabilities
    (1-beta_j)^n_j, finite for beta_j = 1, and each cell averages over its
    few patterns.  (rows, states) ``pi`` with (rows, cells) ``beta`` give
    one average per row; each sum is one row-offset ``np.bincount`` over
    as many rows as ``column`` stacks, adding every bin in state order as
    a call per row would.
    """
    idx = state_space.collision_index
    pi = np.asarray(pi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not ((beta >= 0.0) & (beta <= 1.0)).all():
        raise ValueError(f"beta = {beta} outside [0, 1]")
    miss = 1.0 - beta
    n = np.asarray(node_counts, dtype=float)
    silent = (miss[..., idx.owner] ** (n[idx.owner] - 1.0)
              * np.where(idx.neighbors, (miss ** n)[..., None, :], 1.0)
              .prod(axis=-1))
    rows = pi.reshape(-1, len(state_space))
    stack, patterns = len(idx.column), len(idx.owner)
    cells = len(state_space.cells)
    mass = np.concatenate([np.bincount(
        idx.column[:len(part)].ravel(),
        weights=np.repeat(part, idx.counts, axis=1).ravel(),
        minlength=len(part) * patterns)
        for part in (rows[r:r + stack] for r in range(0, len(rows), stack))])
    owner = (idx.owner + cells * np.arange(len(rows))[:, None]).ravel()
    num = np.bincount(owner, weights=mass * (1.0 - silent).ravel(),
                      minlength=len(rows) * cells)
    den = np.bincount(owner, weights=mass, minlength=len(rows) * cells)
    # every cell contends in the empty state, so den >= pi(empty) > 0
    # unless the law underflows there
    if not (den > 0.0).all():
        raise ValueError("access intensities too large: the stationary law "
                         "underflows to 0 where a cell contends")
    return (num / den).reshape(pi.shape[:-1] + (cells,))


def unblocked_fraction(state_space: StateSpace, pi) -> np.ndarray:
    """Fraction of time each cell is active or contending (not frozen)."""
    pi = np.asarray(pi, dtype=float)
    return pi @ (~state_space.blocked_mask)


@dataclass(frozen=True)
class MulticellInput:
    """A contention graph with per-cell node counts and shared MAC/PHY."""

    graph: ContentionGraph
    node_counts: tuple[int, ...]
    mac_phy: MacPhyParams
    backoff: BackoffParams

    def __post_init__(self) -> None:
        if len(self.node_counts) != self.graph.size:
            raise ValueError("need one node count per cell")
        for n in self.node_counts:
            _whole("node_counts", n)


@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration controls for the coupled fixed point.

    Every solve starts each cell at 1/b_0.  ``multistart`` extra random
    starts (from Philox seed 7) probe its uniqueness.  With the main
    solve, at every point of a sweep, they are the rows of one batched
    damped iteration, each stopping on its own; a probe that does not
    settle within ``max_iterations``, or settles more than 100x the
    tolerance away from the solution, is reported as a warning on it.
    """

    tolerance: float = 1e-8
    damping: float = 0.5
    max_iterations: int = 5000
    multistart: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "multistart",
                           _whole("multistart", self.multistart, 0))


@dataclass
class MulticellSolution:
    """Converged network operating point plus its stationary law."""

    graph: ContentionGraph
    node_counts: tuple[int, ...]
    beta: np.ndarray
    gamma: np.ndarray
    activation_rates: np.ndarray
    mean_activities: np.ndarray
    rho: np.ndarray
    pi: np.ndarray
    x: np.ndarray
    cell_throughput_pkts: np.ndarray
    per_node_throughput_pkts: np.ndarray
    isolated_throughput_pkts: np.ndarray    # per cell, alone in the network
    normalized_network_throughput: float
    residual: float
    iterations: int
    state_space: StateSpace
    warnings: tuple[str, ...] = ()


def _isolated_throughputs(node_counts, mac_phy: MacPhyParams,
                          backoff: BackoffParams) -> np.ndarray:
    """Per cell, the saturation throughput of an isolated cell with its
    node count: one single-cell solve per distinct count."""
    iso = {m: solve_single_cell(int(m), mac_phy, backoff).throughput_pkts
           for m in sorted(set(node_counts))}
    return np.array([iso[m] for m in node_counts])


def solve_fixed_point(inp: MulticellInput,
                      cfg: FixedPointConfig | None = None) -> MulticellSolution:
    """Solve the coupled attempt/collision fixed point of the network.

    A cell that is unblocked an x_i fraction of time delivers x_i times
    the saturation throughput of an isolated cell with the same node
    count; cellmates share equally.
    """
    ss = enumerate_independent_sets(inp.graph)
    [(beta, (gamma, lam, act, rho, pi), x, it, resid, warnings)] = \
        _fixed_point(inp, [inp.mac_phy.payload_bits], cfg, ss)
    iso = _isolated_throughputs(inp.node_counts, inp.mac_phy, inp.backoff)
    cell_thpt = x * iso
    return MulticellSolution(
        graph=inp.graph, node_counts=inp.node_counts,
        beta=beta, gamma=gamma, activation_rates=lam, mean_activities=act,
        rho=rho, pi=pi, x=x,
        cell_throughput_pkts=cell_thpt,
        per_node_throughput_pkts=cell_thpt / np.asarray(inp.node_counts),
        isolated_throughput_pkts=iso,
        normalized_network_throughput=float(x.sum()),
        residual=resid, iterations=it, state_space=ss,
        warnings=tuple(warnings))


def _fixed_point(inp: MulticellInput, payloads, cfg: FixedPointConfig | None,
                 ss: StateSpace):
    """The damped fixed point over an enumerated state space at each
    payload size, with its multistart check: yields per point, once its
    rows have run, ``(beta, (gamma, lam, act, rho, pi), x, iterations,
    residual, warnings)``.  Each point's main row, then its probe rows,
    are rows of batched damped iterations within the budget; the first
    point whose main row does not settle raises ConvergenceError."""
    cfg = cfg or FixedPointConfig()
    n = np.asarray(inp.node_counts, dtype=float)
    k = 1 + cfg.multistart
    main = np.arange(k * len(payloads)) % k == 0
    times = np.repeat([frame_exchange_times(inp.mac_phy.with_payload(pb))
                       for pb in payloads], k, axis=0)
    probes = np.random.Generator(np.random.Philox(7)).uniform(
        1e-3, 0.999, size=(cfg.multistart, inp.graph.size))
    beta0 = np.full((1, inp.graph.size), attempt_probability(0.0, inp.backoff))
    x0 = np.tile(np.vstack([beta0, probes]), (len(payloads), 1))

    def step(beta, live):
        rows = first + live     # first: the batch's first row, set below
        lam = activation_rate(beta, n, inp.mac_phy.slot_time)
        act = mean_activity_time(beta, n, times[rows, :1], times[rows, 1:])
        rho = lam * act
        pi = stationary_distribution(ss, rho)
        gamma = collision_probability(ss, pi, beta, n)
        # only main rows' aux is read; a per-step copy of pi would pin heap
        aux = [(gamma[i], lam[i], act[i], rho[i]) if main[r] else None
               for i, r in enumerate(rows)]
        return attempt_probability(gamma, inp.backoff), aux

    per_batch = max(1, _BATCH_STATES // len(ss))
    betas, auxes = np.empty_like(x0), []
    its, resids = np.empty(len(x0), dtype=int), np.empty(len(x0))
    for first in range(0, len(x0), per_batch):
        chunk = slice(first, first + per_batch)
        betas[chunk], aux, its[chunk], resids[chunk] = damped_fixed_point(
            step, x0[chunk], cfg.tolerance, cfg.damping, cfg.max_iterations,
            "multi-cell fixed point", main[chunk])
        auxes += aux
        # the points whose last row ran in this batch
        for m in range(first - first % k, len(auxes) - k + 1, k):
            warnings = []
            for j, r in enumerate(range(m + 1, m + k)):
                gap = float(np.max(np.abs(betas[r] - betas[m])))
                if not resids[r] <= cfg.tolerance:
                    warnings.append(f"uniqueness start {j}: did not converge")
                elif gap > 100.0 * cfg.tolerance:
                    warnings.append(f"uniqueness start {j}: solutions differ "
                                    f"by {gap:.3e}; fixed point may not be "
                                    f"unique")
            # the main row's law at its last step, bit for bit as batched
            pi = stationary_distribution(ss, auxes[m][-1])
            yield (betas[m], (*auxes[m], pi), unblocked_fraction(ss, pi),
                   int(its[m]), float(resids[m]), warnings)


def tcp_pair(mac_phy: MacPhyParams, tcp_data_bits: float,
             tcp_ack_bits: float) -> tuple[MacPhyParams, float]:
    """The saturated pair that stands in for a cell of long-lived,
    delayed-ACK-free TCP downloads (the AP and one aggregate station, both
    sending frames of the mean of the data and ACK frame sizes): its
    MAC/PHY, and the AP's share of the frames it delivers, one half."""
    eq_payload = (float(tcp_data_bits) + float(tcp_ack_bits)) / 2.0
    return mac_phy.with_payload(eq_payload), 0.5


@dataclass
class TcpLongResult:
    """Per-AP TCP-DATA throughput for long-lived TCP, each cell replaced by
    its ``tcp_pair``."""

    ap_throughput_pkts: np.ndarray
    isolated_ap_throughput_pkts: float
    equivalent_payload_bits: float
    solution: MulticellSolution


def tcp_long_throughputs(graph: ContentionGraph, mac_phy: MacPhyParams,
                         backoff: BackoffParams, tcp_data_bits: float,
                         tcp_ack_bits: float,
                         cfg: FixedPointConfig | None = None) -> TcpLongResult:
    """AP throughputs when every cell carries long-lived TCP downloads."""
    mac_eq, ap_share = tcp_pair(mac_phy, tcp_data_bits, tcp_ack_bits)
    inp = MulticellInput(graph=graph, node_counts=(2,) * graph.size,
                         mac_phy=mac_eq, backoff=backoff)
    sol = solve_fixed_point(inp, cfg)
    # every cell is a pair, so any cell's isolated throughput is the pair's
    iso = float(sol.isolated_throughput_pkts[0]) * ap_share
    return TcpLongResult(
        ap_throughput_pkts=sol.x * iso,
        isolated_ap_throughput_pkts=iso,
        equivalent_payload_bits=mac_eq.payload_bits,
        solution=sol)


@dataclass(frozen=True)
class SweepPoint:
    """One converged operating point of a payload sweep, with the
    warnings of its uniqueness probes."""

    payload_bits: float
    beta: tuple[float, ...]
    rho: tuple[float, ...]
    x: tuple[float, ...]
    normalized_network_throughput: float
    warnings: tuple[str, ...] = ()


def payload_sweep(inp: MulticellInput, payload_bits_values,
                  cfg: FixedPointConfig | None = None) -> tuple[SweepPoint, ...]:
    """Re-solve the network at each payload size.

    Larger payloads stretch the activity times, raising every access
    intensity, so the network slides toward its infinite-intensity limit.
    The state space depends on the graph alone, so it is enumerated once;
    a point keeps no throughput, so no isolated cell is solved.
    """
    ss = enumerate_independent_sets(inp.graph)
    payloads = [float(pb) for pb in payload_bits_values]
    return tuple(SweepPoint(
        payload_bits=pb, beta=tuple(beta), rho=tuple(rho), x=tuple(x),
        normalized_network_throughput=float(x.sum()), warnings=tuple(warnings))
        for pb, (beta, (*_, rho, _), x, _, _, warnings)
        in zip(payloads, _fixed_point(inp, payloads, cfg, ss)))
