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

from .dcf import (BackoffParams, ConvergenceError, MacPhyParams,
                  attempt_probability, damped_fixed_point,
                  frame_exchange_times, solve_single_cell)
from .topology import (ContentionGraph, MisStats, StateSpace,
                       enumerate_independent_sets, mis_stats)

LOG_ZERO = -np.inf


def activation_rate(beta, node_count, slot_time):
    """Rate at which a contending cell grabs the channel.

    Per backoff slot the cell attempts with probability 1 - (1-beta)^n, so
    the time to activation is geometric with that success probability.
    Accepts scalars or arrays.
    """
    beta = np.asarray(beta, dtype=float)
    n = np.asarray(node_count, dtype=float)
    return (1.0 - (1.0 - beta) ** n) / slot_time


def mean_activity_time(beta, node_count, t_success, t_collision):
    """Mean duration of one channel occupancy by the cell.

    An activation is a success when exactly one of the cell's n nodes
    attempted in the activating slot.  beta -> 0 degenerates to a sure
    success.  Accepts scalars or arrays.
    """
    beta = np.asarray(beta, dtype=float)
    n = np.asarray(node_count, dtype=float)
    p_any = 1.0 - (1.0 - beta) ** n
    with np.errstate(invalid="ignore", divide="ignore"):
        p_succ = np.where(p_any > 0.0,
                          n * beta * (1.0 - beta) ** (n - 1.0)
                          / np.where(p_any > 0.0, p_any, 1.0),
                          1.0)
    return p_succ * t_success + (1.0 - p_succ) * t_collision


def stationary_distribution(state_space: StateSpace, rho) -> np.ndarray:
    """Product-form stationary law over the independent sets.

    pi(A) is proportional to the product of the access intensities of the
    members of A.  Computed in log space so extreme intensities stay
    finite.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(state_space.cells),) or np.any(rho < 0):
        raise ValueError("need one access intensity >= 0 per cell")
    silent = rho == 0.0
    # 0 * -inf is nan, so keep the matmul finite and kill the states that
    # contain a silent cell afterwards
    log_rho = np.log(np.where(silent, 1.0, rho))
    logw = state_space.active_float @ log_rho
    if silent.any():
        logw[state_space.active_mask[:, silent].any(axis=1)] = LOG_ZERO
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def collision_probability(state_space: StateSpace, pi, beta,
                          node_counts) -> np.ndarray:
    """Collision probability per cell, averaged over the states in which
    the cell is contending.

    Works on the state space's ``collision_index``: the law's mass is
    summed per (cell, pattern of contending neighbors), each pattern's
    collision probability is a product of silence probabilities
    (1-beta_j)^n_j, finite for beta_j = 1, and each cell averages over its
    few patterns.
    """
    idx = state_space.collision_index
    pi = np.asarray(pi, dtype=float)
    miss = 1.0 - np.asarray(beta, dtype=float)
    n = np.asarray(node_counts, dtype=float)
    silent = (miss[idx.owner] ** (n[idx.owner] - 1.0)
              * np.where(idx.neighbors, miss ** n, 1.0).prod(axis=1))
    mass = np.bincount(idx.column, weights=np.repeat(pi, idx.counts),
                       minlength=len(idx.owner))
    cells = len(state_space.cells)
    num = np.bincount(idx.owner, weights=mass * (1.0 - silent), minlength=cells)
    den = np.bincount(idx.owner, weights=mass, minlength=cells)
    # den >= pi(empty state) > 0: every cell contends in the empty state.
    return num / den


def unblocked_fraction(state_space: StateSpace, pi) -> np.ndarray:
    """Fraction of time each cell is active or contending (not frozen)."""
    pi = np.asarray(pi, dtype=float)
    return pi @ (~state_space.blocked_mask)


def detailed_balance_residual(state_space: StateSpace, pi, lam, mu) -> float:
    """Largest relative violation of pi(A) lam_i = pi(A + i) mu_i over all
    feasible activations; zero for the exact product-form law.  Each pair is
    normalized by the larger of its two flows so the result is scale-free;
    pairs with no flow in either direction contribute nothing."""
    pi = np.asarray(pi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    s, j = np.nonzero(state_space.contending_mask)
    up = pi[s] * lam[j]
    down = pi[state_space.toggle_index[s, j]] * mu[j]
    scale = np.maximum(up, down)
    flows = scale > 0.0     # false for NaN too
    return float(np.max(np.abs(up - down)[flows] / scale[flows], initial=0.0))


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
        if any(n < 1 for n in self.node_counts):
            raise ValueError("node counts must be >= 1")


@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration controls for the coupled fixed point.

    ``initial_beta`` of None starts every cell at 1/b_0.  ``multistart``
    extra random starts (from Philox seed 7) probe uniqueness; disagreement
    beyond 100x the tolerance is reported as a warning on the solution.
    """

    tolerance: float = 1e-8
    damping: float = 0.5
    max_iterations: int = 5000
    initial_beta: tuple[float, ...] | None = None
    multistart: int = 3


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


def saturation_throughputs(x, node_counts, mac_phy: MacPhyParams,
                           backoff: BackoffParams) -> tuple[np.ndarray, np.ndarray]:
    """Cell and per-node saturation throughputs (packets per second).

    A cell that is unblocked an x_i fraction of time delivers x_i times
    the saturation throughput of an isolated cell with the same node
    count; cellmates share equally.
    """
    cell = np.asarray(x, dtype=float) * _isolated_throughputs(
        node_counts, mac_phy, backoff)
    return cell, cell / np.asarray(node_counts)


def _isolated_throughputs(node_counts, mac_phy: MacPhyParams,
                          backoff: BackoffParams) -> np.ndarray:
    """Per cell, the saturation throughput of an isolated cell with its
    node count: one single-cell solve per distinct count."""
    iso = {m: solve_single_cell(int(m), mac_phy, backoff).throughput_pkts
           for m in sorted(set(node_counts))}
    return np.array([iso[m] for m in node_counts])


def solve_fixed_point(inp: MulticellInput,
                      cfg: FixedPointConfig | None = None) -> MulticellSolution:
    """Solve the coupled attempt/collision fixed point of the network."""
    ss = enumerate_independent_sets(inp.graph)
    beta, (gamma, lam, act, rho, pi), it, resid, warnings = _fixed_point(
        inp, cfg, ss)
    x = unblocked_fraction(ss, pi)
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


def _fixed_point(inp: MulticellInput, cfg: FixedPointConfig | None,
                 ss: StateSpace):
    """The damped fixed point over an enumerated state space, then the
    multistart check: ``(beta, (gamma, lam, act, rho, pi), iterations,
    residual, warnings)``."""
    cfg = cfg or FixedPointConfig()
    n = np.asarray(inp.node_counts, dtype=float)
    slot = inp.mac_phy.slot_time
    t_s, t_c = frame_exchange_times(inp.mac_phy)

    if cfg.initial_beta is not None:
        if len(cfg.initial_beta) != inp.graph.size:
            raise ValueError("initial_beta length must match cell count")
        beta0 = np.asarray(cfg.initial_beta, dtype=float)
    else:
        beta0 = np.full(inp.graph.size, attempt_probability(0.0, inp.backoff))

    def step(beta):
        lam = activation_rate(beta, n, slot)
        act = mean_activity_time(beta, n, t_s, t_c)
        rho = lam * act
        pi = stationary_distribution(ss, rho)
        gamma = collision_probability(ss, pi, beta, n)
        return attempt_probability(gamma, inp.backoff), (gamma, lam, act, rho, pi)

    def solve(start):
        return damped_fixed_point(step, start, cfg.tolerance, cfg.damping,
                                  cfg.max_iterations, "multi-cell fixed point")

    beta, (gamma, lam, act, rho, pi), it, resid = solve(beta0)

    warnings = []
    if cfg.multistart and cfg.initial_beta is None:
        rng = np.random.Generator(np.random.Philox(7))
        for k in range(cfg.multistart):
            alt0 = rng.uniform(1e-3, 0.999, size=inp.graph.size)
            try:
                alt = solve(alt0)[0]
            except ConvergenceError:
                warnings.append(f"uniqueness start {k}: did not converge")
                continue
            gap = float(np.max(np.abs(alt - beta)))
            if gap > 100.0 * cfg.tolerance:
                warnings.append(
                    f"uniqueness start {k}: solutions differ by {gap:.3e}; "
                    f"fixed point may not be unique")

    return beta, (gamma, lam, act, rho, pi), it, resid, warnings


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
class InfiniteRhoLimit:
    """Limit of the unblocked fractions as all access intensities grow."""

    x: tuple[float, ...]
    normalized_network_throughput: float
    mis: MisStats


def infinite_rho_x(graph: ContentionGraph) -> InfiniteRhoLimit:
    """Unblocked fractions in the infinite-intensity limit.

    Mass concentrates on the maximum independent sets, uniformly, so cell
    i is unblocked in exactly the fraction of them it belongs to, and the
    normalized network throughput is the independence number.
    """
    stats = mis_stats(graph)
    # counting identity: every one of the `count` sets has max_size members
    assert sum(stats.per_cell) == stats.max_size * stats.count
    x = tuple(c / stats.count for c in stats.per_cell)
    return InfiniteRhoLimit(x=x, normalized_network_throughput=float(stats.max_size),
                            mis=stats)


@dataclass(frozen=True)
class SweepPoint:
    """One converged operating point of a payload sweep."""

    payload_bits: float
    beta: tuple[float, ...]
    rho: tuple[float, ...]
    x: tuple[float, ...]
    normalized_network_throughput: float


def payload_sweep(inp: MulticellInput, payload_bits_values,
                  cfg: FixedPointConfig | None = None) -> tuple[SweepPoint, ...]:
    """Re-solve the network at each payload size.

    Larger payloads stretch the activity times, raising every access
    intensity, so the network slides toward its infinite-intensity limit.
    The state space depends on the graph alone, so it is enumerated once;
    a point keeps no throughput, so no isolated cell is solved.
    """
    ss = enumerate_independent_sets(inp.graph)
    points = []
    for pb in payload_bits_values:
        mp = inp.mac_phy.with_payload(float(pb))
        beta, (*_, rho, pi), *_ = _fixed_point(
            MulticellInput(inp.graph, inp.node_counts, mp, inp.backoff), cfg, ss)
        x = unblocked_fraction(ss, pi)
        points.append(SweepPoint(
            payload_bits=float(pb), beta=tuple(beta), rho=tuple(rho),
            x=tuple(x), normalized_network_throughput=float(x.sum())))
    return tuple(points)
