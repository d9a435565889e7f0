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

from .dcf import (BackoffParams, MacPhyParams, _attempt, _slot_outcomes,
                  _whole, _within, damped_fixed_point, frame_exchange_times,
                  solve_single_cell)
from .topology import (STATE_CAP, ContentionGraph, FrontierPlan, StateSpace,
                       StateSpaceCapError, bfs_order,
                       enumerate_independent_sets, frontier_plan,
                       frontier_steps, frontier_width)

# a batch of fixed-point rows holds at most this many floats in each of its
# arrays, 8 MB: (row, state) floats of an enumerated law, (row, zero-set,
# table entry) floats of a frontier DP
_BATCH_STATES = 1 << 20
# _law's choice, measured on solves at multistart 3, one BLAS thread: the
# DP and enumeration break even at about one state per unit of DP work
# (3x6 grid at 1.05 and a sparse 16-cell graph at 1.09: the DP 1.1-1.2x
# faster; 4x5 grid at 1.51: 1.6x; a sparse 15-cell graph at 0.86: 0.77x;
# 4x4 grid at 0.59: 0.66x).  Below about 2^10 states both cost mostly
# per-call overhead (a 14-cell chain, 987 states at 4.9: the DP 0.8-0.9x;
# a 16-cell chain, 2,584 states: 1.2x); enumeration keeps such networks'
# outputs as they were.
_DP_FACTOR = 1
_DP_MIN_STATES = 1 << 10


def activation_rate(beta, node_count, slot_time):
    """Rate at which a contending cell grabs the channel.

    Per backoff slot the cell attempts with probability 1 - (1-beta)^n, so
    the time to activation is geometric with that success probability.
    Accepts scalars or arrays.
    """
    p_idle, _, _ = _slot_outcomes(np.asarray(beta, dtype=float),
                                  np.asarray(node_count, dtype=float))
    return (1.0 - p_idle) / slot_time


def mean_activity_time(beta, node_count, t_success, t_collision):
    """Mean duration of one channel occupancy by the cell.

    An activation is a success when exactly one of the cell's n nodes
    attempted in the activating slot.  beta -> 0 degenerates to a sure
    success.  Accepts scalars or arrays.
    """
    p_idle, _, p_succ = _slot_outcomes(np.asarray(beta, dtype=float),
                                       np.asarray(node_count, dtype=float))
    return _activity_time(1.0 - p_idle, p_succ, t_success, t_collision)


def _activity_time(p_any, p_succ, t_success, t_collision):
    """``mean_activity_time`` from the chances that any one, and exactly
    one, of the cell's nodes attempts in a slot."""
    busy = p_any > 0.0
    p_succ = np.where(busy, p_succ / np.where(busy, p_any, 1.0), 1.0)
    return p_succ * t_success + (1.0 - p_succ) * t_collision


def _rho_ok(rho) -> None:
    if not _within(rho, 0.0, np.finfo(float).max):
        raise ValueError(f"rho = {rho} must be finite and >= 0")


def _beta_ok(beta) -> None:
    if not _within(beta, 0.0, 1.0):
        raise ValueError(f"beta = {beta} outside [0, 1]")


def _shaped(name: str, value: np.ndarray, shape: tuple) -> None:
    """ValueError naming ``name`` unless ``value`` has ``shape``."""
    if value.shape != shape:
        raise ValueError(f"{name} has shape {value.shape}; need {shape}")


def _rows(name: str, value: np.ndarray, width: int, what: str) -> None:
    """ValueError naming ``name`` unless ``value`` is one row or rows of
    ``width`` entries."""
    if value.ndim not in (1, 2) or value.shape[-1] != width:
        raise ValueError(f"{name} has shape {value.shape}; need one {what} "
                         f"({width}) in each of one or more rows")


def stationary_distribution(state_space: StateSpace, rho) -> np.ndarray:
    """Product-form stationary law over the independent sets.

    pi(A) is proportional to the product of the access intensities of the
    members of A.  Computed in log space so extreme intensities stay
    finite.  A (rows, cells) ``rho`` gives one law per row: one gemv per
    row (a matrix product's rows are not bit-equal to it).
    """
    rho = np.asarray(rho, dtype=float)
    _rows("rho", rho, len(state_space.cells), "access intensity per cell")
    _rho_ok(rho)
    silent = rho == 0.0
    # 0 * -inf is nan, so keep the products finite and kill the states
    # that contain a silent cell afterwards
    log_rho = np.log(np.where(silent, 1.0, rho)).reshape(-1, rho.shape[-1])
    logw = np.empty((len(log_rho), len(state_space)))
    for row, out in zip(log_rho, logw):
        np.dot(state_space.active_float, row, out=out)
    logw = logw.reshape(rho.shape[:-1] + (-1,))
    if silent.any():
        logw[silent @ state_space.active_float.T > 0.0] = -np.inf
    logw -= np.maximum.reduce(logw, axis=-1, keepdims=True)
    w = np.exp(logw, out=logw)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
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
    as many rows as ``_row_columns`` stacks, adding every bin in state
    order as a call per row would.
    """
    pi, beta, n = (np.asarray(v, dtype=float) for v in (pi, beta, node_counts))
    cells = len(state_space.cells)
    _rows("pi", pi, len(state_space), "probability per state")
    _shaped("beta", beta, pi.shape[:-1] + (cells,))
    _shaped("node_counts", n, (cells,))
    idle, lone, _ = _slot_outcomes(beta, n)
    return _collision_average(state_space, pi, beta, idle, lone, _row_columns(
        state_space, pi.size // len(state_space)))


def _row_columns(state_space: StateSpace, rows: int):
    """The row-offset bins of the collision average's sums over ``rows``
    rows: each entry's pattern, for as many rows as one ``np.bincount``
    takes (2^16 entries, at most 64 rows), and each pattern's owner."""
    idx, cells = state_space.collision_index, len(state_space.cells)
    stack = min(rows, 64, max(1, (1 << 16) // max(1, len(idx.column))))
    pattern = idx.column + len(idx.owner) * np.arange(stack)[:, None] \
        if stack > 1 else idx.column[None]    # one row: no copy
    return pattern, (idx.owner + cells * np.arange(rows)[:, None]).ravel()


def _collision_average(state_space: StateSpace, pi, beta, idle, lone,
                       columns):
    """``collision_probability`` given each cell's (1-beta)^n (``idle``)
    and (1-beta)^(n-1) (``lone``), and ``_row_columns`` of >= pi's rows."""
    _beta_ok(beta)
    idx, cells = state_space.collision_index, len(state_space.cells)
    # each pattern's neighbors' idle chances, multiplied in column order as
    # a product over all cells would; the padding column reads 1
    padded = np.concatenate((idle, np.ones(idle.shape[:-1] + (1,))), axis=-1)
    silent = lone[..., idx.owner] * np.multiply.reduce(
        padded[..., idx.beside], axis=-1)
    rows, (pattern, owner) = pi.reshape(-1, len(idx.counts)), columns
    stack, owner = len(pattern), owner[:len(rows) * len(idx.owner)]
    mass = np.concatenate([np.bincount(
        pattern[:len(part)].ravel(),
        weights=np.repeat(part, idx.counts, axis=1).ravel(),
        minlength=len(part) * len(idx.owner))
        for part in (rows[r:r + stack] for r in range(0, len(rows), stack))])
    num = np.bincount(owner, weights=mass * (1.0 - silent).ravel(),
                      minlength=len(rows) * cells)
    den = np.bincount(owner, weights=mass, minlength=len(rows) * cells)
    # every cell contends in the empty state, so den >= pi(empty) > 0
    # unless the law underflows there
    if not 0.0 < np.minimum.reduce(den, initial=np.inf):
        raise ValueError("access intensities too large: the stationary law "
                         "underflows to 0 where a cell contends")
    return (num / den).reshape(pi.shape[:-1] + (cells,))


def unblocked_fraction(state_space: StateSpace, pi) -> np.ndarray:
    """Fraction of time each cell is active or contending (not frozen)."""
    pi = np.asarray(pi, dtype=float)
    _rows("pi", pi, len(state_space), "probability per state")
    return pi @ (~state_space.blocked_mask)


def partition_function(steps, weights) -> np.ndarray:
    """Z = sum over the independent sets A of prod_{i in A} w_i per row
    of a (rows, cells) ``weights``, by a frontier DP over ``steps``
    (``topology.frontier_steps``) on an (entries, rows) table: a cell
    joins by appending its compatible entries times its weight, and a
    frontier cell leaves by adding each entry with it to its partner
    without it.  No state is listed and no matrix product taken, so no
    BLAS thread count changes a result; an overflow gives a Z that is not
    finite.  Python-int weights (an object array) give an exact Z."""
    w = np.asarray(weights)
    w = np.ascontiguousarray(w.T, dtype=np.result_type(w, float))
    table = np.ones((1, w.shape[1]), dtype=w.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for cell, compatible, drops in steps:
            table = np.concatenate((table, table[compatible] * w[cell]))
            for keep, into, taken in drops:
                folded = table[keep]
                folded[into] += table[taken]
                table = folded
    return table[0]


def frontier_law(plan: FrontierPlan, rho, beta, node_counts):
    """``unblocked_fraction`` and ``collision_probability`` at ``rho``, per
    row, by a frontier DP: x_i = Z(rho, N(i) zeroed) / Z(rho).  With
    s_k = (1-beta_k)^n_k, every contending neighbor of cell j stays
    silent with chance sum over T in N(j) of prod_{k in T} (s_k - 1)
    Z(rho, N[j] + N[T] zeroed) / Z(rho, N[j] zeroed)."""
    rho, beta, n = (np.asarray(v, dtype=float) for v in (rho, beta, node_counts))
    cells = plan.keep.shape[1]
    _rows("rho", rho, cells, "access intensity per cell")
    _shaped("beta", beta, rho.shape)
    _shaped("node_counts", n, (cells,))
    idle, lone, _ = _slot_outcomes(beta, n)
    return _frontier(plan, rho, beta, idle, lone)


def _frontier(plan: FrontierPlan, rho, beta, idle, lone):
    """``frontier_law`` given each cell's (1-beta)^n (``idle``) and
    (1-beta)^(n-1) (``lone``)."""
    _rho_ok(rho)
    _beta_ok(beta)
    rows = rho.reshape(-1, 1, plan.keep.shape[1])
    z = partition_function(plan.steps, (rows * plan.keep).reshape(
        -1, rows.shape[-1])).reshape(len(rows), -1)
    # zeroing cells only lowers Z, and the empty set keeps every Z >= 1
    if not np.isfinite(z[:, 0]).all():
        raise ValueError("access intensities too large: the partition "
                         "function overflows")
    coef = np.where(plan.term_members,
                    (idle - 1.0).reshape(len(z), 1, -1), 1.0).prod(-1)
    silent = np.add.reduceat(coef * z[:, plan.term_set], plan.term_start,
                             axis=1) / z[:, plan.term_set[plan.term_start]]
    # near beta = 1 the signed sum can round a few ulps outside [0, 1]
    np.clip(silent, 0.0, 1.0, out=silent)
    return ((z[:, plan.x_set] / z[:, :1]).reshape(beta.shape),
            1.0 - lone * silent.reshape(beta.shape))


@dataclass(frozen=True)
class MulticellInput:
    """A contention graph with per-cell node counts and shared MAC/PHY."""

    graph: ContentionGraph
    node_counts: tuple[int, ...]
    mac_phy: MacPhyParams
    backoff: BackoffParams

    def __post_init__(self) -> None:
        if not self.graph.size:
            raise ValueError("a network needs at least one cell")
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
    A setting out of range, NaN included, raises ValueError naming it.
    """

    tolerance: float = 1e-8
    damping: float = 0.5
    max_iterations: int = 5000
    multistart: int = 3

    def __post_init__(self) -> None:
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, not {self.tolerance}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], not {self.damping}")
        for name, low in (("max_iterations", 1), ("multistart", 0)):
            object.__setattr__(self, name,
                               _whole(name, getattr(self, name), low))


@dataclass
class MulticellSolution:
    """Converged network operating point, with the number of states of
    the product-form law it was read from."""

    graph: ContentionGraph
    node_counts: tuple[int, ...]
    beta: np.ndarray
    gamma: np.ndarray
    activation_rates: np.ndarray
    mean_activities: np.ndarray
    rho: np.ndarray
    x: np.ndarray
    cell_throughput_pkts: np.ndarray
    per_node_throughput_pkts: np.ndarray
    isolated_throughput_pkts: np.ndarray    # per cell, alone in the network
    normalized_network_throughput: float
    residual: float
    iterations: int
    state_count: int
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
    states, *_ = law = _law(inp.graph, inp.node_counts)
    [(beta, (gamma, lam, act, rho), x, it, resid, warnings)] = \
        _fixed_point(inp, [inp.mac_phy.payload_bits], cfg, law)
    iso = _isolated_throughputs(inp.node_counts, inp.mac_phy, inp.backoff)
    cell_thpt = x * iso
    return MulticellSolution(
        graph=inp.graph, node_counts=inp.node_counts,
        beta=beta, gamma=gamma, activation_rates=lam, mean_activities=act,
        rho=rho, x=x,
        cell_throughput_pkts=cell_thpt,
        per_node_throughput_pkts=cell_thpt / np.asarray(inp.node_counts),
        isolated_throughput_pkts=iso,
        normalized_network_throughput=float(x.sum()),
        residual=resid, iterations=it, state_count=states,
        warnings=tuple(warnings))


def _law(graph: ContentionGraph, node_counts):
    """``(state count, floats per fixed-point row, gamma for up to r rows:
    a function of (rows, cells) rho, beta, (1-beta)^n and (1-beta)^(n-1),
    x of one rho)`` of ``graph``'s law.  A frontier DP where the state
    count exceeds ``STATE_CAP``, or ``_DP_MIN_STATES`` and ``_DP_FACTOR``
    times the DP's work per row: at most 1 + cells + sum of 2^degree
    zero-sets, times the walk's largest table.  The walk takes the cells
    in id order, or in ``bfs_order`` where that is strictly narrower, and
    stops once a table passes the batch budget.  That work and the bound
    2^cells can settle it before the states are counted; else a one-row
    DP in Python ints counts them exactly.  Enumeration elsewhere,
    without a walk where 2^cells is at most ``_DP_MIN_STATES``."""
    n, steps = np.asarray(node_counts, dtype=float), None
    if 1 << graph.size > _DP_MIN_STATES:
        # min keeps the first of equal widths: id order
        _, order = min(((frontier_width(graph, o), o) for o in (
            None, bfs_order(graph))), key=lambda wo: wo[0])
        zero_sets = 1 + graph.size + sum(
            1 << int(d) for d in graph.adjacency.sum(axis=1))
        steps = frontier_steps(graph, order, _BATCH_STATES // zero_sets)
    if steps is not None:
        # the largest table is a join's, which the first fold after it reads
        widest = max(len(d[0][0]) + len(d[0][2]) for _, _, d in steps if d)
        bound = min(max(_DP_FACTOR * zero_sets * widest, _DP_MIN_STATES),
                    STATE_CAP)
        if 1 << graph.size > bound:
            states = partition_function(steps, np.ones(
                (1, graph.size), dtype=object))[0]
            if states > float(np.finfo(float).max):
                raise StateSpaceCapError(f"graph with {graph.size} cells has "
                                         f"too many independent sets to "
                                         f"count")
            if states > bound:
                plan = frontier_plan(graph, steps)
                # x: no beta
                return (states, len(plan.keep) * widest,
                        lambda r: lambda rho, beta, idle, lone: _frontier(
                            plan, rho, beta, idle, lone)[1],
                        lambda rho: frontier_law(plan, rho, 0.0 * rho, n)[0])
    try:
        ss = enumerate_independent_sets(graph)
    except StateSpaceCapError as e:
        if 1 << graph.size <= _DP_MIN_STATES:
            raise
        raise StateSpaceCapError(f"{e}; a frontier DP would hold more than "
                                 f"{_BATCH_STATES} floats per row") from None

    def gamma_for(r):
        columns = _row_columns(ss, r)
        return lambda rho, beta, idle, lone: _collision_average(
            ss, stationary_distribution(ss, rho), beta, idle, lone, columns)
    return (len(ss), len(ss), gamma_for, lambda rho: unblocked_fraction(
        ss, stationary_distribution(ss, rho)))


def _step(inp: MulticellInput, gamma_for, times):
    """The fixed point's step on a ``_law``'s ``gamma_for``, prepared once
    per batch: ``step(beta, rows)`` maps rows of beta, row r at the frame
    times ``times[r]``, to G(gamma) and the (rows, 4, cells) aux of gamma,
    activation rate, mean activity time and rho, each row bit for bit
    what the public kernels give; the per-slot outcomes are shared."""
    n, slot = np.asarray(inp.node_counts, dtype=float), inp.mac_phy.slot_time
    attempt, gamma_of = _attempt(inp.backoff), gamma_for(len(times))

    def step(beta, rows):
        t = times[rows]
        idle, lone, p_succ = _slot_outcomes(beta, n)
        p_any = 1.0 - idle
        lam = p_any / slot
        act = _activity_time(p_any, p_succ, t[:, :1], t[:, 1:])
        rho = lam * act
        gamma = gamma_of(rho, beta, idle, lone)
        return attempt(gamma), np.array((gamma, lam, act, rho)).swapaxes(0, 1)
    return step


def _fixed_point(inp: MulticellInput, payloads, cfg: FixedPointConfig | None,
                 law):
    """The damped fixed point on ``_law``'s ``law`` at each payload size,
    with its multistart check: per point, ``(beta, (gamma, lam, act, rho)
    as one (4, cells) array, x, iterations, residual, warnings)``.  Each
    point's main row, then its probe rows, are rows of batched damped
    iterations within the budget; the first point whose main row does not
    settle raises ConvergenceError."""
    cfg = cfg or FixedPointConfig()
    _, row_floats, gamma_for, unblocked = law
    k = 1 + cfg.multistart
    main = np.arange(k * len(payloads)) % k == 0
    times = np.repeat([frame_exchange_times(inp.mac_phy.with_payload(pb))
                       for pb in payloads], k, axis=0)
    probes = np.random.Generator(np.random.Philox(7)).uniform(
        1e-3, 0.999, size=(cfg.multistart, inp.graph.size))
    beta0 = np.full((1, inp.graph.size), _attempt(inp.backoff)(0.0))
    x0 = np.tile(np.vstack([beta0, probes]), (len(payloads), 1))
    per_batch = max(1, _BATCH_STATES // row_floats)
    betas, auxes = np.empty_like(x0), np.empty((len(x0), 4, inp.graph.size))
    its, resids = np.empty(len(x0), dtype=int), np.empty(len(x0))
    for first in range(0, len(x0), per_batch):
        chunk = slice(first, first + per_batch)
        betas[chunk], auxes[chunk], its[chunk], resids[chunk] = \
            damped_fixed_point(_step(inp, gamma_for, times[chunk]), x0[chunk],
                               cfg.tolerance, cfg.damping, cfg.max_iterations,
                               "multi-cell fixed point", main[chunk])
    points = []
    for m in range(0, len(x0), k):
        warnings = []
        for j, r in enumerate(range(m + 1, m + k)):
            gap = float(np.max(np.abs(betas[r] - betas[m])))
            if not resids[r] <= cfg.tolerance:
                warnings.append(f"uniqueness start {j}: did not converge")
            elif gap > 100.0 * cfg.tolerance:
                warnings.append(f"uniqueness start {j}: solutions differ by "
                                f"{gap:.3e}; fixed point may not be unique")
        # x from the main row's law at its last step
        points.append((betas[m], auxes[m], unblocked(auxes[m, -1]),
                       int(its[m]), float(resids[m]), warnings))
    return points


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
    The law's method depends on the graph alone, so it is chosen (and the
    states enumerated, or the DP planned) once; a point keeps no
    throughput, so no isolated cell is solved.
    """
    payloads = [float(pb) for pb in payload_bits_values]
    return tuple(SweepPoint(
        payload_bits=pb, beta=tuple(beta), rho=tuple(rho), x=tuple(x),
        normalized_network_throughput=float(x.sum()), warnings=tuple(warnings))
        for pb, (beta, (*_, rho), x, _, _, warnings)
        in zip(payloads, _fixed_point(inp, payloads, cfg,
                                      _law(inp.graph, inp.node_counts))))
