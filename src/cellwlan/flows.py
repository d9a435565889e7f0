"""Flow-level behavior: downloads arrive, share their cell, and leave.

Each cell's AP serves the cell's current downloads processor-sharing
style, but the rate it can serve at depends on which other cells have
work: contention couples the queues.  Two service models are provided.
Model 1 splits the single-cell rate evenly among a cell and its busy
neighbors.  Model 2 gives each busy cell the unblocked fraction it would
have in the infinite-intensity limit of the contention graph restricted
to busy cells; this captures cells that are starved outright.

A replicated event simulation measures per-flow sojourn times under
either model, and a fixed point over the cells' effective service rates
turns the same idea into closed-form mean delays.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .dcf import ConvergenceError
from .topology import ContentionGraph, mis_share_table, mis_stats, restrict


@dataclass(frozen=True)
class FlowParams:
    """Offered flow traffic and the cell service rate when alone.

    Flows arrive Poisson at ``arrival_rates[i]`` per second in cell i and
    have exponentially distributed sizes with mean ``mean_flow_size``
    (bits).  ``single_cell_rate`` is the rate (bits per second) a cell
    serves at when it is the only busy cell anywhere.
    """

    arrival_rates: tuple[float, ...]
    mean_flow_size: float
    single_cell_rate: float
    service_model: str = "model2"

    def __post_init__(self) -> None:
        if not all(r >= 0 for r in self.arrival_rates):  # NaN fails too
            raise ValueError("arrival rates must be >= 0")
        if self.mean_flow_size <= 0 or self.single_cell_rate <= 0:
            raise ValueError("mean_flow_size and single_cell_rate must be > 0")
        if self.service_model not in ("model1", "model2"):
            raise ValueError(f"unknown service model {self.service_model!r}")


@dataclass(frozen=True)
class NetworkState:
    """Snapshot of flows in progress, one count per cell."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")


def service_rates_model1(state: NetworkState, graph: ContentionGraph,
                         single_cell_rate: float) -> np.ndarray:
    """Equal split of the single-cell rate with busy neighbors.

    A busy cell with k busy neighbors serves at rate / (1 + k); an empty
    cell serves at zero.
    """
    counts = state.counts
    if len(counts) != graph.size:
        raise ValueError("need one count per cell")
    cols = {c: j for j, c in enumerate(graph.cells)}
    out = np.zeros(graph.size)
    for j, c in enumerate(graph.cells):
        if counts[j] == 0:
            continue
        busy_nbrs = sum(1 for q in graph.neighbors(c) if counts[cols[q]] > 0)
        out[j] = single_cell_rate / (1.0 + busy_nbrs)
    return out


def service_rates_model2(state: NetworkState, graph: ContentionGraph,
                         single_cell_rate: float) -> np.ndarray:
    """Topology-aware split: each busy cell gets its unblocked fraction in
    the infinite-intensity limit of the busy-cell subgraph.

    Unlike the equal split, this can starve a cell completely (rate zero)
    when it sits outside every maximum independent set of the busy
    subgraph.
    """
    counts = state.counts
    if len(counts) != graph.size:
        raise ValueError("need one count per cell")
    busy = [c for j, c in enumerate(graph.cells) if counts[j] > 0]
    out = np.zeros(graph.size)
    if not busy:
        return out
    sub = restrict(graph, busy)
    stats = mis_stats(sub)
    ratio = {c: stats.per_cell[k] / stats.count for k, c in enumerate(sub.cells)}
    for j, c in enumerate(graph.cells):
        if counts[j] > 0:
            out[j] = ratio[c] * single_cell_rate
    return out


def _rate_table(graph: ContentionGraph, params: FlowParams):
    """Memoized service rates keyed by the busy/empty pattern."""
    fn = service_rates_model1 if params.service_model == "model1" else service_rates_model2
    cache: dict[tuple[bool, ...], np.ndarray] = {}

    def rates(counts: tuple[int, ...]) -> np.ndarray:
        key = tuple(c > 0 for c in counts)
        got = cache.get(key)
        if got is None:
            got = fn(NetworkState(counts), graph, params.single_cell_rate)
            cache[key] = got
        return got

    return rates


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for the flow-level simulation."""

    rng_seed: int = 1
    flows_per_cell: int = 10_000
    warmup_flows: int = 1_000
    replications: int = 20
    runaway_threshold: int = 100_000


@dataclass
class DelayResult:
    """Per-cell mean flow delays with replication confidence intervals.

    ``mean_delay[i]`` is NaN when cell i recorded no flows.  ``stable``
    marks cells that completed their quota in every replication without
    tripping the runaway threshold; for analytic results it marks load
    strictly below one.
    """

    mean_delay: np.ndarray
    confidence_halfwidth: np.ndarray | None
    effective_rates: np.ndarray | None
    stable: np.ndarray
    completed: np.ndarray | None = None
    replications: int = 0


def _simulate_once(graph: ContentionGraph, params: FlowParams,
                   cfg: SimConfig, rng: np.random.Generator):
    """One replication.  Returns per-cell (mean delay, completed count,
    stable flag, effective busy rate)."""
    n = graph.size
    nu = np.asarray(params.arrival_rates, dtype=float)
    ev = params.mean_flow_size
    rates_of = _rate_table(graph, params)

    counts = [0] * n
    progress = [0.0] * n            # per-flow service received, bits
    pending: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    # pending[i]: heap of thresholds (progress at departure, arrival time)
    next_arrival = [rng.exponential(1.0 / nu[j]) if nu[j] > 0 else np.inf
                    for j in range(n)]
    target = [cfg.flows_per_cell if nu[j] > 0 else 0 for j in range(n)]
    seen = [0] * n                  # departures, including warmup
    dsum = [0.0] * n
    drec = [0] * n
    busy_time = [0.0] * n
    phi_int = [0.0] * n
    stable = [True] * n

    now = 0.0
    phi = rates_of(tuple(counts))
    while True:
        if all(drec[j] >= target[j] for j in range(n)):
            break
        # next event: earliest arrival or departure over all cells
        t_next = np.inf
        kind = None
        cell = -1
        for j in range(n):
            if next_arrival[j] < t_next:
                t_next, kind, cell = next_arrival[j], "arr", j
            if counts[j] > 0 and phi[j] > 0.0 and pending[j]:
                t_dep = now + (pending[j][0][0] - progress[j]) * counts[j] / phi[j]
                if t_dep < t_next:
                    t_next, kind, cell = t_dep, "dep", j
        if not np.isfinite(t_next):
            # nothing can ever happen again (starved cells only)
            for j in range(n):
                if drec[j] < target[j]:
                    stable[j] = False
            break
        dt = t_next - now
        for j in range(n):
            if counts[j] > 0:
                busy_time[j] += dt
                phi_int[j] += phi[j] * dt
                if phi[j] > 0.0:
                    progress[j] += phi[j] * dt / counts[j]
        now = t_next
        if kind == "arr":
            size = rng.exponential(ev)
            heapq.heappush(pending[cell], (progress[cell] + size, now))
            counts[cell] += 1
            next_arrival[cell] = now + rng.exponential(1.0 / nu[cell])
            if counts[cell] > cfg.runaway_threshold:
                stable[cell] = False
                break
        else:
            _, t_arr = heapq.heappop(pending[cell])
            counts[cell] -= 1
            seen[cell] += 1
            if seen[cell] > cfg.warmup_flows and drec[cell] < target[cell]:
                dsum[cell] += now - t_arr
                drec[cell] += 1
        phi = rates_of(tuple(counts))

    for j in range(n):
        if drec[j] < target[j]:
            stable[j] = False
    mean = np.array([dsum[j] / drec[j] if drec[j] else np.nan for j in range(n)])
    eff = np.array([phi_int[j] / busy_time[j] if busy_time[j] > 0 else np.nan
                    for j in range(n)])
    return mean, np.array(drec), np.array(stable), eff


def simulate_flow_network(graph: ContentionGraph, params: FlowParams,
                          cfg: SimConfig | None = None) -> DelayResult:
    """Replicated flow-level simulation under the chosen service model.

    Each replication runs until every cell with arrivals has recorded its
    quota of post-warmup flow delays, or a queue passes the runaway
    threshold (the replication is then cut short and the affected cells
    marked unstable).
    """
    cfg = cfg or SimConfig()
    if len(params.arrival_rates) != graph.size:
        raise ValueError("need one arrival rate per cell")
    n = graph.size
    if all(r == 0 for r in params.arrival_rates):
        return DelayResult(mean_delay=np.full(n, np.nan),
                           confidence_halfwidth=None,
                           effective_rates=None,
                           stable=np.ones(n, dtype=bool),
                           completed=np.zeros(n, dtype=int),
                           replications=0)

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
    means, compl, stab, effs = [], [], [], []
    for ss in seeds:
        rng = np.random.Generator(np.random.Philox(ss))
        m, c, s, e = _simulate_once(graph, params, cfg, rng)
        means.append(m)
        compl.append(c)
        stab.append(s)
        effs.append(e)
    means_a = np.vstack(means)
    # cells with no arrivals stay all-NaN; keep the reductions silent
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grand = np.nanmean(means_a, axis=0)
        eff = np.nanmean(np.vstack(effs), axis=0)
        if cfg.replications > 1:
            sd = np.nanstd(means_a, axis=0, ddof=1)
            # the t quantile; scipy.special loads far faster than scipy.stats
            from scipy.special import stdtrit
            tq = stdtrit(cfg.replications - 1, 0.975)
            half = tq * sd / np.sqrt(cfg.replications)
        else:
            half = np.full(n, np.nan)
    return DelayResult(mean_delay=grand, confidence_halfwidth=half,
                       effective_rates=eff,
                       stable=np.vstack(stab).all(axis=0),
                       completed=np.vstack(compl).sum(axis=0),
                       replications=cfg.replications)


MAX_FIXED_POINT_CELLS = 20


@dataclass
class EffectiveRateResult:
    """Converged effective-rate fractions and the loads they imply."""

    x_hat: np.ndarray
    effective_rates: np.ndarray
    loads: np.ndarray
    stable: np.ndarray
    iterations: int
    residual: float


def effective_rate_fixed_point(graph: ContentionGraph, params: FlowParams,
                               tolerance: float = 1e-8, damping: float = 0.5,
                               max_iterations: int = 5000) -> EffectiveRateResult:
    """Solve for the long-run fraction of the single-cell rate each cell
    gets, averaging the busy-subgraph split over who is busy.

    Cell j is treated as busy independently with probability
    p_j = min(1, nu_j E[V] / (x_j rate)); for each busy set the cell's share
    is its maximum-independent-set fraction in the induced subgraph.  The
    shares of all 2^n busy sets come from one ``mis_share_table``; each
    iteration weighs them by their Bernoulli probabilities given that cell
    j is busy, so time and memory grow as 2^n n.  Graphs beyond
    MAX_FIXED_POINT_CELLS cells are refused.  Raises ConvergenceError when
    the damped iteration has not met the tolerance after
    ``max_iterations`` steps.
    """
    n = graph.size
    if n > MAX_FIXED_POINT_CELLS:
        raise ValueError(f"{n} cells; the fixed point tabulates all 2^n busy "
                         f"sets and is capped at {MAX_FIXED_POINT_CELLS} cells")
    nu = np.asarray(params.arrival_rates, dtype=float)
    if nu.shape != (n,):
        raise ValueError("need one arrival rate per cell")
    work = nu * params.mean_flow_size / params.single_cell_rate  # load if x = 1
    share = mis_share_table(graph)
    w = np.empty_like(share)
    own = np.eye(n, dtype=bool)

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            p = np.minimum(1.0, np.where(x > 0, work / np.where(x > 0, x, 1.0),
                                         np.inf))
        q = np.maximum(0.0, 1.0 - p)
        # w[mask, j]: probability that exactly the cells of mask are busy,
        # given that cell j is; built by doubling over the cells, cell o
        # weighing (idle, busy) by (q_o, p_o) in every column but its own,
        # by (0, 1) in its own
        idle = np.where(own, 0.0, q[:, None])
        busy = np.where(own, 1.0, p[:, None])
        w[0] = 1.0
        for o in range(n):
            half = 1 << o
            np.multiply(w[:half], busy[o], out=w[half:2 * half])
            w[:half] *= idle[o]
        return np.einsum("ij,ij->j", w, share)

    x = np.ones(n)
    resid = np.inf
    for it in range(1, max_iterations + 1):
        target = f(x)
        resid = float(np.max(np.abs(target - x)))
        x = (1.0 - damping) * x + damping * target
        if resid <= tolerance:
            break
    else:
        raise ConvergenceError(
            f"effective-rate fixed point: residual {resid:.3e} "
            f"> tol {tolerance:.1e} after {max_iterations} iterations")
    with np.errstate(divide="ignore"):
        loads = np.where(x > 0, work / np.where(x > 0, x, 1.0), np.inf)
    return EffectiveRateResult(x_hat=x, effective_rates=x * params.single_cell_rate,
                               loads=loads, stable=loads < 1.0,
                               iterations=it, residual=resid)


def mean_delay_analytic(x_hat, params: FlowParams) -> DelayResult:
    """Closed-form mean delays treating each cell as an M/M/1-PS queue at
    its effective rate; NaN and unstable where the load reaches one."""
    x = np.asarray(x_hat, dtype=float)
    nu = np.asarray(params.arrival_rates, dtype=float)
    rate = x * params.single_cell_rate
    with np.errstate(divide="ignore", invalid="ignore"):
        base = params.mean_flow_size / rate
        load = nu * params.mean_flow_size / rate
        delay = np.where((load < 1.0) & (rate > 0), base / (1.0 - load), np.nan)
    return DelayResult(mean_delay=delay, confidence_halfwidth=None,
                       effective_rates=rate, stable=(load < 1.0) & (rate > 0))
