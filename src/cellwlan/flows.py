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
from .topology import ContentionGraph, mis_share_table


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
        if not (0 < self.mean_flow_size < np.inf
                and 0 < self.single_cell_rate < np.inf):   # NaN fails too
            raise ValueError("mean_flow_size and single_cell_rate must be "
                             "finite and > 0")
        if self.service_model not in ("model1", "model2"):
            raise ValueError(f"unknown service model {self.service_model!r}")


MAX_FIXED_POINT_CELLS = 20


def service_rate_table(graph: ContentionGraph, model: str,
                       single_cell_rate: float) -> np.ndarray:
    """Service rates of every busy pattern under one service model.

    ``table[mask, j]`` is the rate of cell ``cells[j]`` when exactly the
    cells of ``mask`` (bit j for cell j) have flows in progress, and 0
    when j is not in ``mask``.  Under ``model1`` a busy cell with k busy
    neighbors serves at single_cell_rate / (1 + k).  Under ``model2`` it
    serves at its maximum-independent-set share of the busy subgraph, so
    a cell outside every maximum independent set is starved outright.
    Both depend on the busy pattern only, so the 2^n x n table holds the
    whole model; graphs beyond MAX_FIXED_POINT_CELLS cells are refused.
    """
    n = graph.size
    if n > MAX_FIXED_POINT_CELLS:
        raise ValueError(f"{n} cells; the table of all 2^n busy patterns is "
                         f"capped at {MAX_FIXED_POINT_CELLS} cells")
    if model == "model2":
        return mis_share_table(graph) * single_cell_rate
    if model != "model1":
        raise ValueError(f"unknown service model {model!r}")
    busy = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(float)
    adj = np.array([[q in graph.neighbors(c) for q in graph.cells]
                    for c in graph.cells], dtype=float)
    # busy @ adj counts each cell's busy neighbors, exactly in float64
    return np.where(busy > 0, single_cell_rate / (1.0 + busy @ adj), 0.0)


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for the flow-level simulation."""

    rng_seed: int = 1
    flows_per_cell: int = 10_000
    warmup_flows: int = 1_000
    replications: int = 20
    runaway_threshold: int = 100_000

    def __post_init__(self) -> None:
        if min(self.replications, self.flows_per_cell,
               self.runaway_threshold) < 1:
            raise ValueError("replications, flows_per_cell and "
                             "runaway_threshold must be >= 1")
        if min(self.warmup_flows, self.rng_seed) < 0:
            raise ValueError("warmup_flows and rng_seed must be >= 0")


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
                   cfg: SimConfig, rng: np.random.Generator,
                   table: np.ndarray):
    """One replication, with service rates from ``table`` (a
    ``service_rate_table``).  Returns per-cell (mean delay, completed
    count, stable flag, effective busy rate)."""
    n = graph.size
    nu = np.asarray(params.arrival_rates, dtype=float)
    ev = params.mean_flow_size

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
    busy = 0                        # bit j set while cell j has flows
    phi = table[busy].tolist()
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
            break           # nothing can ever happen again (starved cells)
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
        if (counts[cell] > 0) != (busy >> cell & 1):
            busy ^= 1 << cell       # the cell became busy or idle
            phi = table[busy].tolist()

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
    # no randomness in the rates: one table serves every replication
    table = service_rate_table(graph, params.service_model,
                               params.single_cell_rate)
    if all(r == 0 for r in params.arrival_rates):
        return DelayResult(mean_delay=np.full(n, np.nan),
                           confidence_halfwidth=None,
                           effective_rates=None,
                           stable=np.ones(n, dtype=bool),
                           completed=np.zeros(n, dtype=int),
                           replications=0)

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
    runs = [_simulate_once(graph, params, cfg,
                           np.random.Generator(np.random.Philox(ss)), table)
            for ss in seeds]
    means_a, compl, stab, effs = (np.vstack(r) for r in zip(*runs))
    # cells with no arrivals stay all-NaN; keep the reductions silent
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grand = np.nanmean(means_a, axis=0)
        eff = np.nanmean(effs, axis=0)
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
                       stable=stab.all(axis=0), completed=compl.sum(axis=0),
                       replications=cfg.replications)


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
    shares of all 2^n busy sets come from one ``service_rate_table`` of
    ``model2`` at unit rate, whatever ``params.service_model`` says; each
    iteration weighs them by their Bernoulli probabilities given that cell
    j is busy, so time and memory grow as 2^n n.  Graphs beyond
    MAX_FIXED_POINT_CELLS cells are refused.  Raises ConvergenceError when
    the damped iteration has not met the tolerance after
    ``max_iterations`` steps.
    """
    n = graph.size
    share = service_rate_table(graph, "model2", 1.0)
    nu = np.asarray(params.arrival_rates, dtype=float)
    if nu.shape != (n,):
        raise ValueError("need one arrival rate per cell")
    work = nu * params.mean_flow_size / params.single_cell_rate  # load if x = 1
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
