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

Replay contract: every field of a simulated ``DelayResult`` is a fixed
function of the inputs and ``SimConfig.rng_seed``.  The seed spawns one
Philox generator per replication, and a replication reads nothing from
it but standard exponentials, taken in blocks of ``_DRAWS`` and consumed
in a fixed order (see ``_simulate_once``).  A block holds the same values
as that many scalar draws, so the block size does not change the output;
changing the draw order, the scaling or the order of the sums does.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dcf import damped_fixed_point
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
    # busy @ adjacency counts each cell's busy neighbors, exactly in float64
    return np.where(busy > 0, single_cell_rate
                    / (1.0 + busy @ graph.adjacency.astype(float)), 0.0)


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


# bound on a flow simulation's estimated events, run at about 1e6 a second
MAX_SIM_EVENTS = 1e9
# standard exponentials per block of a replication's random stream
_DRAWS = 1 << 12


def _exponentials(rng: np.random.Generator):
    """The generator's standard exponentials one at a time, drawn in
    blocks of ``_DRAWS``; the same values, in the same order, as one
    scalar draw after another."""
    while True:
        yield from rng.standard_exponential(_DRAWS).tolist()


def _simulate_once(graph: ContentionGraph, params: FlowParams,
                   cfg: SimConfig, rng: np.random.Generator,
                   table: np.ndarray):
    """One replication, with service rates from ``table`` (a
    ``service_rate_table``).  Returns per-cell (mean delay, completed
    count, stable flag, effective busy rate).

    Replay contract: ``rng`` gives one stream of standard exponentials.
    The replication takes one inter-arrival time per cell with arrivals,
    in cell order, then on each arrival the flow's size and the cell's
    next inter-arrival time, scaling each by its mean (E[V] or 1/nu_j).
    The next event is the earliest arrival or departure, ties going to
    the first of arrival 0, departure 0, arrival 1, ...  Service received
    per flow, busy time and rate integrals add up event by event, so the
    output is bit for bit that of a loop taking one scalar draw per
    exponential (``tests/oracles.py``).
    """
    n = graph.size
    nu = [float(r) for r in params.arrival_rates]
    ev = float(params.mean_flow_size)
    scale = [1.0 / r if r > 0 else math.inf for r in nu]
    draw = _exponentials(rng).__next__
    quota = cfg.flows_per_cell
    warmup = cfg.warmup_flows
    runaway = cfg.runaway_threshold

    counts = [0] * n
    progress = [0.0] * n            # per-flow service received, bits
    pending: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    # pending[i]: heap of thresholds (progress at departure, arrival time)
    next_arrival = [draw() * scale[j] if nu[j] > 0 else math.inf
                    for j in range(n)]
    target = [quota if nu[j] > 0 else 0 for j in range(n)]
    short = sum(t > 0 for t in target)  # cells still short of their quota
    seen = [0] * n                  # departures, including warmup
    dsum = [0.0] * n
    drec = [0] * n
    busy_time = [0.0] * n
    phi_int = [0.0] * n
    stable = [True] * n

    # per busy mask: the busy cells that are served, with their rates,
    # and the busy cells that are starved
    rows: dict[int, tuple[list[tuple[int, float]], list[int]]] = {}
    serving: list[tuple[int, float]] = []
    starved: list[int] = []
    now = 0.0
    busy = 0                        # bit j set while cell j has flows
    while short:
        # next event: earliest arrival or departure over all cells
        t_next = min(next_arrival)
        cell = next_arrival.index(t_next)
        departs = False
        for j, p in serving:
            t_dep = now + (pending[j][0][0] - progress[j]) * counts[j] / p
            if t_dep < t_next or (t_dep == t_next and j < cell
                                  and not departs):
                t_next, cell, departs = t_dep, j, True
        if t_next == math.inf:
            # no flow in progress, and every arrival time overflowed to inf
            break
        dt = t_next - now
        for j, p in serving:
            w = p * dt
            busy_time[j] += dt
            phi_int[j] += w
            progress[j] += w / counts[j]
        for j in starved:           # phi_int gains 0.0 and progress stalls
            busy_time[j] += dt
        now = t_next
        if departs:
            t_arr = heapq.heappop(pending[cell])[1]
            counts[cell] -= 1
            seen[cell] += 1
            if seen[cell] > warmup and drec[cell] < quota:
                dsum[cell] += now - t_arr
                drec[cell] += 1
                if drec[cell] == quota:
                    short -= 1
            flips = counts[cell] == 0
        else:
            heapq.heappush(pending[cell], (progress[cell] + draw() * ev, now))
            counts[cell] += 1
            next_arrival[cell] = now + draw() * scale[cell]
            if counts[cell] > runaway:
                stable[cell] = False
                break
            flips = counts[cell] == 1
        if flips:                   # the cell became busy or idle
            busy ^= 1 << cell
            if busy not in rows:
                phi = table[busy].tolist()
                rows[busy] = ([(j, p) for j, p in enumerate(phi) if p > 0.0],
                              [j for j, p in enumerate(phi)
                               if busy >> j & 1 and p == 0.0])
            serving, starved = rows[busy]

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
    marked unstable).  Raises ValueError when the run would take more than
    MAX_SIM_EVENTS events by estimate (a tiny arrival rate beside others).
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

    # two events per flow, sum(nu) / min(nu) flows per flow of the slowest
    live = [r for r in params.arrival_rates if r > 0]
    events = (2.0 * cfg.replications * (cfg.warmup_flows + cfg.flows_per_cell)
              * sum(live) / min(live))
    if not events <= MAX_SIM_EVENTS:
        raise ValueError(f"flow simulation would take about {events:.1e} "
                         f"events, over the bound of {MAX_SIM_EVENTS:.0e}; "
                         f"the slowest cell sets every replication's length")
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

    def step(x: np.ndarray):
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
        return np.einsum("ij,ij->j", w, share), None

    x, _, it, resid = damped_fixed_point(step, np.ones(n), tolerance, damping,
                                         max_iterations, "effective-rate fixed point")
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
