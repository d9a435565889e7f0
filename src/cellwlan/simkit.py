"""Stochastic cross-checks for the analytic model.

Two simulators live here.  ``simulate_ctmc`` runs the continuous-time
jump chain over the independent sets directly, with the analytic
activation and deactivation rates; its empirical occupancy should match
the product-form law.  ``simulate_slotted`` drops a level: cells attempt
per slot with given per-node probabilities, attempts in the same slot
collide, and busy periods hold the channel for integer numbers of slots.
Its counters give empirical attempt, collision and blocking statistics
that the analytic fixed point must reproduce.

Replay contract: every output field is a fixed function of the inputs
and the seed.  Both simulators draw from a counter-based generator
(Philox) in chunks of ``_CHUNK`` steps: the CTMC draws k uniforms and
then k exponentials per chunk, the slotted simulator one (k, 2n) block of
uniforms per chunk, where k is ``_CHUNK`` or the remainder.  How a chunk
is consumed is free to change as long as each step reads the same draw;
changing ``_CHUNK`` or the draw order changes every seed's output.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .topology import ContentionGraph, StateSpace

_CHUNK = 1 << 16
# Up to this many states the CTMC walk is resolved by composing jump
# tables; above it, by a plain per-step walk.  Composition does work per
# step in proportion to the state count, and stops paying at about 36.
_COMPOSE_MAX_STATES = 32
# CTMC steps per piece of a chunk: the walk's working arrays hold this many
_PIECE = 1 << 14


@dataclass
class CtmcRun:
    """Empirical occupancy of a simulated activation/deactivation chain."""

    seed: int
    transitions: int
    holding_time: np.ndarray      # per state, simulated seconds
    empirical_pi: np.ndarray
    empirical_x: np.ndarray       # per cell: active-or-contending fraction


def _whole(name: str, value) -> int:
    """``value`` as an int; it must be a whole number >= 1."""
    if not (isinstance(value, numbers.Real) and value >= 1
            and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number >= 1")
    return int(value)


def _cut_points(rows: list[list[float]]) -> list[list[float]]:
    """Per row of cumulative rates, for every entry but the last, the
    smallest double u with u * row[-1] >= row[i].

    ``bisect_right(row, u * row[-1])`` passes entry i exactly when u is at
    least this cut, so the cuts turn the jump into a lookup on u itself.
    The last entry needs none: the jump's index is clamped to it.
    """
    values = np.array([v for row in rows for v in row[:-1]], dtype=float)
    totals = np.repeat([row[-1] for row in rows], [len(row) - 1 for row in rows])
    u = values / totals
    while (high := u * totals >= values).any():
        u[high] = np.nextafter(u[high], -np.inf)
    while (low := u * totals < values).any():
        u[low] = np.nextafter(u[low], np.inf)
    flat = u.tolist()
    ends = np.cumsum([len(row) - 1 for row in rows]).tolist()
    return [flat[end - len(row) + 1:end] for row, end in zip(rows, ends)]


def _jump_table(cuts: list[list[float]], targets: list[list[int]]):
    """Merged cut points of all states, and ``table[r, s]``: the state
    after s when u falls in interval r (``searchsorted(edges, u, "right")``)."""
    edges = np.unique(np.concatenate([np.asarray(c, dtype=float) for c in cuts]))
    table = np.empty((len(edges) + 1, len(cuts)), dtype=np.intp)
    for s, (c, t) in enumerate(zip(cuts, targets)):
        table[0, s] = t[0]
        table[1:, s] = np.asarray(t)[np.searchsorted(c, edges, side="right")]
    return edges, table


def _compose_walk(edges: np.ndarray, table: np.ndarray, s: int,
                  us: np.ndarray, visited: np.ndarray) -> int:
    """Write the state before each step of a piece into ``visited``;
    return the state after the piece.

    The walk s_{t+1} = table[r_t, s_t] is resolved in three passes over
    blocks of about sqrt(k) / 2 steps: compose each block's jump maps on all
    states (vectorized across blocks), walk the block starts, then replay
    every block from its start in parallel.
    """
    n_states = table.shape[1]
    flat = table.ravel()
    k = len(us)
    block = max(1, math.isqrt(k) // 2)
    n_blocks = -(-k // block)
    rows = np.searchsorted(edges, us, side="right")
    if n_blocks * block > k:
        rows = np.concatenate((rows, np.zeros(n_blocks * block - k, dtype=rows.dtype)))
    rows *= n_states
    steps = rows.reshape(n_blocks, block)       # steps[b, t]: step t of block b
    maps = np.repeat(np.arange(n_states), n_blocks).reshape(n_states, n_blocks)
    for t in range(block):
        flat.take(np.add(steps[:, t], maps, out=maps), out=maps)
    cur = np.empty(n_blocks, dtype=np.intp)
    for b in range(n_blocks):
        cur[b] = s
        s = maps[s, b]
    replay = np.empty((n_blocks, block), dtype=np.intp)
    for t in range(block):
        replay[:, t] = cur
        flat.take(np.add(steps[:, t], cur, out=cur), out=cur)
    visited[:] = replay.ravel()[:k]
    return int(flat[rows[k - 1] + visited[-1]])


def _sequential_walk(cuts: list[list[float]], targets: list[list[int]],
                     s: int, us: np.ndarray, visited: np.ndarray) -> int:
    """The same walk as ``_compose_walk``, one step at a time."""
    out = [0] * len(us)
    for t, u in enumerate(us.tolist()):
        out[t] = s
        s = targets[s][bisect_right(cuts[s], u)]
    visited[:] = out
    return s


def simulate_ctmc(state_space: StateSpace, activation_rates, deactivation_rates,
                  transitions: int = 10_000_000, seed: int = 1) -> CtmcRun:
    """Simulate the jump chain over feasible states.

    From state A, each contending cell i activates at rate lam_i and each
    active cell deactivates at rate mu_i.  Holding times are sampled, so
    the occupancy estimate is a genuine trajectory average.

    The output is a fixed function of the inputs and the seed.  Per chunk
    of k = min(``_CHUNK``, steps left) steps the generator gives k
    uniforms, then k exponentials, and step t of the chunk reads uniform
    ``u[t]`` and exponential ``e[t]``.  In state A, with R the total rate
    out of A, the chain holds ``e[t] * (1 / R)``, then takes the
    transition at ``bisect_right(cum, u[t] * R)`` of A's cumulative rates
    (contending cells' activations in cell order, then members'
    deactivations in member order).  Holding times add up per state in
    step order, so the output is bit-for-bit that of the plain
    step-at-a-time loop.
    """
    lam = np.asarray(activation_rates, dtype=float)
    mu = np.asarray(deactivation_rates, dtype=float)
    n_states = len(state_space)
    if lam.shape != (len(state_space.cells),) or mu.shape != lam.shape:
        raise ValueError("need one activation and one deactivation rate per cell")
    if not math.isfinite(lam.sum() + mu.sum()):
        raise ValueError("rates must be finite")
    if np.any(lam < 0) or np.any(mu <= 0):
        raise ValueError("rates must be lam >= 0, mu > 0")
    transitions = _whole("transitions", transitions)

    # Per-state jump tables: cumulative rates, target state indices, and
    # the inverse total rate for holding times.
    cums: list[list[float]] = []
    targets: list[list[int]] = []
    inv_rate = np.empty(n_states)
    for s, members in enumerate(state_space.states):
        row_c, row_t, acc = [], [], 0.0
        for j, c in enumerate(state_space.cells):
            if state_space.contending_mask[s, j] and lam[j] > 0.0:
                acc += lam[j]
                row_c.append(acc)
                row_t.append(state_space.index_of(members + (c,)))
        for c in members:
            acc += mu[state_space.cell_column(c)]
            row_c.append(acc)
            row_t.append(state_space.index_of(tuple(m for m in members if m != c)))
        if not row_c:
            raise ValueError("absorbing state; no transitions available")
        cums.append(row_c)
        targets.append(row_t)
        inv_rate[s] = 1.0 / acc
    cuts = _cut_points(cums)

    if n_states <= _COMPOSE_MAX_STATES:
        edges, table = _jump_table(cuts, targets)

        def walk(s, us, visited):
            return _compose_walk(edges, table, s, us, visited)
    else:
        def walk(s, us, visited):
            return _sequential_walk(cuts, targets, s, us, visited)

    # The walk and the sums run over pieces of a chunk, which bounds the
    # working arrays.  bincount adds in index order, so with the running
    # totals put first each state's total is the same sequential sum as
    # hold[s] += e * (1 / R(s)).
    size = n_states + min(_PIECE, transitions)
    index = np.empty(size, dtype=np.intp)
    index[:n_states] = np.arange(n_states)
    weight = np.empty(size)
    rng = np.random.Generator(np.random.Philox(seed))
    hold = np.zeros(n_states)
    s = 0  # empty state
    done = 0
    while done < transitions:
        k = min(_CHUNK, transitions - done)
        us = rng.random(k)
        es = rng.standard_exponential(k)
        for lo in range(0, k, _PIECE):
            m = min(_PIECE, k - lo)
            visited = index[n_states:n_states + m]
            s = walk(s, us[lo:lo + m], visited)
            weight[:n_states] = hold
            w = weight[n_states:n_states + m]
            np.multiply(es[lo:lo + m], inv_rate.take(visited, out=w), out=w)
            hold = np.bincount(index[:n_states + m], weights=weight[:n_states + m],
                               minlength=n_states)
        done += k
        del us, es  # free this chunk's draws before the next are made

    pi_hat = hold / hold.sum()
    x_hat = pi_hat @ (~state_space.blocked_mask)
    return CtmcRun(seed=seed, transitions=transitions, holding_time=hold,
                   empirical_pi=pi_hat, empirical_x=x_hat)


def slots_for(duration: float, slot_time: float) -> int:
    """Duration as a whole number of slots, rounded up, at least 1."""
    if duration <= 0 or slot_time <= 0:
        raise ValueError("duration and slot_time must be > 0")
    return max(1, math.ceil(duration / slot_time - 1e-12))


@dataclass
class SlottedRun:
    """Counter set from a slot-level simulation.

    One tagged node per cell measures attempt/collision statistics
    (``tagged_attempts``, ``tagged_collisions``); ``backoff_slots`` counts
    the slots in which the cell was contending, so tagged_attempts /
    backoff_slots estimates the per-slot attempt probability.  Cell-level
    ``successes`` count delivered frames.
    """

    seed: int
    horizon_slots: int
    cells: tuple[int, ...]
    backoff_slots: np.ndarray
    blocked_slots: np.ndarray
    active_slots: np.ndarray
    tagged_attempts: np.ndarray
    tagged_collisions: np.ndarray
    successes: np.ndarray
    empirical_beta: np.ndarray
    empirical_gamma: np.ndarray
    empirical_x: np.ndarray
    throughput_pkts: np.ndarray | None  # None when no slot_time was given


def simulate_slotted(graph: ContentionGraph, node_counts, beta,
                     t_success_slots: int, t_collision_slots: int,
                     horizon_slots: int, seed: int = 1,
                     slot_time: float | None = None) -> SlottedRun:
    """Slot-synchronous simulation of coupled cells.

    Per slot, every node of every contending cell attempts independently
    with its cell's per-node probability.  A cell with at least one
    attempt seizes the channel for the next ``t_success_slots`` slots if
    the attempt was solitary (no cellmate, no attempt in any contending
    neighbor), else for ``t_collision_slots``.  Attempts only collide
    within their own slot; a cell neighboring an active cell is blocked
    and spends no backoff.  Holds start the slot after the attempt.

    The output is a fixed function of the inputs and the seed.  Per chunk
    of k = min(``_CHUNK``, slots left) slots the generator gives one
    (k, 2n) block of uniforms, and slot t of the chunk reads row t: for a
    contending cell j, entry 2j decides its tagged node (attempts when
    below beta_j) and entry 2j + 1 its number of attempting cellmates by
    inverse CDF.  A slot with no contending cell uses none of its row.
    """
    n_cells = graph.size
    n = [int(m) for m in node_counts]
    b = [float(x) for x in beta]
    if len(n) != n_cells or len(b) != n_cells:
        raise ValueError("need node_count and beta per cell")
    if min(n) < 1 or not all(0.0 <= x <= 1.0 for x in b):
        raise ValueError("need node counts >= 1 and beta in [0, 1]")
    t_success_slots = _whole("t_success_slots", t_success_slots)
    t_collision_slots = _whole("t_collision_slots", t_collision_slots)
    horizon_slots = _whole("horizon_slots", horizon_slots)

    cols = {c: j for j, c in enumerate(graph.cells)}
    nbrs = [sorted(cols[x] for x in graph.neighbors(c)) for c in graph.cells]

    # inverse CDF of the number of attempting cellmates, Binomial(n-1, beta)
    other_cum: list[list[float]] = []
    for j in range(n_cells):
        m = n[j] - 1
        pmf = [math.comb(m, k) * b[j] ** k * (1.0 - b[j]) ** (m - k)
               for k in range(m + 1)]
        cum, acc = [], 0.0
        for p in pmf:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        other_cum.append(cum)

    # The cells' roles (active, blocked, contending) stay as they are until
    # a hold runs out or a contending cell attempts, by its tagged node or
    # by at least one cellmate.  The slots up to that event are taken in
    # one step, and the per-cell slot counters are summed per mask of busy
    # cells at the end.
    roles: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def role(busy: int):
        """(active, blocked, contending) cells while ``busy`` holds."""
        got = roles.get(busy)
        if got is None:
            act = [j for j in range(n_cells) if busy >> j & 1]
            blk = [j for j in range(n_cells) if not busy >> j & 1
                   and any(busy >> q & 1 for q in nbrs[j])]
            cont = [j for j in range(n_cells) if j not in act and j not in blk]
            got = roles[busy] = (act, blk, cont)
        return got

    hold = [0] * n_cells           # slots left in the current hold
    busy = 0                       # mask of cells with hold > 0
    slots_in: dict[int, int] = {}  # busy mask -> slots spent in it
    a_tag = [0] * n_cells
    c_tag = [0] * n_cells
    succ = [0] * n_cells

    rng = np.random.Generator(np.random.Philox(seed))
    done = 0
    while done < horizon_slots:
        k = min(_CHUNK, horizon_slots - done)
        us = rng.random((k, 2 * n_cells))
        # fires[j][t] == 1 when cell j would attempt in slot t of the chunk
        fires = [((us[:, 2 * j] < b[j]) | (us[:, 2 * j + 1] >= other_cum[j][0])).tobytes()
                 for j in range(n_cells)]
        t = 0
        while t < k:
            act, _, cont = role(busy)
            nxt = k
            for j in act:
                nxt = min(nxt, t + hold[j])
            for j in cont:
                i = fires[j].find(1, t, nxt)
                if i >= 0:
                    nxt = i
            step = max(nxt - t, 1)
            slots_in[busy] = slots_in.get(busy, 0) + step
            for j in act:
                hold[j] -= step
                if not hold[j]:
                    busy ^= 1 << j
            if nxt == t:
                row = us[t].tolist()
                attempts = [0] * n_cells
                for j in cont:
                    tagged = row[2 * j] < b[j]
                    attempts[j] = bisect_right(other_cum[j], row[2 * j + 1]) + tagged
                    a_tag[j] += tagged
                # resolve every attempt against the same slot snapshot:
                # only contending cells have nonzero attempts, so the
                # clash check is symmetric regardless of processing order
                for j in cont:
                    m = attempts[j]
                    if m == 0:
                        continue
                    clash = any(attempts[q] for q in nbrs[j])
                    if m == 1 and not clash:
                        succ[j] += 1
                        hold[j] = t_success_slots
                    else:
                        hold[j] = t_collision_slots
                    busy |= 1 << j
                    if row[2 * j] < b[j] and (m > 1 or clash):
                        c_tag[j] += 1
            t += step
        done += k
        del us, fires  # free this chunk's draws before the next are made

    backoff = [0] * n_cells
    blocked = [0] * n_cells
    active = [0] * n_cells
    for mask, slots in slots_in.items():
        for counter, cells in zip((active, blocked, backoff), role(mask)):
            for j in cells:
                counter[j] += slots

    backoff_a = np.asarray(backoff, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta_hat = np.where(backoff_a > 0, np.asarray(a_tag) / backoff_a, np.nan)
        gamma_hat = np.where(np.asarray(a_tag) > 0,
                             np.asarray(c_tag) / np.maximum(a_tag, 1), np.nan)
    x_hat = 1.0 - np.asarray(blocked, dtype=float) / horizon_slots
    thpt = None
    if slot_time is not None:
        thpt = np.asarray(succ, dtype=float) / (horizon_slots * slot_time)
    return SlottedRun(
        seed=seed, horizon_slots=horizon_slots, cells=graph.cells,
        backoff_slots=np.asarray(backoff), blocked_slots=np.asarray(blocked),
        active_slots=np.asarray(active),
        tagged_attempts=np.asarray(a_tag), tagged_collisions=np.asarray(c_tag),
        successes=np.asarray(succ),
        empirical_beta=beta_hat, empirical_gamma=gamma_hat, empirical_x=x_hat,
        throughput_pkts=thpt)
