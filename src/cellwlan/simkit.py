"""Stochastic cross-checks for the analytic model.

Two simulators live here.  ``simulate_ctmc`` runs the continuous-time
jump chain over the independent sets directly, with the analytic
activation and deactivation rates; its empirical occupancy should match
the product-form law.  ``simulate_slotted`` drops a level: cells attempt
per slot with given per-node probabilities, attempts in the same slot
collide, and busy periods hold the channel for integer numbers of slots.
Its counters give empirical attempt, collision and blocking statistics
that the analytic fixed point must reproduce.

Both run at a small cost per step.  The CTMC finds each draw's jump
interval in a table of ``_BUCKETS`` equal buckets of [0, 1), searching
only the draws in a bucket that holds a cut point, and on up to
``_COMPOSE_MAX_STATES`` states it composes jump maps over blocks of
steps, two steps at a time where the table of step pairs fits
``_PAIR_ENTRIES``.  The slotted simulator goes from event to event (an
attempt or the end of a hold): it keeps each hold's end slot, finds each
cell's next attempt slot in the cell's byte string of the chunk and
keeps it until it is passed, and draws attempt counts only for the
cells that attempt.

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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dcf import _whole
from .multicell import unblocked_fraction
from .topology import ContentionGraph, StateSpace

_CHUNK = 1 << 16
# Up to this many states the CTMC walk is resolved by composing jump
# tables; above it, by a plain per-step walk.  Composition does work per
# step in proportion to the state count.  Per chunk, interleaved medians
# on seeded 5-8-cell graphs: the per-step walk takes 1.9x as long as
# composition at 32 states, 1.3-1.5x at 48, 1.1-1.4x at 52 and 0.9-1.0x
# at 56-64.
_COMPOSE_MAX_STATES = 48
# A draw u finds its jump-table interval through one of this many equal
# buckets of [0, 1); a power of two, so u * _BUCKETS is exact.
_BUCKETS = 1 << 12
# Steps are composed two at a time where the table of step pairs
# (intervals^2 x states entries, 8 bytes each) holds at most this many
# entries.  On 6-cell graphs with 22 and 24 states (81,862 and 127,896
# entries) pairs make a 300,000-step run 1.3-1.4x as fast, with a
# traced peak of 2.28 and 2.65 MB.
_PAIR_ENTRIES = 1 << 17


@dataclass
class CtmcRun:
    """Empirical occupancy of a simulated activation/deactivation chain."""

    seed: int
    transitions: int
    holding_time: np.ndarray      # per state, simulated seconds
    empirical_pi: np.ndarray
    empirical_x: np.ndarray       # per cell: active-or-contending fraction


def _cut_points(cum: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """For flat rows of cumulative rates (row r ends before ``ends[r]``),
    at every entry but a row's last the smallest double u with
    u * total >= cum[i], total being the row's last entry; inf at the last.

    ``bisect_right(row, u * total)`` passes entry i exactly when u is at
    least this cut, so the cuts turn the jump into a lookup on u itself.
    The last entry's inf is never passed, which clamps the jump to it.
    """
    totals = np.repeat(cum[ends - 1], np.diff(ends, prepend=0))
    u = cum / totals
    while (high := u * totals >= cum).any():
        u[high] = np.nextafter(u[high], -np.inf)
    while (low := u * totals < cum).any():
        u[low] = np.nextafter(u[low], np.inf)
    u[ends - 1] = np.inf
    return u


def _jump_table(cuts: np.ndarray, targets: np.ndarray, ends: np.ndarray):
    """Merged cut points of all states, and ``table[r, s]``: the state
    after s when u falls in interval r (``searchsorted(edges, u, "right")``)."""
    edges = np.unique(cuts)[:-1]        # every row ends in the same inf
    table = np.empty((len(edges) + 1, len(ends)), dtype=np.intp)
    for s, (a, b) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
        table[0, s] = targets[a]
        table[1:, s] = targets[a:b][np.searchsorted(cuts[a:b], edges, side="right")]
    return edges, table


def _bucket_lookup(edges: np.ndarray, scale: int) -> np.ndarray:
    """Per bucket [b, b + 1) / ``_BUCKETS`` of [0, 1): ``scale`` times the
    number of edges below b / ``_BUCKETS`` where the bucket holds no edge,
    so every u in it has that interval; -1 where it holds one."""
    below = np.searchsorted(edges, np.arange(_BUCKETS + 1) / _BUCKETS)
    lookup = below[:-1] * scale
    lookup[below[1:] > below[:-1]] = -1
    return lookup


def _intervals(edges: np.ndarray, lookup: np.ndarray, scale: int,
               us: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``scale * searchsorted(edges, us, side="right")`` into ``out``
    by ``_bucket_lookup``; only draws in a bucket that holds an edge are
    searched."""
    # u * _BUCKETS is exact and >= 0, so the cast to int is its floor
    np.multiply(us, _BUCKETS, out=out, casting="unsafe")
    lookup.take(out, out=out, mode="clip")
    mixed = np.flatnonzero(out < 0)
    out[mixed] = np.searchsorted(edges, us[mixed], side="right") * scale
    return out


def _compose_walk(edges: np.ndarray, lookup: np.ndarray, tables, s: int,
                  us: np.ndarray, visited: np.ndarray) -> int:
    """Write the state before each step of a chunk into ``visited``;
    return the state after the chunk.  The draws ``us`` are spent on the
    way, and their buffer is reused as scratch.

    ``tables`` is ``(table,)`` or ``(table, pairs)``, with
    ``pairs[r1, r2, s] = table[r2, table[r1, s]]`` the state two steps
    on.  With pairs the walk moves two steps at a time (a chunk of one
    step, one), one gather gives the states in between, and an odd
    chunk's last step is taken on its own.  The walk over moves is resolved in three passes over blocks of
    about sqrt(moves) / 3 of them (85 single steps of a full chunk; a
    power-of-two block, read column by column, is slower): compose each
    block's maps on all states (vectorized across blocks), walk the block
    starts, then replay every block from its start in parallel.
    """
    table = tables[0]
    n_intervals, n_states = table.shape
    k = len(us)
    w = len(tables) if k > 1 else 1            # steps per move
    flat, wide = table.ravel(), tables[w - 1].ravel()
    rows = _intervals(edges, lookup, n_states, us, visited)
    h = k // w                                  # moves
    last = w * h - 1                            # the last step they make
    tail = rows[last:].tolist()
    block = max(1, math.isqrt(h) // 3)
    n_blocks = -(-h // block)
    padded = n_blocks * block
    # the draws are spent: their buffer holds each move's offset into
    # ``wide``, then the state before it
    codes = us.view(np.intp) if padded <= k else np.empty(padded, np.intp)
    if w == 2:
        np.multiply(rows[0:2 * h:2], n_intervals, out=codes[:h])
        codes[:h] += rows[1:2 * h:2]
    else:
        codes[:h] = rows
    codes[h:padded] = 0
    steps = codes[:padded].reshape(n_blocks, block)  # [b, t]: move t of block b
    maps = np.repeat(np.arange(n_states), n_blocks).reshape(n_states, n_blocks)
    # every index is in range: mode="clip" only spares take a copy of out
    for t in range(block):
        wide.take(np.add(steps[:, t], maps, out=maps), out=maps, mode="clip")
    cur = np.empty(n_blocks, dtype=np.intp)
    for b in range(n_blocks):
        cur[b] = s
        s = maps[s, b]
    nxt = np.empty_like(cur)
    for t in range(block):
        move = steps[:, t]
        wide.take(np.add(move, cur, out=nxt), out=nxt, mode="clip")
        move[:] = cur
        cur, nxt = nxt, cur
    if w == 2:
        between = np.add(visited[0:2 * h:2], codes[:h], out=codes[h:2 * h])
        flat.take(between, out=between, mode="clip")
        visited[1:2 * h:2] = between
        visited[0:2 * h:2] = codes[:h]
    else:
        visited[:] = codes[:k]
    s = int(visited[last])
    for j, r in enumerate(tail, last):
        if j > last:
            visited[j] = s
        s = int(flat[r + s])
    return s


def _sequential_walk(cuts: list[float], targets: list[int], ends: list[int],
                     s: int, us: np.ndarray, visited: np.ndarray) -> int:
    """The same walk as ``_compose_walk``, one step at a time, on the flat
    jump rows (state s's row ends before ``ends[s]``)."""
    starts = [0] + ends[:-1]
    out = [0] * len(us)
    for t, u in enumerate(us.tolist()):
        out[t] = s
        s = targets[bisect_right(cuts, u, starts[s], ends[s])]
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
    seed = _whole("seed", seed, 0)

    # Per-state jump rows, flat: cut points, target state indices, and the
    # inverse total rate for holding times.  Columns are the moves in jump
    # order; cumsum adds along a row left to right, and the 0.0 of a move
    # that is not there leaves the running sum as it is.
    moves = np.hstack((state_space.contending_mask & (lam > 0.0),
                       state_space.active_mask))
    if not moves.any(axis=1).all():
        raise ValueError("absorbing state; no transitions available")
    cum = np.where(moves, np.concatenate((lam, mu)), 0.0)
    np.cumsum(cum, axis=1, out=cum)
    inv_rate = 1.0 / cum[:, -1]
    ends = np.cumsum(moves.sum(axis=1))
    cuts = _cut_points(cum[moves], ends)
    targets = np.hstack((state_space.toggle_index,) * 2)[moves]
    del moves, cum  # the walk needs only the flat rows

    if n_states <= _COMPOSE_MAX_STATES:
        edges, table = _jump_table(cuts, targets, ends)
        lookup = _bucket_lookup(edges, n_states)
        tables = (table,)
        if table.size * len(table) <= _PAIR_ENTRIES:
            # [r1, r2, s]: table[r2, table[r1, s]]
            tables += (table[np.arange(len(table))[:, None], table[:, None]],)

        def walk(s, us, visited):
            return _compose_walk(edges, lookup, tables, s, us, visited)
    else:
        cuts, targets, ends = cuts.tolist(), targets.tolist(), ends.tolist()

        def walk(s, us, visited):
            return _sequential_walk(cuts, targets, ends, s, us, visited)

    rng = np.random.Generator(np.random.Philox(seed))
    hold = np.zeros(n_states)
    s = 0  # empty state
    done = 0
    # one buffer takes a chunk's uniforms, which the walk spends, then its
    # exponentials
    draws = np.empty(min(_CHUNK, transitions))
    visited = np.empty(len(draws), dtype=np.intp)
    while done < transitions:
        k = min(_CHUNK, transitions - done)
        s = walk(s, rng.random(out=draws[:k]), visited[:k])
        es = rng.standard_exponential(out=draws[:k])
        es *= inv_rate[visited[:k]]
        # add.at adds one step at a time in step order, so each state's
        # total is the same sequential sum as hold[s] += e * (1 / R(s))
        np.add.at(hold, visited[:k], es)
        done += k

    pi_hat = hold / hold.sum()
    return CtmcRun(seed=seed, transitions=transitions, holding_time=hold,
                   empirical_pi=pi_hat,
                   empirical_x=unblocked_fraction(state_space, pi_hat))


def slots_for(duration: float, slot_time: float) -> int:
    """Duration as a whole number of slots, rounded up, at least 1.
    ValueError naming both unless both are finite and > 0 (NaN fails
    too) with a finite ratio."""
    if not (0 < duration < math.inf and 0 < slot_time < math.inf
            and duration / slot_time < math.inf):
        raise ValueError(f"duration and slot_time must be finite and > 0, "
                         f"with a finite ratio; not {duration} and "
                         f"{slot_time}")
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


def simulate_slotted(graph: ContentionGraph, node_counts, beta,
                     t_success_slots: int, t_collision_slots: int,
                     horizon_slots: int, seed: int = 1) -> SlottedRun:
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
    n = [_whole("node_counts", m) for m in node_counts]
    b = [float(x) for x in beta]
    if len(n) != n_cells or len(b) != n_cells:
        raise ValueError("need node_count and beta per cell")
    if not all(0.0 <= x <= 1.0 for x in b):
        raise ValueError("need beta in [0, 1]")
    t_success_slots = _whole("t_success_slots", t_success_slots)
    t_collision_slots = _whole("t_collision_slots", t_collision_slots)
    horizon_slots = _whole("horizon_slots", horizon_slots)
    seed = _whole("seed", seed, 0)

    nbrs = [np.flatnonzero(row).tolist() for row in graph.adjacency]

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
    # by at least one cellmate.  The slots up to and including that event
    # are taken in one step, and the per-cell slot counters are summed per
    # mask of busy cells at the end.
    roles: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def role(busy: int):
        """(active, blocked, contending) cells while ``busy`` holds, kept
        in ``roles``."""
        act = [j for j in range(n_cells) if busy >> j & 1]
        blk = [j for j in range(n_cells) if not busy >> j & 1
               and any(busy >> q & 1 for q in nbrs[j])]
        cont = [j for j in range(n_cells) if j not in act and j not in blk]
        roles[busy] = (act, blk, cont)
        return roles[busy]

    nbr_mask = [sum(1 << q for q in row) for row in nbrs]
    end = [0] * n_cells            # slot of the chunk at which a hold ends
    busy = 0                       # mask of cells in a hold
    slots_in: dict[int, int] = {}  # busy mask -> slots spent in it
    a_tag = [0] * n_cells
    c_tag = [0] * n_cells
    succ = [0] * n_cells

    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.empty((min(_CHUNK, horizon_slots), 2 * n_cells))
    done = 0
    while done < horizon_slots:
        k = min(_CHUNK, horizon_slots - done)
        us = rng.random(out=draws[:k])
        # fires[j][t] == 1 when cell j would attempt in slot t of the chunk
        fires = [((us[:, 2 * j] < b[j]) | (us[:, 2 * j + 1] >= other_cum[j][0])).tobytes()
                 for j in range(n_cells)]
        # each cell's first attempt slot at or after the slot it was looked
        # up from (k: none left in the chunk), looked up again once passed
        first = [-1] * n_cells
        t = 0
        while t < k:
            act, _, cont = roles.get(busy) or role(busy)
            nxt = k
            for j in act:
                if end[j] < nxt:
                    nxt = end[j]
            at, attempting = nxt, 0
            for j in cont:
                i = first[j]
                if i < t:
                    i = fires[j].find(1, t)
                    i = first[j] = i if i >= 0 else k
                if i <= at:
                    if i < at:
                        at, attempting = i, 0
                    attempting |= 1 << j
            # the slots up to the event, and the attempt slot itself, are
            # spent in this mask; holds that run out end the step
            step_end = at + 1 if at < nxt else nxt
            slots_in[busy] = slots_in.get(busy, 0) + step_end - t
            t = step_end
            for j in act:
                if end[j] == t:
                    busy ^= 1 << j
            if at == nxt:
                continue
            row = us[at].tolist()
            for j in cont:
                if not attempting >> j & 1:
                    continue
                tagged = row[2 * j] < b[j]
                m = bisect_right(other_cum[j], row[2 * j + 1]) + tagged
                a_tag[j] += tagged
                if m == 1 and not nbr_mask[j] & attempting:
                    succ[j] += 1
                    end[j] = t + t_success_slots
                else:
                    end[j] = t + t_collision_slots
                    c_tag[j] += tagged
            busy |= attempting
        done += k
        end = [e - k for e in end]
        del fires  # free this chunk's attempt slots before the next are built

    backoff = [0] * n_cells
    blocked = [0] * n_cells
    active = [0] * n_cells
    for mask, slots in slots_in.items():
        for counter, cells in zip((active, blocked, backoff), roles[mask]):
            for j in cells:
                counter[j] += slots

    backoff_a = np.asarray(backoff, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta_hat = np.where(backoff_a > 0, np.asarray(a_tag) / backoff_a, np.nan)
        gamma_hat = np.where(np.asarray(a_tag) > 0,
                             np.asarray(c_tag) / np.maximum(a_tag, 1), np.nan)
    x_hat = 1.0 - np.asarray(blocked, dtype=float) / horizon_slots
    return SlottedRun(
        seed=seed, horizon_slots=horizon_slots, cells=graph.cells,
        backoff_slots=np.asarray(backoff), blocked_slots=np.asarray(blocked),
        active_slots=np.asarray(active),
        tagged_attempts=np.asarray(a_tag), tagged_collisions=np.asarray(c_tag),
        successes=np.asarray(succ),
        empirical_beta=beta_hat, empirical_gamma=gamma_hat, empirical_x=x_hat)
