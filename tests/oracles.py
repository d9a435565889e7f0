"""Independent reference implementations used only by the tests.

Everything here is deliberately written the dumb way (power sets, Horner
ladders, bisection, dense chains) so the package's vectorized code is
checked against structurally different math.
"""

import heapq
import itertools
import math
from bisect import bisect_right

import numpy as np
import scipy.sparse as sp


def index_of(state_space, members) -> int:
    """Index of the state whose members are ``members``, in any order."""
    return state_space.states.index(tuple(sorted(members)))


def independent_sets_powerset(cells, edges):
    """All independent sets by filtering the power set; sorted tuples."""
    edge_set = {frozenset(e) for e in edges}
    out = []
    for r in range(len(cells) + 1):
        for combo in itertools.combinations(sorted(cells), r):
            if all(frozenset(p) not in edge_set
                   for p in itertools.combinations(combo, 2)):
                out.append(tuple(combo))
    out.sort()
    return out


def mis_counts_powerset(cells, edges):
    """(alpha, count, per-cell dict) of maximum independent sets."""
    sets_ = independent_sets_powerset(cells, edges)
    alpha = max(len(s) for s in sets_)
    top = [s for s in sets_ if len(s) == alpha]
    per = {c: sum(1 for s in top if c in s) for c in sorted(cells)}
    return alpha, len(top), per


def service_rates_powerset(cells, edges, busy, model, rate):
    """Per-cell service rates when the cells flagged in ``busy`` (aligned
    with sorted ``cells``) have flows: model1 divides ``rate`` by one plus
    the busy-neighbor count, model2 scales the cell's maximum independent
    set share of the busy subgraph, counted by power-set filtering."""
    cells = sorted(cells)
    on = {c for c, b in zip(cells, busy) if b}
    out = np.zeros(len(cells))
    if model == "model1":
        for j, c in enumerate(cells):
            if c in on:
                nbrs = {q for e in edges if c in e for q in e} - {c}
                out[j] = rate / (1.0 + len(nbrs & on))
    elif on:
        sub_edges = [e for e in edges if set(e) <= on]
        _, cnt, per = mis_counts_powerset(sorted(on), sub_edges)
        for j, c in enumerate(cells):
            if c in on:
                out[j] = per[c] / cnt * rate
    return out


def random_graph(rng, n_cells, edge_prob):
    """Seeded Erdos-Renyi graph as (cells, edges) with ids 1..n_cells."""
    cells = list(range(1, n_cells + 1))
    edges = [(a, b) for a, b in itertools.combinations(cells, 2)
             if rng.random() < edge_prob]
    return cells, edges


def attempt_probability_horner(gamma, mean_backoffs):
    """G(gamma) with both polynomials evaluated by Horner's rule."""
    num = 0.0
    den = 0.0
    for b in reversed(mean_backoffs):
        num = num * gamma + 1.0
        den = den * gamma + b
    return num / den


def solve_single_cell_bisection(node_count, backoff, iters=200):
    """Root of G(1 - (1-beta)^(n-1)) = beta by bisection on [0, 1].

    The left side is increasing in beta and the right side is the
    identity; the difference is positive at 0 (G(0) = 1/b_0) and negative
    at 1 whenever G(1) < 1, so the bracket never fails for real ladders.
    """
    bs = backoff.mean_backoffs
    n = node_count

    def h(beta):
        gamma = 1.0 - (1.0 - beta) ** (n - 1)
        return attempt_probability_horner(gamma, bs) - beta

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stationary_direct(states, cells, rho):
    """Product-form stationary law by plain float products."""
    idx = {c: j for j, c in enumerate(cells)}
    w = np.array([math.prod(rho[idx[c]] for c in s) for s in states],
                 dtype=float)
    return w / w.sum()


def grid_graph(rows, cols):
    """``(cells, edges)`` of a rows x cols grid: cells 1.. in row-major
    order, an edge between 4-neighbors."""
    cells = list(range(1, rows * cols + 1))
    edges = [(c, c + 1) for c in cells if c % cols] + \
        [(c, c + cols) for c in cells[:-cols]]
    return cells, edges


def ladder_graph(n, by_rows):
    """``(cells, edges)`` of a 2 x n ladder, its cells numbered row by row
    or column by column."""
    cells = list(range(1, 2 * n + 1))
    if by_rows:
        return cells, [(c, c + 1) for c in cells if c % n] + \
            [(c, c + n) for c in range(1, n + 1)]
    return cells, [(c, c + 1) for c in cells if c % 2] + \
        [(c, c + 2) for c in range(1, 2 * n - 1)]


def grid_unblocked_by_rows(rows, cols, rho):
    """Unblocked fractions of a rows x cols grid (cells row-major, 4-
    neighbor edges) under the product-form law at ``rho``, by a transfer
    matrix over the independent sets of whole rows: x_i is the partition
    function with i's neighbors silenced over the full one.  Row by row,
    not cell by cell, and no state of the grid is listed."""
    rho = np.asarray(rho, dtype=float).reshape(rows, cols)
    patterns = [m for m in range(1 << cols) if not m & m >> 1]
    members = np.array([[m >> c & 1 for c in range(cols)]
                        for m in patterns], dtype=bool)
    fits = np.array([[not a & b for b in patterns] for a in patterns],
                    dtype=float)

    def partition(r):
        weight = np.where(members, r[:, None, :], 1.0).prod(axis=-1)
        carry = weight[0]
        for k in range(1, rows):
            carry = weight[k] * (fits @ carry)
        return carry.sum()

    z = partition(rho)
    x = np.empty(rows * cols)
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        muted = rho.copy()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < rows and 0 <= cc < cols:
                muted[rr, cc] = 0.0
        x[i] = partition(muted) / z
    return x


def grid_independent_sets(rows, cols):
    """The number of independent sets of a rows x cols grid, exactly: a
    row-transfer count over the independent patterns of one row, in
    Python ints (OEIS A006506 on square grids)."""
    patterns = [m for m in range(1 << cols) if not m & m >> 1]
    count = dict.fromkeys(patterns, 1)
    for _ in range(rows - 1):
        count = {b: sum(n for a, n in count.items() if not a & b)
                 for b in patterns}
    return sum(count.values())


def partition_function_bitmask(adjacency, order, weights):
    """Z per row of a (rows, cells) ``weights`` by a frontier DP over a
    table of all 2^f bitmasks of the frontier, f its size (zero where
    the mask is not independent), the walk over the cell columns
    ``order`` (column order if None).  The joining cell is the low bit,
    entered with its weight where no frontier neighbor is set; a cell
    whose neighbors are all in sums its bit out as without + with."""
    adj = np.asarray(adjacency, dtype=bool)
    order = list(range(len(adj))) if order is None else list(order)
    last = [max((q for q, d in enumerate(order) if adj[c, d]), default=-1)
            for c in order]
    w = np.ascontiguousarray(np.asarray(weights, dtype=float).T)
    table, frontier = np.ones((1, w.shape[1])), []
    with np.errstate(over="ignore", invalid="ignore"):
        for p, c in enumerate(order):
            nbits = sum(1 << i for i, q in enumerate(reversed(frontier))
                        if adj[c, order[q]])
            fits = np.flatnonzero(np.arange(len(table)) & nbits == 0)
            grown = np.zeros((len(table), 2, w.shape[1]))
            grown[:, 0] = table
            grown[fits, 1] = table[fits] * w[c]
            table = grown.reshape(-1, w.shape[1])
            frontier.append(p)
            for q in [q for q in frontier if last[q] <= p]:
                part = table.reshape(1 << frontier.index(q), 2, -1)
                table = (part[:, 0] + part[:, 1]).reshape(-1, w.shape[1])
                frontier.remove(q)
    return table[0]


def neighbors_direct(cells, edges):
    """{cell: set of adjacent cells}."""
    nbrs = {c: set() for c in cells}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def partition_direct(cells, edges, members):
    """(blocked, contending) cell sets while ``members`` transmit."""
    nbrs = neighbors_direct(cells, edges)
    blocked = set().union(*(nbrs[a] for a in members)) - set(members)
    return blocked, set(cells) - blocked - set(members)


def collision_direct(cells, edges, members, cell_id, beta, node_counts):
    """Per-state collision probability from first principles."""
    idx = {c: j for j, c in enumerate(sorted(cells))}
    contending = partition_direct(cells, edges, members)[1]
    silent = (1.0 - beta[idx[cell_id]]) ** (node_counts[idx[cell_id]] - 1)
    for q in neighbors_direct(cells, edges)[cell_id]:
        if q in contending:
            silent *= (1.0 - beta[idx[q]]) ** node_counts[idx[q]]
    return 1.0 - silent


def effective_rate_map_powerset(cells, edges, x, nu, ev, rate):
    """One application of the busy-averaged service-share map.

    Enumerates every busy subset of the other cells with itertools and
    counts maximum independent sets by power-set filtering; no pruning,
    no caching.
    """
    cells = sorted(cells)
    idx = {c: j for j, c in enumerate(cells)}
    p = [min(1.0, nu[idx[c]] * ev / (rate * x[idx[c]]))
         if x[idx[c]] > 0 else 1.0 for c in cells]
    out = []
    for c in cells:
        rest = [q for q in cells if q != c]
        acc = 0.0
        for r in range(len(rest) + 1):
            for busy in itertools.combinations(rest, r):
                w = 1.0
                for q in rest:
                    w *= p[idx[q]] if q in busy else 1.0 - p[idx[q]]
                if w == 0.0:
                    continue
                sub = set(busy) | {c}
                sub_edges = [e for e in edges if set(e) <= sub]
                _, cnt, per = mis_counts_powerset(sorted(sub), sub_edges)
                acc += w * per[c] / cnt
        out.append(acc)
    return np.array(out)


def exact_flow_delays(caps, nu, ev, rates_of_busy, step_tol=1e-14,
                      max_iters=300_000):
    """Stationary mean delays of coupled processor-sharing queues.

    With exponential sizes the occupancy vector is a Markov chain no
    matter the within-cell discipline, so the truncated chain's
    stationary law gives exact mean counts, and Little's law turns them
    into delays.  Returns (delays, truncation_mass): the latter bounds
    the bias from capping the queues and must be tiny for the delays to
    be trusted.

    ``rates_of_busy`` maps a busy/empty tuple of bools to per-cell
    service rates; uniformized power iteration solves the chain.
    """
    n = len(caps)
    dims = tuple(c + 1 for c in caps)
    size = int(np.prod(dims))
    strides = [int(np.prod(dims[j + 1:])) for j in range(n)]
    nu = np.asarray(nu, dtype=float)

    rate_of = {}
    for busy in itertools.product((False, True), repeat=n):
        rate_of[busy] = np.asarray(rates_of_busy(busy), dtype=float)

    rows, cols, vals = [], [], []
    for z in itertools.product(*(range(d) for d in dims)):
        i = sum(z[j] * strides[j] for j in range(n))
        phi = rate_of[tuple(c > 0 for c in z)]
        out = 0.0
        for j in range(n):
            if z[j] < caps[j] and nu[j] > 0.0:
                rows.append(i + strides[j])
                cols.append(i)
                vals.append(nu[j])
                out += nu[j]
            if z[j] > 0 and phi[j] > 0.0:
                mu = phi[j] / ev
                rows.append(i - strides[j])
                cols.append(i)
                vals.append(mu)
                out += mu
        rows.append(i)
        cols.append(i)
        vals.append(-out)
    gen = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))

    lam = float(nu.sum() + sum(r.max() for r in rate_of.values()) / ev + 1.0)
    pi = np.full(size, 1.0 / size)
    for _ in range(max_iters):
        step = gen.dot(pi) / lam
        pi = np.maximum(pi + step, 0.0)
        pi /= pi.sum()
        if np.abs(step).sum() < step_tol:
            break
    zgrid = np.indices(dims).reshape(n, -1)
    mean_counts = pi @ zgrid.T
    with np.errstate(divide="ignore", invalid="ignore"):
        delays = np.where(nu > 0.0, mean_counts / nu, np.nan)
    trunc = max(float(pi[zgrid[j] == caps[j]].sum()) for j in range(n))
    return delays, trunc


# draws per chunk of the simulators' random stream
SIM_CHUNK = 1 << 16


def detailed_balance_residual(state_space, pi, lam, mu):
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


def ctmc_reference(state_space, lam, mu, transitions, seed):
    """Holding time per state of the CTMC jump chain, one step at a time.

    Draws k uniforms then k exponentials per chunk of ``SIM_CHUNK`` steps, as
    ``simkit.simulate_ctmc`` does, and adds each holding time to its
    state as it happens.
    """
    cums, targets, inv_rate = [], [], []
    for s, members in enumerate(state_space.states):
        row_c, row_t, acc = [], [], 0.0
        for j, c in enumerate(state_space.cells):
            if state_space.contending_mask[s, j] and lam[j] > 0.0:
                acc += lam[j]
                row_c.append(acc)
                row_t.append(index_of(state_space, members + (c,)))
        for c in members:
            acc += mu[state_space.cells.index(c)]
            row_c.append(acc)
            row_t.append(index_of(state_space,
                                  tuple(m for m in members if m != c)))
        cums.append(row_c)
        targets.append(row_t)
        inv_rate.append(1.0 / acc)

    rng = np.random.Generator(np.random.Philox(seed))
    hold = [0.0] * len(state_space)
    s = 0
    done = 0
    while done < transitions:
        k = min(SIM_CHUNK, transitions - done)
        us = rng.random(k)
        es = rng.standard_exponential(k)
        for t in range(k):
            row = cums[s]
            hold[s] += es[t] * inv_rate[s]
            j = bisect_right(row, us[t] * row[-1])
            s = targets[s][min(j, len(row) - 1)]
        done += k
    return np.asarray(hold)


def slotted_reference(graph, node_counts, beta, t_success_slots,
                      t_collision_slots, horizon_slots, seed):
    """Raw counters of the slot-level simulation, every slot in turn.

    Draws one (k, 2n) block of uniforms per chunk of ``SIM_CHUNK`` slots, as
    ``simkit.simulate_slotted`` does; slot t of a chunk reads row t.
    Returns a dict of per-cell integer arrays.
    """
    n_cells = graph.size
    n = [int(m) for m in node_counts]
    b = [float(x) for x in beta]
    nbrs = [np.flatnonzero(row).tolist() for row in graph.adjacency]
    other_cum = []
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

    hold, backoff, blocked, active, a_tag, c_tag, succ = (
        [0] * n_cells for _ in range(7))
    rng = np.random.Generator(np.random.Philox(seed))
    attempts = [0] * n_cells
    done = 0
    while done < horizon_slots:
        k = min(SIM_CHUNK, horizon_slots - done)
        us = rng.random((k, 2 * n_cells))
        for t in range(k):
            row = us[t]
            contending = []
            for j in range(n_cells):
                if hold[j] > 0:
                    active[j] += 1
                    attempts[j] = 0
                elif any(hold[q] > 0 for q in nbrs[j]):
                    blocked[j] += 1
                    attempts[j] = 0
                else:
                    contending.append(j)
                    backoff[j] += 1
                    tagged = row[2 * j] < b[j]
                    others = bisect_right(other_cum[j], row[2 * j + 1])
                    attempts[j] = others + (1 if tagged else 0)
                    if tagged:
                        a_tag[j] += 1
            new_holds = []
            for j in contending:
                m = attempts[j]
                if m == 0:
                    continue
                clash = any(attempts[q] > 0 for q in nbrs[j])
                if m == 1 and not clash:
                    succ[j] += 1
                    new_holds.append((j, t_success_slots))
                else:
                    new_holds.append((j, t_collision_slots))
                if row[2 * j] < b[j] and (m > 1 or clash):
                    c_tag[j] += 1
            for j, h in new_holds:
                hold[j] = h + 1
            for j in range(n_cells):
                if hold[j] > 0:
                    hold[j] -= 1
        done += k
    return {"backoff_slots": np.asarray(backoff),
            "blocked_slots": np.asarray(blocked),
            "active_slots": np.asarray(active),
            "tagged_attempts": np.asarray(a_tag),
            "tagged_collisions": np.asarray(c_tag),
            "successes": np.asarray(succ)}


def flow_replication_reference(graph, params, cfg, rng, table):
    """One replication of the flow simulator, one event at a time.

    Takes each exponential by its own scalar ``rng.exponential`` call and
    rescans every cell on every event, as ``flows._simulate_once`` did
    before it drew in blocks; service rates come from ``table`` (a
    ``service_rate_table``).  Returns per-cell (mean delay, completed
    count, stable flag, effective busy rate).
    """
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


def fixed_point_from(inp, cfg, start, ss=None):
    """The coupled fixed point's beta, solved by one damped iteration from
    ``start`` on the 1-D kernels, under ``cfg``'s tolerance, damping and
    iteration cap.  Raises ConvergenceError if it does not settle."""
    from cellwlan.dcf import (attempt_probability, damped_fixed_point,
                              frame_exchange_times)
    from cellwlan.multicell import (activation_rate, collision_probability,
                                    mean_activity_time,
                                    stationary_distribution)
    from cellwlan.topology import enumerate_independent_sets

    ss = enumerate_independent_sets(inp.graph) if ss is None else ss
    n = np.asarray(inp.node_counts, dtype=float)
    t_s, t_c = frame_exchange_times(inp.mac_phy)

    def step(beta):
        rho = (activation_rate(beta, n, inp.mac_phy.slot_time)
               * mean_activity_time(beta, n, t_s, t_c))
        gamma = collision_probability(
            ss, stationary_distribution(ss, rho), beta, n)
        return attempt_probability(gamma, inp.backoff), None

    return damped_fixed_point(step, start, cfg.tolerance, cfg.damping,
                              cfg.max_iterations, "multi-cell fixed point")[0]


def fixed_point_sequential_probes(inp, cfg):
    """The coupled fixed point with its uniqueness probes as one damped
    solve per start, in start order, on the 1-D kernels:
    ``(beta, probe betas (None where a probe did not converge),
    warnings)``.  Raises ConvergenceError if the main solve does."""
    from cellwlan.dcf import ConvergenceError, attempt_probability
    from cellwlan.topology import enumerate_independent_sets

    ss = enumerate_independent_sets(inp.graph)

    def solve(start):
        return fixed_point_from(inp, cfg, start, ss)

    beta = solve(np.full(inp.graph.size,
                         attempt_probability(0.0, inp.backoff)))
    probes, warnings = [], []
    rng = np.random.Generator(np.random.Philox(7))
    for k in range(cfg.multistart):
        alt0 = rng.uniform(1e-3, 0.999, size=inp.graph.size)
        try:
            alt = solve(alt0)
        except ConvergenceError:
            probes.append(None)
            warnings.append(f"uniqueness start {k}: did not converge")
            continue
        probes.append(alt)
        gap = float(np.max(np.abs(alt - beta)))
        if gap > 100.0 * cfg.tolerance:
            warnings.append(
                f"uniqueness start {k}: solutions differ by {gap:.3e}; "
                f"fixed point may not be unique")
    return beta, probes, warnings


def collision_index_per_neighbor(state_space):
    """The collision index numbered one neighbor at a time: per cell, the
    contending states' codes are ranked after each neighbor's bit joins
    (first neighbor most significant), so they stay below the row count
    whatever the degree.  Returns ``(pattern, owner, neighbors)``, with
    ``pattern[s, j]`` the pattern of contending entry (s, j) and -1
    elsewhere."""
    cont, adj = state_space.contending_mask, state_space.adjacency
    pattern = np.full(cont.shape, -1, dtype=np.intp)
    owner, neighbors = [], []
    for j in range(len(state_space.cells)):
        rows = np.flatnonzero(cont[:, j])
        code = np.zeros(len(rows), dtype=np.intp)
        for k in np.flatnonzero(adj[j]):
            code = np.unique(2 * code + cont[rows, k], return_inverse=True)[1]
        _, first, code = np.unique(code, return_index=True,
                                   return_inverse=True)
        pattern[rows, j] = len(owner) + code
        owner += [j] * len(first)
        neighbors += list(cont[rows[first]] & adj[j])
    return (pattern, np.array(owner, dtype=np.intp),
            np.array(neighbors, dtype=bool).reshape(len(owner), len(adj)))


def collision_average_per_state(state_space, pi, beta, node_counts):
    """Per cell, the collision probability of each state in which it
    contends, from its contending neighbors' silence probabilities,
    averaged under ``pi`` state by state: no patterns."""
    cont, adj = state_space.contending_mask, state_space.adjacency
    miss, n = 1.0 - np.asarray(beta), np.asarray(node_counts, dtype=float)
    gamma = np.empty(len(adj))
    for j in range(len(adj)):
        silent = miss[j] ** (n[j] - 1.0) * np.where(
            cont[:, adj[j]], miss[adj[j]] ** n[adj[j]], 1.0).prod(axis=1)
        w = np.where(cont[:, j], pi, 0.0)
        gamma[j] = (w * (1.0 - silent)).sum() / w.sum()
    return gamma
