"""Independent reference implementations used only by the tests.

Everything here is deliberately written the dumb way (power sets, Horner
ladders, bisection, dense chains) so the package's vectorized code is
checked against structurally different math.
"""

import itertools
import math
from bisect import bisect_right

import numpy as np
import scipy.sparse as sp


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


def collision_direct(cells, edges, members, cell_id, beta, node_counts):
    """Per-state collision probability from first principles."""
    idx = {c: j for j, c in enumerate(sorted(cells))}
    nbrs = {c: set() for c in cells}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    blocked = set()
    for a in members:
        blocked |= nbrs[a]
    blocked -= set(members)
    silent = (1.0 - beta[idx[cell_id]]) ** (node_counts[idx[cell_id]] - 1)
    for q in nbrs[cell_id]:
        if q not in members and q not in blocked:
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
                row_t.append(state_space.index_of(members + (c,)))
        for c in members:
            acc += mu[state_space.cell_column(c)]
            row_c.append(acc)
            row_t.append(state_space.index_of(tuple(m for m in members if m != c)))
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
    cols = {c: j for j, c in enumerate(graph.cells)}
    nbrs = [sorted(cols[x] for x in graph.neighbors(c)) for c in graph.cells]
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
