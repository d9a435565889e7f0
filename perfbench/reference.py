"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``cellwlan``.  Each quantity is recomputed by a route
that differs from the package's own: independent sets by power-set
filtering or by composing grid rows, the product-form marginals by a
row-by-row transfer matrix, the attempt map by Horner's rule, the
single-cell operating point by bisection, and the infinite-intensity
shares of path components in closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# 802.11b DSSS at 11 Mb/s, long preamble: 192 us PHY overhead plus a 34-byte
# MAC header at the data rate; 14-byte ACK; basic access.
SLOT = 20e-6
SIFS = 10e-6
DIFS = 50e-6
OVERHEAD = 192e-6 + 34 * 8 / 11e6
RATE = 11e6
ACK_BITS = 112.0
CW_MIN, CW_MAX, RETRY_LIMIT = 32, 1024, 7

# geometric presets of the CLI: carrier-sense range 500 m, radius 25 m
PRESET_RANGE = 500.0
PRESET_RADIUS = 25.0
PRESET_POSITIONS = {
    "two-cell": [(0.0, 0.0), (250.0, 0.0)],
    "three-chain": [(0.0, 0.0), (400.0, 0.0), (800.0, 0.0)],
    "three-clique": [(0.0, 0.0), (250.0, 0.0), (125.0, 125.0 * math.sqrt(3.0))],
}


def backoff_ladder() -> list[float]:
    """Mean backoff after each attempt for binary exponential backoff."""
    return [(min(2 ** k * CW_MIN, CW_MAX) - 1) / 2 for k in range(RETRY_LIMIT + 1)]


def attempt_horner(gamma: float, ladder: list[float]) -> float:
    """G(gamma) = sum gamma^k / sum b_k gamma^k, both by Horner's rule."""
    num = den = 0.0
    for b in reversed(ladder):
        num = num * gamma + 1.0
        den = den * gamma + b
    return num / den


def exchange_times(payload_bits: float) -> tuple[float, float]:
    """(success, collision) channel holding times for basic access."""
    t_data = OVERHEAD + payload_bits / RATE
    t_ack = OVERHEAD + ACK_BITS / RATE
    return t_data + SIFS + t_ack + DIFS, t_data + DIFS


def single_cell_throughput(node_count: int, payload_bits: float) -> float:
    """Packets/s of an isolated saturated cell; beta by bisection."""
    ladder = backoff_ladder()
    n = node_count
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if attempt_horner(1.0 - (1.0 - mid) ** (n - 1), ladder) > mid:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    t_s, t_c = exchange_times(payload_bits)
    p_idle = (1.0 - beta) ** n
    p_succ = n * beta * (1.0 - beta) ** (n - 1)
    cycle = p_idle * SLOT + p_succ * t_s + (1.0 - p_idle - p_succ) * t_c
    return p_succ / cycle


def tcp_ap_rate(data_bits: float, ack_bits: float) -> float:
    """Isolated AP packets/s of the equivalent saturated TCP pair."""
    return single_cell_throughput(2, (data_bits + ack_bits) / 2.0) / 2.0


def intensity(beta, n, payload_bits):
    """rho = activation rate times mean activity time, per cell."""
    beta = np.asarray(beta, dtype=float)
    n = np.asarray(n, dtype=float)
    t_s, t_c = exchange_times(payload_bits)
    p_any = 1.0 - (1.0 - beta) ** n
    p_solo = n * beta * (1.0 - beta) ** (n - 1.0) / p_any
    return p_any / SLOT * (p_solo * t_s + (1.0 - p_solo) * t_c)


# ---------------------------------------------------------------------------
# graphs and state lists

def adjacency(n_cells: int, edges) -> np.ndarray:
    """Dense boolean adjacency over cell positions 0..n-1."""
    adj = np.zeros((n_cells, n_cells), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


def powerset_states(adj: np.ndarray) -> np.ndarray:
    """Boolean (state, cell) masks of every independent set, by filtering
    all 2^n subsets."""
    n = adj.shape[0]
    subsets = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    clash = np.einsum("si,ij,sj->s", subsets.astype(np.int64),
                      adj.astype(np.int64), subsets.astype(np.int64))
    return subsets[clash == 0]


def grid_cells(rows: int, cols: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Cell ids 1..rows*cols row-major and the 4-neighbour edges."""
    cells = list(range(1, rows * cols + 1))
    edges = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c + 1
            if c + 1 < cols:
                edges.append((k, k + 1))
            if r + 1 < rows:
                edges.append((k, k + cols))
    return cells, edges


def _row_patterns(cols: int) -> list[int]:
    """Bitmasks of the independent sets of one grid row (a path)."""
    return [m for m in range(2 ** cols) if m & (m >> 1) == 0]


def grid_states(rows: int, cols: int) -> np.ndarray:
    """Independent sets of a grid built by stacking compatible rows."""
    pats = _row_patterns(cols)
    seqs = [[p] for p in pats]
    for _ in range(rows - 1):
        seqs = [s + [q] for s in seqs for q in pats if s[-1] & q == 0]
    arr = np.array(seqs, dtype=np.int64)
    bits = (arr[:, :, None] >> np.arange(cols)) & 1
    return bits.reshape(len(seqs), rows * cols).astype(bool)


def grid_x_transfer(rows: int, cols: int, rho) -> np.ndarray:
    """Unblocked fractions of a grid under the product-form law, by a
    row-by-row transfer matrix; no state list is built.

    x_i is the partition function with every neighbour of i silenced,
    divided by the full partition function.
    """
    rho = np.asarray(rho, dtype=float).reshape(rows, cols)
    pats = _row_patterns(cols)
    bits = np.array([[(p >> c) & 1 for c in range(cols)] for p in pats], dtype=bool)
    compat = np.array([[float(p & q == 0) for q in pats] for p in pats])

    def partition(r_mat: np.ndarray) -> float:
        vec = np.ones(len(pats))
        for r in range(rows):
            w = np.where(bits, r_mat[r][None, :], 1.0).prod(axis=1)
            vec = w * (vec if r == 0 else compat @ vec)
        return float(vec.sum())

    z = partition(rho)
    x = np.empty(rows * cols)
    for r in range(rows):
        for c in range(cols):
            muted = rho.copy()
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    muted[r + dr, c + dc] = 0.0
            x[r * cols + c] = partition(muted) / z
    return x


def grid_symmetries(rows: int, cols: int) -> list[np.ndarray]:
    """Cell permutations (as position arrays) of the grid's symmetries."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    views = [idx, idx[::-1], idx[:, ::-1], idx[::-1, ::-1]]
    if rows == cols:
        views += [v.T for v in views]
    return [v.reshape(-1) for v in views]


# ---------------------------------------------------------------------------
# product-form law, marginals, collisions

def product_form(states: np.ndarray, rho) -> np.ndarray:
    """pi(A) proportional to the product of rho over A, by plain products."""
    rho = np.asarray(rho, dtype=float)
    w = np.where(states, rho[None, :], 1.0).prod(axis=1)
    return w / w.sum()


def unblocked(states: np.ndarray, adj: np.ndarray, pi: np.ndarray) -> np.ndarray:
    blocked = (states.astype(np.int64) @ adj.astype(np.int64)) > 0
    return pi @ ~blocked


def collision_average(states, adj, pi, beta, n) -> np.ndarray:
    """Per-cell collision probability averaged over the states in which the
    cell contends, by an explicit loop over its contending neighbours."""
    beta = np.asarray(beta, dtype=float)
    n = np.asarray(n, dtype=float)
    blocked = (states.astype(np.int64) @ adj.astype(np.int64)) > 0
    contending = ~(states | blocked)
    out = np.empty(len(beta))
    for i in range(len(beta)):
        silent = np.full(len(states), (1.0 - beta[i]) ** (n[i] - 1.0))
        for j in np.flatnonzero(adj[i]):
            silent = np.where(contending[:, j],
                              silent * (1.0 - beta[j]) ** n[j], silent)
        weight = pi * contending[:, i]
        out[i] = float(weight @ (1.0 - silent) / weight.sum())
    return out


# ---------------------------------------------------------------------------
# maximum independent sets and the flow-level busy-subset map

def mis_counts(adj: np.ndarray) -> tuple[int, int, list[int]]:
    """(independence number, number of maximum sets, per-cell counts)."""
    states = powerset_states(adj)
    size = states.sum(axis=1)
    top = states[size == size.max()]
    return int(size.max()), len(top), [int(v) for v in top.sum(axis=0)]


def busy_shares_powerset(adj: np.ndarray) -> np.ndarray:
    """share[B, i]: fraction of the maximum independent sets of the graph
    induced on busy set B (a bitmask) that contain cell i."""
    n = adj.shape[0]
    share = np.zeros((2 ** n, n))
    for mask in range(1, 2 ** n):
        members = [i for i in range(n) if mask >> i & 1]
        sub = adj[np.ix_(members, members)]
        _, count, per = mis_counts(sub)
        for k, i in enumerate(members):
            share[mask, i] = per[k] / count
    return share


def busy_shares_path(n: int) -> np.ndarray:
    """The same table for an n-cell chain, from the closed form of the
    maximum independent sets of each path component of B.

    A path of odd length L has one maximum set (its odd positions).  A
    path of length 2m has m + 1; position 2t - 1 lies in m - t + 1 of them
    and position 2t in t of them (1-based positions).
    """
    share = np.zeros((2 ** n, n))
    for mask in range(1, 2 ** n):
        i = 0
        while i < n:
            if not mask >> i & 1:
                i += 1
                continue
            start = i
            while i < n and mask >> i & 1:
                i += 1
            length = i - start
            for p in range(1, length + 1):
                if length % 2:
                    val = 1.0 if p % 2 else 0.0
                else:
                    m, t = length // 2, (p + 1) // 2
                    val = ((m - t + 1) if p % 2 else t) / (m + 1)
                share[mask, start + p - 1] = val
    return share


def busy_map(x, work, share: np.ndarray) -> np.ndarray:
    """Effective-rate map: each other cell is busy independently with
    probability min(1, work / x); cell i gets its busy-set share."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    with np.errstate(divide="ignore"):
        p = np.minimum(1.0, np.where(x > 0, np.asarray(work) / np.where(x > 0, x, 1.0), np.inf))
    masks = np.arange(2 ** n)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    prob = np.where(member, p[None, :], 1.0 - p[None, :])
    out = np.empty(n)
    for i in range(n):
        rows = member[:, i]
        weight = np.delete(prob[rows], i, axis=1).prod(axis=1)
        out[i] = float(weight @ share[rows, i])
    return out


def classify_pairs(positions, radii, channels, rcs):
    """(a, b, relation) for every co-channel pair, ids 1-based in order,
    plus the contention edges."""
    pairs, edges = [], []
    for a, b in itertools.combinations(range(len(positions)), 2):
        if channels[a] != channels[b]:
            continue
        d = math.hypot(positions[a][0] - positions[b][0],
                       positions[a][1] - positions[b][1])
        if d + radii[a] + radii[b] < rcs:
            rel = "dependent"
        elif d - radii[a] - radii[b] >= rcs:
            rel = "independent"
        else:
            rel = "partial"
        pairs.append((a + 1, b + 1, rel))
        if d < rcs:
            edges.append((a + 1, b + 1))
    return pairs, edges
