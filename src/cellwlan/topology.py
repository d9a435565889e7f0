"""Deployment geometry and contention-graph combinatorics.

A deployment is a set of cells (an access point plus its associated nodes)
placed in the plane.  Two co-channel cells contend when their APs are within
carrier-sense range of each other; the resulting contention graph drives all
cell-level analysis.  This module builds that graph, checks that the geometry
puts every cell pair clearly on one side of the carrier-sense boundary, and
enumerates the independent sets of the graph, which are exactly the feasible
sets of simultaneously transmitting cells, or plans the frontier DP that
reads the product-form law over them without listing them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dcf import _whole

# enumeration refuses a graph with more independent sets than this
STATE_CAP = 2**20
# tables over every subset of the cells (2^n rows) refuse more cells than this
MAX_FIXED_POINT_CELLS = 20


class StateSpaceCapError(Exception):
    """Raised when independent-set enumeration would exceed the state cap."""


@dataclass(frozen=True)
class CellGeom:
    """One cell: an AP position, a coverage radius, and its client count.

    Positions and radii share one length unit (meters in the presets).
    ``node_count`` is the number of saturated senders in the cell; for
    AP-driven downlink traffic modeled as an equivalent pair it is 2.
    """

    cell_id: int
    ap_position: tuple[float, float]
    radius: float
    node_count: int = 2
    channel: int = 1

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.ap_position):
            raise ValueError(f"cell {self.cell_id}: ap_position must be "
                             f"finite, not {self.ap_position}")
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"cell {self.cell_id}: radius must be finite "
                             f"and >= 0, not {self.radius}")
        _whole(f"cell {self.cell_id}: node_count", self.node_count)


@dataclass(frozen=True)
class Deployment:
    """A set of cells plus the carrier-sense range shared by all radios."""

    cells: tuple[CellGeom, ...]
    carrier_sense_range: float

    def __post_init__(self) -> None:
        if not 0 < self.carrier_sense_range < math.inf:
            raise ValueError(f"carrier_sense_range must be finite and > 0, "
                             f"not {self.carrier_sense_range}")
        ids = [c.cell_id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate cell ids in deployment")


def _cochannel_pairs(deployment: Deployment):
    """Each co-channel cell pair with its AP distance, as ``(a, b, d)``
    with the lower id in ``a``, in cell-id order."""
    cl = sorted(deployment.cells, key=lambda c: c.cell_id)
    for i, a in enumerate(cl):
        for b in cl[i + 1:]:
            if a.channel == b.channel:
                yield a, b, math.dist(a.ap_position, b.ap_position)


@dataclass(frozen=True)
class ContentionGraph:
    """Undirected graph on cell ids; an edge means the two cells contend.

    ``edges`` holds each edge once, as its (low, high) id pair, and the
    pairs in sorted order."""

    cells: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if list(self.cells) != sorted(set(self.cells)):
            raise ValueError("cells must be sorted and unique")
        cellset = set(self.cells)
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2 and e[0] < e[1]
                    and set(e) <= cellset):
                raise ValueError(f"bad edge {e}; need a (low, high) pair "
                                 f"of cells")
        if not (isinstance(self.edges, tuple)
                and list(self.edges) == sorted(set(self.edges))):
            raise ValueError("edges must be a sorted tuple of distinct pairs")

    @cached_property
    def adjacency(self) -> np.ndarray:
        """``adjacency[i, j]``: cells ``cells[i]`` and ``cells[j]`` contend.
        Built on first use, then kept read-only."""
        col = {c: j for j, c in enumerate(self.cells)}
        adj = np.zeros((self.size, self.size), dtype=bool)
        for a, b in self.edges:
            adj[col[a], col[b]] = adj[col[b], col[a]] = True
        adj.flags.writeable = False
        return adj

    @property
    def size(self) -> int:
        return len(self.cells)


def graph_from_edges(cells: list[int] | tuple[int, ...],
                     edges: list[tuple[int, int]]) -> ContentionGraph:
    """Build a contention graph directly from an explicit edge list.  A
    repeated cell id, an edge that is not a pair, names a cell not in
    ``cells`` or is a self-loop raises ValueError naming it."""
    cell_tuple = tuple(sorted(cells))
    for a, b in zip(cell_tuple, cell_tuple[1:]):
        if a == b:
            raise ValueError(f"cells: id {a} is listed more than once")
    known, edge_set = set(cell_tuple), set()
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            raise ValueError(f"edges: {e!r} is not a pair of cells") from None
        if not {a, b} <= known:
            raise ValueError(f"edges: [{a}, {b}] names a cell not in cells")
        if a == b:
            raise ValueError(f"self-loop on cell {a}")
        edge_set.add((min(a, b), max(a, b)))
    return ContentionGraph(cells=cell_tuple, edges=tuple(sorted(edge_set)))


def build_contention_graph(deployment: Deployment) -> ContentionGraph:
    """Contention graph of a deployment.

    Two cells contend iff they share a channel and their APs are strictly
    closer than the carrier-sense range.  A distance exactly equal to the
    range counts as out of range.
    """
    cells = tuple(sorted(c.cell_id for c in deployment.cells))
    # the pairs come in cell-id order, lower id first: already sorted
    edges = tuple((a.cell_id, b.cell_id)
                  for a, b, d in _cochannel_pairs(deployment)
                  if d < deployment.carrier_sense_range)
    return ContentionGraph(cells=cells, edges=edges)


@dataclass(frozen=True)
class PairRelation:
    """Geometric classification of one co-channel cell pair."""

    cell_a: int
    cell_b: int
    relation: str  # "dependent" | "independent" | "partial"


@dataclass(frozen=True)
class PbdReport:
    """Result of the pairwise dependence check.

    ``satisfied`` is True when every co-channel pair is either completely
    dependent (all nodes of one cell sense all nodes of the other) or
    completely independent (no node senses any node of the other cell).
    Pairs that straddle the carrier-sense boundary are listed in
    ``violations`` and make the whole cell-level model inapplicable.
    """

    satisfied: bool
    pairs: tuple[PairRelation, ...]
    violations: tuple[PairRelation, ...]


def check_pbd(deployment: Deployment) -> PbdReport:
    """Classify every co-channel cell pair as dependent/independent/partial.

    With AP distance d and coverage radii r_a, r_b, the worst-case node
    separation is d + r_a + r_b and the best case is d - r_a - r_b.  The
    pair is completely dependent when even the worst case is inside the
    carrier-sense range, completely independent when even the best case is
    outside it, and a violation otherwise.
    """
    rels = []
    rcs = deployment.carrier_sense_range
    for a, b, d in _cochannel_pairs(deployment):
        if d + a.radius + b.radius < rcs:
            rel = "dependent"
        elif d - a.radius - b.radius >= rcs:
            rel = "independent"
        else:
            rel = "partial"
        rels.append(PairRelation(a.cell_id, b.cell_id, rel))
    violations = tuple(r for r in rels if r.relation == "partial")
    return PbdReport(satisfied=not violations, pairs=tuple(rels),
                     violations=violations)


@dataclass(frozen=True)
class CollisionIndex:
    """The contending (state, cell) entries of a state space, grouped by
    neighborhood pattern.

    A cell's collision probability in a state depends only on which of its
    neighbors contend there, so the states in which a cell contends fall
    into a few patterns: at most 2^degree, and only the observed ones are
    kept, numbered per cell in the order of their neighbor bits (first
    neighbor most significant).  Pattern k belongs to cell column
    ``owner[k]``, and ``beside[k]`` lists the cell columns that contend
    beside it in column order, padded to one length with the column
    count.  ``column`` holds the pattern of every contending (state, cell)
    entry in state order, then cell order; ``counts`` holds the number of
    contending cells per state, so ``np.repeat(pi, counts)`` lines a law
    over the states up with it.
    """

    counts: np.ndarray
    column: np.ndarray
    owner: np.ndarray
    beside: np.ndarray


class StateSpace:
    """All independent sets of a contention graph, in canonical order.

    ``active_mask[s, j]`` marks cell ``cells[j]`` as a member of state s;
    it is the one representation the state space is built from.  States
    are ordered lexicographically by their sorted member tuple, so the
    empty state is always index 0.  ``blocked_mask`` marks the members'
    neighbors and ``contending_mask`` the rest; ``active_float`` is
    ``active_mask`` as 0.0/1.0 for matrix products.  ``states``, the
    member tuples, is built on first use.
    """

    def __init__(self, graph: ContentionGraph, active_mask: np.ndarray):
        mask = np.asarray(active_mask)
        if mask.dtype != bool or mask.shape[1:] != (graph.size,):
            raise ValueError(f"active_mask must be a bool array of shape "
                             f"(states, {graph.size})")
        self.cells = graph.cells
        self.adjacency = graph.adjacency
        self.active_mask = mask
        touched = np.zeros_like(mask)
        for j, row in enumerate(self.adjacency):
            touched[:, j] = mask[:, row].any(axis=1)
        if np.any(touched & mask):
            raise ValueError("states contain an adjacent pair; not independent sets")
        self.blocked_mask = touched & ~mask
        self.contending_mask = ~(mask | self.blocked_mask)
        self.active_float = mask.astype(float)

    def __len__(self) -> int:
        return len(self.active_mask)

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """Member tuples in state order, built on first use."""
        ids = np.array(self.cells, dtype=np.int64)
        return tuple(tuple(ids[row].tolist()) for row in self.active_mask)

    @cached_property
    def toggle_index(self) -> np.ndarray:
        """``toggle_index[s, j]``: the state that state s becomes when cell
        j joins it (j contending in s) or leaves it (j a member of s); -1
        where j is blocked in s.  Built on first use, then kept.

        Sort the states once by their member bits.  Clearing bit j keeps
        the order of the states that hold cell j and maps them one to one
        onto the states that j can join, so the two sorted lists pair up.
        """
        packed = np.packbits(self.active_mask, axis=1)
        order = np.lexsort(packed.T)
        holds = self.active_mask[order].T
        joins = self.contending_mask[order].T
        # filled one cell at a time, so laid out (cell, state)
        toggle = np.full(holds.shape, -1, dtype=np.intp)
        bits = np.packbits(np.eye(len(self.cells), dtype=bool), axis=1)
        for j, bit in enumerate(bits):
            holding, joinable = order[holds[j]], order[joins[j]]
            if not (len(holding) == len(joinable) and np.array_equal(
                    packed[holding] ^ bit, packed[joinable])):
                raise ValueError("states are not every independent set: "
                                 f"cell {self.cells[j]} cannot join or leave "
                                 "some of them")
            toggle[j, joinable] = holding
            toggle[j, holding] = joinable
        return toggle.T

    @cached_property
    def collision_index(self) -> CollisionIndex:
        """Built on first use, then kept with the state space.

        One stable sort numbers every cell's patterns.  Each contending
        entry's key is its cell, then the bits of its contending neighbors
        as 64-bit words, first cell most significant, which order as the
        neighbor bits alone do."""
        cont, adj, n = self.contending_mask, self.adjacency, len(self.cells)
        counts = cont.sum(axis=1)
        state, cell = np.nonzero(cont)    # in state order, then cell order
        words = []
        for m in (cont, adj):
            # the columns reversed and packed little-endian: the earlier
            # the cell, the higher its bit
            w = np.zeros((len(m), (n // 64 + 1) * 8), dtype=np.uint8)
            w[:, :-(-n // 8)] = np.packbits(m[:, ::-1], axis=1,
                                            bitorder="little")
            words.append(w.view("<i8"))
        key = words[0][state] & words[1][cell]
        order = np.lexsort((*key.view("<u8").T, cell))
        key, by_cell = key[order], cell[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (by_cell[1:] != by_cell[:-1]) | (key[1:] != key[:-1]).any(
            axis=1)
        first = order[new]     # stable: each pattern's first entry
        column = np.empty(len(order), dtype=np.intp)
        column[order] = np.cumsum(new) - 1
        nbrs = cont[state[first]] & adj[cell[first]]
        beside = np.sort(np.where(nbrs, np.arange(n), n), kind="stable")
        return CollisionIndex(counts, column, cell[first], beside[
            :, :max(1, nbrs.sum(axis=1).max(initial=0))])


def _independent_sets(graph: ContentionGraph) -> np.ndarray:
    """All independent sets as a (state, cell) membership mask, ordered
    lexicographically by sorted member tuple.

    Built one cell at a time from the last: the sets over cells k.. are
    the empty set, then k joined to each set over cells k+1.. that holds
    no neighbor of k, then the other sets over cells k+1..; each part
    keeps its order, so the whole is in order without a sort.  The count
    only grows, so it is checked against ``STATE_CAP`` at every step.
    """
    n = graph.size
    sets = np.zeros((1, n), dtype=bool)
    for k in range(n - 1, -1, -1):
        free = sets[~sets[:, graph.adjacency[k]].any(axis=1)]
        if len(free) + len(sets) > STATE_CAP:
            raise StateSpaceCapError(
                f"graph with {n} cells has more than {STATE_CAP} "
                f"independent sets; enumeration refused")
        free[:, k] = True
        sets = np.concatenate((sets[:1], free, sets[1:]))
    return sets


def enumerate_independent_sets(graph: ContentionGraph) -> StateSpace:
    """Enumerate every feasible transmission state of the graph."""
    return StateSpace(graph, _independent_sets(graph))


def bfs_order(graph: ContentionGraph) -> np.ndarray:
    """The cell columns breadth first: each component from its first cell
    of least degree, each cell's unvisited neighbors in column order."""
    adj = graph.adjacency
    seen, order = np.zeros(graph.size, dtype=bool), []
    for root in np.argsort(adj.sum(axis=1), kind="stable").tolist():
        if not seen[root]:
            seen[root], queue = True, [root]
            for c in queue:
                nbrs = np.flatnonzero(adj[c] & ~seen)
                seen[nbrs] = True
                queue += nbrs.tolist()
            order += queue
    return np.array(order, dtype=np.intp)


def _last_neighbors(graph: ContentionGraph, order) -> np.ndarray:
    """Per position of a walk over the cell columns ``order`` (id order if
    None), the last position of one of its cell's neighbors, or -1."""
    pos = np.arange(graph.size)
    order = pos if order is None else order
    return np.where(graph.adjacency[np.ix_(order, order)], pos, -1).max(
        axis=1, initial=-1)


def frontier_width(graph: ContentionGraph, order=None) -> int:
    """The largest frontier of a walk over the cell columns ``order`` (id
    order if None): the cells taken so far that have a neighbor still to
    come."""
    c = np.arange(graph.size)
    return int(((c[:, None] < c) & (_last_neighbors(graph, order)[:, None]
                                    >= c)).sum(axis=0).max(initial=0))


def frontier_steps(graph: ContentionGraph, order=None,
                   limit=None) -> tuple | None:
    """A frontier DP's walk over the cell columns ``order`` (id order if
    None): per cell, ``(cell, take, scaled, folds)``, or None once a table
    would hold more than ``limit`` entries.  The table holds one entry per
    independent subset of the frontier, the cells taken that have a
    neighbor still to come.  The cell joins by the gather ``take``: the old
    entries and, in the slices ``scaled`` times its weight, the compatible
    ones.  Each frontier cell done leaves by one ``(take, into, taken)`` of
    ``folds`` in turn: after a gather (None: the join's) each entry with it,
    in the slice ``taken`` at the end, is added to its partner without it
    at the same offset of ``into`` (Calkin & Wilf's transfer matrix)."""
    last, frontier, steps = _last_neighbors(graph, order), [], []
    order = range(graph.size) if order is None else np.asarray(order).tolist()
    sets = [0]    # per entry, bit p set: the cell at position p is in it
    for p, c in enumerate(order):
        nbits = sum(1 << k for k in frontier if graph.adjacency[c, order[k]])
        compatible = [e for e, s in enumerate(sets) if not s & nbits]
        old, take = len(sets), list(range(len(sets))) + compatible
        sets += [sets[e] | 1 << p for e in compatible]
        if limit is not None and len(sets) > limit:
            return None
        frontier, scaled, folds = frontier + [p], [(old, len(sets))], []
        for k in [k for k in frontier if last[k] <= p]:
            frontier.remove(k)
            at = {s: e for e, s in enumerate(sets) if not s >> k & 1}
            taken = [e for e, s in enumerate(sets) if s >> k & 1]
            partners = [at.pop(sets[e] ^ 1 << k) for e in taken]
            rest, n, size = list(at.values()), len(sets), len(taken)
            # rest and taken in table order; later folds: [partners | rest |
            # taken]; the first: [rest- | partners- partners+ | rest+ |
            # taken- taken+], + with the joining cell, unless it leaves
            r = bisect_left(rest, old) if not folds else 0
            gather = rest[:r] + partners + rest[r:] + taken
            if not folds:
                take, t = [take[e] for e in gather], bisect_left(taken, old)
                scaled = [(n - size, n)] if k == p else [
                    (r + t, n - size), (n - size + t, n)]
            folds.append((np.array(gather, dtype=np.intp) if folds else None,
                          slice(r, r + size), slice(n - size, n)))
            sets = [sets[e] for e in gather[:n - size]]
        steps.append((c, np.array(take, dtype=np.intp), tuple(
            slice(a, b) for a, b in scaled if a < b), tuple(folds)))
    return tuple(steps)


@dataclass(frozen=True)
class FrontierPlan:
    """A frontier DP's ``steps``, which fix its walk's cell order, and
    what x and gamma read from it: Z with sets of cells zeroed.
    ``keep[e]`` is 0.0 on the cells that set e zeroes, else 1.0; set 0
    zeroes none, and ``x_set[j]`` is N(j).  Cell j owns the terms from
    ``term_start[j]`` on, one per subset T of N(j) (``term_members``; T
    empty first), with the set N[j] + N[T] (``term_set``)."""

    steps: tuple
    keep: np.ndarray
    x_set: np.ndarray
    term_set: np.ndarray
    term_members: np.ndarray
    term_start: np.ndarray


def frontier_plan(graph: ContentionGraph, steps: tuple) -> FrontierPlan:
    """The distinct zero-sets and the terms of a frontier DP on the walk
    ``steps`` (``frontier_steps`` in some cell order)."""
    n, adj = graph.size, graph.adjacency
    bits = [sum(1 << int(k) for k in np.flatnonzero(row)) for row in adj]
    closed = [b | 1 << j for j, b in enumerate(bits)]
    sets = {0: 0}
    x_set = [sets.setdefault(b, len(sets)) for b in bits]
    term_set, members, start = [], [], []
    for j, nbrs in enumerate(np.flatnonzero(row) for row in adj):
        start.append(len(term_set))
        # T's zero-set: that of T less its lowest member k, plus N[k]
        zeroed = [closed[j]]
        for sub in range(1, 1 << len(nbrs)):
            low = nbrs[(sub & -sub).bit_length() - 1]
            zeroed.append(zeroed[sub & sub - 1] | closed[low])
        term_set += [sets.setdefault(z, len(sets)) for z in zeroed]
        members.append(np.zeros((len(zeroed), n), dtype=bool))
        members[-1][:, nbrs] = np.arange(len(zeroed))[:, None] >> np.arange(
            len(nbrs)) & 1
    keep = [[not z >> c & 1 for c in range(n)] for z in sets]
    x_set, term_set, start = (np.array(v, dtype=np.intp)
                              for v in (x_set, term_set, start))
    return FrontierPlan(steps, np.array(keep, dtype=float), x_set, term_set,
                        np.concatenate(members), start)


@dataclass(frozen=True)
class MisStats:
    """Counting statistics of the maximum independent sets of a graph.

    ``max_size`` is the independence number, ``count`` the number of
    independent sets of that size, and ``per_cell[j]`` the number of those
    containing cell ``cells[j]``.  Every maximum independent set has
    exactly ``max_size`` members, so per_cell sums to max_size * count.

    As all access intensities grow, the stationary law concentrates on
    the maximum independent sets, uniformly: ``share`` is then each cell's
    unblocked fraction, and ``max_size`` the normalized network
    throughput.
    """

    cells: tuple[int, ...]
    max_size: int
    count: int
    per_cell: tuple[int, ...]

    @property
    def share(self) -> tuple[float, ...]:
        """Per cell, the fraction of the maximum independent sets that
        contain it."""
        return tuple(c / self.count for c in self.per_cell)


def mis_stats(graph: ContentionGraph) -> MisStats:
    """Independence number and maximum-independent-set counts."""
    sets_ = _independent_sets(graph)
    size = sets_.sum(axis=1)
    top = sets_[size == size.max()]
    stats = MisStats(cells=graph.cells, max_size=int(size.max()),
                     count=len(top), per_cell=tuple(top.sum(axis=0).tolist()))
    # counting identity: every one of the `count` sets has max_size members
    assert sum(stats.per_cell) == stats.max_size * stats.count
    return stats


def mis_share_table(graph: ContentionGraph) -> np.ndarray:
    """Maximum-independent-set shares of every induced subgraph.

    ``share[mask, j]`` is the fraction of the maximum independent sets of
    the subgraph induced by ``mask`` (bit j set for cell ``cells[j]``) that
    contain cell j, and 0 when j is not in ``mask``.  A subset DP splits
    each mask on its highest cell k: excluding k leaves ``mask - 2^k``,
    including it leaves ``(mask - 2^k) & ~nbr[k]``; both lie below 2^k, so
    the block [2^k, 2^(k+1)) is one vectorized pass over the blocks before
    it.  Per-cell counts are exact integers in float64 until the final
    division.  Memory is 2^n x n floats, so graphs beyond
    MAX_FIXED_POINT_CELLS cells are refused.
    """
    n = graph.size
    if n > MAX_FIXED_POINT_CELLS:
        raise ValueError(f"{n} cells; the share table of all 2^n subgraphs "
                         f"is capped at {MAX_FIXED_POINT_CELLS} cells")
    nbr = graph.adjacency @ (1 << np.arange(n))
    alpha = np.zeros(1 << n, dtype=np.intp)
    count = np.ones(1 << n)
    per = np.zeros((1 << n, n))
    for k in range(n):
        low = slice(0, 1 << k)
        block = slice(1 << k, 2 << k)
        inc = np.arange(1 << k) & ~nbr[k]
        a_ex, a_in = alpha[low], alpha[inc] + 1
        top = np.maximum(a_ex, a_in)
        ex, in_ = (a_ex == top) * 1.0, (a_in == top) * 1.0
        alpha[block] = top
        count[block] = ex * count[low] + in_ * count[inc]
        # cells k.. are absent below 2^k, so whole rows can be combined
        grown, taken = per[block], per[inc]
        np.multiply(ex[:, None], per[low], out=grown)
        taken *= in_[:, None]
        grown += taken
        grown[:, k] = in_ * count[inc]
    per /= count[:, None]
    return per
