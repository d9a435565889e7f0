"""Deployment geometry and contention-graph combinatorics.

A deployment is a set of cells (an access point plus its associated nodes)
placed in the plane.  Two co-channel cells contend when their APs are within
carrier-sense range of each other; the resulting contention graph drives all
cell-level analysis.  This module builds that graph, checks that the geometry
puts every cell pair clearly on one side of the carrier-sense boundary, and
enumerates the independent sets of the graph, which are exactly the feasible
sets of simultaneously transmitting cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_STATE_CAP = 2**20


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
        if self.radius < 0:
            raise ValueError(f"cell {self.cell_id}: radius must be >= 0")
        if self.node_count < 1:
            raise ValueError(f"cell {self.cell_id}: node_count must be >= 1")


@dataclass(frozen=True)
class Deployment:
    """A set of cells plus the carrier-sense range shared by all radios."""

    cells: tuple[CellGeom, ...]
    carrier_sense_range: float

    def __post_init__(self) -> None:
        if self.carrier_sense_range <= 0:
            raise ValueError("carrier_sense_range must be > 0")
        ids = [c.cell_id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate cell ids in deployment")


def _ap_distance(a: CellGeom, b: CellGeom) -> float:
    return math.dist(a.ap_position, b.ap_position)


@dataclass(frozen=True)
class ContentionGraph:
    """Undirected graph on cell ids; an edge means the two cells contend."""

    cells: tuple[int, ...]
    edges: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if list(self.cells) != sorted(set(self.cells)):
            raise ValueError("cells must be sorted and unique")
        cellset = set(self.cells)
        for e in self.edges:
            if len(e) != 2 or not e <= cellset:
                raise ValueError(f"bad edge {set(e)}")

    def neighbors(self, cell_id: int) -> frozenset[int]:
        return frozenset(next(iter(e - {cell_id})) for e in self.edges if cell_id in e)

    def adjacent(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

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
    """Build a contention graph directly from an explicit edge list."""
    cell_tuple = tuple(sorted(set(cells)))
    edge_set = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop on cell {a}")
        edge_set.add(frozenset((a, b)))
    return ContentionGraph(cells=cell_tuple, edges=frozenset(edge_set))


def build_contention_graph(deployment: Deployment) -> ContentionGraph:
    """Contention graph of a deployment.

    Two cells contend iff they share a channel and their APs are strictly
    closer than the carrier-sense range.  A distance exactly equal to the
    range counts as out of range.
    """
    cells = tuple(sorted(c.cell_id for c in deployment.cells))
    edges = set()
    cl = sorted(deployment.cells, key=lambda c: c.cell_id)
    for i, a in enumerate(cl):
        for b in cl[i + 1:]:
            if a.channel != b.channel:
                continue
            if _ap_distance(a, b) < deployment.carrier_sense_range:
                edges.add(frozenset((a.cell_id, b.cell_id)))
    return ContentionGraph(cells=cells, edges=frozenset(edges))


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
    cl = sorted(deployment.cells, key=lambda c: c.cell_id)
    rcs = deployment.carrier_sense_range
    for i, a in enumerate(cl):
        for b in cl[i + 1:]:
            if a.channel != b.channel:
                continue
            d = _ap_distance(a, b)
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
    kept.  Pattern k belongs to cell column ``owner[k]``, and
    ``neighbors[k]`` marks the cell columns that contend beside it.
    ``column`` holds the pattern of every contending (state, cell) entry in
    state order, then cell order; ``counts`` holds the number of contending
    cells per state, so ``np.repeat(pi, counts)`` lines a law over the
    states up with ``column``.
    """

    counts: np.ndarray
    column: np.ndarray
    owner: np.ndarray
    neighbors: np.ndarray


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
        self.graph = graph
        self.cells = graph.cells
        self._cell_col = {c: j for j, c in enumerate(graph.cells)}
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
    def _index(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.states)}

    def index_of(self, members) -> int:
        return self._index[tuple(sorted(members))]

    def cell_column(self, cell_id: int) -> int:
        return self._cell_col[cell_id]

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
        """Built on first use, then kept with the state space."""
        cont, n_cells = self.contending_mask, len(self.cells)
        column = np.zeros(cont.shape, dtype=np.intp)
        owner, neighbors = [], []
        for j in range(n_cells):
            rows = np.flatnonzero(cont[:, j])
            # number the observed patterns one neighbor at a time, so the
            # codes stay below the row count whatever the degree
            code = np.zeros(len(rows), dtype=np.intp)
            for k in np.flatnonzero(self.adjacency[j]):
                code = np.unique(2 * code + cont[rows, k], return_inverse=True)[1]
            _, first, code = np.unique(code, return_index=True,
                                       return_inverse=True)
            column[rows, j] = len(owner) + code
            owner += [j] * len(first)
            neighbors += list(cont[rows[first]] & self.adjacency[j])
        return CollisionIndex(
            counts=cont.sum(axis=1), column=column[cont],
            owner=np.array(owner, dtype=np.intp),
            neighbors=np.array(neighbors, dtype=bool).reshape(len(owner), n_cells))


def _independent_sets(graph: ContentionGraph, cap: int) -> np.ndarray:
    """All independent sets as a (state, cell) membership mask, ordered
    lexicographically by sorted member tuple.

    Built one cell at a time from the last: the sets over cells k.. are
    the empty set, then k joined to each set over cells k+1.. that holds
    no neighbor of k, then the other sets over cells k+1..; each part
    keeps its order, so the whole is in order without a sort.  The count
    only grows, so it is checked against ``cap`` at every step.
    """
    n = graph.size
    sets = np.zeros((1, n), dtype=bool)
    for k in range(n - 1, -1, -1):
        free = sets[~sets[:, graph.adjacency[k]].any(axis=1)]
        if len(free) + len(sets) > cap:
            raise StateSpaceCapError(
                f"graph with {n} cells has more than {cap} "
                f"independent sets; enumeration refused")
        free[:, k] = True
        sets = np.concatenate((sets[:1], free, sets[1:]))
    return sets


def enumerate_independent_sets(graph: ContentionGraph,
                               cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Enumerate every feasible transmission state of the graph."""
    return StateSpace(graph, _independent_sets(graph, cap))


@dataclass(frozen=True)
class MisStats:
    """Counting statistics of the maximum independent sets of a graph.

    ``max_size`` is the independence number, ``count`` the number of
    independent sets of that size, and ``per_cell[j]`` the number of those
    containing cell ``cells[j]``.  Every maximum independent set has
    exactly ``max_size`` members, so per_cell sums to max_size * count.
    """

    cells: tuple[int, ...]
    max_size: int
    count: int
    per_cell: tuple[int, ...]


def mis_stats(graph: ContentionGraph, cap: int = DEFAULT_STATE_CAP) -> MisStats:
    """Independence number and maximum-independent-set counts."""
    sets_ = _independent_sets(graph, cap)
    size = sets_.sum(axis=1)
    top = sets_[size == size.max()]
    return MisStats(cells=graph.cells, max_size=int(size.max()),
                    count=len(top), per_cell=tuple(top.sum(axis=0).tolist()))


def mis_share_table(graph: ContentionGraph) -> np.ndarray:
    """Maximum-independent-set shares of every induced subgraph.

    ``share[mask, j]`` is the fraction of the maximum independent sets of
    the subgraph induced by ``mask`` (bit j set for cell ``cells[j]``) that
    contain cell j, and 0 when j is not in ``mask``.  A subset DP splits
    each mask on its highest cell k: excluding k leaves ``mask - 2^k``,
    including it leaves ``(mask - 2^k) & ~nbr[k]``; both lie below 2^k, so
    the block [2^k, 2^(k+1)) is one vectorized pass over the blocks before
    it.  Per-cell counts are exact integers in float64 until the final
    division.  Memory is 2^n x n floats.
    """
    n = graph.size
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


def adjacency_text(graph: ContentionGraph) -> str:
    """Plain-text adjacency list, one ``cell: neighbors...`` line per cell."""
    lines = []
    for c in graph.cells:
        nb = " ".join(str(n) for n in sorted(graph.neighbors(c)))
        lines.append(f"{c}: {nb}".rstrip())
    return "\n".join(lines) + "\n"


def dot_edges(graph: ContentionGraph) -> str:
    """DOT-compatible rendering of the contention graph."""
    body = [f"  {c};" for c in graph.cells]
    body += [f"  {min(e)} -- {max(e)};"
             for e in sorted(graph.edges, key=lambda e: tuple(sorted(e)))]
    return "graph contention {\n" + "\n".join(body) + "\n}\n"
