"""Contention-graph construction, PBD geometry, and state enumeration."""

import gc
import itertools

import numpy as np
import pytest

from cellwlan.topology import (CellGeom, ContentionGraph, Deployment,
                               MisStats, StateSpace, StateSpaceCapError,
                               bfs_order, build_contention_graph, check_pbd,
                               enumerate_independent_sets, frontier_plan,
                               frontier_steps, frontier_width,
                               graph_from_edges, mis_share_table, mis_stats)
from cellwlan.topology import _independent_sets

import oracles


def three_chain():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def three_clique():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def test_three_chain_states_golden():
    ss = enumerate_independent_sets(three_chain())
    assert ss.states == ((), (1,), (1, 3), (2,), (3,))


def test_three_clique_states_golden():
    ss = enumerate_independent_sets(three_clique())
    assert ss.states == ((), (1,), (2,), (3,))


def test_enumeration_matches_power_set_on_random_graphs():
    rng = np.random.Generator(np.random.Philox(2024))
    for _ in range(60):
        n = int(rng.integers(1, 9))
        cells, edges = oracles.random_graph(rng, n, float(rng.uniform(0, 0.8)))
        got = enumerate_independent_sets(graph_from_edges(cells, edges))
        want = oracles.independent_sets_powerset(cells, edges)
        assert got.states == tuple(want)


def test_mis_stats_matches_power_set_on_random_graphs():
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(60):
        n = int(rng.integers(1, 10))
        cells, edges = oracles.random_graph(rng, n, float(rng.uniform(0, 0.9)))
        stats = mis_stats(graph_from_edges(cells, edges))
        alpha, count, per = oracles.mis_counts_powerset(cells, edges)
        assert stats.max_size == alpha
        assert stats.count == count
        assert stats.per_cell == tuple(per[c] for c in stats.cells)
        assert sum(stats.per_cell) == alpha * count


def test_mis_share_table_is_capped():
    # refused before the (2^21, 21) table is allocated
    from cellwlan import flows, topology
    assert flows.MAX_FIXED_POINT_CELLS == topology.MAX_FIXED_POINT_CELLS == 20
    with pytest.raises(ValueError, match="^21 cells; .* capped at 20 cells$"):
        mis_share_table(graph_from_edges(range(1, 22), []))
    assert mis_share_table(graph_from_edges(range(1, 4), [])).shape == (8, 3)


def test_mis_share_table_matches_power_set_on_every_subset():
    rng = np.random.Generator(np.random.Philox(314))
    graphs = [oracles.random_graph(rng, k % 8 + 1, float(rng.uniform(0, 0.9)))
              for k in range(25)]
    six = list(range(1, 7))
    graphs += [(six, []), (six, list(itertools.combinations(six, 2)))]
    for cells, edges in graphs:
        n = len(cells)
        share = mis_share_table(graph_from_edges(cells, edges))
        assert share.shape == (2 ** n, n)
        for mask in range(2 ** n):
            sub = [c for j, c in enumerate(cells) if mask >> j & 1]
            expect = [0.0] * n
            if sub:
                _, count, per = oracles.mis_counts_powerset(
                    sub, [e for e in edges if set(e) <= set(sub)])
                expect = [per[c] / count if c in per else 0.0 for c in cells]
            assert share[mask].tolist() == expect, (cells, edges, mask)


def test_state_space_masks_partition_every_state():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(25):
        n = int(rng.integers(1, 8))
        cells, edges = oracles.random_graph(rng, n, 0.4)
        g = graph_from_edges(cells, edges)
        ss = enumerate_independent_sets(g)
        total = (ss.active_mask.astype(int) + ss.blocked_mask.astype(int)
                 + ss.contending_mask.astype(int))
        assert np.all(total == 1)
        for s, members in enumerate(ss.states):
            blocked, contending = oracles.partition_direct(cells, edges,
                                                           members)
            for j, c in enumerate(ss.cells):
                assert ss.active_mask[s, j] == (c in members)
                assert ss.blocked_mask[s, j] == (c in blocked)
                assert ss.contending_mask[s, j] == (c in contending)


def _assert_collision_index_numbering(g):
    ss = enumerate_independent_sets(g)
    idx = ss.collision_index
    pattern, owner, neighbors = oracles.collision_index_per_neighbor(ss)
    np.testing.assert_array_equal(idx.owner, owner)
    # each pattern's neighbor columns in order, padded with the cell count
    beside = np.full((len(owner), max(1, neighbors.sum(axis=1).max())),
                     g.size)
    for k, row in enumerate(neighbors):
        beside[k, :row.sum()] = np.flatnonzero(row)
    np.testing.assert_array_equal(idx.beside, beside)
    cont = ss.contending_mask
    np.testing.assert_array_equal(idx.column, pattern[cont])
    np.testing.assert_array_equal(idx.counts, cont.sum(axis=1))


def test_collision_index_keeps_the_per_neighbor_numbering():
    rng = np.random.Generator(np.random.Philox(17))
    for k in range(48):
        n = k % 16 + 1
        cells, edges = oracles.random_graph(rng, n, float(rng.uniform(0.1,
                                                                      0.7)))
        _assert_collision_index_numbering(graph_from_edges(cells, edges))
    # isolated cells (degree 0) beside a chain and a triangle
    _assert_collision_index_numbering(graph_from_edges(
        range(1, 9), [(1, 2), (2, 3), (5, 6), (6, 7), (5, 7)]))
    _assert_collision_index_numbering(graph_from_edges(range(1, 5), []))
    # degree 65: the neighbor bits are ranked between runs of them
    clique = range(1, 67)
    _assert_collision_index_numbering(graph_from_edges(
        clique, list(itertools.combinations(clique, 2))))
    # cell 1 sees 45 neighbors (a clique) in four patterns that straddle
    # the ranking: cell 50 blocks neighbors 2-41, cell 51 blocks 42-46
    ks = range(2, 47)
    _assert_collision_index_numbering(graph_from_edges(
        [1, *ks, 50, 51], [(1, k) for k in ks]
        + list(itertools.combinations(ks, 2))
        + [(k, 50 if k < 42 else 51) for k in ks]))
    # dense graphs of 57 and 58 cells (a 64-bit word holds 57 neighbor
    # bits beside a 6-bit cell column, not 58): cliques less a matching,
    # with 86 and 88 states
    for n in (57, 58):
        cells = range(1, n + 1)
        _assert_collision_index_numbering(graph_from_edges(cells, [
            (a, b) for a, b in itertools.combinations(cells, 2)
            if not (a % 2 and b == a + 1)]))


def test_partition_three_chain():
    ss = enumerate_independent_sets(three_chain())
    masks = (ss.active_mask, ss.blocked_mask, ss.contending_mask)
    # columns are cells 1, 2, 3; one row per role
    assert np.array_equal([m[oracles.index_of(ss, (1,))] for m in masks],
                          [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal([m[oracles.index_of(ss, (1, 3))] for m in masks],
                          [[1, 0, 1], [0, 1, 0], [0, 0, 0]])


def test_index_of_and_cell_column():
    ss = enumerate_independent_sets(three_chain())
    assert oracles.index_of(ss, ()) == 0
    assert oracles.index_of(ss, (3, 1)) == oracles.index_of(ss, (1, 3))
    # column j of the role masks is cell cells[j]
    assert ss.cells == (1, 2, 3)
    for c in ss.cells:
        row = ss.active_mask[oracles.index_of(ss, (c,))]
        assert np.flatnonzero(row).tolist() == [ss.cells.index(c)]


def test_toggle_index_matches_index_of():
    # the sorted-bits pairing gives the same targets as looking up each
    # member tuple with the cell added or removed
    rng = np.random.Generator(np.random.Philox(55))
    graphs = [three_chain(), graph_from_edges([3, 10, 42], [(3, 42)]),
              graph_from_edges([1], []), graph_from_edges(list(range(1, 10)), [])]
    for _ in range(20):
        graphs.append(graph_from_edges(*oracles.random_graph(
            rng, int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.8)))))
    for g in graphs:
        ss = enumerate_independent_sets(g)
        toggle = ss.toggle_index
        assert toggle.shape == (len(ss), g.size)
        for s, members in enumerate(ss.states):
            for j, c in enumerate(ss.cells):
                if ss.contending_mask[s, j]:
                    want = oracles.index_of(ss, members + (c,))
                elif ss.active_mask[s, j]:
                    want = oracles.index_of(
                        ss, tuple(m for m in members if m != c))
                else:
                    want = -1
                assert toggle[s, j] == want, (g, members, c)


def test_toggle_index_needs_every_independent_set():
    # the three-chain's states without {1, 3}
    mask = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=bool)
    with pytest.raises(ValueError, match="cannot join or leave"):
        StateSpace(three_chain(), mask).toggle_index


def test_state_space_rejects_adjacent_members():
    with pytest.raises(ValueError, match="adjacent pair"):
        StateSpace(three_chain(), np.array([[0, 0, 0], [1, 1, 0]], dtype=bool))


@pytest.mark.parametrize("mask", [
    np.zeros((2, 4), dtype=bool),       # a column for a cell not in the graph
    np.zeros((2, 2), dtype=bool),
    np.zeros(3, dtype=bool),
    np.array([[0, 0, 0], [1, 0, 0]]),   # 0/1 integers, not bools
])
def test_state_space_rejects_a_malformed_mask(mask):
    with pytest.raises(ValueError, match="bool array of shape"):
        StateSpace(three_chain(), mask)


def test_adjacency_matches_neighbor_sets():
    rng = np.random.Generator(np.random.Philox(77))
    graphs = [([3, 10, 42], [(3, 42)]), ([7], [])]
    for _ in range(30):
        n = int(rng.integers(1, 12))
        ids = sorted(rng.choice(500, size=n, replace=False).tolist())
        graphs.append((ids, [(a, b) for a, b in itertools.combinations(ids, 2)
                             if rng.random() < 0.4]))
    for cells, edges in graphs:
        g = graph_from_edges(cells, edges)
        nbrs = oracles.neighbors_direct(cells, edges)
        assert g.adjacency.tolist() == [[q in nbrs[c] for q in cells]
                                        for c in cells]
        assert not g.adjacency.flags.writeable
        assert g.adjacency is g.adjacency
        assert enumerate_independent_sets(g).adjacency is g.adjacency


def test_states_and_mis_stats_hold_python_ints():
    # the CLI formats these values as they are
    g = graph_from_edges([3, 10, 42], [(3, 42)])
    for members in enumerate_independent_sets(g).states:
        assert all(type(c) is int for c in members)
    stats = mis_stats(g)
    assert stats == MisStats(cells=(3, 10, 42), max_size=2, count=2,
                             per_cell=(1, 2, 1))
    assert all(type(v) is int for v in
               (*stats.cells, stats.max_size, stats.count, *stats.per_cell))


def test_state_space_masks_follow_sparse_cell_ids():
    g = graph_from_edges([3, 10, 42], [(3, 42)])
    ss = enumerate_independent_sets(g)
    assert ss.states == ((), (3,), (3, 10), (10,), (10, 42), (42,))
    assert ss.active_mask.tolist() == [
        [False, False, False], [True, False, False], [True, True, False],
        [False, True, False], [False, True, True], [False, False, True]]
    assert ss.blocked_mask[1].tolist() == [False, False, True]
    assert oracles.index_of(ss, (42, 10)) == 4


def test_enumeration_cap_refuses_large_spaces(monkeypatch):
    from cellwlan import topology
    g = graph_from_edges(list(range(1, 11)), [])  # 2^10 independent sets
    monkeypatch.setattr(topology, "STATE_CAP", 100)
    with pytest.raises(StateSpaceCapError):
        _independent_sets(g)
    monkeypatch.setattr(topology, "STATE_CAP", 1023)
    with pytest.raises(StateSpaceCapError):
        enumerate_independent_sets(g)
    monkeypatch.setattr(topology, "STATE_CAP", 1024)
    assert len(enumerate_independent_sets(g)) == 1024


def test_enumeration_leaves_no_reference_cycles():
    # a 4x4 grid; any cycle would hold every state tuple until a full
    # collection
    edges = [(k, k + 1) for k in range(1, 17) if k % 4] + \
        [(k, k + 4) for k in range(1, 13)]
    g = graph_from_edges(list(range(1, 17)), edges)
    gc.collect()
    gc.disable()
    try:
        ss = enumerate_independent_sets(g)
        assert len(ss) == 1234
        del ss
        mis_stats(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_from_edges([1, 2], [(1, 1)])
    # each refusal names what it refuses
    for cells, edges, match in (
            ([1, 1, 2], [], r"^cells: id 1 is listed more than once$"),
            ([3, 1, 2, 3, 1], [(1, 2)], r"^cells: id 1 is listed"),
            ([1, 2, 3], [(1, 2, 3)], r"^edges: \(1, 2, 3\) is not a pair"),
            ([1, 2, 3], [(1, 2), 3], r"^edges: 3 is not a pair"),
            ([1, 2, 3], [[1, 2], [2, 9]],
             r"^edges: \[2, 9\] names a cell not in cells$"),
            ([1, 2, 3], [(7, 7)], r"^edges: \[7, 7\] names a cell not in")):
        with pytest.raises(ValueError, match=match):
            graph_from_edges(cells, edges)
    with pytest.raises(ValueError):
        ContentionGraph(cells=(2, 1), edges=())
    with pytest.raises(ValueError):
        ContentionGraph(cells=(1, 2), edges=((1, 9),))
    # each edge once, as its (low, high) pair, the pairs in sorted order
    for edges in (((2, 1),), ((2, 3), (1, 2)), ((1, 2), (1, 2))):
        with pytest.raises(ValueError):
            ContentionGraph(cells=(1, 2, 3), edges=edges)
    assert ContentionGraph(cells=(1, 2, 3), edges=((1, 2), (2, 3))).edges \
        == graph_from_edges([3, 2, 1], [(3, 2), (2, 1), (1, 2)]).edges


def test_neighbors_and_adjacent():
    g = three_chain()
    assert g.adjacency.tolist() == [[False, True, False], [True, False, True],
                                    [False, True, False]]
    col = g.cells.index
    assert g.adjacency[col(1), col(2)] and g.adjacency[col(2), col(1)]
    assert not g.adjacency[col(1), col(3)]


def _cell(cid, x, radius=25.0, channel=1):
    return CellGeom(cell_id=cid, ap_position=(x, 0.0), radius=radius,
                    channel=channel)


def test_build_contention_graph_strict_range():
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 499.0), _cell(3, 998.0)),
                     carrier_sense_range=500.0)
    g = build_contention_graph(dep)
    assert g.edges == ((1, 2), (2, 3))
    # distance exactly equal to the range is out of range
    dep_eq = Deployment(cells=(_cell(1, 0.0), _cell(2, 500.0)),
                        carrier_sense_range=500.0)
    assert build_contention_graph(dep_eq).edges == ()


def test_build_contention_graph_channels():
    dep = Deployment(cells=(_cell(1, 0.0, channel=1),
                            _cell(2, 100.0, channel=6)),
                     carrier_sense_range=500.0)
    assert build_contention_graph(dep).edges == ()


def test_check_pbd_classification():
    # d + r_a + r_b = 300 < 500: dependent
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 250.0)),
                     carrier_sense_range=500.0)
    rep = check_pbd(dep)
    assert rep.satisfied and rep.pairs[0].relation == "dependent"
    # d - r_a - r_b = 550 >= 500: independent
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 600.0)),
                     carrier_sense_range=500.0)
    rep = check_pbd(dep)
    assert rep.satisfied and rep.pairs[0].relation == "independent"
    # straddles the boundary: violation
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 500.0)),
                     carrier_sense_range=500.0)
    rep = check_pbd(dep)
    assert not rep.satisfied
    assert rep.violations[0].relation == "partial"


def test_check_pbd_boundary_ties():
    # worst case exactly at the range: not completely dependent
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 450.0)),
                     carrier_sense_range=500.0)
    assert check_pbd(dep).pairs[0].relation == "partial"
    # best case exactly at the range: completely independent
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 550.0)),
                     carrier_sense_range=500.0)
    assert check_pbd(dep).pairs[0].relation == "independent"


def test_check_pbd_ignores_cross_channel_pairs():
    dep = Deployment(cells=(_cell(1, 0.0, channel=1),
                            _cell(2, 500.0, channel=6)),
                     carrier_sense_range=500.0)
    rep = check_pbd(dep)
    assert rep.satisfied and rep.pairs == ()


def test_geometry_validation():
    with pytest.raises(ValueError):
        CellGeom(cell_id=1, ap_position=(0, 0), radius=-1.0)
    with pytest.raises(ValueError):
        CellGeom(cell_id=1, ap_position=(0, 0), radius=1.0, node_count=0)
    for count in (2.5, True):
        with pytest.raises(ValueError, match="node_count must be a whole"):
            CellGeom(cell_id=1, ap_position=(0, 0), radius=1.0,
                     node_count=count)
    with pytest.raises(ValueError):
        Deployment(cells=(_cell(1, 0.0), _cell(1, 10.0)),
                   carrier_sense_range=500.0)
    with pytest.raises(ValueError):
        Deployment(cells=(_cell(1, 0.0),), carrier_sense_range=0.0)


# per geometry field, constructors that put a given value into it
_GEOMETRY_FIELDS = {
    "ap_position": (lambda v: CellGeom(1, (v, 0.0), 25.0),
                    lambda v: CellGeom(1, (0.0, v), 25.0)),
    "radius": (lambda v: _cell(1, 0.0, radius=v),),
    "carrier_sense_range": (
        lambda v: Deployment(cells=(_cell(1, 0.0),), carrier_sense_range=v),),
}


@pytest.mark.parametrize("field", sorted(_GEOMETRY_FIELDS))
def test_geometry_rejects_non_finite(field):
    # a NaN position or range would silently give a different network
    for make in _GEOMETRY_FIELDS[field]:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                make(bad)


def test_frontier_widths_and_plan_sizes():
    cells = range(1, 67)
    clique = graph_from_edges(cells, list(itertools.combinations(cells, 2)))
    assert frontier_width(clique) == 65
    assert frontier_width(graph_from_edges([1, 2, 3], [])) == 0
    assert frontier_width(three_chain()) == 1
    for (rows, cols), zero_sets, terms in (((5, 5), 202, 256),
                                           ((4, 5), 146, 192)):
        g = graph_from_edges(*oracles.grid_graph(rows, cols))
        assert frontier_width(g) == 5
        plan = frontier_plan(g, frontier_steps(g))
        assert plan.keep.shape == (zero_sets, rows * cols)
        assert plan.term_members.shape == (terms, rows * cols)


def test_bfs_order_starts_each_component_at_a_least_degree_cell():
    # a triangle 1-2-3 with a tail 3-4, an edge 5-6 and a lone cell 7:
    # the lone cell first, then from 4 (degree 1) its neighbor 3 and 3's
    # others in column order, then 5 and 6
    g = graph_from_edges(range(1, 8), [(1, 2), (2, 3), (1, 3), (3, 4),
                                       (5, 6)])
    assert bfs_order(g).tolist() == [6, 3, 2, 0, 1, 4, 5]
    assert bfs_order(graph_from_edges([1], [])).tolist() == [0]
    # the row-numbered ladder is wide in id order, narrow breadth first;
    # the column-numbered one is walked breadth first in id order
    rows, cols = (graph_from_edges(*oracles.ladder_graph(16, by_rows))
                  for by_rows in (True, False))
    assert frontier_width(rows) == 16
    assert bfs_order(rows)[:5].tolist() == [0, 1, 16, 2, 17]
    assert frontier_width(rows, bfs_order(rows)) == 3
    assert bfs_order(cols).tolist() == list(range(32))
    assert frontier_width(cols) == 2


def _independent_subsets(adjacency, members):
    """The independent subsets of the cell columns ``members``, as
    frozensets, by filtering their power set."""
    return {frozenset(sub) for r in range(len(members) + 1)
            for sub in itertools.combinations(members, r)
            if not adjacency[np.ix_(sub, sub)].any()}


def test_frontier_walks_follow_a_cell_order():
    # any order: each cell joins once, in that order, and every table
    # holds one entry per independent subset of the frontier (the cells
    # taken with a neighbor still to come), by a brute-force list after
    # each join and each fold; the scaled slices hold exactly the entries
    # with the joining cell, and each fold's two slices, disjoint and of
    # one length, pair every entry with the leaving cell with its partner
    # without it; the walk ends at one entry, and a limit below its
    # largest table stops it
    rng = np.random.Generator(np.random.Philox(26))
    for n in range(1, 13):
        g = graph_from_edges(*oracles.random_graph(rng, n, 0.4))
        adj = g.adjacency
        for order in (None, bfs_order(g), rng.permutation(n)):
            steps = frontier_steps(g, order)
            want = list(range(n) if order is None else order)
            assert [c for c, *_ in steps] == want
            last = [max((q for q, d in enumerate(want) if adj[c, d]),
                        default=-1) for c in want]
            table, widest = [frozenset()], 1
            for p, (c, take, scaled, folds) in enumerate(steps):
                frontier = [q for q in range(p) if last[q] >= p] + [p]
                assert take.min() >= 0 and take.max() < len(table)
                holds = np.zeros(len(take), dtype=bool)
                for part in scaled:
                    assert 0 <= part.start < part.stop <= len(take)
                    assert not holds[part].any()
                    holds[part] = True
                table = [table[e] | {c} if h else table[e]
                         for e, h in zip(take.tolist(), holds)]
                widest = max(widest, len(table))
                assert len(table) == len(set(table)) and set(table) == \
                    _independent_subsets(adj, [want[q] for q in frontier])
                done = [q for q in frontier if last[q] <= p]
                assert len(folds) == len(done)
                for j, (q, (gather, into, taken)) in enumerate(zip(done,
                                                                   folds)):
                    frontier.remove(q)
                    assert (gather is None) == (j == 0)
                    if gather is not None:
                        assert sorted(gather.tolist()) == \
                            list(range(len(table)))
                        table = [table[e] for e in gather.tolist()]
                    assert into.start <= into.stop <= taken.start
                    assert taken.stop == len(table)
                    assert into.stop - into.start == taken.stop - taken.start
                    cell = want[q]
                    assert [cell in s for s in table] == \
                        [e >= taken.start for e in range(len(table))]
                    assert [s - {cell} for s in table[taken]] == table[into]
                    table = table[:taken.start]
                    assert len(table) == len(set(table)) and set(table) == \
                        _independent_subsets(adj, [want[q] for q in frontier])
            assert table == [frozenset()]
            assert widest == max(len(take) for _, take, *_ in steps)
            assert widest <= 1 << frontier_width(g, order) + 1
            assert frontier_steps(g, order, widest) is not None
            assert frontier_steps(g, order, widest - 1) is None


def test_frontier_plan_against_neighborhoods():
    rng = np.random.Generator(np.random.Philox(24))
    for n in range(1, 13):
        cells, edges = oracles.random_graph(rng, n, 0.4)
        g = graph_from_edges(cells, edges)
        adj = g.adjacency
        steps = frontier_steps(g)
        plan = frontier_plan(g, steps)
        # every cell joins once, in id order, and leaves the table at
        # one column once the last one is in
        assert [c for c, *_ in steps] == list(range(n))
        assert len({tuple(k) for k in plan.keep}) == len(plan.keep)
        assert plan.keep[0].all()
        zeroed = ~plan.keep.astype(bool)
        np.testing.assert_array_equal(zeroed[plan.x_set], adj)
        closed = adj | np.eye(n, dtype=bool)
        # each cell's first term, T empty, reads N[j]
        np.testing.assert_array_equal(
            zeroed[plan.term_set[plan.term_start]], closed)
        owner = np.repeat(np.arange(n), np.diff(
            np.append(plan.term_start, len(plan.term_set))))
        for t, j in enumerate(owner):
            members = plan.term_members[t]
            assert not (members & ~adj[j]).any()
            np.testing.assert_array_equal(
                zeroed[plan.term_set[t]],
                closed[j] | closed[members].any(axis=0))
        assert np.bincount(owner, minlength=n).tolist() == \
            (1 << adj.sum(axis=1)).tolist()
