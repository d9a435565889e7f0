"""Contention-graph construction, PBD geometry, and state enumeration."""

import gc
import itertools

import numpy as np
import pytest

from cellwlan.topology import (CellGeom, ContentionGraph, Deployment,
                               MisStats, StateSpace, StateSpaceCapError,
                               adjacency_text, build_contention_graph,
                               check_pbd, dot_edges,
                               enumerate_independent_sets, graph_from_edges,
                               mis_share_table, mis_stats)
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


def test_partition_three_chain():
    ss = enumerate_independent_sets(three_chain())
    masks = (ss.active_mask, ss.blocked_mask, ss.contending_mask)
    # columns are cells 1, 2, 3; one row per role
    assert np.array_equal([m[ss.index_of((1,))] for m in masks],
                          [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal([m[ss.index_of((1, 3))] for m in masks],
                          [[1, 0, 1], [0, 1, 0], [0, 0, 0]])


def test_index_of_and_cell_column():
    ss = enumerate_independent_sets(three_chain())
    assert ss.index_of(()) == 0
    assert ss.index_of((3, 1)) == ss.index_of((1, 3))
    assert [ss.cell_column(c) for c in (1, 2, 3)] == [0, 1, 2]


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
                    want = ss.index_of(members + (c,))
                elif ss.active_mask[s, j]:
                    want = ss.index_of(tuple(m for m in members if m != c))
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
    assert ss.index_of((42, 10)) == 4


def test_enumeration_cap_refuses_large_spaces():
    g = graph_from_edges(list(range(1, 11)), [])  # 2^10 independent sets
    with pytest.raises(StateSpaceCapError):
        _independent_sets(g, cap=100)
    with pytest.raises(StateSpaceCapError):
        enumerate_independent_sets(g, cap=1023)
    assert len(enumerate_independent_sets(g, cap=1024)) == 1024


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
    with pytest.raises(ValueError):
        ContentionGraph(cells=(2, 1), edges=frozenset())
    with pytest.raises(ValueError):
        ContentionGraph(cells=(1, 2), edges=frozenset({frozenset((1, 9))}))


def test_neighbors_and_adjacent():
    g = three_chain()
    assert g.neighbors(2) == {1, 3}
    assert g.neighbors(1) == {2}
    assert g.adjacent(1, 2) and not g.adjacent(1, 3)


def _cell(cid, x, radius=25.0, channel=1):
    return CellGeom(cell_id=cid, ap_position=(x, 0.0), radius=radius,
                    channel=channel)


def test_build_contention_graph_strict_range():
    dep = Deployment(cells=(_cell(1, 0.0), _cell(2, 499.0), _cell(3, 998.0)),
                     carrier_sense_range=500.0)
    g = build_contention_graph(dep)
    assert g.edges == frozenset({frozenset((1, 2)), frozenset((2, 3))})
    # distance exactly equal to the range is out of range
    dep_eq = Deployment(cells=(_cell(1, 0.0), _cell(2, 500.0)),
                        carrier_sense_range=500.0)
    assert build_contention_graph(dep_eq).edges == frozenset()


def test_build_contention_graph_channels():
    dep = Deployment(cells=(_cell(1, 0.0, channel=1),
                            _cell(2, 100.0, channel=6)),
                     carrier_sense_range=500.0)
    assert build_contention_graph(dep).edges == frozenset()


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
    with pytest.raises(ValueError):
        Deployment(cells=(_cell(1, 0.0), _cell(1, 10.0)),
                   carrier_sense_range=500.0)
    with pytest.raises(ValueError):
        Deployment(cells=(_cell(1, 0.0),), carrier_sense_range=0.0)


def test_text_renderings():
    g = three_chain()
    assert adjacency_text(g) == "1: 2\n2: 1 3\n3: 2\n"
    dot = dot_edges(g)
    assert "1 -- 2;" in dot and "2 -- 3;" in dot and dot.startswith("graph")
