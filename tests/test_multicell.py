"""Coupled multi-cell model: product-form law, collisions, fixed point."""

import collections
import itertools
import subprocess
import sys

import numpy as np
import pytest

from cellwlan.dcf import (ConvergenceError, attempt_probability,
                          backoff_preset, damped_fixed_point,
                          frame_exchange_times, mac_phy_preset,
                          mean_backoffs, solve_single_cell)
from cellwlan.flows import FlowParams, effective_rate_fixed_point
from cellwlan.multicell import (FixedPointConfig, MulticellInput,
                                activation_rate, collision_probability,
                                frontier_law, mean_activity_time,
                                partition_function,
                                payload_sweep, solve_fixed_point,
                                stationary_distribution,
                                tcp_long_throughputs, unblocked_fraction)
from cellwlan.topology import (StateSpaceCapError, bfs_order,
                               enumerate_independent_sets, frontier_plan,
                               frontier_steps, graph_from_edges, mis_stats)

import oracles

MP = mac_phy_preset("dot11b-11mbps", 8000.0)
BO = backoff_preset("dot11b-11mbps")


def chain():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def clique():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def space(g):
    return enumerate_independent_sets(g)


def test_activation_rate_golden():
    # two nodes at beta 0.1 in 20 us slots: (1 - 0.81) / 20e-6
    assert activation_rate(0.1, 2, 20e-6) == pytest.approx(9500.0, rel=1e-12)
    np.testing.assert_allclose(
        activation_rate([0.1, 0.5], [2, 1], 1.0), [0.19, 0.5], rtol=1e-12)


def test_mean_activity_time_limits():
    # a lone attempt always succeeds
    assert mean_activity_time(0.0, 5, 2.0, 1.0) == pytest.approx(2.0)
    # all nodes attempting every slot always collide (n > 1)
    assert mean_activity_time(1.0, 3, 2.0, 1.0) == pytest.approx(1.0)
    # generic point against the defining mixture
    b, n, ts, tc = 0.2, 4, 2.0, 0.5
    p_any = 1 - (1 - b) ** n
    p_s = n * b * (1 - b) ** (n - 1) / p_any
    assert mean_activity_time(b, n, ts, tc) == pytest.approx(
        p_s * ts + (1 - p_s) * tc, rel=1e-12)


def test_stationary_distribution_closed_form_chain():
    ss = space(chain())
    for r in (0.25, 1.0, 7.5):
        pi = stationary_distribution(ss, (r, r, r))
        z = 1.0 + 3.0 * r + r * r
        want = {(): 1.0, (1,): r, (2,): r, (3,): r, (1, 3): r * r}
        for s, members in enumerate(ss.states):
            assert pi[s] == pytest.approx(want[members] / z, rel=1e-12)


def test_stationary_distribution_matches_direct_products():
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(40):
        n = int(rng.integers(1, 8))
        cells, edges = oracles.random_graph(rng, n, 0.4)
        ss = space(graph_from_edges(cells, edges))
        rho = rng.uniform(0.01, 50.0, size=n)
        got = stationary_distribution(ss, rho)
        want = oracles.stationary_direct(ss.states, ss.cells, rho)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_stationary_distribution_handles_zero_and_extreme_rho():
    ss = space(chain())
    pi = stationary_distribution(ss, (1.0, 0.0, 1.0))
    assert pi[oracles.index_of(ss, (2,))] == 0.0
    assert pi.sum() == pytest.approx(1.0)
    # intensities overflow plain products but not the log-space path
    pi = stationary_distribution(ss, (1e300, 1e300, 1e300))
    assert np.isfinite(pi).all()
    assert pi[oracles.index_of(ss, (1, 3))] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stationary_distribution(ss, (1.0, -0.5, 1.0))


def _grid(rows, cols):
    return graph_from_edges(*oracles.grid_graph(rows, cols))


def test_stationary_rows_match_one_whole_matrix_gemv_each():
    ss = space(_grid(5, 5))
    rng = np.random.Generator(np.random.Philox(8))
    rho = rng.uniform(0.5, 40.0, size=(5, 25))
    rho[2, [3, 17]] = 0.0
    got = stationary_distribution(ss, rho)
    for r, row in zip(rho, got):
        logw = ss.active_float @ np.log(np.where(r == 0.0, 1.0, r))
        logw[(r == 0.0) @ ss.active_float.T > 0.0] = -np.inf
        w = np.exp(logw - logw.max())
        np.testing.assert_array_equal(row, w / w.sum())
        np.testing.assert_array_equal(row, stationary_distribution(ss, r))


@pytest.mark.parametrize("graph, rows", [(_grid(5, 5), 4), (chain(), 150)],
                         ids=["grid5x5", "chain-150-rows"])
def test_collision_rows_match_one_call_per_row(graph, rows):
    import cellwlan.multicell as multicell
    ss = space(graph)
    n = graph.size
    # the grid takes one row per bincount, the index's own column, the
    # chain 64, each offset by one row of patterns; the owners are offset
    # by one row of cells
    patterns, owner = multicell._row_columns(ss, rows)
    idx = ss.collision_index
    assert len(patterns) == (1 if n == 25 else 64)
    assert np.shares_memory(patterns, idx.column) == (n == 25)
    np.testing.assert_array_equal(patterns, idx.column + len(idx.owner)
                                  * np.arange(len(patterns))[:, None])
    np.testing.assert_array_equal(owner, np.concatenate(
        [idx.owner + n * r for r in range(rows)]))
    rng = np.random.Generator(np.random.Philox(9))
    pi = stationary_distribution(ss, rng.uniform(0.5, 40.0, size=(rows, n)))
    beta = rng.uniform(0.0, 0.3, size=(rows, n))
    beta[rows // 2, 0] = 1.0
    counts = rng.integers(1, 6, size=n)
    got = collision_probability(ss, pi, beta, counts)
    assert got.shape == (rows, n)
    for p, b, g in zip(pi, beta, got):
        np.testing.assert_array_equal(g, collision_probability(ss, p, b,
                                                               counts))
        np.testing.assert_allclose(
            g, oracles.collision_average_per_state(ss, p, b, counts),
            rtol=1e-12, atol=0.0)


def test_huge_intensities_are_refused_by_name():
    # the middle cell contends only in the empty state, whose mass
    # underflows at these intensities
    ss = space(chain())
    pi = stationary_distribution(ss, [1e200, 1e300, 1e200])
    assert pi[0] == 0.0
    for p in (pi, np.vstack([stationary_distribution(ss, [1.0] * 3), pi])):
        with pytest.raises(ValueError, match="access intensities too large"):
            collision_probability(ss, p, np.full(p.shape[:-1] + (3,), 0.1),
                                  (2, 2, 2))


def test_huge_intensities_are_refused_by_name_on_the_frontier_dp():
    # rho^13 overflows on the 5x5 grid, whose independence number is 13
    g = _grid(5, 5)
    plan = frontier_plan(g, frontier_steps(g))
    huge = np.full(25, 1e30)
    for rho in (huge, np.vstack([np.ones(25), huge])):
        with pytest.raises(ValueError, match="access intensities too large"):
            frontier_law(plan, rho, np.full(rho.shape, 0.1), [2] * 25)
    inp = MulticellInput(g, (2,) * 25, MP.with_payload(8e307), BO)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="access intensities too large"):
            solve_fixed_point(inp)


def _frontier_cases():
    """(graph, rows of rho, rows of beta, node counts): seeded random
    graphs of 1-16 cells, some with isolated cells, and grids up to 5x5;
    silent cells, intensities over 0.1-1e4, and beta 0 and 1 among the
    rows."""
    rng = np.random.Generator(np.random.Philox(21))
    graphs = [graph_from_edges(*oracles.random_graph(
        rng, n, float(rng.uniform(0.1, 0.6)))) for n in range(1, 17)]
    graphs += [graph_from_edges(*oracles.random_graph(rng, 12, 0.3))
               for _ in range(4)]
    graphs += [_grid(r, c) for r, c in ((2, 2), (2, 5), (3, 3), (3, 4),
                                        (4, 4), (4, 5), (5, 5))]
    for g in graphs:
        n = g.size
        rho = 10.0 ** rng.uniform(-1.0, 4.0, size=(4, n))
        rho[1, rng.random(n) < 0.3] = 0.0
        beta = rng.uniform(0.0, 1.0, size=(4, n))
        beta[2, rng.random(n) < 0.5] = 0.0
        beta[3, rng.random(n) < 0.5] = 1.0
        yield g, rho, beta, rng.integers(1, 8, size=n)


def test_frontier_dp_matches_enumeration():
    isolated = 0
    for g, rho, beta, counts in _frontier_cases():
        ss = space(g)
        pi = stationary_distribution(ss, rho)
        # the walk in id order and breadth first
        for order in (None, bfs_order(g)):
            steps = frontier_steps(g, order)
            plan = frontier_plan(g, steps)
            assert partition_function(steps, np.ones((1, g.size)))[0] == \
                len(ss)
            x, gamma = frontier_law(plan, rho, beta, counts)
            np.testing.assert_allclose(x, unblocked_fraction(ss, pi),
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(gamma, collision_probability(
                ss, pi, beta, counts), rtol=0.0, atol=1e-12)
            # each row again with beta in [0.998, 1], where the DP's signed
            # sum cancels most: gamma stays a probability
            near = 0.998 + 0.002 * beta
            _, got = frontier_law(plan, rho, near, counts)
            assert ((0.0 <= got) & (got <= 1.0)).all()
            np.testing.assert_allclose(got, collision_probability(
                ss, pi, near, counts), rtol=0.0, atol=1e-12)
            # one row at a time gives the same rows
            for got, want in zip(frontier_law(plan, rho[1], beta[1], counts),
                                 (x[1], gamma[1])):
                np.testing.assert_array_equal(got, want)
        isolated += int((~g.adjacency.any(axis=1)).sum())
    assert isolated >= 5


def test_partition_function_equals_the_bitmask_kernel_bit_for_bit():
    # the packed table of independent frontier subsets does the float
    # operations of a table of all 2^width masks, entry for entry: seeded
    # random graphs of 1-12 cells, three walk orders, 1, 4 and 20 rows,
    # zero and overflowing weights among them; Python-int weights count
    rng = np.random.Generator(np.random.Philox(29))
    for n in range(1, 13):
        for p in (0.2, 0.4, 0.7):
            g = graph_from_edges(*oracles.random_graph(rng, n, p))
            count = len(oracles.independent_sets_powerset(g.cells, g.edges))
            for order in (None, bfs_order(g), rng.permutation(n)):
                steps = frontier_steps(g, order)
                for rows in (1, 4, 20):
                    w = 10.0 ** rng.uniform(-3.0, 4.0, size=(rows, n))
                    w[rng.random((rows, n)) < 0.2] = 0.0
                    w[-1, rng.random(n) < 0.5] = 1e300
                    want = oracles.partition_function_bitmask(
                        g.adjacency, order, w)
                    assert partition_function(steps, w).tobytes() == \
                        want.tobytes()
                assert partition_function(steps, np.ones(
                    (1, n), dtype=object)).tolist() == [count]


def test_frontier_dp_refuses_bad_kernel_inputs_by_name():
    g = _grid(2, 2)
    plan = frontier_plan(g, frontier_steps(g))
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="^rho = "):
            frontier_law(plan, [bad, 1.0, 1.0, 1.0], [0.1] * 4, [2] * 4)
    for bad in (np.nan, 1.5):
        with pytest.raises(ValueError, match="^beta = "):
            frontier_law(plan, [1.0] * 4, [bad, 0.1, 0.1, 0.1], [2] * 4)


def _methods(monkeypatch, graph):
    """Which way ``_law`` reads the law of ``graph``: the numbers of
    frontier walks, frontier plans and enumerations it builds."""
    import cellwlan.multicell as multicell
    built = collections.Counter()

    def counted(name, fn):
        def call(*args):
            built[name] += 1
            return fn(*args)
        return call

    with monkeypatch.context() as m:
        for name in ("frontier_steps", "frontier_plan",
                     "enumerate_independent_sets"):
            m.setattr(multicell, name, counted(name, getattr(multicell, name)))
        law = multicell._law(graph, (2,) * graph.size)
    return law, built


def test_large_graphs_take_the_frontier_dp_and_small_ones_enumeration(
        monkeypatch):
    # DP work counts: at most 1 + cells + sum of 2^degree zero-sets times
    # the largest table, 282 x 21 on the 5x5 grid, 213 x 21 on the 4x5,
    # 179 x 16 on the 3x6 and 161 x 13 on the 4x4
    for (rows, cols), want in (((5, 5), 55447), ((4, 5), 6743),
                               ((3, 6), 2999)):
        (states, *_), built = _methods(monkeypatch, _grid(rows, cols))
        assert built == {"frontier_steps": 1, "frontier_plan": 1}
        assert states == want
    # the 4x4 grid counts its 1,234 states, fewer than its work count of
    # 2,093, then enumerates them; no plan is built
    (states, *_), built = _methods(monkeypatch, _grid(4, 4))
    assert built == {"frontier_steps": 1, "enumerate_independent_sets": 1}
    assert states == 1234
    # the 66-clique's walk stops at its first table: with up to
    # 1 + 66 + 66 x 2^65 zero-sets, no entry fits the batch budget
    cells = range(1, 67)
    (states, *_), built = _methods(monkeypatch, graph_from_edges(
        cells, list(itertools.combinations(cells, 2))))
    assert built == {"frontier_steps": 1, "enumerate_independent_sets": 1}
    assert states == 67
    rng = np.random.Generator(np.random.Philox(22))
    smalls = [chain(), clique(), graph_from_edges([1, 2], [(1, 2)]),
              _grid(3, 3), graph_from_edges(range(1, 9), [])]
    smalls += [graph_from_edges(*oracles.random_graph(
        rng, n, float(rng.uniform(0.0, 0.7)))) for n in range(4, 9)
        for _ in range(4)]
    for g in smalls:
        (states, *_), built = _methods(monkeypatch, g)
        assert built == {"enumerate_independent_sets": 1}
        assert states == len(space(g))


def test_graphs_of_at_most_ten_cells_enumerate_without_a_walk(monkeypatch):
    # 2^cells <= _DP_MIN_STATES: no walk is measured or built
    import cellwlan.multicell as multicell

    def refused(*args):
        raise AssertionError("walked a graph that always enumerates")

    for name in ("frontier_width", "bfs_order", "frontier_steps"):
        monkeypatch.setattr(multicell, name, refused)
    rng = np.random.Generator(np.random.Philox(27))
    for n in range(1, 11):
        g = graph_from_edges(*oracles.random_graph(rng, n, 0.3))
        (states, *_), built = _methods(monkeypatch, g)
        assert built == {"enumerate_independent_sets": 1}
        assert states == len(space(g))
    with pytest.raises(AssertionError, match="walked"):
        multicell._law(graph_from_edges(range(1, 12), []), (2,) * 11)


def test_state_count_overflowing_the_dp_is_a_cap_error():
    # 2^1100 independent sets: the one-row DP that counts them overflows
    import cellwlan.multicell as multicell
    with pytest.raises(StateSpaceCapError, match="^graph with 1100 cells has "
                       "too many independent sets to count$"):
        multicell._law(graph_from_edges(range(1, 1101), []), (2,) * 1100)


def test_grid_state_counts_stay_exact_past_two_to_the_53(monkeypatch):
    # OEIS A006506; the 9x9 and 10x10 grids, refused when the DP's table
    # held every frontier mask, take the DP within the batch budget
    for side, want in ((7, 1280128950), (8, 660647962955),
                       (9, 770548397261707), (10, 2030049051145980050)):
        assert oracles.grid_independent_sets(side, side) == want
        (states, row_floats, *_), built = _methods(monkeypatch,
                                                   _grid(side, side))
        assert built == {"frontier_steps": 1, "frontier_plan": 1}
        assert type(states) is int and states == want
    # 1,137 distinct zero-sets times a largest table of 233 entries
    assert row_floats == 264921
    # the same walk in floats rounds to ...979,904
    assert partition_function(frontier_steps(_grid(10, 10)), np.ones(
        (1, 100))).tolist() == [2030049051145979904.0]


def test_grid_too_wide_for_the_batch_budget_is_refused_by_name(monkeypatch):
    # the 12x12 grid's walk passes 2^20 floats per row (up to 2,081
    # zero-sets, a table over 503 entries) and stops there
    import cellwlan.multicell as multicell
    import cellwlan.topology as topology
    walked = []
    monkeypatch.setattr(multicell, "frontier_steps", lambda *args: (
        walked.append(topology.frontier_steps(*args)) or walked[-1]))
    monkeypatch.setattr(topology, "STATE_CAP", 1000)
    with pytest.raises(StateSpaceCapError, match=(
            r"^graph with 144 cells has more than 1000 independent sets; "
            r"enumeration refused; a frontier DP would hold more than "
            r"1048576 floats per row$")):
        multicell._law(_grid(12, 12), (2,) * 144)
    assert walked == [None]


def test_row_numbered_ladder_solves_like_the_column_numbered_one():
    # in id order the row-numbered 2x16 ladder has width 16, too wide for
    # the DP, and 1,607,521 states, over the cap; breadth first it has
    # width 3
    rows, cols = (graph_from_edges(*oracles.ladder_graph(16, by_rows))
                  for by_rows in (True, False))
    # per cell of the row-numbered ladder, its column-numbered index
    match = [2 * (j % 16) + j // 16 for j in range(32)]
    cfg = FixedPointConfig(multistart=0)
    got = solve_fixed_point(MulticellInput(rows, (2,) * 32, MP, BO), cfg)
    want = solve_fixed_point(MulticellInput(cols, (2,) * 32, MP, BO), cfg)
    assert got.state_count == want.state_count == 1607521
    np.testing.assert_allclose(got.x, want.x[match], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got.beta, want.beta[match], rtol=0.0,
                               atol=1e-8)


def test_graph_too_wide_for_the_dp_and_over_the_cap_names_both(monkeypatch):
    import cellwlan.multicell as multicell
    import cellwlan.topology as topology
    monkeypatch.setattr(topology, "STATE_CAP", 1000)
    monkeypatch.setattr(multicell, "_BATCH_STATES", 1000)
    inp = MulticellInput(_grid(5, 5), (2,) * 25, MP, BO)
    with pytest.raises(StateSpaceCapError, match=(
            r"more than 1000 independent sets; enumeration refused; a "
            r"frontier DP would hold more than 1000 floats per row$")):
        solve_fixed_point(inp)


def test_grid_6x6_solves_and_matches_the_row_transfer_oracle():
    inp = MulticellInput(_grid(6, 6), (2,) * 36, MP, BO)
    sol = solve_fixed_point(inp, FixedPointConfig(multistart=0))
    assert sol.state_count == 5598861
    np.testing.assert_allclose(
        sol.x, oracles.grid_unblocked_by_rows(6, 6, sol.rho),
        rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        attempt_probability(sol.gamma, BO), sol.beta, atol=1e-8)
    g = _grid(3, 4)
    rho = np.random.Generator(np.random.Philox(23)).uniform(0.1, 1e3, 12)
    np.testing.assert_allclose(
        oracles.grid_unblocked_by_rows(3, 4, rho),
        unblocked_fraction(space(g), stationary_distribution(space(g), rho)),
        rtol=0.0, atol=1e-12)


def _step_rows(monkeypatch, inp, times, beta, dp):
    """The prepared step on the rows of ``beta``, on the law ``_law``
    picks, or on a frontier DP with ``dp``: (its targets and aux, the
    plan)."""
    import cellwlan.multicell as multicell
    import cellwlan.topology as topology
    plans = []
    with monkeypatch.context() as m:
        if dp:
            m.setattr(multicell, "_DP_MIN_STATES", 0)
            m.setattr(multicell, "_DP_FACTOR", 0)
        m.setattr(multicell, "frontier_plan", lambda *args: plans.append(
            topology.frontier_plan(*args)) or plans[-1])
        law = multicell._law(inp.graph, inp.node_counts)
    assert len(plans) == dp
    _, _, gamma_for, _ = law
    out = multicell._step(inp, gamma_for, times)(beta, np.arange(len(beta)))
    return out, plans[0] if dp else None


def test_prepared_step_rows_equal_the_public_kernels(monkeypatch):
    # each row, bit for bit, on enumerated laws and frontier DPs; the
    # cw_min = 3 ladder has G(0) = 1, so beta = 1 and 0^0 appear, and the
    # DP's rows of beta near 1 keep gamma within [0, 1]
    rng = np.random.Generator(np.random.Philox(28))
    outcomes = collections.Counter()
    for k in range(16):
        n = k % 8 + 1
        g = graph_from_edges(*oracles.random_graph(rng, n, 0.5))
        counts = tuple(int(c) for c in rng.integers(1, 9, size=n))
        for backoff in (BO, mean_backoffs(3, 1024, 7)):
            start = attempt_probability(0.0, backoff)
            beta = np.vstack([rng.uniform(1e-3, 0.999, size=(3, n)),
                              rng.uniform(1e-3, 2e-3, size=(2, n)),
                              rng.uniform(0.998, 0.999, size=(2, n)),
                              np.full((1, n), 1e-3), np.full((1, n), 0.999),
                              np.full((1, n), start)])
            times = np.array([frame_exchange_times(MP.with_payload(pb))
                              for pb in rng.uniform(400.0, 12000.0,
                                                    size=len(beta))])
            inp = MulticellInput(g, counts, MP, backoff)
            for dp in (False, True):
                (target, aux), plan = _step_rows(monkeypatch, inp, times,
                                                 beta, dp)

                def law(rho, b):
                    if dp:
                        return frontier_law(plan, rho, b, counts)[1]
                    ss = space(g)
                    return collision_probability(
                        ss, stationary_distribution(ss, rho), b, counts)
                assert aux.shape == (len(beta), 4, n)
                for r, b in enumerate(beta):
                    gamma, lam, act, rho = aux[r]
                    want = [activation_rate(b, counts, MP.slot_time),
                            mean_activity_time(b, counts, *times[r])]
                    want = [law(want[0] * want[1], b), *want,
                            want[0] * want[1]]
                    for got, w in zip((gamma, lam, act, rho), want):
                        assert got.tobytes() == w.tobytes()
                    assert target[r].tobytes() == attempt_probability(
                        gamma, backoff).tobytes()
                outcomes["dp" if dp else "enumerated"] += 1
                outcomes["beta 1"] += int((beta[-1] == 1.0).all())
    assert outcomes["enumerated"] == outcomes["dp"] == 32
    assert outcomes["beta 1"] >= 16


def test_a_ladder_with_g_above_one_is_refused_by_a_solve():
    # cw_min = 2: the first mean backoff is half a slot, so G(0) = 2
    inp = MulticellInput(chain(), (2, 1, 3), MP, mean_backoffs(2, 64, 3))
    with pytest.raises(ValueError, match=(
            r"^reachable mean backoffs average below one slot \(cw_min <= "
            r"2\); attempt probability would exceed 1$")):
        solve_fixed_point(inp)


def test_solve_leaves_scipy_sparse_unloaded():
    code = ("import sys\n"
            "from cellwlan.dcf import backoff_preset, mac_phy_preset\n"
            "from cellwlan.multicell import MulticellInput, "
            "solve_fixed_point\n"
            "from cellwlan.topology import graph_from_edges\n"
            "g = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])\n"
            "solve_fixed_point(MulticellInput(g, (2, 2, 2), mac_phy_preset("
            "'dot11b-11mbps', 8000.0), backoff_preset('dot11b-11mbps')))\n"
            "print('scipy.sparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_per_state_collision_goldens():
    # the per-state reference that collision_probability is averaged from
    cells, edges = [1, 2, 3], [(1, 2), (2, 3)]
    beta = (0.1, 0.1, 0.1)
    n = (2, 2, 2)
    # empty state: the middle cell fights its cellmate and both neighbors
    assert oracles.collision_direct(cells, edges, (), 2, beta, n) == \
        pytest.approx(1.0 - 0.9 ** 5, rel=1e-12)
    assert oracles.collision_direct(cells, edges, (), 1, beta, n) == \
        pytest.approx(1.0 - 0.9 ** 3, rel=1e-12)
    # cell 1 active: cell 2 is blocked, so cell 3 fights only its cellmate
    assert oracles.collision_direct(cells, edges, (1,), 3, beta, n) == \
        pytest.approx(0.1, rel=1e-12)


def test_collision_probability_matches_scalar_average():
    rng = np.random.Generator(np.random.Philox(7))
    cases = []
    for k in range(40):
        n = int(rng.integers(1, 7))
        cells, edges = oracles.random_graph(rng, n, 0.5)
        beta = rng.uniform(0.01, 0.6, size=n)
        counts = rng.integers(1, 6, size=n)
        if k >= 25:
            # the ends of the range: sure silence, sure attempts, lone nodes
            beta[rng.random(n) < 0.4] = 0.0
            beta[rng.random(n) < 0.4] = 1.0
            counts[rng.random(n) < 0.5] = 1
        cases.append((cells, edges, beta, counts))
    cases.append(([1, 2, 3], [(1, 2), (2, 3)], np.array([1.0, 0.2, 0.3]),
                   np.array([1, 2, 2])))
    # degree 69 and 71 states: one contending pattern per cell
    clique = list(range(1, 71))
    cases.append((clique, list(itertools.combinations(clique, 2)),
                  rng.uniform(0.0, 0.05, size=70), rng.integers(1, 4, size=70)))
    for cells, edges, beta, counts in cases:
        ss = space(graph_from_edges(cells, edges))
        pi = stationary_distribution(ss, rng.uniform(0.1, 5.0, size=len(cells)))
        got = collision_probability(ss, pi, beta, counts)
        for j, c in enumerate(ss.cells):
            num = den = 0.0
            for s, members in enumerate(ss.states):
                if ss.contending_mask[s, j]:
                    num += pi[s] * oracles.collision_direct(
                        cells, edges, members, c, beta, counts)
                    den += pi[s]
            assert got[j] == pytest.approx(num / den, rel=1e-9)


def test_unblocked_fraction_closed_forms():
    ss = space(chain())
    x = unblocked_fraction(ss, stationary_distribution(ss, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(x, [0.8, 0.4, 0.8], rtol=1e-12)
    ss = space(clique())
    x = unblocked_fraction(ss, stationary_distribution(ss, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(x, [0.5, 0.5, 0.5], rtol=1e-12)
    # complete graphs: x = (1 + rho) / (1 + N rho)
    for n in range(2, 7):
        g = graph_from_edges(list(range(1, n + 1)),
                             list(itertools.combinations(range(1, n + 1), 2)))
        ss = space(g)
        for r in (0.5, 2.0):
            x = unblocked_fraction(ss, stationary_distribution(ss, (r,) * n))
            np.testing.assert_allclose(x, (1 + r) / (1 + n * r), rtol=1e-12)


def test_extra_edge_can_raise_a_third_cells_x():
    # pinned counterexample: closing the chain into a triangle blocks the
    # middle cell's neighbors and thereby helps the middle cell
    r = (1.0, 1.0, 1.0)
    ss = space(chain())
    x_chain = unblocked_fraction(ss, stationary_distribution(ss, r))
    ss = space(clique())
    x_tri = unblocked_fraction(ss, stationary_distribution(ss, r))
    assert x_chain[1] == pytest.approx(0.4)
    assert x_tri[1] == pytest.approx(0.5)
    assert x_tri[1] > x_chain[1]


def test_adding_an_edge_never_helps_its_endpoints():
    rng = np.random.Generator(np.random.Philox(31337))
    done = 0
    while done < 60:
        n = int(rng.integers(2, 8))
        cells, edges = oracles.random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        free = [(a, b) for a, b in itertools.combinations(cells, 2)
                if (a, b) not in edges and (b, a) not in edges]
        if not free:
            continue
        a, b = free[int(rng.integers(len(free)))]
        rho = rng.uniform(0.05, 20.0, size=n)
        ss0 = space(graph_from_edges(cells, edges))
        ss1 = space(graph_from_edges(cells, edges + [(a, b)]))
        x0 = unblocked_fraction(ss0, stationary_distribution(ss0, rho))
        x1 = unblocked_fraction(ss1, stationary_distribution(ss1, rho))
        ia, ib = cells.index(a), cells.index(b)
        assert x1[ia] <= x0[ia] + 1e-12
        assert x1[ib] <= x0[ib] + 1e-12
        done += 1


def test_detailed_balance_of_product_form_law():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(20):
        n = int(rng.integers(1, 7))
        cells, edges = oracles.random_graph(rng, n, 0.5)
        ss = space(graph_from_edges(cells, edges))
        lam = rng.uniform(10.0, 1e4, size=n)
        mu = rng.uniform(10.0, 1e4, size=n)
        pi = stationary_distribution(ss, lam / mu)
        assert oracles.detailed_balance_residual(ss, pi, lam, mu) <= 1e-12
        # a perturbed law must be flagged
        bad = pi.copy()
        bad[0] *= 1.5
        bad /= bad.sum()
        if len(ss) > 1:
            assert oracles.detailed_balance_residual(ss, bad, lam, mu) > 1e-3


def test_attempt_vector_matches_scalar():
    # one attempt_probability serves scalars and arrays; both agree with
    # the Horner oracle (array rows and a lone gamma may be summed in a
    # different order by BLAS, so the two can differ in the last bit)
    gammas = np.linspace(0.0, 1.0, 17)
    got = attempt_probability(gammas, BO)
    assert got.shape == gammas.shape
    scalar = [attempt_probability(float(g), BO) for g in gammas]
    want = [oracles.attempt_probability_horner(float(g), BO.mean_backoffs)
            for g in gammas]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(scalar, want, rtol=1e-12)


def test_three_chain_frozen_regression():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    sol = solve_fixed_point(inp)
    np.testing.assert_allclose(
        sol.beta, [0.03789824994749614, 0.013058595154271149,
                   0.03789824994749614], rtol=1e-9)
    np.testing.assert_allclose(
        sol.gamma, [0.2980289290450789, 0.5897558463455723,
                    0.2980289290450789], rtol=1e-9)
    np.testing.assert_allclose(
        sol.rho, [19.09798399374427, 7.495987800972531, 19.09798399374427],
        rtol=1e-9)
    np.testing.assert_allclose(
        sol.x, [0.981780424765506, 0.020650152193561318, 0.981780424765506],
        rtol=1e-9)
    np.testing.assert_allclose(
        sol.cell_throughput_pkts,
        [663.8255664502565, 13.96248960703099, 663.8255664502565], rtol=1e-9)
    assert sol.normalized_network_throughput == pytest.approx(
        1.9842110017245733, rel=1e-9)
    assert sol.warnings == ()
    assert sol.state_count == 5
    ss = space(chain())
    assert oracles.detailed_balance_residual(
        ss, stationary_distribution(ss, sol.rho), sol.activation_rates,
        1.0 / sol.mean_activities) <= 1e-9


def test_solution_is_a_true_fixed_point():
    # re-deriving every quantity from the converged beta reproduces the
    # solution fields, so they are mutually consistent
    inp = MulticellInput(graph=clique(), node_counts=(5, 5, 5),
                         mac_phy=MP, backoff=BO)
    sol = solve_fixed_point(inp, FixedPointConfig(tolerance=1e-12))
    ss = space(clique())
    pi = stationary_distribution(ss, sol.rho)
    np.testing.assert_allclose(unblocked_fraction(ss, pi), sol.x, rtol=1e-9)
    gam = collision_probability(ss, pi, sol.beta, (5, 5, 5))
    np.testing.assert_allclose(gam, sol.gamma, rtol=1e-9)
    np.testing.assert_allclose(attempt_probability(gam, BO), sol.beta,
                               atol=1e-10)


def test_solver_agrees_from_custom_start():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    base = solve_fixed_point(inp)
    alt = oracles.fixed_point_from(inp, FixedPointConfig(),
                                   np.array([0.5, 0.01, 0.9]))
    np.testing.assert_allclose(alt, base.beta, atol=1e-6)


def test_isolated_cell_reduces_to_single_cell_model():
    g = graph_from_edges([1], [])
    inp = MulticellInput(graph=g, node_counts=(10,), mac_phy=MP, backoff=BO)
    sol = solve_fixed_point(inp)
    iso = solve_single_cell(10, MP, BO)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.beta[0] == pytest.approx(iso.beta, abs=1e-7)
    assert sol.cell_throughput_pkts[0] == pytest.approx(
        iso.throughput_pkts, rel=1e-6)


def test_edgeless_network_is_independent_cells():
    g = graph_from_edges([1, 2, 3], [])
    inp = MulticellInput(graph=g, node_counts=(4, 4, 4), mac_phy=MP,
                         backoff=BO)
    sol = solve_fixed_point(inp)
    iso = solve_single_cell(4, MP, BO)
    np.testing.assert_allclose(sol.x, 1.0, atol=1e-12)
    np.testing.assert_allclose(sol.beta, iso.beta, atol=1e-7)
    assert sol.normalized_network_throughput == pytest.approx(3.0, abs=1e-12)


def test_network_throughput_within_packing_bound_at_realistic_load():
    # the packing bound is an asymptotic property; saturated 802.11b
    # operating points have intensities well past the crossover
    for payload_bytes in (100, 500, 1000, 1500):
        inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                             mac_phy=MP.with_payload(8.0 * payload_bytes),
                             backoff=BO)
        sol = solve_fixed_point(inp)
        assert sol.rho.min() > 1.0
        assert sol.normalized_network_throughput <= 2.0 + 1e-12


def test_saturation_throughputs_scaling():
    # each cell delivers x times the throughput of an isolated cell with
    # its node count, and its nodes share that equally
    sol = solve_fixed_point(MulticellInput(
        graph=graph_from_edges([1, 2], [(1, 2)]), node_counts=(10, 2),
        mac_phy=MP, backoff=BO))
    for j, n in enumerate((10, 2)):
        iso = solve_single_cell(n, MP, BO).throughput_pkts
        assert sol.isolated_throughput_pkts[j] == pytest.approx(iso, rel=1e-12)
        assert sol.cell_throughput_pkts[j] == pytest.approx(
            sol.x[j] * iso, rel=1e-12)
        assert sol.per_node_throughput_pkts[j] == pytest.approx(
            sol.cell_throughput_pkts[j] / n, rel=1e-12)


def test_tcp_long_equivalent_pair():
    res = tcp_long_throughputs(graph_from_edges([1], []), MP, BO,
                               tcp_data_bits=12000.0, tcp_ack_bits=320.0)
    assert res.equivalent_payload_bits == 6160.0
    iso = solve_single_cell(2, MP.with_payload(6160.0), BO)
    assert res.isolated_ap_throughput_pkts == pytest.approx(
        iso.throughput_pkts / 2.0, rel=1e-12)
    assert res.ap_throughput_pkts[0] == pytest.approx(
        res.isolated_ap_throughput_pkts, rel=1e-9)
    assert res.solution.node_counts == (2,)


def test_tcp_long_solves_the_isolated_pair_once(monkeypatch):
    # the pair's isolated throughput scales x and is reported as well:
    # one single-cell solve serves both, and it equals a fresh solve exactly
    import cellwlan.multicell as multicell
    calls = []

    def counted(node_count, mac_phy, backoff):
        calls.append(node_count)
        return solve_single_cell(node_count, mac_phy, backoff)

    monkeypatch.setattr(multicell, "solve_single_cell", counted)
    res = tcp_long_throughputs(chain(), MP, BO, tcp_data_bits=12000.0,
                               tcp_ack_bits=320.0)
    assert calls == [2]
    pair = solve_single_cell(2, MP.with_payload(6160.0), BO).throughput_pkts
    assert res.isolated_ap_throughput_pkts == pair / 2.0
    assert type(res.isolated_ap_throughput_pkts) is float
    np.testing.assert_array_equal(res.solution.isolated_throughput_pkts,
                                  [pair] * 3)


def test_tcp_long_three_chain_frozen():
    res = tcp_long_throughputs(chain(), MP, BO, tcp_data_bits=12000.0,
                               tcp_ack_bits=320.0)
    assert res.isolated_ap_throughput_pkts == pytest.approx(
        401.2512344285304, rel=1e-9)
    np.testing.assert_allclose(
        res.ap_throughput_pkts,
        [368.7015452181541, 39.87316346504047, 368.7015452181541], rtol=1e-9)


def test_infinite_rho_goldens():
    mis = mis_stats(chain())
    assert mis.share == (1.0, 0.0, 1.0)
    assert mis.max_size == 2
    mis = mis_stats(clique())
    np.testing.assert_allclose(mis.share, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    assert mis.max_size == 1
    mis = mis_stats(graph_from_edges([1, 2, 3, 4], []))
    assert mis.share == (1.0, 1.0, 1.0, 1.0)
    assert mis.max_size == 4


def test_infinite_rho_random_graphs_sum_to_alpha():
    from fractions import Fraction
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(40):
        n = int(rng.integers(2, 10))
        cells, edges = oracles.random_graph(rng, n, 0.4)
        mis = mis_stats(graph_from_edges(cells, edges))
        total = sum(Fraction(c, mis.count) for c in mis.per_cell)
        assert total == mis.max_size


def test_payload_sweep_monotone_and_consistent():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    payloads = (800.0, 4000.0, 8000.0, 12000.0)
    points = payload_sweep(inp, payloads)
    assert tuple(p.payload_bits for p in points) == payloads
    for a, b in zip(points, points[1:]):
        assert all(rb > ra for ra, rb in zip(a.rho, b.rho))
    single = payload_sweep(inp, (8000.0,))[0]
    sol = solve_fixed_point(inp)
    np.testing.assert_allclose(single.x, sol.x, rtol=1e-12)
    np.testing.assert_allclose(single.beta, sol.beta, rtol=1e-12)


def test_payload_sweep_solves_no_single_cell(monkeypatch):
    # a sweep point keeps no throughput, so no isolated cell is solved;
    # each point is the fixed point that solve_fixed_point reaches
    import cellwlan.multicell as multicell
    inp = MulticellInput(graph=chain(), node_counts=(10, 5, 10),
                         mac_phy=MP, backoff=BO)
    payloads = tuple(8.0 * b for b in range(100, 1501, 100))
    want = [solve_fixed_point(MulticellInput(inp.graph, inp.node_counts,
                                             MP.with_payload(pb), BO))
            for pb in payloads]
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_single_cell(*args)

    monkeypatch.setattr(multicell, "solve_single_cell", counted)
    points = payload_sweep(inp, payloads)
    assert calls == []
    assert len(points) == 15
    for pt, sol in zip(points, want):
        assert pt.beta == tuple(sol.beta) and pt.rho == tuple(sol.rho)
        assert pt.x == tuple(sol.x)
        assert (pt.normalized_network_throughput
                == sol.normalized_network_throughput)


def test_input_validation():
    with pytest.raises(ValueError):
        MulticellInput(graph=chain(), node_counts=(10, 10), mac_phy=MP,
                       backoff=BO)
    with pytest.raises(ValueError):
        MulticellInput(graph=chain(), node_counts=(10, 0, 10), mac_phy=MP,
                       backoff=BO)


def test_an_empty_network_is_refused_by_name():
    empty = graph_from_edges([], [])
    for run in (
            lambda: solve_fixed_point(MulticellInput(empty, (), MP, BO)),
            lambda: payload_sweep(MulticellInput(empty, (), MP, BO), [8e3]),
            lambda: tcp_long_throughputs(empty, MP, BO, 12e3, 320.0),
            lambda: effective_rate_fixed_point(empty,
                                               FlowParams((), 1.0, 1.0))):
        with pytest.raises(ValueError,
                           match="^a network needs at least one cell$"):
            run()


@pytest.mark.parametrize("setting, value", [
    ("damping", 0.0), ("damping", 1.5), ("damping", float("nan")),
    ("tolerance", -1.0), ("tolerance", float("nan")),
    ("max_iterations", 0), ("max_iterations", 2.5)])
def test_bad_solver_setting_is_named(setting, value):
    # refused where the settings are made, before any solver sees them
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        FixedPointConfig(**{setting: value})


def test_negative_multistart_is_named():
    with pytest.raises(ValueError, match="multistart must be >= 0"):
        FixedPointConfig(multistart=-2)


def _chain_input(counts):
    return MulticellInput(graph=chain(), node_counts=counts, mac_phy=MP,
                          backoff=BO)


@pytest.mark.parametrize("name, make", [
    ("multistart", lambda: FixedPointConfig(multistart=1.5)),
    ("node_counts", lambda: _chain_input((10, 2.5, 10))),
    ("node_counts", lambda: _chain_input((True, 2, 2)))],
    ids=["multistart", "fractional-node-count", "bool-node-count"])
def test_setting_that_is_not_a_whole_number_is_named(name, make):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        make()


@pytest.mark.parametrize("name, make", [
    ("rho", lambda ss: stationary_distribution(ss, [np.nan, 1.0, 1.0])),
    ("rho", lambda ss: stationary_distribution(ss, [np.inf, 1.0, 1.0])),
    ("beta", lambda ss: collision_probability(
        ss, np.full(len(ss), 1.0 / len(ss)), [1.5, 0.1, 0.1], (2, 2, 2))),
    ("beta", lambda ss: collision_probability(
        ss, np.full(len(ss), 1.0 / len(ss)), [np.nan, 0.1, 0.1],
        (2, 2, 2)))],
    ids=["rho-nan", "rho-inf", "beta-above-one", "beta-nan"])
def test_kernel_input_out_of_range_is_named(name, make):
    with pytest.raises(ValueError, match=f"^{name} = "):
        make(space(chain()))


def test_kernel_input_of_the_wrong_shape_is_named():
    # a 4-entry beta on the 3-cell chain would be read as the padding
    # column of the silence product; a 2-entry one would index past it
    ss = space(chain())
    pi = stationary_distribution(ss, [1.0, 2.0, 1.0])
    np.testing.assert_allclose(collision_probability(
        ss, pi, [0.1, 0.2, 0.1], (2, 2, 2)), [0.262, 0.47512, 0.262])
    rows = np.vstack([pi, pi])
    bad = [(pi, [0.1, 0.2, 0.1, 0.5], (2, 2, 2), "beta"),
           (pi, [0.1, 0.2], (2, 2, 2), "beta"),
           (rows, [0.1, 0.2, 0.1], (2, 2, 2), "beta"),
           (pi, [0.1, 0.2, 0.1], (2, 2), "node_counts"),
           (pi, [0.1, 0.2, 0.1], (2, 2, 2, 2), "node_counts"),
           (pi[:-1], [0.1, 0.2, 0.1], (2, 2, 2), "pi"),
           (rows[None], np.full((1, 2, 3), 0.1), (2, 2, 2), "pi")]
    for p, beta, counts, name in bad:
        with pytest.raises(ValueError, match=f"^{name} has shape "):
            collision_probability(ss, p, beta, counts)
    for p in (pi[:-1], np.append(pi, 0.0), rows[None]):
        with pytest.raises(ValueError, match="^pi has shape "):
            unblocked_fraction(ss, p)
    for r in ([1.0, 2.0], [1.0] * 4, np.ones((1, 1, 3))):
        with pytest.raises(ValueError, match="^rho has shape "):
            stationary_distribution(ss, r)
    g = _grid(2, 2)
    plan = frontier_plan(g, frontier_steps(g))
    rho = np.ones(4)
    for r, beta, counts, name in (
            (rho[:3], np.full(3, 0.1), [2] * 3, "rho"),
            (np.ones((1, 1, 4)), np.full((1, 1, 4), 0.1), [2] * 4, "rho"),
            (rho, np.full(5, 0.1), [2] * 4, "beta"),
            (np.ones((2, 4)), np.full(4, 0.1), [2] * 4, "beta"),
            (rho, np.full(4, 0.1), [2] * 3, "node_counts")):
        with pytest.raises(ValueError, match=f"^{name} has shape "):
            frontier_law(plan, r, beta, counts)


def test_nonconvergence_is_a_convergence_error():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    with pytest.raises(ConvergenceError, match=r"^multi-cell fixed point: "
                       r"residual .* after 1 iterations$"):
        solve_fixed_point(inp, FixedPointConfig(max_iterations=1))


def _batched_rows(monkeypatch, run, per_point):
    """run(), with the rows of the batched damped calls it makes, split
    into one block of ``per_point`` rows per point, main row first:
    (result, blocks, rows per batch)."""
    import cellwlan.multicell as multicell
    batches = []

    def recorded(step, x0, *args):
        out = damped_fixed_point(step, x0, *args)
        batches.append(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(multicell, "damped_fixed_point", recorded)
        result = run()
    rows = [row for batch in batches for row in batch]
    blocks = [rows[k:k + per_point] for k in range(0, len(rows), per_point)]
    return result, blocks, [len(batch) for batch in batches]


def _assert_point_matches(block, beta, probes):
    """A point's block of rows against the sequential solves: the main
    row bit for bit, each settled probe to 1e-12."""
    assert block[0].tobytes() == beta.tobytes()
    assert len(block) == 1 + len(probes)
    for got, want in zip(block[1:], probes):
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _random_input(rng, n):
    cells, edges = oracles.random_graph(rng, n, float(rng.uniform(0.2, 0.7)))
    counts = tuple(int(c) for c in rng.integers(1, 11, size=n))
    mp = mac_phy_preset("dot11b-11mbps", float(rng.uniform(400, 12000)))
    return MulticellInput(graph_from_edges(cells, edges), counts, mp, BO)


def test_batched_probes_match_one_solve_per_start(monkeypatch):
    # max_iterations a few steps past the main solve's count, so that some
    # probes settle and some do not; damping 1.0 oscillates on some graphs
    rng = np.random.Generator(np.random.Philox(12))
    outcomes = collections.Counter()
    for k in range(30):
        inp = _random_input(rng, k % 10 + 1)
        damping = (0.5, 1.0, 0.8, 0.3, 1.0)[k % 5]
        tolerance = (1e-8, 1e-13, 1e-8)[k % 3]
        try:
            main_it = solve_fixed_point(inp, FixedPointConfig(
                tolerance=tolerance, damping=damping, max_iterations=400,
                multistart=0)).iterations
        except ConvergenceError:
            main_it = 400
        cfg = FixedPointConfig(
            tolerance=tolerance, damping=damping,
            max_iterations=main_it + int(rng.integers(0, 12)),
            multistart=(0, 1, 3, 7)[k % 4])
        try:
            beta, want_rows, want_warnings = \
                oracles.fixed_point_sequential_probes(inp, cfg)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                solve_fixed_point(inp, cfg)
            outcomes["main failed"] += 1
            continue
        sol, [block], _ = _batched_rows(
            monkeypatch, lambda: solve_fixed_point(inp, cfg),
            1 + cfg.multistart)
        assert sol.beta.tobytes() == beta.tobytes()
        assert list(sol.warnings) == want_warnings
        _assert_point_matches(block, beta, want_rows)
        outcomes["settled"] += sum(r is not None for r in want_rows)
        outcomes["unsettled"] += sum(r is None for r in want_rows)
    assert min(outcomes["settled"], outcomes["unsettled"]) >= 10
    assert outcomes["main failed"] >= 1


def test_sweep_points_match_one_solve_per_payload(monkeypatch):
    # every point's rows share the batched iterations, and a budget of a
    # few rows cuts the batches through the points' blocks
    import cellwlan.multicell as multicell
    rng = np.random.Generator(np.random.Philox(13))
    outcomes = collections.Counter()
    for k in range(30):
        inp = _random_input(rng, k % 10 + 1)
        payloads = [float(p) for p in
                    rng.uniform(400, 12000, size=int(rng.integers(1, 5)))]
        # max_iterations a few steps past the quickest main solve's count,
        # so that probes, and main solves at other payloads, may not settle
        main_it = min(solve_fixed_point(
            MulticellInput(inp.graph, inp.node_counts,
                           inp.mac_phy.with_payload(pb), BO),
            FixedPointConfig(multistart=0)).iterations for pb in payloads)
        cfg = FixedPointConfig(
            max_iterations=main_it + int(rng.integers(0, 16 if k % 3 else 3)),
            multistart=(0, 1, 3, 7)[k % 4])
        states = len(space(inp.graph))
        monkeypatch.setattr(multicell, "_BATCH_STATES",
                            int(rng.integers(1, 10)) * states)
        want = []
        for pb in payloads:
            point = MulticellInput(inp.graph, inp.node_counts,
                                   inp.mac_phy.with_payload(pb), BO)
            try:
                want.append(oracles.fixed_point_sequential_probes(point, cfg))
            except ConvergenceError as e:
                with pytest.raises(ConvergenceError) as got:
                    payload_sweep(inp, payloads, cfg)
                assert str(got.value) == str(e)
                outcomes["main failed"] += 1
                break
        else:
            points, blocks, sizes = _batched_rows(
                monkeypatch, lambda: payload_sweep(inp, payloads, cfg),
                1 + cfg.multistart)
            assert max(sizes) * states <= multicell._BATCH_STATES
            assert len(points) == len(blocks) == len(payloads)
            for pt, block, (beta, probes, warnings) in zip(points, blocks,
                                                          want):
                assert np.array(pt.beta).tobytes() == beta.tobytes()
                assert list(pt.warnings) == warnings
                _assert_point_matches(block, beta, probes)
                outcomes["settled"] += sum(r is not None for r in probes)
                outcomes["unsettled"] += sum(r is None for r in probes)
    assert min(outcomes["settled"], outcomes["unsettled"]) >= 10
    assert outcomes["main failed"] >= 1


def test_sweep_failing_at_its_second_point_names_that_point():
    # the main solve takes 17 iterations at 800 bits, 19 at 12,000 and 18
    # at 2,000: the error is the 12,000-bit point's
    inp = MulticellInput(chain(), (2, 5, 3), MP, BO)
    cfg = FixedPointConfig(max_iterations=17)
    # the first point settles on its own
    payload_sweep(inp, [800.0], cfg)
    errors = []
    for pb in (12000.0, 2000.0):
        with pytest.raises(ConvergenceError) as e:
            solve_fixed_point(MulticellInput(
                chain(), (2, 5, 3), MP.with_payload(pb), BO), cfg)
        errors.append(str(e.value))
    assert errors[0] != errors[1]
    with pytest.raises(ConvergenceError) as got:
        payload_sweep(inp, [800.0, 12000.0, 2000.0], cfg)
    assert str(got.value) == errors[0]


def test_probe_batches_bound_their_arrays(monkeypatch):
    import cellwlan.multicell as multicell
    # the 4x4 grid enumerates its 1,234 states; the main solve takes 19
    # iterations, and 15 of the 100 probes more than 28
    inp = MulticellInput(_grid(4, 4), (2,) * 16, MP, BO)
    states = len(space(inp.graph))
    assert multicell._law(inp.graph, inp.node_counts)[:2] == (states, states)
    cfg = FixedPointConfig(multistart=100, max_iterations=28)
    beta, want_rows, want_warnings = oracles.fixed_point_sequential_probes(
        inp, cfg)

    def run():
        return solve_fixed_point(inp, cfg)

    sol, [block], sizes = _batched_rows(monkeypatch, run, 101)
    assert max(sizes) * states <= multicell._BATCH_STATES
    assert list(sol.warnings) == want_warnings
    assert 0 < sum(r is None for r in want_rows) < 100
    _assert_point_matches(block, beta, want_rows)
    # a budget of a few rows splits the main row and the probes into
    # batches, all counted against it, and the starts keep their numbers
    # across them
    monkeypatch.setattr(multicell, "_BATCH_STATES", 7 * states)
    sol7, [block7], sizes7 = _batched_rows(monkeypatch, run, 101)
    assert sizes7 == [7] * 14 + [3]
    assert sol7.warnings == sol.warnings
    _assert_point_matches(block7, beta, want_rows)


def test_sweep_leaves_each_finished_point_law_to_the_caller(monkeypatch):
    # a sweep holds no law per payload: each point carries per-cell
    # vectors only, and a caller that wants the law builds it from rho
    import cellwlan.multicell as multicell
    inp = MulticellInput(chain(), (2, 5, 3), MP, BO)
    ss = space(inp.graph)
    monkeypatch.setattr(multicell, "_BATCH_STATES", 6 * len(ss))
    points = list(multicell._fixed_point(
        inp, [800.0 * p for p in range(1, 9)], FixedPointConfig(),
        multicell._law(inp.graph, inp.node_counts)))
    assert len(points) == 8
    for beta, aux, x, *_ in points:
        assert [np.shape(v) for v in (beta, *aux, x)] == [(3,)] * 6
        np.testing.assert_array_equal(x, unblocked_fraction(
            ss, stationary_distribution(ss, aux[-1])))
