"""Coupled multi-cell model: product-form law, collisions, fixed point."""

import itertools

import numpy as np
import pytest

from cellwlan.dcf import (ConvergenceError, attempt_probability,
                          backoff_preset, mac_phy_preset, solve_single_cell)
from cellwlan.multicell import (FixedPointConfig, MulticellInput,
                                activation_rate, collision_probability,
                                detailed_balance_residual, infinite_rho_x,
                                mean_activity_time, payload_sweep,
                                saturation_throughputs,
                                solve_fixed_point, stationary_distribution,
                                tcp_long_throughputs, unblocked_fraction)
from cellwlan.topology import enumerate_independent_sets, graph_from_edges

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
    assert pi[ss.index_of((2,))] == 0.0
    assert pi.sum() == pytest.approx(1.0)
    # intensities overflow plain products but not the log-space path
    pi = stationary_distribution(ss, (1e300, 1e300, 1e300))
    assert np.isfinite(pi).all()
    assert pi[ss.index_of((1, 3))] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stationary_distribution(ss, (1.0, -0.5, 1.0))


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
        assert detailed_balance_residual(ss, pi, lam, mu) <= 1e-12
        # a perturbed law must be flagged
        bad = pi.copy()
        bad[0] *= 1.5
        bad /= bad.sum()
        if len(ss) > 1:
            assert detailed_balance_residual(ss, bad, lam, mu) > 1e-3


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
    assert detailed_balance_residual(
        sol.state_space, sol.pi, sol.activation_rates,
        1.0 / sol.mean_activities) <= 1e-9


def test_solution_is_a_true_fixed_point():
    # re-deriving every quantity from the converged beta reproduces the
    # solution fields, so they are mutually consistent
    inp = MulticellInput(graph=clique(), node_counts=(5, 5, 5),
                         mac_phy=MP, backoff=BO)
    sol = solve_fixed_point(inp, FixedPointConfig(tolerance=1e-12))
    ss = sol.state_space
    pi = stationary_distribution(ss, sol.rho)
    np.testing.assert_allclose(pi, sol.pi, rtol=1e-9)
    gam = collision_probability(ss, pi, sol.beta, (5, 5, 5))
    np.testing.assert_allclose(gam, sol.gamma, rtol=1e-9)
    np.testing.assert_allclose(attempt_probability(gam, BO), sol.beta,
                               atol=1e-10)


def test_solver_agrees_from_custom_start():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    base = solve_fixed_point(inp)
    alt = solve_fixed_point(inp, FixedPointConfig(
        initial_beta=(0.5, 0.01, 0.9)))
    np.testing.assert_allclose(alt.beta, base.beta, atol=1e-6)


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
    cell, node = saturation_throughputs([1.0, 0.5], (10, 2), MP, BO)
    iso10 = solve_single_cell(10, MP, BO).throughput_pkts
    iso2 = solve_single_cell(2, MP, BO).throughput_pkts
    assert cell[0] == pytest.approx(iso10, rel=1e-12)
    assert cell[1] == pytest.approx(0.5 * iso2, rel=1e-12)
    np.testing.assert_allclose(node, cell / np.array([10, 2]), rtol=1e-12)


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
    lim = infinite_rho_x(chain())
    assert lim.x == (1.0, 0.0, 1.0)
    assert lim.normalized_network_throughput == 2.0
    lim = infinite_rho_x(clique())
    np.testing.assert_allclose(lim.x, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    assert lim.normalized_network_throughput == 1.0
    lim = infinite_rho_x(graph_from_edges([1, 2, 3, 4], []))
    assert lim.x == (1.0, 1.0, 1.0, 1.0)
    assert lim.normalized_network_throughput == 4.0


def test_infinite_rho_random_graphs_sum_to_alpha():
    from fractions import Fraction
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(40):
        n = int(rng.integers(2, 10))
        cells, edges = oracles.random_graph(rng, n, 0.4)
        lim = infinite_rho_x(graph_from_edges(cells, edges))
        total = sum(Fraction(c, lim.mis.count) for c in lim.mis.per_cell)
        assert total == lim.mis.max_size


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
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    with pytest.raises(ValueError):
        solve_fixed_point(inp, FixedPointConfig(initial_beta=(0.1, 0.1)))


def test_nonconvergence_is_a_convergence_error():
    inp = MulticellInput(graph=chain(), node_counts=(10, 10, 10),
                         mac_phy=MP, backoff=BO)
    with pytest.raises(ConvergenceError, match=r"^multi-cell fixed point: "
                       r"residual .* after 1 iterations$"):
        solve_fixed_point(inp, FixedPointConfig(max_iterations=1))
