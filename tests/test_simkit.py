"""Monte-Carlo cross-checks: jump-chain and slot-level simulators."""

import math

import numpy as np
import pytest

import oracles
from cellwlan import simkit
from cellwlan.dcf import (backoff_preset, frame_exchange_times,
                          mac_phy_preset)
from cellwlan.multicell import MulticellInput, solve_fixed_point
from cellwlan.simkit import simulate_ctmc, simulate_slotted, slots_for
from cellwlan.topology import enumerate_independent_sets, graph_from_edges

MP = mac_phy_preset("dot11b-11mbps", 8000.0)
BO = backoff_preset("dot11b-11mbps")


def chain():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def chain_solution(n=10):
    inp = MulticellInput(graph=chain(), node_counts=(n, n, n), mac_phy=MP,
                         backoff=BO)
    return solve_fixed_point(inp)


def test_slots_for():
    assert slots_for(994e-6, 20e-6) == 50
    assert slots_for(13540.0 / 11.0 * 1e-6, 20e-6) == 62
    assert slots_for(20e-6, 20e-6) == 1
    assert slots_for(60e-6, 20e-6) == 3  # exact multiple, no float creep
    assert slots_for(1e-9, 20e-6) == 1
    with pytest.raises(ValueError):
        slots_for(0.0, 20e-6)
    with pytest.raises(ValueError):
        slots_for(1.0, 0.0)


def test_ctmc_is_deterministic_per_seed():
    sol = chain_solution()
    lam = sol.activation_rates
    mu = 1.0 / sol.mean_activities
    a = simulate_ctmc(sol.state_space, lam, mu, transitions=20_000, seed=9)
    b = simulate_ctmc(sol.state_space, lam, mu, transitions=20_000, seed=9)
    np.testing.assert_array_equal(a.holding_time, b.holding_time)
    np.testing.assert_array_equal(a.empirical_pi, b.empirical_pi)
    c = simulate_ctmc(sol.state_space, lam, mu, transitions=20_000, seed=10)
    assert not np.array_equal(a.holding_time, c.holding_time)


def test_ctmc_occupancy_matches_product_form():
    sol = chain_solution()
    lam = sol.activation_rates
    mu = 1.0 / sol.mean_activities
    run = simulate_ctmc(sol.state_space, lam, mu, transitions=200_000, seed=1)
    tv = 0.5 * np.abs(run.empirical_pi - sol.pi).sum()
    assert tv <= 0.01
    assert run.empirical_x == pytest.approx(sol.x, abs=0.01)
    # the x estimate is exactly the blocked-mass complement of pi-hat
    np.testing.assert_allclose(
        run.empirical_x,
        run.empirical_pi @ (~sol.state_space.blocked_mask), rtol=1e-12)


def test_ctmc_validation():
    sol = chain_solution()
    ss = sol.state_space
    with pytest.raises(ValueError):
        simulate_ctmc(ss, [1.0, 1.0], [1.0, 1.0, 1.0], transitions=10)
    with pytest.raises(ValueError):
        simulate_ctmc(ss, [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], transitions=10)
    iso = enumerate_independent_sets(graph_from_edges([1], []))
    with pytest.raises(ValueError):
        simulate_ctmc(iso, [0.0], [1.0], transitions=10)  # absorbing
    nan, inf = float("nan"), float("inf")
    for lam, mu in (([1.0, nan, 1.0], [1.0, 1.0, 1.0]),
                    ([1.0, inf, 1.0], [1.0, 1.0, 1.0]),
                    ([1.0, 1.0, 1.0], [1.0, nan, 1.0]),
                    ([1.0, 1.0, 1.0], [1.0, 1.0, inf])):
        with pytest.raises(ValueError):
            simulate_ctmc(ss, lam, mu, transitions=10)
    for transitions in (0, -5, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            simulate_ctmc(ss, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                          transitions=transitions)


def test_slotted_counters_are_consistent():
    sol = chain_solution()
    run = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50,
                           horizon_slots=50_000, seed=4,
                           slot_time=MP.slot_time)
    horizon = run.horizon_slots
    total = run.active_slots + run.blocked_slots + run.backoff_slots
    np.testing.assert_array_equal(total, horizon)
    # estimator identities over the raw counters
    np.testing.assert_allclose(
        run.empirical_beta, run.tagged_attempts / run.backoff_slots,
        rtol=1e-12)
    np.testing.assert_allclose(
        run.empirical_gamma,
        run.tagged_collisions / np.maximum(run.tagged_attempts, 1),
        rtol=1e-12)
    np.testing.assert_allclose(
        run.empirical_x, 1.0 - run.blocked_slots / horizon, rtol=1e-12)
    np.testing.assert_allclose(
        run.throughput_pkts,
        run.successes / (horizon * MP.slot_time), rtol=1e-12)
    # every solitary tagged success is also a cell success
    solo = run.tagged_attempts - run.tagged_collisions
    assert np.all(solo <= run.successes)
    assert np.all(run.tagged_collisions <= run.tagged_attempts)


def test_slotted_is_deterministic_per_seed():
    sol = chain_solution()
    a = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50, 30_000,
                         seed=5)
    b = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50, 30_000,
                         seed=5)
    np.testing.assert_array_equal(a.tagged_attempts, b.tagged_attempts)
    np.testing.assert_array_equal(a.successes, b.successes)
    c = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50, 30_000,
                         seed=6)
    assert not np.array_equal(a.backoff_slots, c.backoff_slots)


def test_slotted_blocking_matches_analytic_x():
    sol = chain_solution()
    run = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50,
                           horizon_slots=300_000, seed=1)
    np.testing.assert_allclose(run.empirical_x, sol.x, atol=0.02)


def test_slotted_collision_reduction_single_cell():
    # one isolated cell: a tagged attempt collides exactly when one of the
    # n-1 cellmates attempts in the same slot
    iso = graph_from_edges([1], [])
    run = simulate_slotted(iso, (5,), [0.2], 10, 5, horizon_slots=300_000,
                           seed=1)
    want = 1.0 - 0.8 ** 4
    assert run.empirical_gamma[0] == pytest.approx(want, abs=0.01)
    assert run.blocked_slots[0] == 0
    assert run.empirical_x[0] == 1.0


def test_slotted_two_cell_exclusion():
    # two dependent cells can never be active in the same slot; with one
    # node each there are no intra-cell collisions, only cross-cell ones
    g = graph_from_edges([1, 2], [(1, 2)])
    run = simulate_slotted(g, (1, 1), [0.3, 0.3], 8, 4,
                           horizon_slots=100_000, seed=2)
    assert np.all(run.active_slots + run.blocked_slots
                  + run.backoff_slots == 100_000)
    # blocked time exists on both sides and successes happen
    assert run.blocked_slots.min() > 0
    assert run.successes.min() > 0


def test_slotted_validation():
    with pytest.raises(ValueError):
        simulate_slotted(chain(), (10, 10), [0.1, 0.1, 0.1], 10, 5, 100)
    with pytest.raises(ValueError):
        simulate_slotted(chain(), (10, 10, 10), [0.1, 1.5, 0.1], 10, 5, 100)
    with pytest.raises(ValueError):
        simulate_slotted(chain(), (10, 10, 10), [0.1, 0.1, 0.1], 0, 5, 100)
    with pytest.raises(ValueError):
        simulate_slotted(chain(), (10, 10, 10), [0.1, float("nan"), 0.1],
                         10, 5, 100)
    for horizon in (0, -3, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            simulate_slotted(chain(), (10, 10, 10), [0.1, 0.1, 0.1], 10, 5,
                             horizon)
    with pytest.raises(ValueError):
        simulate_slotted(chain(), (10, 10, 10), [0.1, 0.1, 0.1], 2.5, 5, 100)


def test_slotted_throughput_only_with_slot_time():
    sol = chain_solution()
    run = simulate_slotted(chain(), (10, 10, 10), sol.beta, 62, 50, 10_000,
                           seed=1)
    assert run.throughput_pkts is None


def _random_case(rng, n_cells):
    cells, edges = oracles.random_graph(rng, n_cells, float(rng.uniform(0, 0.8)))
    return graph_from_edges(cells, edges)


def test_ctmc_equals_sequential_reference_bit_for_bit():
    # seeded graphs of 1-8 cells (4 to 256 states, so both ways of
    # resolving the walk run), one cell with lam = 0 in every other case,
    # and a run that ends 7 steps into its third chunk
    rng = np.random.Generator(np.random.Philox(606))
    cases = [(_random_case(rng, n), 3_001) for n in range(1, 9)]
    cases += [(_random_case(rng, 5), 2 * simkit._CHUNK + 7),
              (graph_from_edges(list(range(1, 9)), []), 5_000),
              (graph_from_edges([1, 2, 3], [(1, 2), (2, 3)]), 1)]
    for i, (g, transitions) in enumerate(cases):
        ss = enumerate_independent_sets(g)
        lam = rng.uniform(0.1, 3.0, g.size)
        mu = rng.uniform(0.1, 3.0, g.size)
        if i % 2 and g.size > 1:
            lam[rng.integers(g.size)] = 0.0
        seed = int(rng.integers(1 << 30))
        run = simulate_ctmc(ss, lam, mu, transitions=transitions, seed=seed)
        want = oracles.ctmc_reference(ss, lam, mu, transitions, seed)
        assert run.holding_time.dtype == want.dtype
        assert run.holding_time.tobytes() == want.tobytes(), (i, g.edges)
        assert run.empirical_pi.tobytes() == (want / want.sum()).tobytes()


def test_slotted_equals_sequential_reference_bit_for_bit():
    # holds (1, 1), (8, 4) and (62, 50) on seeded graphs of 1-8 cells;
    # holds longer than a chunk, so one always crosses a chunk boundary;
    # a lone one-node cell; beta of 0 and of 1
    rng = np.random.Generator(np.random.Philox(707))
    holds = [(1, 1), (8, 4), (62, 50)]
    cases = []
    for n in range(1, 9):
        g = _random_case(rng, n)
        beta = rng.uniform(0.0, 0.4, n)
        if n > 2:
            beta[0], beta[1] = 0.0, 1.0
        cases.append((g, rng.integers(1, 12, n), beta, holds[n % 3], 20_000))
    cases += [(_random_case(rng, 3), (1, 4, 2), (0.3, 0.1, 0.2),
               (70_000, 66_000), 2 * simkit._CHUNK + 7),
              (_random_case(rng, 4), (2, 2, 3, 1), (0.05, 0.1, 0.02, 0.2),
               (62, 50), simkit._CHUNK + 1_000),
              (graph_from_edges([1], []), (1,), (0.25,), (8, 4), 5_000),
              (graph_from_edges([1, 2], [(1, 2)]), (1, 3), (1.0, 0.0), (3, 2),
               5_000)]
    for i, (g, nodes, beta, (t_s, t_c), horizon) in enumerate(cases):
        seed = int(rng.integers(1 << 30))
        run = simulate_slotted(g, nodes, beta, t_s, t_c, horizon, seed=seed)
        want = oracles.slotted_reference(g, nodes, beta, t_s, t_c, horizon, seed)
        for name, counts in want.items():
            got = getattr(run, name)
            assert got.dtype == counts.dtype and np.array_equal(got, counts), \
                (i, name, got, counts)


def test_cut_points_are_the_exact_thresholds():
    # each cut is the smallest double u with u * total >= value, so a jump
    # looked up on u agrees with bisect_right(row, u * total) at every u
    rng = np.random.Generator(np.random.Philox(808))
    rows = [np.cumsum(rng.uniform(1e-3, 10.0, int(rng.integers(1, 12)))).tolist()
            for _ in range(300)]
    cuts = simkit._cut_points(rows)
    for row, cut in zip(rows, cuts):
        assert len(cut) == len(row) - 1
        for value, c in zip(row, cut):
            assert c * row[-1] >= value
            assert math.nextafter(c, -math.inf) * row[-1] < value


def test_ctmc_golden_holding_times():
    # frozen from the step-at-a-time sampler: any change to the random
    # stream or to the order of the holding-time sums shows here
    ss = enumerate_independent_sets(chain())
    run = simulate_ctmc(ss, [1.3, 0.7, 2.1], [1.0, 1.5, 0.8],
                        transitions=70_000, seed=9)
    assert ss.states == ((), (1,), (1, 3), (2,), (3,))
    assert run.holding_time.tolist() == [
        3434.302450048668, 4426.925103344513, 11848.87367048646,
        1620.3424060756022, 8872.025359173473]


def test_slotted_golden_counters():
    run = simulate_slotted(chain(), (10, 10, 10), (0.05, 0.04, 0.05), 62, 50,
                           70_000, seed=5)
    assert run.backoff_slots.tolist() == [2711, 172, 2853]
    assert run.blocked_slots.tolist() == [2164, 66814, 2064]
    assert run.active_slots.tolist() == [65125, 3014, 65083]
    assert run.tagged_attempts.tolist() == [134, 10, 137]
    assert run.tagged_collisions.tolist() == [53, 8, 49]
    assert run.successes.tolist() == [855, 22, 844]
