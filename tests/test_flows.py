"""Flow-level queues: service models, delay fixed point, simulator."""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from cellwlan import flows
from cellwlan.dcf import ConvergenceError
from cellwlan.flows import (FlowParams, MAX_FIXED_POINT_CELLS, SimConfig,
                            effective_rate_fixed_point, mean_delay_analytic,
                            service_rate_table, simulate_flow_network)
from cellwlan.topology import graph_from_edges

import oracles


def chain():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def mask_of(pattern):
    """Row of the rate table for a busy/empty pattern over sorted cells."""
    return sum(1 << j for j, b in enumerate(pattern) if b)


def test_service_models_full_chain_goldens():
    g = chain()
    full = mask_of((1, 1, 1))
    m1 = service_rate_table(g, "model1", 1.0)[full]
    m2 = service_rate_table(g, "model2", 1.0)[full]
    assert tuple(m1) == (0.5, 1.0 / 3.0, 0.5)
    assert tuple(m2) == (1.0, 0.0, 1.0)
    theta = 3.7
    np.testing.assert_allclose(service_rate_table(g, "model1", theta)[full],
                               [theta / 2, theta / 3, theta / 2], rtol=1e-12)
    np.testing.assert_allclose(service_rate_table(g, "model2", theta)[full],
                               [theta, 0.0, theta], rtol=1e-12)


def test_service_models_partial_occupancy():
    g = chain()
    m1 = service_rate_table(g, "model1", 1.0)
    m2 = service_rate_table(g, "model2", 1.0)
    # both models split a busy adjacent pair evenly
    s = mask_of((2, 1, 0))
    np.testing.assert_allclose(m1[s], [0.5, 0.5, 0.0], rtol=1e-12)
    np.testing.assert_allclose(m2[s], [0.5, 0.5, 0.0], rtol=1e-12)
    # the two edge cells are independent and both run at full rate
    s = mask_of((1, 0, 3))
    np.testing.assert_allclose(m1[s], [1.0, 0.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(m2[s], [1.0, 0.0, 1.0], rtol=1e-12)
    # nobody busy: all rates zero
    assert not m1[0].any()
    assert not m2[0].any()


def test_service_models_agree_on_complete_graphs():
    # on a clique every busy subgraph is a clique, whose maximum
    # independent sets are the singletons, so the topology-aware split
    # degenerates to the even split
    for n in range(1, 7):
        cells = list(range(1, n + 1))
        g = graph_from_edges(cells, list(itertools.combinations(cells, 2)))
        np.testing.assert_allclose(service_rate_table(g, "model1", 2.5),
                                   service_rate_table(g, "model2", 2.5),
                                   rtol=1e-12)


def test_service_rate_table_matches_power_set_oracle():
    rng = np.random.Generator(np.random.Philox(31))
    clique = list(range(1, 7))
    graphs = [([1, 2, 3], [(1, 2), (2, 3)]),
              (clique, list(itertools.combinations(clique, 2)))]
    for _ in range(25):
        graphs.append(oracles.random_graph(rng, int(rng.integers(1, 9)),
                                           float(rng.uniform(0.1, 0.9))))
    for cells, edges in graphs:
        g = graph_from_edges(cells, edges)
        rate = float(rng.uniform(0.5, 5.0))
        for model in ("model1", "model2"):
            table = service_rate_table(g, model, rate)
            assert table.shape == (1 << len(cells), len(cells))
            for mask in range(1 << len(cells)):
                busy = [mask >> j & 1 for j in range(len(cells))]
                np.testing.assert_array_equal(
                    table[mask], oracles.service_rates_powerset(
                        cells, edges, busy, model, rate))


def test_service_model_validation():
    g = chain()
    with pytest.raises(ValueError, match="unknown service model"):
        service_rate_table(g, "model3", 1.0)
    cells = list(range(1, MAX_FIXED_POINT_CELLS + 2))
    big = graph_from_edges(cells, [])
    with pytest.raises(ValueError, match="capped at"):
        service_rate_table(big, "model1", 1.0)
    with pytest.raises(ValueError, match="capped at"):
        simulate_flow_network(big, FlowParams((0.1,) * len(cells), 1.0, 1.0))
    with pytest.raises(ValueError):
        FlowParams((0.1,), 1.0, 1.0, service_model="model3")
    with pytest.raises(ValueError):
        FlowParams((-0.1,), 1.0, 1.0)
    with pytest.raises(ValueError):
        FlowParams((float("nan"),), 1.0, 1.0)
    for size, rate in ((0.0, 1.0), (float("nan"), 1.0), (1.0, float("inf")),
                       (1.0, float("nan"))):
        with pytest.raises(ValueError):
            FlowParams((0.1,), size, rate)


def test_effective_rate_single_cell_is_mm1_ps():
    g = graph_from_edges([1], [])
    params = FlowParams((0.5,), 1.0, 1.0)
    res = effective_rate_fixed_point(g, params)
    assert res.x_hat[0] == pytest.approx(1.0, abs=1e-12)
    assert res.loads[0] == pytest.approx(0.5, rel=1e-12)
    ana = mean_delay_analytic(res.x_hat, params)
    assert ana.mean_delay[0] == pytest.approx(2.0, rel=1e-12)
    assert ana.stable[0]


def test_effective_rate_chain_frozen():
    params = FlowParams((0.1, 0.1, 0.1), 1.0, 1.0)
    res = effective_rate_fixed_point(chain(), params)
    np.testing.assert_allclose(res.x_hat, [0.95, 17.0 / 19.0, 0.95],
                               rtol=1e-7)
    assert res.stable.all()
    assert res.residual <= 1e-8


def test_effective_rate_satisfies_power_set_map():
    rng = np.random.Generator(np.random.Philox(23))
    for k in range(12):
        n = k % 7 + 2
        cells, edges = oracles.random_graph(rng, n, 0.5)
        g = graph_from_edges(cells, edges)
        nu = tuple(rng.uniform(0.02, 0.3, size=n))
        ev = float(rng.uniform(0.5, 2.0))
        params = FlowParams(nu, ev, 1.0)
        res = effective_rate_fixed_point(g, params, tolerance=1e-10)
        back = oracles.effective_rate_map_powerset(
            cells, edges, res.x_hat, list(nu), ev, 1.0)
        np.testing.assert_allclose(back, res.x_hat, atol=1e-7)


def test_effective_rate_twelve_cell_chain_golden():
    # frozen from the per-cell recursive sum over busy subsets that the
    # share table replaced
    cells = list(range(1, 13))
    g = graph_from_edges(cells, [(c, c + 1) for c in cells[:-1]])
    nu = tuple(0.04 + 0.005 * (k % 5) for k in range(12))
    res = effective_rate_fixed_point(g, FlowParams(nu, 1.0, 1.0))
    np.testing.assert_allclose(res.x_hat, [
        0.977627007010387, 0.9546766859523436, 0.9500240147225711,
        0.9446279449884091, 0.9521958141349103, 0.947856263639199,
        0.9552934006604659, 0.9500288764239391, 0.9446279416324174,
        0.9521918381268408, 0.947283395841094, 0.980168364004752],
        rtol=1e-12)
    assert res.iterations == 26


def test_effective_rate_nonconvergence_is_a_convergence_error():
    params = FlowParams((0.1, 0.1, 0.1), 1.0, 1.0)
    with pytest.raises(ConvergenceError,
                       match=r"residual .* > tol 1\.0e-08 after 1 iterations"):
        effective_rate_fixed_point(chain(), params, max_iterations=1)


def test_effective_rate_edgeless_and_zero_arrivals():
    g = graph_from_edges([1, 2, 3], [])
    res = effective_rate_fixed_point(g, FlowParams((0.2, 0.4, 0.1), 1.0, 1.0))
    np.testing.assert_allclose(res.x_hat, 1.0, atol=1e-12)
    # a cell that never has work never appears busy to the others
    res = effective_rate_fixed_point(chain(),
                                     FlowParams((0.1, 0.0, 0.1), 1.0, 1.0))
    assert res.x_hat[0] == pytest.approx(1.0, abs=1e-9)
    assert res.x_hat[2] == pytest.approx(1.0, abs=1e-9)


def test_effective_rate_flags_overload():
    g = graph_from_edges([1], [])
    params = FlowParams((1.5,), 1.0, 1.0)
    res = effective_rate_fixed_point(g, params)
    assert not res.stable[0]
    ana = mean_delay_analytic(res.x_hat, params)
    assert not ana.stable[0]
    assert np.isnan(ana.mean_delay[0])


def test_effective_rate_cell_cap():
    cells = list(range(1, MAX_FIXED_POINT_CELLS + 2))
    g = graph_from_edges(cells, [])
    with pytest.raises(ValueError):
        effective_rate_fixed_point(
            g, FlowParams((0.01,) * len(cells), 1.0, 1.0))


def test_simulator_is_deterministic():
    params = FlowParams((0.1, 0.1, 0.1), 1.0, 1.0)
    cfg = SimConfig(rng_seed=3, flows_per_cell=300, warmup_flows=50,
                    replications=3)
    a = simulate_flow_network(chain(), params, cfg)
    b = simulate_flow_network(chain(), params, cfg)
    np.testing.assert_array_equal(a.mean_delay, b.mean_delay)
    np.testing.assert_array_equal(a.completed, b.completed)
    c = simulate_flow_network(chain(), params,
                              SimConfig(rng_seed=4, flows_per_cell=300,
                                        warmup_flows=50, replications=3))
    assert not np.array_equal(a.mean_delay, c.mean_delay)


def test_simulator_builds_one_rate_table_per_call(monkeypatch):
    # the busy-pattern rates hold no randomness, so all replications share
    # one table
    calls = []

    def counted(graph, model, rate):
        calls.append(model)
        return service_rate_table(graph, model, rate)

    monkeypatch.setattr(flows, "service_rate_table", counted)
    cfg = SimConfig(rng_seed=3, flows_per_cell=300, warmup_flows=50,
                    replications=4)
    for model in ("model1", "model2"):
        params = FlowParams((0.3, 0.3, 0.3), 1.0, 1.0, service_model=model)
        simulate_flow_network(chain(), params, cfg)
    assert calls == ["model1", "model2"]


def test_sim_config_rejects_degenerate_plans():
    for bad in ({"replications": 0}, {"flows_per_cell": 0},
                {"warmup_flows": -1}, {"runaway_threshold": 0},
                {"rng_seed": -1}):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    SimConfig(warmup_flows=0, rng_seed=0, replications=1, flows_per_cell=1,
              runaway_threshold=1)


def test_simulator_single_cell_matches_ps_closed_form():
    g = graph_from_edges([1], [])
    res = simulate_flow_network(
        g, FlowParams((0.5,), 1.0, 1.0),
        SimConfig(rng_seed=1, flows_per_cell=3000, warmup_flows=300,
                  replications=8))
    assert res.mean_delay[0] == pytest.approx(2.0, rel=0.05)
    assert res.stable[0]
    assert res.completed[0] == 8 * 3000


def test_simulator_matches_exact_chain_both_models():
    # with exponential sizes the occupancy process is a finite Markov
    # chain once queues are capped; its stationary solve gives exact mean
    # delays to compare the event simulation against
    cfg = SimConfig(rng_seed=42, flows_per_cell=2500, warmup_flows=400,
                    replications=10)
    nu = (0.1, 0.1, 0.1)
    for model in (1, 2):
        exact, trunc = oracles.exact_flow_delays(
            (12, 16, 12), nu, 1.0,
            lambda busy: oracles.service_rates_powerset(
                [1, 2, 3], [(1, 2), (2, 3)], busy, f"model{model}", 1.0))
        assert trunc < 1e-9
        res = simulate_flow_network(
            chain(), FlowParams(nu, 1.0, 1.0, service_model=f"model{model}"),
            cfg)
        np.testing.assert_allclose(res.mean_delay, exact, rtol=0.05)
        assert res.stable.all()


def test_model1_overcharges_edge_cells():
    # the even split underserves the chain's edge cells whenever all three
    # are busy (half rate instead of full), so with matched randomness the
    # even-split edge delays sit above the topology-aware ones at every
    # load, and the middle cell stays the slowest under both models
    for ev in (0.5, 1.0, 2.0, 3.0):
        cfg = SimConfig(rng_seed=42, flows_per_cell=3000, warmup_flows=500,
                        replications=12)
        r2 = simulate_flow_network(
            chain(), FlowParams((0.1,) * 3, ev, 1.0, service_model="model2"),
            cfg)
        r1 = simulate_flow_network(
            chain(), FlowParams((0.1,) * 3, ev, 1.0, service_model="model1"),
            cfg)
        assert r1.stable.all() and r2.stable.all()
        assert r1.mean_delay[0] > r2.mean_delay[0]
        assert r1.mean_delay[2] > r2.mean_delay[2]
        for r in (r1, r2):
            assert r.mean_delay[1] > r.mean_delay[0]
            assert r.mean_delay[1] > r.mean_delay[2]


def test_simulator_flags_runaway_queue():
    g = graph_from_edges([1], [])
    res = simulate_flow_network(
        g, FlowParams((1.5,), 1.0, 1.0),
        SimConfig(rng_seed=1, flows_per_cell=4000, warmup_flows=100,
                  replications=2, runaway_threshold=1500))
    assert not res.stable[0]


def test_simulator_skips_cells_without_arrivals():
    g = chain()
    params = FlowParams((0.0, 0.1, 0.0), 1.0, 1.0)
    res = simulate_flow_network(
        g, params, SimConfig(rng_seed=2, flows_per_cell=500, warmup_flows=50,
                             replications=2))
    assert res.stable.all()
    assert res.mean_delay[1] > 0
    assert np.isnan(res.mean_delay[0]) and np.isnan(res.mean_delay[2])
    assert res.completed[0] == 0 and res.completed[2] == 0


def test_simulator_no_arrivals_short_circuits():
    res = simulate_flow_network(chain(), FlowParams((0.0, 0.0, 0.0), 1.0, 1.0))
    assert res.replications == 0
    assert np.isnan(res.mean_delay).all()
    assert res.stable.all()


def test_simulator_effective_rates_are_plausible():
    params = FlowParams((0.1, 0.1, 0.1), 1.0, 1.0)
    res = simulate_flow_network(
        chain(), params, SimConfig(rng_seed=5, flows_per_cell=1500,
                                   warmup_flows=200, replications=5))
    assert np.all(res.effective_rates <= 1.0 + 1e-9)
    assert np.all(res.effective_rates > 0.5)


def test_simulator_refuses_runs_that_would_not_end():
    # every replication runs until the slowest cell has its quota, so
    # (0.5, 1e-9) /s would take about 2e14 events at the default plan
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"about 2\.2e\+14 events"):
        simulate_flow_network(graph_from_edges([1, 2], []),
                              FlowParams((0.5, 1e-9), 1.0, 1.0))
    assert time.perf_counter() - t0 < 1.0


def test_simulator_arrival_count_validation():
    with pytest.raises(ValueError):
        simulate_flow_network(chain(), FlowParams((0.1, 0.1), 1.0, 1.0))


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, cellwlan; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_confidence_quantile_is_student_t():
    from scipy.special import stdtrit
    from scipy.stats import t
    for df in range(1, 31):
        assert stdtrit(df, 0.975) == t.ppf(0.975, df)


# (label, cells, edges, arrival rates, E[V], model, plan); between them the
# cases end on every exit of the event loop: all quotas met, a runaway cut
# (including a model-2 middle cell starved by its busy neighbors), and no
# event left at all (rates so small that every inter-arrival time
# overflows to infinity, at once or after a first flow)
REPLAY_CASES = [
    ("chain", [1, 2, 3], [(1, 2), (2, 3)], (0.1, 0.1, 0.1), 1.0, "model1",
     SimConfig(rng_seed=3, flows_per_cell=300, warmup_flows=50,
               replications=3)),
    ("no-arrivals-cell", [1, 2, 3], [(1, 2), (2, 3)], (0.0, 0.2, 0.1), 1.5,
     "model2", SimConfig(rng_seed=4, flows_per_cell=200, warmup_flows=20,
                         replications=2)),
    ("starved-middle", [1, 2, 3], [(1, 2), (2, 3)], (0.6, 0.3, 0.6), 1.0,
     "model2", SimConfig(rng_seed=5, flows_per_cell=400, warmup_flows=10,
                         replications=3, runaway_threshold=40)),
    ("runaway", [1], [], (1.5,), 1.0, "model1",
     SimConfig(rng_seed=6, flows_per_cell=500, warmup_flows=10,
               replications=2, runaway_threshold=60)),
    ("no-events", [1, 2], [(1, 2)], (1e-309, 1e-309), 1.0, "model2",
     SimConfig(rng_seed=7, flows_per_cell=10, warmup_flows=0,
               replications=2)),
    ("overflowing-arrivals", [1], [], (1e-308,), 1.0, "model1",
     SimConfig(rng_seed=8, flows_per_cell=10, warmup_flows=0,
               replications=6)),
    ("one-replication-no-warmup", [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)],
     (0.2, 0.1, 0.15, 0.2), 0.8, "model2",
     SimConfig(rng_seed=9, flows_per_cell=150, warmup_flows=0,
               replications=1)),
    # one cell and 2,500 recorded flows: more than 5,000 draws, past the
    # end of the first block
    ("many-draws", [1], [], (0.5,), 1.0, "model1",
     SimConfig(rng_seed=10, flows_per_cell=2500, warmup_flows=0,
               replications=1)),
]
RESULT_FIELDS = ("mean_delay", "confidence_halfwidth", "effective_rates",
                 "stable", "completed", "replications")


@pytest.mark.parametrize("draws", [flows._DRAWS, 5])
def test_simulator_replays_the_scalar_draw_loop(monkeypatch, draws):
    # drawing the exponentials in blocks, of any size, and the tighter
    # event loop leave every output field as the one-draw-at-a-time loop
    # gave it, under both service models
    monkeypatch.setattr(flows, "_DRAWS", draws)
    for label, cells, edges, nu, ev, model, cfg in REPLAY_CASES:
        g = graph_from_edges(cells, edges)
        params = FlowParams(nu, ev, 1.0, service_model=model)
        got = simulate_flow_network(g, params, cfg)
        # the reference's numpy 1 / nu warns where it overflows to inf
        with monkeypatch.context() as m, np.errstate(over="ignore"):
            m.setattr(flows, "_simulate_once",
                      oracles.flow_replication_reference)
            want = simulate_flow_network(g, params, cfg)
        for field in RESULT_FIELDS:
            a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), \
                (label, field, a, b)
        if label == "many-draws":
            assert 2 * want.completed[0] > flows._DRAWS
        if label in ("starved-middle", "runaway", "no-events"):
            assert not want.stable.all(), label
