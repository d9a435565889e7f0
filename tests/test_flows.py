"""Flow-level queues: service models, delay fixed point, simulator."""

import errno
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cellwlan import flows
from cellwlan.dcf import ConvergenceError
from cellwlan.flows import (FlowParams, MAX_FIXED_POINT_CELLS, SimConfig,
                            effective_rate_fixed_point, service_rate_table,
                            simulate_flow_network)
from cellwlan.multicell import FixedPointConfig
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
    assert res.mean_delay[0] == pytest.approx(2.0, rel=1e-12)
    assert res.stable[0]


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
        res = effective_rate_fixed_point(g, params,
                                         FixedPointConfig(tolerance=1e-10))
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
        effective_rate_fixed_point(chain(), params,
                                   FixedPointConfig(max_iterations=1))


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
    assert np.isnan(res.mean_delay[0])


def test_effective_rate_needs_one_arrival_rate_per_cell():
    for rates in ((0.1, 0.1), (0.1,) * 4):
        with pytest.raises(ValueError,
                           match="^need one arrival rate per cell$"):
            effective_rate_fixed_point(chain(), FlowParams(rates, 1.0, 1.0))


def test_effective_rate_cell_cap():
    cells = list(range(1, MAX_FIXED_POINT_CELLS + 2))
    g = graph_from_edges(cells, [])
    with pytest.raises(ValueError):
        effective_rate_fixed_point(
            g, FlowParams((0.01,) * len(cells), 1.0, 1.0))


def test_simulator_is_deterministic(monkeypatch):
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
    # the same run with its replications in forked workers, which are
    # gone once it returns
    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    assert_same_result(simulate_flow_network(chain(), params, cfg), a)
    assert multiprocessing.active_children() == []


RESULT_FIELDS = ("mean_delay", "confidence_halfwidth", "effective_rates",
                 "stable", "completed", "replications")


def assert_same_result(got, want, label=""):
    for field in RESULT_FIELDS:
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), \
            (label, field, a, b)


CORES = len(os.sched_getaffinity(0))
# (params, plan) of a run whose replications fan out once _POOL_EVENTS is 0
FANNED = (FlowParams((0.2, 0.2, 0.2), 1.0, 1.0),
          SimConfig(rng_seed=11, flows_per_cell=100, warmup_flows=10,
                    replications=3))
needs_two_cores = pytest.mark.skipif(CORES < 2, reason="one core: "
                                     "replications never fan out")


@needs_two_cores
def test_a_replication_raising_in_a_worker_reaches_the_caller(monkeypatch):
    parent = os.getpid()
    real = flows._simulate_once

    def failing(*args):
        if os.getpid() != parent:
            raise ValueError("replication failed in a worker")
        return real(*args)

    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    monkeypatch.setattr(flows, "_simulate_once", failing)
    with pytest.raises(ValueError, match="in a worker"):
        simulate_flow_network(chain(), *FANNED)
    assert multiprocessing.active_children() == []


def test_a_failed_fork_runs_the_replications_in_process(monkeypatch):
    params, cfg = FANNED
    want = simulate_flow_network(chain(), params, cfg)
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_result(simulate_flow_network(chain(), params, cfg), want)
    assert forks == ([1] if CORES > 1 else [])
    assert multiprocessing.active_children() == []


def test_a_daemonic_caller_runs_the_replications_in_process(monkeypatch):
    # a daemonic process may not have children, so it cannot start a pool
    params, cfg = FANNED
    want = simulate_flow_network(chain(), params, cfg)
    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def run():
        res = simulate_flow_network(chain(), params, cfg)
        send.send((res, multiprocessing.active_children()))

    proc = ctx.Process(target=run, daemon=True)
    proc.start()
    assert recv.poll(60), "the daemonic caller sent no result"
    got, children = recv.recv()
    proc.join(60)
    assert not proc.is_alive() and proc.exitcode == 0
    assert children == []
    assert_same_result(got, want)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores,replications,workers",
                         [(8, 3, 3), (2, 10, 2), (1, 10, 0), (4, 1, 0)])
def test_one_worker_per_core_up_to_the_replications(monkeypatch, cores,
                                                    replications, workers):
    # a stand-in pool records its size and runs the replications here
    sizes = []

    class StandInPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            self.job, = initargs

        def map(self, func, seeds, chunksize):
            return [func(seed, self.job) for seed in seeds]

        def terminate(self):
            pass

        def join(self):
            pass

    params = FANNED[0]
    cfg = SimConfig(rng_seed=11, flows_per_cell=100, warmup_flows=10,
                    replications=replications)
    want = simulate_flow_network(chain(), params, cfg)
    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=StandInPool))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert_same_result(simulate_flow_network(chain(), params, cfg), want)
    # without sched_getaffinity the count falls back to os.cpu_count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert_same_result(simulate_flow_network(chain(), params, cfg), want)
    assert sizes == ([workers] * 2 if workers else [])
    # nor is one started where the platform cannot fork
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert_same_result(simulate_flow_network(chain(), params, cfg), want)
    assert sizes == ([workers] * 2 if workers else [])


def test_small_runs_and_import_leave_multiprocessing_unloaded():
    # importing multiprocessing.pool costs about 28 ms; only a run long
    # enough to fan out pays it
    code = ("import sys, cellwlan, cellwlan.cli\n"
            "from cellwlan.flows import FlowParams, SimConfig, "
            "simulate_flow_network\n"
            "from cellwlan.topology import graph_from_edges\n"
            "print('multiprocessing' in sys.modules)\n"
            "g = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])\n"
            "simulate_flow_network(g, FlowParams((0.2, 0.2, 0.2), 1.0, 1.0), "
            "SimConfig(flows_per_cell=100, warmup_flows=10, replications=3))\n"
            "print('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


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


@pytest.mark.parametrize("name, value", [
    ("flows_per_cell", 2.5), ("replications", 2.5), ("rng_seed", 1.5),
    ("warmup_flows", 2.5), ("runaway_threshold", 2.5),
    ("replications", True), ("flows_per_cell", float("nan"))])
def test_sim_config_refuses_settings_that_are_not_whole(name, value):
    # refused at construction, before any flow is simulated
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        SimConfig(**{name: value})


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
    # every other field holds one entry per cell, as in a run where no
    # cell is ever busy
    for field in RESULT_FIELDS[:-1]:
        assert getattr(res, field) is not None, field
        assert np.shape(getattr(res, field)) == (3,), field
    assert np.isnan(res.confidence_halfwidth).all()
    assert np.isnan(res.effective_rates).all()


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
@pytest.mark.parametrize("draws,pool_events", [
    pytest.param(flows._DRAWS, math.inf, id=str(flows._DRAWS)),
    pytest.param(5, math.inf, id="5"),
    pytest.param(flows._DRAWS, 0.0, id=f"{flows._DRAWS}-forked"),
    pytest.param(5, 0.0, id="5-forked")])
def test_simulator_replays_the_scalar_draw_loop(monkeypatch, draws,
                                                pool_events):
    # drawing the exponentials in blocks, of any size, and the tighter
    # event loop leave every output field as the one-draw-at-a-time loop
    # gave it, under both service models, in this process and with the
    # replications in forked workers
    monkeypatch.setattr(flows, "_DRAWS", draws)
    monkeypatch.setattr(flows, "_POOL_EVENTS", pool_events)
    for label, cells, edges, nu, ev, model, cfg in REPLAY_CASES:
        g = graph_from_edges(cells, edges)
        params = FlowParams(nu, ev, 1.0, service_model=model)
        got = simulate_flow_network(g, params, cfg)
        # the reference's numpy 1 / nu warns where it overflows to inf
        with monkeypatch.context() as m, np.errstate(over="ignore"):
            m.setattr(flows, "_simulate_once",
                      oracles.flow_replication_reference)
            want = simulate_flow_network(g, params, cfg)
        assert_same_result(got, want, label)
        if label == "many-draws":
            assert 2 * want.completed[0] > flows._DRAWS
        if label in ("starved-middle", "runaway", "no-events"):
            assert not want.stable.all(), label


@needs_two_cores
def test_forked_workers_run_the_patched_replication(monkeypatch):
    # negative control for the forked replay: a patched _simulate_once
    # reaches the workers, so the forked comparison above compares the
    # reference loop run there, not the library's loop twice
    parent = os.getpid()
    real = flows._simulate_once

    def shifted(*args):
        mean, done, stable, eff = real(*args)
        return mean + (1.0 if os.getpid() != parent else 0.5), done, stable, eff

    params, cfg = FANNED
    want = simulate_flow_network(chain(), params, cfg)
    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    monkeypatch.setattr(flows, "_simulate_once", shifted)
    got = simulate_flow_network(chain(), params, cfg)
    np.testing.assert_allclose(got.mean_delay, want.mean_delay + 1.0,
                               rtol=1e-12)
