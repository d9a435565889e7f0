"""Acceptance gate: one test per contract criterion.

Run ``pytest tests/test_acceptance.py -v``; the PASSED/FAILED column is
the pass/fail line for each criterion.  Every test prints its measured
margins (visible with ``-s``, or in the failure report).  Stated runtime
budgets are asserted inside the tests that carry one.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
import yaml

from cellwlan.cli import main as cli_main
from cellwlan.dcf import (backoff_preset, frame_exchange_times,
                          mac_phy_preset, solve_single_cell)
from cellwlan.flows import (FlowParams, SimConfig,
                            effective_rate_fixed_point, service_rate_table,
                            simulate_flow_network)
from cellwlan.multicell import (FixedPointConfig, MulticellInput,
                                payload_sweep, solve_fixed_point,
                                stationary_distribution, tcp_long_throughputs)
from cellwlan.simkit import simulate_ctmc, simulate_slotted, slots_for
from cellwlan.topology import (enumerate_independent_sets, graph_from_edges,
                               mis_stats)

import oracles


def _chain():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def _clique():
    return graph_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def _mac_1000b():
    return mac_phy_preset("dot11b-11mbps", 8000.0)


def test_criterion_01_independent_set_goldens():
    chain, clique = _chain(), _clique()
    enumerate_independent_sets(chain)       # warm up before timing
    enumerate_independent_sets(clique)
    t0 = time.perf_counter()
    got_chain = enumerate_independent_sets(chain)
    got_clique = enumerate_independent_sets(clique)
    elapsed = time.perf_counter() - t0
    assert {frozenset(s) for s in got_chain.states} == {
        frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
        frozenset({1, 3})}
    assert {frozenset(s) for s in got_clique.states} == {
        frozenset(), frozenset({1}), frozenset({2}), frozenset({3})}
    print(f"criterion 1: exact state sets; {elapsed * 1e3:.3f} ms")
    assert elapsed < 1e-3


def test_criterion_02_mis_counting_identity_on_200_random_graphs():
    rng = np.random.Generator(np.random.Philox(2))
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 13))
        cells, edges = oracles.random_graph(rng, n,
                                            float(rng.uniform(0.1, 0.7)))
        mis = mis_stats(graph_from_edges(cells, edges))
        alpha = mis.max_size
        eta = mis.count
        per = mis.per_cell
        # integer and rational arithmetic keep both identities exact
        assert sum(per) == alpha * eta
        assert sum(Fraction(c, eta) for c in per) == alpha
        assert list(mis.share) == [c / eta for c in per]
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: both identities exact on 200 graphs; "
          f"{elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_03_service_model_goldens():
    g = _chain()
    full = 0b111                        # every cell of the chain busy
    assert tuple(service_rate_table(g, "model1", 1.0)[full]) == (
        0.5, 1.0 / 3.0, 0.5)
    assert tuple(service_rate_table(g, "model2", 1.0)[full]) == (
        1.0, 0.0, 1.0)
    mismatches = 0
    for n in range(1, 7):
        cells = list(range(1, n + 1))
        kn = graph_from_edges(cells, list(itertools.combinations(cells, 2)))
        m1 = service_rate_table(kn, "model1", 1.0)
        m2 = service_rate_table(kn, "model2", 1.0)
        mismatches += int((m1 != m2).any(axis=1).sum())
    print(f"criterion 3: goldens exact; complete-graph mismatches: "
          f"{mismatches}")
    assert mismatches == 0


def test_criterion_04_product_form_against_trajectories():
    rng = np.random.Generator(np.random.Philox(46))
    cells, edges = oracles.random_graph(rng, 6, 0.5)
    cases = [("three-chain", _chain(), 11),
             ("three-clique", _clique(), 12),
             ("random-6", graph_from_edges(cells, edges), 13)]
    t0 = time.perf_counter()
    lines = []
    for name, g, seed in cases:
        ss = enumerate_independent_sets(g)
        r = np.random.Generator(np.random.Philox(seed))
        lam = r.uniform(0.5, 2.0, g.size)
        mu = r.uniform(0.5, 2.0, g.size)
        pi = stationary_distribution(ss, lam / mu)
        run = simulate_ctmc(ss, lam, mu, transitions=10_000_000, seed=4)
        tv = 0.5 * float(np.abs(run.empirical_pi - pi).sum())
        resid = oracles.detailed_balance_residual(ss, pi, lam, mu)
        lines.append(f"{name} TV={tv:.5f} residual={resid:.1e}")
        assert tv <= 0.01
        assert resid <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: {'; '.join(lines)}; {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_05_slotted_collision_probabilities():
    t0 = time.perf_counter()
    mac = _mac_1000b()
    backoff = backoff_preset("dot11b-11mbps")
    g = _chain()
    sol = solve_fixed_point(MulticellInput(graph=g, node_counts=(2, 2, 2),
                                           mac_phy=mac, backoff=backoff))
    t_s, t_c = frame_exchange_times(mac)
    hold_s = slots_for(t_s, mac.slot_time)
    hold_c = slots_for(t_c, mac.slot_time)
    run = simulate_slotted(g, (2, 2, 2), sol.beta, hold_s, hold_c,
                           3_000_000, seed=1)
    chain_err = float(np.max(np.abs(run.empirical_gamma - sol.gamma)))
    assert chain_err <= 0.02

    edgeless = graph_from_edges([1, 2], [])
    run2 = simulate_slotted(edgeless, (5, 5), (0.2, 0.2), hold_s, hold_c,
                            1_200_000, seed=1)
    expect = 1.0 - (1.0 - 0.2) ** 4
    edgeless_err = float(np.max(np.abs(run2.empirical_gamma - expect)))
    assert edgeless_err <= 0.01
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: chain err {chain_err:.4f} (<=0.02), edgeless err "
          f"{edgeless_err:.4f} (<=0.01); {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_06_fixed_point_start_independence():
    mac = _mac_1000b()
    backoff = backoff_preset("dot11b-11mbps")
    rng = np.random.Generator(np.random.Philox(66))
    t0 = time.perf_counter()
    worst = 0.0
    cfg = FixedPointConfig(tolerance=1e-10, multistart=0)
    for g in (_chain(), _clique()):
        inp = MulticellInput(graph=g, node_counts=(10, 10, 10), mac_phy=mac,
                             backoff=backoff)
        betas = [solve_fixed_point(inp, cfg).beta]
        for _ in range(5):
            betas.append(oracles.fixed_point_from(
                inp, cfg, rng.uniform(1e-3, 0.999, g.size)))
        gap = max(float(np.max(np.abs(a - b)))
                  for a in betas for b in betas)
        worst = max(worst, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: worst start-to-start gap {worst:.2e} (<=1e-6); "
          f"{elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_07_starvation_and_limit_behavior():
    mac = _mac_1000b()
    backoff = backoff_preset("dot11b-11mbps")
    g = _chain()
    inp = MulticellInput(graph=g, node_counts=(10, 10, 10), mac_phy=mac,
                         backoff=backoff)
    points = payload_sweep(inp, tuple(8.0 * b for b in range(100, 1501, 100)))
    rho = np.array([p.rho for p in points])
    assert np.all(np.diff(rho, axis=0) > 0.0)
    at_1000 = next(p for p in points if p.payload_bits == 8000.0)
    x_err = float(np.max(np.abs(np.array(at_1000.x) - (1.0, 0.0, 1.0))))
    assert x_err <= 0.05

    t_s, t_c = frame_exchange_times(mac)
    run = simulate_slotted(g, (10, 10, 10), at_1000.beta,
                           slots_for(t_s, mac.slot_time),
                           slots_for(t_c, mac.slot_time), 1_000_000, seed=1)
    edge_mean = 0.5 * (run.successes[0] + run.successes[2])
    share = float(run.successes[1] / edge_mean)
    assert share <= 0.05
    print(f"criterion 7: rho monotone over 15 payloads, |x - (1,0,1)| = "
          f"{x_err:.4f} (<=0.05), middle/edge success share {share:.4f} "
          f"(<=0.05)")


def test_criterion_08_tcp_long_reduction_identities():
    mac = _mac_1000b()
    backoff = backoff_preset("dot11b-11mbps")
    edgeless = graph_from_edges([1, 2, 3], [])
    res = tcp_long_throughputs(edgeless, mac, backoff, 12000.0, 320.0,
                               FixedPointConfig(tolerance=1e-13))
    iso = res.isolated_ap_throughput_pkts
    half_sat = solve_single_cell(
        2, mac.with_payload(res.equivalent_payload_bits),
        backoff).throughput_pkts / 2.0
    iso_err = abs(iso - half_sat)
    assert iso_err <= 1e-10
    edgeless_err = float(np.max(np.abs(
        np.array(res.ap_throughput_pkts) - iso))) / iso
    assert edgeless_err <= 1e-10
    print(f"criterion 8: isolated identity err {iso_err:.1e}, edgeless "
          f"deviation {edgeless_err:.1e} (both <=1e-10)")


def test_criterion_09_flow_simulator_calibration():
    g = graph_from_edges([1], [])
    t0 = time.perf_counter()
    rels = []
    for load in (0.3, 0.5, 0.7):
        res = simulate_flow_network(g, FlowParams((load,), 1.0, 1.0),
                                    SimConfig())
        target = 1.0 / (1.0 - load)
        rel = abs(float(res.mean_delay[0]) - target) / target
        rels.append(rel)
        assert res.stable[0]
        assert rel <= 0.03
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: relative errors {[f'{r:.4f}' for r in rels]} "
          f"(<=0.03); {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_10_delay_model_cross_validation():
    g = _chain()
    nu = (0.1, 0.1, 0.1)
    t0 = time.perf_counter()
    problems = []
    for ev in (0.5, 1.0, 2.0, 3.0):
        cfg = SimConfig(rng_seed=42, flows_per_cell=3000, warmup_flows=500,
                        replications=12)
        params2 = FlowParams(nu, ev, 1.0, service_model="model2")
        sim2 = simulate_flow_network(g, params2, cfg)
        sim1 = simulate_flow_network(
            g, FlowParams(nu, ev, 1.0, service_model="model1"), cfg)
        eff = effective_rate_fixed_point(g, params2)
        assert sim1.stable.all() and sim2.stable.all() and eff.stable.all()
        rel = np.abs(eff.mean_delay - sim2.mean_delay) / sim2.mean_delay
        print(f"  E[V]={ev}: analytic={np.round(eff.mean_delay, 4)} "
              f"model2={np.round(sim2.mean_delay, 4)} rel={np.round(rel, 3)} "
              f"model1 middle={sim1.mean_delay[1]:.4f}")
        for j, r in enumerate(rel):
            if r > 0.15:
                problems.append(
                    f"analytic delay off by {100 * r:.0f}% of the model-2 "
                    f"simulation for cell {g.cells[j]} at E[V]={ev}")
        if not sim1.mean_delay[1] > sim2.mean_delay[1]:
            problems.append(
                f"model-1 middle-cell delay {sim1.mean_delay[1]:.4f} does "
                f"not exceed model-2's {sim2.mean_delay[1]:.4f} at "
                f"E[V]={ev}")
    elapsed = time.perf_counter() - t0
    print(f"criterion 10: {elapsed:.1f} s")
    assert elapsed < 300.0
    assert not problems, (
        "the closed-form delays sit below the model-2 simulation by more "
        "than 15% for the middle cell at the two highest loads, and the "
        "even-split model's middle-cell delay exceeds the topology-aware "
        "model's only at the highest load: the even split overserves a "
        "crowded middle cell, and its real penalty falls on the edge "
        "cells\n  " + "\n  ".join(problems))


def test_criterion_11_cli_outputs_byte_identical(tmp_path):
    doc = {"deployment": {"preset": "three-chain"},
           "mac_phy": {"preset": "dot11b-11mbps", "payload_bytes": 1000},
           "backoff": {"preset": "dot11b-11mbps"},
           "traffic": {"mode": "tcp-short", "tcp_data_bytes": 1500,
                       "tcp_ack_bytes": 40, "app_data_bytes": 12500,
                       "arrival_rates_per_s": [1.0, 1.0, 1.0],
                       "mean_flow_size_bytes": 100000},
           "sim": {"enabled": True, "seed": 7, "flows_per_cell": 500,
                   "warmup_flows": 50, "replications": 3}}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    checked = 0
    for verb in ("tcp-short", "saturation"):
        a = tmp_path / f"{verb}-a"
        b = tmp_path / f"{verb}-b"
        assert cli_main([verb, "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main([verb, "--config", str(cfg), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
            checked += 1
    print(f"criterion 11: {checked} output files byte-identical across "
          f"reruns of two verbs")
