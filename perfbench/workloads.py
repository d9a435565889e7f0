"""Workload process of the benchmark: build inputs, run rounds, check.

Started by ``run.py`` as a fresh single-threaded process (one BLAS
thread), it imports cellwlan, writes the workload's inputs from the seed,
then issues operations in a closed loop, one after the previous returns,
in whole rounds until the run length has passed.  Every CLI verb call and
every library call is one operation.  It prints one JSON line: the time
of its first operation on the monotonic clock, the wall time of a round
(checks excluded), the operation counts, the peak resident set and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

_t_import = time.perf_counter()
import cellwlan  # noqa: E402
import cellwlan.cli as cli  # noqa: E402
from cellwlan import multicell, simkit, topology  # noqa: E402
IMPORT_S = time.perf_counter() - _t_import

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402

SOLVER_TOL = 1e-8          # the CLI's default solver tolerance
FP_TOL = 10 * SOLVER_TOL   # fixed-point residual allowed in outputs
MAC = {"preset": "dot11b-11mbps"}
BACKOFF = {"preset": "dot11b-11mbps"}


class CheckFailed(Exception):
    """An operation's output is wrong."""


class OpFailed(Exception):
    """An operation did not complete as a success."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None
    known_fault: bool = False


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(got, want, rtol=0.0, atol=0.0, what="value") -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    ok = np.all((np.isnan(got) & np.isnan(want))
                | (np.abs(got - want) <= atol + rtol * np.abs(want)))
    if not ok:
        err = np.nanmax(np.abs(got - want))
        raise CheckFailed(f"{what}: max error {err:.3e} (rtol {rtol}, atol {atol})")


# ---------------------------------------------------------------------------
# CLI operations and their output files

def read_tables(out_dir: str, verb: str, fmt: str) -> dict[str, list[dict]]:
    """Tables written by one verb, as lists of {column: text} rows."""
    if fmt == "doc":
        with open(os.path.join(out_dir, f"{verb}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        return {name: [dict(zip(t["header"], row)) for row in t["rows"]]
                for name, t in doc["tables"].items()}
    tables = {}
    prefix = f"{verb}_"
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith(prefix) and fname.endswith(".csv"):
            with open(os.path.join(out_dir, fname), encoding="utf-8", newline="") as fh:
                tables[fname[len(prefix):-4]] = list(csv.DictReader(fh))
    return tables


def col(rows: list[dict], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def summary(tables: dict, key: str) -> str:
    return {r["key"]: r["value"] for r in tables["summary"]}[key]


def cli_op(workdir: str, name: str, verb: str, config: str, fmt: str,
           check: Callable[[dict], None], seed: int | None = None) -> Op:
    out = os.path.join(workdir, "out", name)
    argv = [verb, "--config", config, "--out", out, "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]

    def run():
        so, se = io.StringIO(), io.StringIO()
        with redirect_stdout(so), redirect_stderr(se):
            rc = cli.main(argv)
        return rc, se.getvalue()

    def verify(res):
        rc, err = res
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.strip()[:200]}")
        check(read_tables(out, verb, fmt))

    return Op(name, run, verify, prepare=lambda: shutil.rmtree(out, ignore_errors=True))


def write_config(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, default_flow_style=False, sort_keys=False)
    return path


def tcp_short_traffic(rates, flow_bytes) -> dict:
    return {"mode": "tcp-short", "tcp_data_bytes": 1500, "tcp_ack_bytes": 40,
            "app_data_bytes": 12500,
            "arrival_rates_per_s": [float(r) for r in rates],
            "mean_flow_size_bytes": float(flow_bytes)}


# ---------------------------------------------------------------------------
# checks shared by the workloads

@dataclass
class Net:
    """A network as the checks see it: positions 0..n-1 stand for ids 1..n."""

    adj: np.ndarray
    node_counts: list[int]
    grid: tuple[int, int] | None = None

    @property
    def size(self) -> int:
        return len(self.node_counts)

    @functools.cached_property
    def states(self) -> np.ndarray:
        return (ref.grid_states(*self.grid) if self.grid
                else ref.powerset_states(self.adj))

    def x_from_rho(self, rho) -> np.ndarray:
        if self.grid:
            return ref.grid_x_transfer(*self.grid, rho)
        states = self.states
        return ref.unblocked(states, self.adj, ref.product_form(states, rho))

    def check_symmetric(self, values, what: str) -> None:
        if self.grid:
            for perm in ref.grid_symmetries(*self.grid):
                close(values[perm], values, atol=1e-9, what=f"{what} symmetry")


def check_fixed_point(net: Net, payload_bits: float, beta, rho, x,
                      gamma=None, what="fixed point") -> None:
    """x from rho, rho from beta, and beta = G(gamma).  gamma is recomputed
    from beta over an independent state list when not reported."""
    n = net.node_counts
    close(rho, ref.intensity(beta, n, payload_bits), rtol=1e-5, what=f"{what}: rho")
    close(x, net.x_from_rho(rho), atol=1e-9, what=f"{what}: x from rho")
    if gamma is None or not net.grid:
        states = net.states
        pi = ref.product_form(states, rho)
        recomputed = ref.collision_average(states, net.adj, pi, beta, n)
        if gamma is not None:
            close(gamma, recomputed, atol=1e-6, what=f"{what}: gamma")
        gamma = recomputed
    ladder = ref.backoff_ladder()
    g_of = [ref.attempt_horner(float(gv), ladder) for gv in gamma]
    close(beta, g_of, atol=FP_TOL, what=f"{what}: beta = G(gamma)")


def check_saturation(net: Net, payload_bits: float):
    def check(t):
        cells = t["cells"]
        expect([int(r["node_count"]) for r in cells] == net.node_counts, "node counts")
        beta, gamma, rho, x = (col(cells, k) for k in ("beta", "gamma", "rho", "x"))
        check_fixed_point(net, payload_bits, beta, rho, x, gamma, "saturation")
        net.check_symmetric(x, "x")
        net.check_symmetric(beta, "beta")
        iso = [ref.single_cell_throughput(m, payload_bits) for m in net.node_counts]
        close(col(cells, "cell_throughput_pkts"), x * iso, rtol=1e-7, what="cell throughput")
        close(col(cells, "per_node_throughput_pkts"),
              col(cells, "cell_throughput_pkts") / net.node_counts, rtol=1e-9,
              what="per-node throughput")
        close(float(summary(t, "normalized_network_throughput")), x.sum(), rtol=1e-9,
              what="network throughput")
        expect(int(summary(t, "states")) == len(net.states), "state count")
        if "states" in t:
            states = net.states
            index = {tuple(np.flatnonzero(s) + 1): k for k, s in enumerate(states)}
            pi = ref.product_form(states, rho)
            for r in t["states"]:
                key = () if r["state"] == "-" else tuple(int(c) for c in r["state"].split("+"))
                close(float(r["pi"]), pi[index[key]], atol=1e-9, what=f"pi{key}")
    return check


def check_tcp_long(net: Net, x_expected: Callable[[], np.ndarray] | None = None):
    def check(t):
        cells = t["cells"]
        x = col(cells, "x")
        iso = ref.tcp_ap_rate(1500 * 8.0, 40 * 8.0)
        close(float(summary(t, "isolated_ap_throughput_pkts")), iso, rtol=1e-8,
              what="isolated AP throughput")
        close(float(summary(t, "equivalent_payload_bytes")), 770.0, what="payload")
        close(col(cells, "ap_throughput_pkts"), x * iso, rtol=1e-7, what="AP throughput")
        net.check_symmetric(x, "tcp-long x")
        if x_expected is not None:
            close(x, x_expected(), atol=1e-6, what="tcp-long x against a separate solve")
    return check


def check_sweep(net: Net, payloads_bytes: list[float]):
    def check(t):
        pts = t["points"]
        got = sorted({float(r["payload_bytes"]) for r in pts})
        close(got, sorted(payloads_bytes), rtol=1e-12, what="sweep payloads")
        nnt = {float(r["payload_bytes"]): float(r["normalized_network_throughput"])
               for r in t["summary"]}
        for pb in payloads_bytes:
            rows = [r for r in pts if float(r["payload_bytes"]) == pb]
            expect([int(r["cell"]) for r in rows] == list(range(1, net.size + 1)),
                   "sweep cells")
            beta, rho, x = (col(rows, k) for k in ("beta", "rho", "x"))
            check_fixed_point(net, 8.0 * pb, beta, rho, x, None, f"sweep {pb:g} B")
            net.check_symmetric(x, "sweep x")
            close(nnt[pb], x.sum(), rtol=1e-9, what="sweep network throughput")
    return check


def solve_tcp_long_x(net: Net) -> np.ndarray:
    """x of the TCP-equivalent network (two nodes per cell, 770-byte
    frames) by a separate damped iteration over the power-set states."""
    states, adj = net.states, net.adj
    n = [2] * net.size
    pb = 770 * 8.0
    ladder = ref.backoff_ladder()
    beta = np.full(net.size, 1.0 / ladder[0])
    for _ in range(10_000):
        pi = ref.product_form(states, ref.intensity(beta, n, pb))
        gamma = ref.collision_average(states, adj, pi, beta, n)
        target = np.array([ref.attempt_horner(g, ladder) for g in gamma])
        if np.max(np.abs(target - beta)) < 1e-13:
            return ref.unblocked(states, adj, pi)
        beta = 0.5 * (beta + target)
    raise CheckFailed("reference tcp-long solve did not converge")


SIM_HALFWIDTHS = 4.0


def check_tcp_short(rates, flow_bytes, share: Callable[[], np.ndarray],
                    isolated: list[int] = (), sim=None):
    """Effective-rate fixed point, closed-form delays and, with ``sim`` =
    (replications, flows_per_cell), the simulated delay of isolated cells
    against the exact M/M/1-PS value."""
    nu = np.asarray(rates, dtype=float)
    ev = 8.0 * flow_bytes

    def check(t):
        cells = t["cells"]
        rate = ref.tcp_ap_rate(1500 * 8.0, 40 * 8.0) * 12500 * 8.0
        close(float(summary(t, "single_cell_rate_bps")), rate, rtol=1e-8,
              what="single-cell rate")
        x = col(cells, "x_hat")
        close(ref.busy_map(x, nu * ev / rate, share()), x, atol=FP_TOL,
              what="x_hat fixed point")
        for i in isolated:
            close(x[i], 1.0, atol=1e-12, what=f"isolated cell {i + 1} x_hat")
        eff = col(cells, "effective_rate_bps")
        close(eff, x * rate, rtol=1e-9, what="effective rate")
        load = nu * ev / eff
        close(col(cells, "load"), load, rtol=1e-9, what="load")
        stable = load < 1.0
        expect([r["stable"] == "true" for r in cells] == list(stable), "stable flags")
        close(col(cells, "mean_delay_s"), np.where(stable, (ev / eff) / (1.0 - load), np.nan),
              rtol=1e-9, what="analytic delay")
        if sim is None:
            expect("sim" not in t, "unexpected sim table")
            return
        reps, flows = sim
        srows = t["sim"]
        expect(all(r["stable"] == "true" for r in srows), "simulation unstable")
        expect(all(int(r["completed_flows"]) == reps * flows for r in srows),
               "completed flows")
        delay, half = col(srows, "mean_delay_s"), col(srows, "ci_halfwidth_s")
        for i in isolated:
            exact = ev / (rate - nu[i] * ev)
            expect(abs(delay[i] - exact) <= SIM_HALFWIDTHS * half[i],
                   f"cell {i + 1} simulated delay {delay[i]:.6g} vs exact "
                   f"{exact:.6g} beyond {SIM_HALFWIDTHS} half-widths ({half[i]:.3g})")
    return check


# ---------------------------------------------------------------------------
# workloads

def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def small_networks(rng: random.Random, workdir: str, seed: int) -> list[Op]:
    """Presets plus seeded 4-8-cell adjacency and geometric configs, every
    verb through cli.main, formats alternating, one malformed config."""
    nets = []   # (name, deployment section, Net, geometry or None)
    for name, pos in ref.PRESET_POSITIONS.items():
        k = len(pos)
        pairs, edges = ref.classify_pairs(pos, [ref.PRESET_RADIUS] * k, [1] * k,
                                          ref.PRESET_RANGE)
        net = Net(ref.adjacency(k, [(a - 1, b - 1) for a, b in edges]), [2] * k)
        nets.append((name, {"preset": name}, net, (pairs, edges)))
    for k in (4, 6, 8):
        edges = random_edges(rng, k, 0.4)
        counts = [rng.randint(1, 8) for _ in range(k)]
        dep = {"adjacency": {"cells": list(range(1, k + 1)),
                             "edges": [[a + 1, b + 1] for a, b in edges],
                             "node_counts": counts}}
        nets.append((f"adj{k}", dep, Net(ref.adjacency(k, edges), counts), None))
    for k in (5, 7, 8):
        side = 300.0 * math.sqrt(k)
        pos = [(round(rng.uniform(0, side), 1), round(rng.uniform(0, side), 1))
               for _ in range(k)]
        radii = [round(rng.uniform(10, 40), 1) for _ in range(k)]
        chans = [6 if rng.random() < 0.25 else 1 for _ in range(k)]
        counts = [rng.randint(1, 8) for _ in range(k)]
        pairs, edges = ref.classify_pairs(pos, radii, chans, 500.0)
        dep = {"carrier_sense_range_m": 500.0,
               "cells": [{"id": i + 1, "x_m": pos[i][0], "y_m": pos[i][1],
                          "radius_m": radii[i], "node_count": counts[i],
                          "channel": chans[i]} for i in range(k)]}
        net = Net(ref.adjacency(k, [(a - 1, b - 1) for a, b in edges]), counts)
        nets.append((f"geo{k}", dep, net, (pairs, edges)))

    ops = []
    flow_bytes = 100_000
    for ci, (name, dep, net, geo) in enumerate(nets):
        payload = rng.randint(500, 1500)
        sweep = sorted(rng.sample(range(200, 2001, 50), 4))
        rates = [round(rng.uniform(1.0, 8.0), 3) for _ in range(net.size)]
        doc = {"deployment": dep, "mac_phy": {**MAC, "payload_bytes": payload},
               "backoff": BACKOFF, "traffic": tcp_short_traffic(rates, flow_bytes),
               "sweep": {"payload_bytes": sweep}}
        path = write_config(workdir, name, doc)
        # reference tables are built once, on first use by a check
        shares = functools.cache(lambda adj=net.adj: ref.busy_shares_powerset(adj))
        tcp_x = functools.cache(lambda net=net: solve_tcp_long_x(net))
        verbs = [("infinite-rho", check_infinite_rho(net)),
                 ("saturation", check_saturation(net, 8.0 * payload)),
                 ("tcp-long", check_tcp_long(net, tcp_x)),
                 ("sweep", check_sweep(net, [float(v) for v in sweep])),
                 ("tcp-short", check_tcp_short(rates, flow_bytes, shares))]
        if geo is not None:
            verbs.insert(0, ("validate", check_validate(*geo)))
        for vi, (verb, check) in enumerate(verbs):
            fmt = "csv" if (ci + vi) % 2 == 0 else "doc"
            ops.append(cli_op(workdir, f"{name}-{verb}", verb, path, fmt, check))

    # An adjacency edge to an unknown cell: must end in "config error:" and
    # exit 1.  Today the ValueError from graph_from_edges escapes main.
    bad = write_config(workdir, "bad-edge", {
        "deployment": {"adjacency": {"cells": [1, 2, 3], "edges": [[1, 2], [2, 9]]}},
        "mac_phy": MAC, "backoff": BACKOFF})
    out = os.path.join(workdir, "out", "bad-edge")
    argv = ["saturation", "--config", bad, "--out", out]

    def run_bad():
        se = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(se):
            rc = cli.main(argv)
        return rc, se.getvalue()

    def check_bad(res):
        rc, err = res
        if rc != 1 or "config error:" not in err:
            raise OpFailed(f"malformed config gave exit {rc}")

    ops.append(Op("bad-edge", run_bad, check_bad, known_fault=True))
    return ops


def check_validate(pairs, edges):
    def check(t):
        got = [(int(r["cell_a"]), int(r["cell_b"]), r["relation"]) for r in t["pairs"]]
        expect(got == pairs, f"pair relations {got} != {pairs}")
        got_e = [(int(r["cell_a"]), int(r["cell_b"])) for r in t["edges"]]
        expect(got_e == sorted(edges), "contention edges")
        partial = sum(1 for p in pairs if p[2] == "partial")
        expect(summary(t, "satisfied") == ("true" if partial == 0 else "false"), "satisfied")
        expect(int(summary(t, "violations")) == partial, "violation count")
    return check


def check_infinite_rho(net: Net):
    def check(t):
        alpha, count, per = ref.mis_counts(net.adj)
        cells = t["cells"]
        expect([int(r["mis_count"]) for r in cells] == per, "per-cell MIS counts")
        close(col(cells, "x_limit"), np.array(per) / count, rtol=1e-11, what="x limit")
        expect(int(summary(t, "independence_number")) == alpha, "independence number")
        expect(int(summary(t, "mis_total")) == count, "MIS count")
        close(float(summary(t, "normalized_network_throughput")), alpha, what="limit")
    return check


def large_grid(rng: random.Random, workdir: str, seed: int) -> list[Op]:
    """saturation and tcp-long on a 5x5 grid, sweep on a 4x5 grid."""
    payload = rng.randint(950, 1050)
    cells, edges = ref.grid_cells(5, 5)
    g5 = {"adjacency": {"cells": cells, "edges": [list(e) for e in edges]}}
    doc = {"deployment": g5, "mac_phy": {**MAC, "payload_bytes": payload},
           "backoff": BACKOFF,
           "traffic": {"mode": "tcp-long", "tcp_data_bytes": 1500, "tcp_ack_bytes": 40}}
    p5 = write_config(workdir, "grid5x5", doc)
    net5 = Net(ref.adjacency(25, [(a - 1, b - 1) for a, b in edges]), [2] * 25, (5, 5))

    cells, edges = ref.grid_cells(4, 5)
    sweep = [float(v + rng.randint(-20, 20)) for v in (300, 600, 1000, 1500, 2000)]
    doc = {"deployment": {"adjacency": {"cells": cells, "edges": [list(e) for e in edges]}},
           "mac_phy": {**MAC, "payload_bytes": payload}, "backoff": BACKOFF,
           "sweep": {"payload_bytes": sweep}}
    p45 = write_config(workdir, "grid4x5", doc)
    net45 = Net(ref.adjacency(20, [(a - 1, b - 1) for a, b in edges]), [2] * 20, (4, 5))
    return [cli_op(workdir, "grid-saturation", "saturation", p5, "csv",
                   check_saturation(net5, 8.0 * payload)),
            cli_op(workdir, "grid-tcp-long", "tcp-long", p5, "doc", check_tcp_long(net5)),
            cli_op(workdir, "grid-sweep", "sweep", p45, "csv", check_sweep(net45, sweep))]


SIM_REPLICATIONS = 10
SIM_FLOWS = 2000


def short_flows(rng: random.Random, workdir: str, seed: int) -> list[Op]:
    """tcp-short with simulation on the 3-cell chain plus an isolated cell,
    and tcp-short without simulation on a 12-cell chain."""
    # The simulation runs until the slowest cell has its quota of flows, so
    # its cost grows with sum(rates) / min(rates): keep the rates within a
    # few percent of each other, or the run time would follow the seed.
    flow_bytes = 100_000
    rates4 = [round(6.0 * (1.0 + 0.03 * rng.uniform(-1, 1)), 3) for _ in range(4)]
    doc = {"deployment": {"adjacency": {"cells": [1, 2, 3, 4], "edges": [[1, 2], [2, 3]]}},
           "mac_phy": MAC, "backoff": BACKOFF,
           "traffic": tcp_short_traffic(rates4, flow_bytes),
           "sim": {"enabled": True, "seed": 1, "flows_per_cell": SIM_FLOWS,
                   "warmup_flows": 200, "replications": SIM_REPLICATIONS}}
    p4 = write_config(workdir, "chain3-plus-1", doc)
    adj4 = ref.adjacency(4, [(0, 1), (1, 2)])
    share4 = functools.cache(lambda: ref.busy_shares_powerset(adj4))

    rates12 = [round(6.0 * (1.0 + 0.05 * rng.uniform(-1, 1)), 3) for _ in range(12)]
    doc = {"deployment": {"adjacency": {"cells": list(range(1, 13)),
                                        "edges": [[i, i + 1] for i in range(1, 12)]}},
           "mac_phy": MAC, "backoff": BACKOFF,
           "traffic": tcp_short_traffic(rates12, flow_bytes)}
    p12 = write_config(workdir, "chain12", doc)
    share12 = functools.cache(lambda: ref.busy_shares_path(12))
    return [cli_op(workdir, "sim-4cell", "tcp-short", p4, "csv",
                   check_tcp_short(rates4, flow_bytes, share4, isolated=[3],
                                   sim=(SIM_REPLICATIONS, SIM_FLOWS)),
                   seed=seed),
            cli_op(workdir, "chain12", "tcp-short", p12, "doc",
                   check_tcp_short(rates12, flow_bytes, share12))]


CTMC_TRANSITIONS = 300_000
SLOTS = 200_000
CTMC_TV_FACTOR = 3.0


def sim_validation(rng: random.Random, workdir: str, seed: int) -> list[Op]:
    """The CTMC and slotted samplers through the library API.  An
    operation whose input is an earlier operation's result reads it from
    ``box``, where the earlier operation stored it."""
    nprng = np.random.Generator(np.random.Philox(seed))
    chain = ([1, 2, 3], [(1, 2), (2, 3)])
    clique = ([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    rand6 = ([1, 2, 3, 4, 5, 6],
             [(a + 1, b + 1) for a, b in random_edges(rng, 6, 0.5)])
    box: dict = {}
    ops = []
    for name, (cells, edges) in (("chain", chain), ("clique", clique), ("random6", rand6)):
        lam = nprng.uniform(0.5, 2.0, len(cells))
        mu = nprng.uniform(0.5, 2.0, len(cells))
        ops += _ctmc_ops(name, cells, edges, lam, mu, int(nprng.integers(1 << 30)), box)

    payload = rng.randint(800, 1200)
    inp = multicell.MulticellInput(
        graph=topology.graph_from_edges(*chain), node_counts=(2, 2, 2),
        mac_phy=cellwlan.mac_phy_preset("dot11b-11mbps", 8.0 * payload),
        backoff=cellwlan.backoff_preset("dot11b-11mbps"))
    net3 = Net(ref.adjacency(3, [(0, 1), (1, 2)]), [2, 2, 2])
    hold = [max(1, math.ceil(t / ref.SLOT - 1e-12))
            for t in ref.exchange_times(8.0 * payload)]

    def solve():
        box["sol"] = multicell.solve_fixed_point(inp)
        return box["sol"]

    ops.append(Op("solve-chain", solve, lambda sol: check_fixed_point(
        net3, 8.0 * payload, sol.beta, sol.rho, sol.x, sol.gamma, "chain solve")))
    s_chain = int(nprng.integers(1 << 30))
    ops.append(Op("slotted-chain",
                  lambda: simkit.simulate_slotted(inp.graph, (2, 2, 2), box["sol"].beta,
                                                  *hold, SLOTS, seed=s_chain),
                  lambda run: _check_gamma(run, box["sol"].gamma, 0.02, "chain")))
    n_e = rng.randint(3, 6)
    beta_e = round(rng.uniform(0.1, 0.3), 4)
    g2 = topology.graph_from_edges([1, 2], [])
    s_edge = int(nprng.integers(1 << 30))
    exact = 1.0 - (1.0 - beta_e) ** (n_e - 1)
    ops.append(Op("slotted-edgeless",
                  lambda: simkit.simulate_slotted(g2, (n_e, n_e), (beta_e, beta_e),
                                                  *hold, SLOTS, seed=s_edge),
                  lambda run: _check_gamma(run, [exact, exact], 0.0, "edgeless")))
    return ops


def _ctmc_ops(name, cells, edges, lam, mu, seed, box) -> list[Op]:
    """Enumerate a graph's states, then sample the CTMC over them."""
    graph = topology.graph_from_edges(cells, edges)
    adj = ref.adjacency(len(cells), [(a - 1, b - 1) for a, b in edges])
    states = ref.powerset_states(adj)

    def enumerate_():
        box[name] = topology.enumerate_independent_sets(graph)
        return box[name]

    def check_space(space):
        want = sorted(tuple(np.flatnonzero(s) + 1) for s in states)
        expect([tuple(s) for s in space.states] == want, "independent sets")

    def check_ctmc(run):
        """Empirical law against the direct product of intensities.  The
        total variation of a trajectory average over T transitions on S
        states shrinks like sqrt(S / T); the factor is several times the
        largest ratio seen over many seeds."""
        space = box[name]
        mask = np.array([[c in s for c in space.cells] for s in space.states])
        tv = 0.5 * float(np.abs(run.empirical_pi - ref.product_form(mask, lam / mu)).sum())
        bound = CTMC_TV_FACTOR * math.sqrt(len(space) / CTMC_TRANSITIONS)
        expect(run.transitions == CTMC_TRANSITIONS, "transition count")
        expect(tv <= bound, f"CTMC total variation {tv:.4g} > {bound:.4g}")

    return [Op(f"enumerate-{name}", enumerate_, check_space),
            Op(f"ctmc-{name}",
               lambda: simkit.simulate_ctmc(box[name], lam, mu,
                                            transitions=CTMC_TRANSITIONS, seed=seed),
               check_ctmc)]


def _check_gamma(run, want, model_err: float, what: str) -> None:
    """Empirical collision probability within the model error plus five
    binomial standard deviations of the tagged attempts."""
    want = np.asarray(want, dtype=float)
    att = np.asarray(run.tagged_attempts, dtype=float)
    expect(bool(np.all(att > 0)), f"{what}: no tagged attempts")
    sd = np.sqrt(want * (1.0 - want) / att)
    err = np.abs(run.empirical_gamma - want)
    expect(bool(np.all(err <= model_err + 5.0 * sd)),
           f"{what}: collision probability error {err} beyond {model_err} + 5 sd {sd}")


WORKLOADS = {
    "small-networks": small_networks,
    "large-grid": large_grid,
    "short-flows": short_flows,
    "sim-validation": sim_validation,
}


# ---------------------------------------------------------------------------

def source_lines(src: str) -> int:
    total = 0
    for base, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    ops = WORKLOADS[args.workload](random.Random(args.seed), args.workdir, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    attempted = failed = 0
    correct = True
    errors: list[str] = []
    op_s: list[list[float]] = []   # [round][op] wall time, checks excluded
    t_first = time.monotonic()
    start = time.perf_counter()
    while True:
        times = []
        for op in ops:
            if op.prepare:
                op.prepare()
            attempted += 1
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as e:  # an operation that raises has failed
                times.append(time.perf_counter() - t0)
                failed += 1
                correct &= op.known_fault
                errors.append(f"{op.name}: {type(e).__name__}: {e}")
                continue
            times.append(time.perf_counter() - t0)
            try:
                op.check(res)
            except Exception as e:  # unreadable output counts as wrong output
                failed += 1
                correct &= op.known_fault and isinstance(e, OpFailed)
                errors.append(f"{op.name}: {type(e).__name__}: {e}")
        op_s.append(times)
        if tracer is not None:
            tracer.end_round()
        if time.perf_counter() - start >= args.seconds:
            break

    for msg in dict.fromkeys(errors):
        print(f"operation failed: {msg}", file=sys.stderr)
    # Each operation's upper quartile over the rounds, summed over the
    # round.  This machine runs in its usual speed most of the time, with
    # spells up to a third faster that last seconds to minutes; per
    # operation, the upper quartile keeps the usual speed unless a spell
    # covers most of the run.
    wall_s = float(sum(np.percentile(np.array(op_s), 75, axis=0)))
    out = {"t_first": t_first, "wall_s": wall_s, "attempted": attempted,
           "failed": failed, "correct": correct,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        src = os.path.dirname(os.path.dirname(os.path.abspath(cellwlan.__file__)))
        out["layers"] = tracing.layer_metrics(tracer, IMPORT_S, source_lines(src))
        if args.trace_file:
            tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                          "wall_s": wall_s, "op_s": op_s})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
