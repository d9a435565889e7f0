"""Print one sha256 digest per output of a fixed corpus of runs.

The corpus:

- every CLI verb, in both output formats, on the three deployment presets
  and on seeded adjacency configs of 4, 6 and 8 cells, with ``tcp-short``
  running the flow simulation under both service models;
- one adjacency config that lists its cells out of id order together with
  per-cell lists (label ``unsorted``);
- ``tcp-short`` with the flow simulation on and no arrivals in any cell
  (label ``idle``), in both output formats;
- the outcome of a config that is not UTF-8 and of an ``--out`` that is an
  existing file or lies under one;
- seeded direct ``simulate_flow_network`` calls on random graphs of 1-7
  cells, and one call for each way a replication can end early (a
  runaway queue, a model-2 cell starved into one, a cell without
  arrivals, no event left to happen), and the 4-cell case of perfbench's
  ``short-flows`` workload (10 x 2,000 flows, long enough that its
  replications run in forked workers), digesting every ``DelayResult``
  field;
- direct library calls, digesting every field of the result:
  ``solve_single_cell`` for 1-30 nodes, and for 1-8 nodes on a
  ``cw_min = 3`` ladder, ``effective_rate_fixed_point`` on
  seeded 3-12-cell chains, ``simulate_ctmc`` on a 6-cell chain (21
  states, resolved by composing jump tables), a 10-cell chain (144
  states, walked step by step) and a 6-cell graph without edges (64
  states, one cell that never activates) whose run ends 5 steps into its
  second chunk, and ``slots_for`` on durations that do and do not fall
  on a slot boundary;
- ``load_config`` on two documents that leave every key with a library
  default out (an adjacency list without node counts, and inline cells
  without node counts or channels; neither with ``solver``, ``sim`` or
  ``traffic``), digesting every field but ``raw``;
- ``simulate_slotted`` on seeded graphs of 1-8 cells with non-contiguous
  ids, some runs crossing a chunk boundary, digesting every ``SlottedRun``
  field but ``throughput_pkts``, which older checkouts have and this one
  does not;
- the samplers' edge cases: ``simulate_ctmc`` on a 1-cell graph (one
  jump interval), for 1, 2 and 3 transitions and across a second chunk
  of odd length on a 4-cell graph, on a 5-cell graph without edges (32
  states, too many jump intervals to compose pairs of steps) and on a
  seeded 40-48-state graph; ``simulate_slotted`` with holds that end on
  a chunk boundary, holds of two or three cells that end in the same
  slot, and an attempt in a chunk's last slot;
- ``enumerate_independent_sets`` and ``mis_stats`` on seeded graphs of
  1-16 cells with non-contiguous ids and on the 5x5 grid, digesting the
  member tuples (their repr, so the type of each member counts), the
  three role masks, ``toggle_index`` and the ``MisStats`` repr;
- the ``infinite-rho`` verb on the 5x5 grid (25 cells, 55,447 states),
  and the frontier DP through the CLI as perfbench's ``large-grid``
  runs it: ``saturation`` and ``tcp-long`` on the 5x5 grid at 1000-byte
  frames, ``sweep`` on the 4x5 grid (6,743 states) over 300-2000 bytes;
- ``saturation`` and ``sweep`` on the 3-cell chain and on a seeded
  6-cell config with a ``max_iterations`` low enough that uniqueness
  probes fail and their warnings reach the output, and on two 5-cell
  configs with cells of one node, one of them on a ``cw_min = 3`` ladder
  (G(0) = 1);
- ``solve_fixed_point`` and ``payload_sweep`` on seeded graphs of 1-8
  cells and on the 4x5 and 5x5 grids, at the default solver settings and
  at a ``max_iterations`` between the main solve's count and the probes',
  digesting every field of the solution and of each sweep point
  (warnings included; the graph by its sorted edges), plus a 5-point
  ``payload_sweep`` on the 5x5 grid (20 solver rows of the frontier DP)
  and the outcome of a 3-cell sweep whose main solve fails only at its
  second point; ``solve_fixed_point`` on the 6x6 grid at ``multistart``
  0 (5,598,861 states, beyond enumeration's cap; an older checkout gives
  its refusal), on a 2x16 ladder (1,607,521 states) numbered column by
  column and row by row at ``multistart`` 0 (an older checkout, walking
  the row-numbered one in id order, gives its refusal), on a 66-cell
  clique (degree 65), ``solve_fixed_point`` and a 3-payload
  ``payload_sweep`` on a 5-cell graph with cells of one node on a
  ``cw_min = 3`` ladder,
  an 18-payload ``payload_sweep`` on a seeded 6-cell graph (72 solver
  rows, more than one row-offset ``bincount`` of the collision average
  takes) and the outcome of a 3-cell solve whose law underflows at a
  payload of 1e307 bytes;
- seeded geometric deployments of 1-12 cells on mixed channels, listed
  out of id order, with pairs on both sides of the carrier-sense
  boundary and straddling it, plus one with exact ties at the boundary,
  through ``build_contention_graph``, ``check_pbd``, ``dot_edges`` and
  ``adjacency_text``;
- the stdout of the ``presets`` verb and the ``KeyError`` text of an
  unknown MAC/PHY and backoff preset;
- the outcome (result, or exception type and text) of each bad input
  that the library refuses: a NaN or infinite MAC/PHY field, mean
  backoff, AP position, radius or carrier-sense range, a solver setting
  out of range, a setting that is not a whole number (of ``SimConfig``,
  ``FixedPointConfig``, a node count, a sampler seed or step count, a
  backoff ladder), a NaN, infinite or out-of-range intensity or attempt
  probability given to the kernels, a duration or slot time given to
  ``slots_for`` that is not finite and > 0 or whose ratio overflows, an
  edge list with a repeated cell id, an edge that is not a pair or one
  to an unlisted cell, and ``mis_share_table`` on 21 cells, one above its
  cap.  A bad ``SimConfig`` or ``FixedPointConfig`` is also constructed
  on its own: older checkouts accept the first and then never finish a
  run, and refuse the second only in the solver.  On an older checkout
  without the share table's cap, the 21-cell case builds a 352 MB table.

Run it against two checkouts and diff the results to show that a change
leaves every output byte-identical:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/output_digest.py > before.txt
    diff before.txt after.txt

Where outputs may move in the last bits, save each run's lines with the
arrays behind them and compare: every changed line is listed, with the
largest |difference| of each changed array, then the lines one side
lacks.

    PYTHONPATH=src python scripts/output_digest.py --arrays after.pkl
    PYTHONPATH=../parent/src python scripts/output_digest.py \
        --arrays before.pkl
    python scripts/output_digest.py --compare before.pkl after.pkl

``--compare`` exits 1 if any shared line changed or any line is found on
one side only, and 0 if the two runs agree line for line, so it can gate
a change on its own.

Only long-standing public names are used, so older checkouts run it too.
The whole corpus takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import pickle
import sys
import tempfile

import numpy as np
import yaml

from cellwlan.cli import load_config, main
from cellwlan.dcf import (BackoffParams, backoff_preset, mac_phy_preset,
                          mean_backoffs, solve_single_cell)
from cellwlan.flows import (FlowParams, SimConfig, effective_rate_fixed_point,
                            simulate_flow_network)
from cellwlan.multicell import (FixedPointConfig, MulticellInput,
                                collision_probability, payload_sweep,
                                solve_fixed_point, stationary_distribution,
                                tcp_pair)
from cellwlan.simkit import simulate_ctmc, simulate_slotted, slots_for
from cellwlan.topology import (CellGeom, Deployment, StateSpaceCapError,
                               adjacency_text, build_contention_graph,
                               check_pbd, dot_edges,
                               enumerate_independent_sets, graph_from_edges,
                               mis_share_table, mis_stats)

VERBS = ("saturation", "tcp-long", "tcp-short", "infinite-rho", "sweep",
         "validate")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _doc(deployment: dict, rates: list[float], model: str, seed: int) -> dict:
    return {"deployment": deployment,
            "mac_phy": {"preset": "dot11b-11mbps", "payload_bytes": 1000},
            "backoff": {"preset": "dot11b-11mbps"},
            "traffic": {"mode": "tcp-short", "tcp_data_bytes": 1500,
                        "tcp_ack_bytes": 40, "app_data_bytes": 12500,
                        "arrival_rates_per_s": rates,
                        "mean_flow_size_bytes": 100000,
                        "service_model": model},
            "sim": {"enabled": True, "seed": seed, "flows_per_cell": 300,
                    "warmup_flows": 30, "replications": 3},
            "sweep": {"payload_bytes": [500, 1000, 1500]}}


def cli_configs():
    """(label, config document) pairs, in a fixed order."""
    sizes = {"two-cell": 2, "three-chain": 3, "three-clique": 3}
    for name, n in sizes.items():
        for model in ("model1", "model2"):
            yield (f"{name}-{model}",
                   _doc({"preset": name}, [1.0 + k for k in range(n)],
                        model, 7))
    rng = np.random.Generator(np.random.Philox(2024))
    for n in (4, 6, 8):
        cells = list(range(1, n + 1))
        edges = [[a, b] for a, b in itertools.combinations(cells, 2)
                 if rng.random() < 0.4]
        counts = [int(c) for c in rng.integers(1, 9, size=n)]
        rates = [round(float(r), 3) for r in rng.uniform(0.5, 4.0, size=n)]
        for model in ("model1", "model2"):
            adj = {"cells": cells, "edges": edges, "node_counts": counts}
            yield f"adj{n}-{model}", _doc({"adjacency": adj}, rates, model, n)
    adj = {"cells": [4, 1, 3, 2], "edges": [[4, 1], [1, 3], [3, 2]],
           "node_counts": [2, 4, 1, 3]}
    yield "unsorted", _doc({"adjacency": adj}, [0.5, 1.0, 1.5, 2.0],
                           "model2", 3)


def _grid(rows: int, cols: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Cells 1..rows*cols in row-major order, edges between 4-neighbors."""
    cells = list(range(1, rows * cols + 1))
    edges = [(c, c + 1) for c in cells if c % cols] + \
        [(c, c + cols) for c in cells[:-cols]]
    return cells, edges


def _cli_run(tag: str, argv: list[str], tmp: str):
    """Exit code and console of one CLI run; a run that raises (as older
    checkouts do on some inputs) gives the exception's type and text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except Exception as e:  # noqa: BLE001 - the outcome is the digest
            rc = type(e).__name__
            print(e, file=sys.stderr)
    console = (stdout.getvalue() + stderr.getvalue()).replace(tmp, "<tmp>")
    return f"{tag} rc={rc} console", _sha(console.encode())


def cli_digests(tmp: str):
    cells, edges = _grid(5, 5)
    grid = {"deployment": {"adjacency": {"cells": cells,
                                         "edges": [list(e) for e in edges]}}}
    runs = [(label, doc, VERBS) for label, doc in cli_configs()]
    runs.append(("grid5x5", grid, ("infinite-rho",)))
    # the frontier DP through the CLI, as perfbench's large-grid runs it
    mac = {"preset": "dot11b-11mbps", "payload_bytes": 1000}
    tcp = {"mode": "tcp-long", "tcp_data_bytes": 1500, "tcp_ack_bytes": 40}
    runs.append(("grid5x5-dp", {**grid, "mac_phy": mac, "traffic": tcp},
                 ("saturation", "tcp-long")))
    cells, edges = _grid(4, 5)
    runs.append(("grid4x5-dp", {
        "deployment": {"adjacency": {"cells": cells,
                                     "edges": [list(e) for e in edges]}},
        "mac_phy": mac, "sweep": {"payload_bytes": [300, 600, 1000, 1500,
                                                    2000]}}, ("sweep",)))
    for label, doc in PROBE_CONFIGS:
        runs.append((f"{label}-probes", doc, ("saturation", "sweep")))
    for label, doc in ONE_NODE_CONFIGS:
        runs.append((label, doc, ("saturation", "sweep")))
    runs.append(("idle", _doc({"preset": "three-chain"}, [0.0, 0.0, 0.0],
                              "model2", 7), ("tcp-short",)))
    for label, doc, verbs in runs:
        cfg = os.path.join(tmp, f"{label}.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        for verb, fmt in itertools.product(verbs, ("csv", "doc")):
            out = os.path.join(tmp, label, verb, fmt)
            tag = f"cli {label} {verb} {fmt}"
            yield _cli_run(tag, [verb, "--config", cfg, "--out", out,
                                 "--format", fmt], tmp)
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                with open(os.path.join(out, name), "rb") as fh:
                    yield f"{tag} {name}", _sha(fh.read())


def cli_refusal_digests(tmp: str):
    """Outcomes of a config that is not UTF-8 and of an output directory
    that cannot be made."""
    doc = yaml.safe_dump(_doc({"preset": "three-chain"}, [1.0, 1.0, 1.0],
                              "model2", 7)).encode()
    latin1 = os.path.join(tmp, "latin1.yaml")
    with open(latin1, "wb") as fh:
        fh.write(b"# caf\xe9\n" + doc)
    yield _cli_run("cli non-utf8-config", ["saturation", "--config", latin1,
                                           "--out", os.path.join(tmp, "o")],
                   tmp)
    cfg = os.path.join(tmp, "plain.yaml")
    with open(cfg, "wb") as fh:
        fh.write(doc)
    for label, out in (("out-is-a-file", cfg),
                       ("out-under-a-file", os.path.join(cfg, "out"))):
        yield _cli_run(f"cli {label}", ["saturation", "--config", cfg,
                                        "--out", out], tmp)


# (label, config) pairs whose solver stops the uniqueness probes before
# they settle, while every main solve still converges
PROBE_CONFIGS = (
    ("three-chain", {**_doc({"preset": "three-chain"}, [1.0, 2.0, 3.0],
                            "model2", 7),
                     "solver": {"max_iterations": 26}}),
    ("adj6", {**_doc({"adjacency": {
        "cells": [1, 2, 3, 4, 5, 6],
        "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [2, 5]],
        "node_counts": [3, 1, 4, 1, 5, 2]}}, [1.0] * 6, "model1", 2),
        "solver": {"max_iterations": 30, "multistart": 5}}),
)


# (label, config) pairs with cells of one node, one on a ladder whose
# first mean backoff is one slot: G(0) = 1, so beta = 1 and 0^0 appear
_ONE_NODE = {"adjacency": {
    "cells": [1, 2, 3, 4, 5],
    "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [2, 4]],
    "node_counts": [1, 2, 1, 3, 1]}}
ONE_NODE_CONFIGS = (
    ("one-node", _doc(_ONE_NODE, [1.0] * 5, "model1", 4)),
    ("one-node-cw3", {**_doc(_ONE_NODE, [1.0] * 5, "model2", 5),
                      "backoff": {"preset": "dot11b-11mbps", "cw_min": 3}}),
)


# (label, cells, edges, arrival rates, model, runaway threshold): one case
# for each way a replication can end besides meeting every quota
SIM_EXITS = (
    ("runaway", [1], [], (1.5,), "model1", 60),
    # the middle cell of a chain is starved whenever both ends are busy
    ("starved-middle", [1, 2, 3], [(1, 2), (2, 3)], (0.6, 0.3, 0.6),
     "model2", 40),
    ("no-arrivals-cell", [1, 2, 3], [(1, 2), (2, 3)], (0.0, 0.2, 0.1),
     "model2", 100_000),
    # inter-arrival times of about 1e308 s overflow to infinity: no event
    # is left to happen
    ("no-events", [1, 2], [(1, 2)], (1e-308, 1e-308), "model1", 100_000),
)


# digest -> array, for every numeric array digested: what --arrays saves
ARRAYS: dict[str, np.ndarray] = {}


def _array_sha(value) -> str:
    value = np.asarray(value)
    if value.dtype == object:
        # not numbers (an older checkout's state space): its type alone
        return _sha(type(value.item()).__name__.encode())
    digest = _sha(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    ARRAYS[digest] = value
    return digest


def _result_digests(tag: str, res, skip=()):
    for field in (f.name for f in dataclasses.fields(res)):
        if field in skip:
            continue
        value = getattr(res, field)
        yield f"{tag} {field}", (_sha(b"None") if value is None
                                 else _array_sha(value))


def sim_digests(count: int = 30):
    rng = np.random.Generator(np.random.Philox(99))
    for k in range(count):
        n = k % 7 + 1
        cells = list(range(1, n + 1))
        edges = [(a, b) for a, b in itertools.combinations(cells, 2)
                 if rng.random() < 0.5]
        # a few cells run near or past overload to exercise the runaway cut
        nu = rng.uniform(0.0, 0.5 if k % 5 else 1.2, size=n)
        if k % 4 == 3:
            nu[0] = 0.0         # a cell without arrivals; all of them at n=1
        model = "model1" if k % 2 else "model2"
        params = FlowParams(tuple(nu.tolist()), float(rng.uniform(0.5, 2.0)),
                            1.0, service_model=model)
        cfg = SimConfig(rng_seed=k, flows_per_cell=200, warmup_flows=20,
                        replications=3, runaway_threshold=300)
        res = simulate_flow_network(graph_from_edges(cells, edges), params,
                                    cfg)
        yield from _result_digests(f"sim {k} n={n} {model}", res)
    for k, (label, cells, edges, nu, model, runaway) in enumerate(SIM_EXITS):
        cfg = SimConfig(rng_seed=k, flows_per_cell=300, warmup_flows=10,
                        replications=3, runaway_threshold=runaway)
        res = simulate_flow_network(graph_from_edges(cells, edges),
                                    FlowParams(nu, 1.0, 1.0, model), cfg)
        yield from _result_digests(f"sim {label} {model}", res)
    # the 4-cell case of perfbench's short-flows workload: estimated above
    # flows._POOL_EVENTS, so its replications run in forked workers
    pair, share = tcp_pair(mac_phy_preset("dot11b-11mbps", 8000.0),
                           12000.0, 320.0)
    rate = solve_single_cell(2, pair, backoff_preset("dot11b-11mbps")) \
        .throughput_pkts * share * 100000.0
    res = simulate_flow_network(
        graph_from_edges([1, 2, 3, 4], [(1, 2), (2, 3)]),
        FlowParams((6.0, 6.1, 5.9, 6.05), 800000.0, rate),
        SimConfig(rng_seed=1, flows_per_cell=2000, warmup_flows=200,
                  replications=10))
    yield from _result_digests("sim short-flows 4-cell", res)


def _chain(n: int):
    return graph_from_edges(list(range(1, n + 1)),
                            [(k, k + 1) for k in range(1, n)])


def library_digests():
    mac = mac_phy_preset("dot11b-11mbps", 8000.0)
    backoff = backoff_preset("dot11b-11mbps")
    for n in range(1, 31):
        yield from _result_digests(f"single-cell n={n}",
                                   solve_single_cell(n, mac, backoff))
    for n in range(1, 9):
        yield from _result_digests(f"single-cell cw_min=3 n={n}",
                                   solve_single_cell(n, mac, CW3))
    rng = np.random.Generator(np.random.Philox(5))
    for n in range(3, 13):
        nu = tuple(rng.uniform(0.0, 0.6, size=n).tolist())
        res = effective_rate_fixed_point(_chain(n), FlowParams(nu, 1.0, 1.0))
        yield from _result_digests(f"effective-rate chain {n}", res)
    for n in (6, 10):
        g = _chain(n)
        lam = rng.uniform(0.2, 3.0, size=n)
        mu = rng.uniform(0.5, 2.0, size=n)
        run = simulate_ctmc(enumerate_independent_sets(g), lam, mu,
                            transitions=150_000, seed=n)
        yield from _result_digests(f"ctmc chain {n}", run)
    lam = rng.uniform(0.2, 3.0, size=6)
    lam[2] = 0.0
    run = simulate_ctmc(enumerate_independent_sets(graph_from_edges(
        list(range(1, 7)), [])), lam, rng.uniform(0.5, 2.0, size=6),
        transitions=(1 << 16) + 5, seed=12)
    yield from _result_digests("ctmc edgeless 6", run)
    for duration, slot_time in ((994e-6, 20e-6), (13540.0 / 11e6, 20e-6),
                                (20e-6, 20e-6), (60e-6, 20e-6), (1e-9, 20e-6),
                                (1e300, 1e10), (5e-324, 1e300)):
        yield (f"slots_for {duration!r} {slot_time!r}",
               _sha(repr(slots_for(duration, slot_time)).encode()))


def config_digests(tmp: str):
    adjacency = {"adjacency": {"cells": [3, 1, 2], "edges": [[1, 3]]}}
    cells = {"carrier_sense_range_m": 500, "cells": [
        {"id": 2, "x_m": 0, "y_m": 0, "radius_m": 25},
        {"id": 1, "x_m": 400, "y_m": 0, "radius_m": 25}]}
    for label, deployment in (("adjacency", adjacency), ("cells", cells)):
        path = os.path.join(tmp, f"defaults-{label}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"deployment": deployment,
                            "mac_phy": {"preset": "dot11b-11mbps"},
                            "backoff": {"preset": "dot11b-11mbps"}}, fh)
        cfg = load_config(path)
        # older checkouts also have a traffic_mode field
        for field in (f.name for f in dataclasses.fields(cfg)):
            if field in ("raw", "traffic_mode"):
                continue
            value = getattr(cfg, field)
            if field == "graph":
                value = (value.cells, sorted(sorted(e) for e in value.edges))
            yield (f"config defaults-{label} {field}",
                   _sha(repr(value).encode()))


def slotted_digests(count: int = 16):
    rng = np.random.Generator(np.random.Philox(77))
    for k in range(count):
        n = k % 8 + 1
        cells = sorted(rng.choice(100, size=n, replace=False).tolist())
        edges = [(a, b) for a, b in itertools.combinations(cells, 2)
                 if rng.random() < 0.4]
        counts = tuple(int(c) for c in rng.integers(1, 9, size=n))
        beta = rng.uniform(0.0, 0.4, size=n)
        t_s, t_c = (int(t) for t in rng.integers(1, 70, size=2))
        # every fourth run crosses the first chunk boundary (65,536 slots)
        horizon = 70_000 if k % 4 == 3 else 20_000
        run = simulate_slotted(graph_from_edges(cells, edges), counts, beta,
                               t_s, t_c, horizon, seed=k)
        yield from _result_digests(f"slotted {k} n={n}", run,
                                   skip=("throughput_pkts",))


def sampler_edge_digests():
    chain4 = graph_from_edges([1, 2, 3, 4], [(1, 2), (2, 3)])
    rng = np.random.Generator(np.random.Philox(31))
    while True:     # a seeded graph of 40-48 states
        cells, edges = (list(range(1, 8)), [
            e for e in itertools.combinations(range(1, 8), 2)
            if rng.random() < 0.3])
        ss48 = enumerate_independent_sets(graph_from_edges(cells, edges))
        if 40 <= len(ss48) <= 48:
            break
    chunk = 1 << 16
    for tag, ss, transitions in (
            ("1-cell", enumerate_independent_sets(graph_from_edges([4], [])),
             chunk + 3),
            ("chain4 t=1", enumerate_independent_sets(chain4), 1),
            ("chain4 t=2", enumerate_independent_sets(chain4), 2),
            ("chain4 t=3", enumerate_independent_sets(chain4), 3),
            ("chain4 odd chunk", enumerate_independent_sets(chain4),
             chunk + 1_001),
            ("edgeless 5", enumerate_independent_sets(
                graph_from_edges(list(range(1, 6)), [])), 5_001),
            (f"{len(ss48)} states", ss48, 3_001)):
        n = len(ss.cells)
        run = simulate_ctmc(ss, rng.uniform(0.1, 3.0, n),
                            rng.uniform(0.1, 3.0, n), transitions=transitions,
                            seed=int(rng.integers(1 << 30)))
        yield from _result_digests(f"ctmc edge {tag}", run)
    # beta = 1 and lone nodes: two isolated cells both hold to every
    # multiple of 64 (the chunk boundary among them), a lone cell with a
    # 2-slot hold attempts in every third slot (65,535 among them), and
    # the chain's cells collide together
    chain3 = _chain(3)
    for tag, args in (
            ("boundary", (graph_from_edges([1, 2], []), (1, 1), (1.0, 1.0),
                          63, 50, chunk + 200)),
            ("last slot", (graph_from_edges([1], []), (1,), (1.0,), 2, 9,
                           chunk + 200)),
            ("together", (chain3, (1, 1, 1), (1.0, 1.0, 1.0), 62, 50,
                          chunk + 200)),
            ("mixed", (chain3, (1, 2, 1), (1.0, 0.3, 1.0), 63, 63,
                       2 * chunk + 3))):
        yield from _result_digests(f"slotted edge {tag}",
                                   simulate_slotted(*args, seed=5),
                                   skip=("throughput_pkts",))


def _solution_digests(tag: str, res):
    for field in (f.name for f in dataclasses.fields(res)):
        value = getattr(res, field)
        if field == "graph":
            edges = sorted(sorted(e) for e in value.edges)
            yield f"{tag} {field}", _sha(repr((value.cells, edges)).encode())
        elif field == "warnings":
            yield f"{tag} {field}", _sha(repr(value).encode())
        else:
            yield f"{tag} {field}", _array_sha(value)


# a ladder whose first mean backoff is one slot: G(0) = 1
CW3 = mean_backoffs(3, 1024, 7)


def _ladder(n: int, by_rows: bool):
    """A 2 x n ladder, its cells numbered row by row or column by column."""
    cells = list(range(1, 2 * n + 1))
    if by_rows:
        return cells, [(c, c + 1) for c in cells if c % n] + \
            [(c, c + n) for c in range(1, n + 1)]
    return cells, [(c, c + 1) for c in cells if c % 2] + \
        [(c, c + 2) for c in range(1, 2 * n - 1)]


def _solution_or_refusal(tag: str, make):
    try:
        sol = make()
    except StateSpaceCapError as e:
        yield tag, _sha(f"{type(e).__name__}: {e}".encode())
    else:
        yield from _solution_digests(tag, sol)


def fixed_point_digests(count: int = 12):
    backoff = backoff_preset("dot11b-11mbps")
    rng = np.random.Generator(np.random.Philox(31))
    nets = []
    for k in range(count):
        n = k % 8 + 1
        cells = list(range(1, n + 1))
        edges = [(a, b) for a, b in itertools.combinations(cells, 2)
                 if rng.random() < 0.5]
        counts = tuple(int(c) for c in rng.integers(1, 9, size=n))
        nets.append((f"graph {k} n={n}", graph_from_edges(cells, edges),
                     counts, float(rng.uniform(4000.0, 12000.0)), 2))
    nets.append(("grid 4x5", graph_from_edges(*_grid(4, 5)), (2,) * 20,
                 8000.0, 2))
    nets.append(("grid 5x5", graph_from_edges(*_grid(5, 5)), (2,) * 25,
                 8000.0, 2))
    for label, g, counts, payload, points in nets:
        inp = MulticellInput(g, counts, mac_phy_preset("dot11b-11mbps",
                                                       payload), backoff)
        main_its = solve_fixed_point(
            inp, FixedPointConfig(multistart=0)).iterations
        for name, cfg in (("default", FixedPointConfig()),
                          ("short", FixedPointConfig(
                              max_iterations=main_its + 2, multistart=4))):
            yield from _solution_digests(f"fixed-point {label} {name}",
                                         solve_fixed_point(inp, cfg))
            sweep = payload_sweep(inp, [payload * (1 + p / 20.0)
                                        for p in range(points)], cfg)
            for p, pt in enumerate(sweep):
                yield from _solution_digests(
                    f"payload-sweep {label} {name} point {p}", pt)
    g, counts, payload = nets[-1][1:4]
    inp = MulticellInput(g, counts, mac_phy_preset("dot11b-11mbps", payload),
                         backoff)
    sweep = payload_sweep(inp, [payload * (1 + p / 10.0) for p in range(5)])
    for p, pt in enumerate(sweep):
        yield from _solution_digests(f"payload-sweep grid 5x5 five point {p}",
                                     pt)
    # the main solve settles in 17 iterations at 800 bits, but not at
    # 12,000 bits (19) or 2,000 bits (18)
    inp = MulticellInput(_chain(3), (2, 5, 3),
                         mac_phy_preset("dot11b-11mbps", 800.0), backoff)
    yield "payload-sweep chain failing at point 1", _sha(_outcome(
        lambda: payload_sweep(inp, [800.0, 12000.0, 2000.0],
                              FixedPointConfig(max_iterations=17))))
    # degree 65: the collision index ranks the neighbor bits between runs
    clique = range(1, 67)
    inp = MulticellInput(
        graph_from_edges(clique, list(itertools.combinations(clique, 2))),
        (2,) * 66, mac_phy_preset("dot11b-11mbps", 8000.0), backoff)
    yield from _solution_digests("fixed-point clique 66",
                                 solve_fixed_point(inp))
    # 5,598,861 states: the frontier DP, beyond enumeration's cap; and
    # 1,607,521 on a 2x16 ladder, whose row-numbered walk in id order is
    # too wide for the DP
    mac = mac_phy_preset("dot11b-11mbps", 8000.0)
    for label, (cells, edges) in (("grid 6x6", _grid(6, 6)),
                                  ("ladder 2x16 by columns",
                                   _ladder(16, False)),
                                  ("ladder 2x16 by rows", _ladder(16, True))):
        inp = MulticellInput(graph_from_edges(cells, edges),
                             (2,) * len(cells), mac, backoff)
        yield from _solution_or_refusal(
            f"fixed-point {label} multistart 0",
            lambda: solve_fixed_point(inp, FixedPointConfig(multistart=0)))
    # cells of one node on a ladder with G(0) = 1
    one = _ONE_NODE["adjacency"]
    inp = MulticellInput(graph_from_edges(one["cells"], map(tuple,
                                                            one["edges"])),
                         tuple(one["node_counts"]), mac, CW3)
    yield from _solution_digests("fixed-point one-node cw_min=3",
                                 solve_fixed_point(inp))
    for p, pt in enumerate(payload_sweep(inp, [4000.0, 8000.0, 12000.0])):
        yield from _solution_digests(
            f"payload-sweep one-node cw_min=3 point {p}", pt)
    # 72 solver rows, more than one row-offset bincount takes
    g, counts = nets[5][1:3]
    inp = MulticellInput(g, counts, mac_phy_preset("dot11b-11mbps", 1000.0),
                         backoff)
    sweep = payload_sweep(inp, [1000.0 + 500.0 * p for p in range(18)])
    for p, pt in enumerate(sweep):
        yield from _solution_digests(f"payload-sweep {nets[5][0]} eighteen "
                                     f"point {p}", pt)
    # the middle cell contends only in the empty state, whose probability
    # underflows at this payload
    inp = MulticellInput(_chain(3), (2, 2, 2),
                         mac_phy_preset("dot11b-11mbps", 8e307), backoff)
    with np.errstate(all="ignore"):
        yield "fixed-point chain huge payload", _sha(_outcome(
            lambda: solve_fixed_point(inp).x))


def state_space_digests(count: int = 32):
    rng = np.random.Generator(np.random.Philox(11))
    graphs = []
    for k in range(count):
        n = k % 16 + 1
        cells = sorted(rng.choice(1000, size=n, replace=False).tolist())
        p = float(rng.uniform(0.1, 0.7))
        edges = [(a, b) for a, b in itertools.combinations(cells, 2)
                 if rng.random() < p]
        graphs.append((f"graph {k} n={n}", cells, edges))
    graphs.append(("grid 5x5", *_grid(5, 5)))
    for label, cells, edges in graphs:
        g = graph_from_edges(cells, edges)
        ss = enumerate_independent_sets(g)
        yield f"states {label} members", _sha(repr(ss.states).encode())
        for name in ("active_mask", "blocked_mask", "contending_mask",
                     "toggle_index"):
            yield f"states {label} {name}", _array_sha(getattr(ss, name))
        yield f"mis-stats {label}", _sha(repr(mis_stats(g)).encode())


def _geometry(label: str, dep: Deployment):
    g = build_contention_graph(dep)
    edges = sorted(sorted(e) for e in g.edges)
    yield f"{label} graph", _sha(repr((g.cells, edges)).encode())
    yield f"{label} pbd", _sha(repr(check_pbd(dep)).encode())
    yield f"{label} dot", _sha(dot_edges(g).encode())
    yield f"{label} adjacency", _sha(adjacency_text(g).encode())


def geometry_digests(count: int = 24):
    rng = np.random.Generator(np.random.Philox(41))
    for k in range(count):
        n = k % 12 + 1
        ids = rng.choice(100, size=n, replace=False).tolist()
        xs, ys = rng.uniform(0.0, 800.0, size=(2, n)).tolist()
        radii = rng.uniform(0.0, 80.0, size=n).tolist()
        counts = rng.integers(1, 9, size=n).tolist()
        channels = rng.choice((1, 6), size=n).tolist()
        cells = tuple(CellGeom(c, (x, y), r, m, ch) for c, x, y, r, m, ch
                      in zip(ids, xs, ys, radii, counts, channels))
        dep = Deployment(cells, float(rng.uniform(200.0, 500.0)))
        yield from _geometry(f"geometry {k} n={n}", dep)
    # at the range of 500: the AP distance of cells 1 and 2, the worst
    # case of cells 3 and 5 and the best case of cells 4 and 5; cell 6 is
    # alone on its channel
    ties = (CellGeom(2, (500.0, 0.0), 0.0), CellGeom(1, (0.0, 0.0), 0.0),
            CellGeom(5, (0.0, 1000.0), 25.0), CellGeom(4, (0.0, 1550.0), 25.0),
            CellGeom(3, (0.0, 1450.0), 25.0),
            CellGeom(6, (0.0, 0.0), 0.0, channel=6))
    yield from _geometry("geometry ties", Deployment(ties, 500.0))


def _outcome(make) -> bytes:
    """repr of make()'s result, or its exception's type and text."""
    try:
        return repr(make()).encode()
    except Exception as e:  # noqa: BLE001 - the outcome is the digest
        return f"{type(e).__name__}: {e}".encode()


def _pair_network(position, radius: float, carrier_sense_range: float):
    """Edges and PBD report of cell 1 at the origin and cell 2."""
    dep = Deployment((CellGeom(1, (0.0, 0.0), 25.0),
                      CellGeom(2, position, radius)), carrier_sense_range)
    return (sorted(map(sorted, build_contention_graph(dep).edges)),
            check_pbd(dep))


def refusal_digests():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["presets"])
    yield f"cli presets rc={rc} stdout", _sha(stdout.getvalue().encode())
    yield "preset unknown mac_phy", _sha(_outcome(
        lambda: mac_phy_preset("dot11g", 8000.0)))
    yield "preset unknown backoff", _sha(_outcome(
        lambda: backoff_preset("dot11g")))
    mac = mac_phy_preset("dot11b-11mbps", 8000.0)
    backoff = backoff_preset("dot11b-11mbps")
    for field in ("slot_time", "sifs", "difs", "overhead_time", "data_rate",
                  "control_rate", "payload_bits", "ack_bits"):
        for bad in (float("nan"), float("inf")):
            yield f"bad mac_phy {field}={bad}", _sha(_outcome(
                lambda: solve_single_cell(4, dataclasses.replace(
                    mac, **{field: bad}), backoff).throughput_pkts))
    for bad in (float("nan"), float("inf")):
        yield f"bad mean_backoffs {bad}", _sha(_outcome(
            lambda: solve_single_cell(4, mac, BackoffParams(
                1, (15.5, bad))).throughput_pkts))
        for label, pos, radius, rcs in (
                ("ap_position", (bad, 0.0), 25.0, 500.0),
                ("radius", (300.0, 0.0), bad, 500.0),
                ("carrier_sense_range", (300.0, 0.0), 25.0, bad)):
            yield f"bad {label} {bad}", _sha(_outcome(
                lambda: _pair_network(pos, radius, rcs)))
    inp = MulticellInput(_chain(3), (10, 10, 10), mac, backoff)
    for setting, value in (("damping", 0.0), ("damping", 1.5),
                           ("damping", float("nan")), ("tolerance", -1.0),
                           ("max_iterations", 0), ("multistart", -2)):
        yield f"bad solver {setting}={value}", _sha(_outcome(
            lambda: solve_fixed_point(
                inp, FixedPointConfig(**{setting: value})).x))
    yield "bad effective-rate damping=0", _sha(_outcome(
        lambda: effective_rate_fixed_point(
            _chain(3), FlowParams((0.1,) * 3, 1.0, 1.0),
            FixedPointConfig(damping=0.0)).x_hat))
    for setting, value in (("damping", 0.0), ("damping", 1.5),
                           ("damping", float("nan")), ("tolerance", -1.0),
                           ("tolerance", float("nan")), ("max_iterations", 0),
                           ("max_iterations", 2.5), ("max_iterations", True),
                           ("multistart", -2), ("multistart", 1.5)):
        yield f"bad fixed-point-config {setting}={value!r}", _sha(_outcome(
            lambda: FixedPointConfig(**{setting: value})))
    for label, cells, edges in (("repeated id", [1, 2, 1], [(1, 2)]),
                                ("non-pair edge", [1, 2, 3], [(1, 2, 3)]),
                                ("unlisted cell", [1, 2, 3], [(2, 9)])):
        yield f"bad graph_from_edges {label}", _sha(_outcome(
            lambda: graph_from_edges(cells, edges)))
    # an older checkout, without the cap, builds the (2^21, 21) table
    yield "bad mis_share_table 21 cells", _sha(_outcome(
        lambda: mis_share_table(_chain(21)).shape))
    for label, make in _not_whole_or_out_of_range(mac, backoff):
        yield f"bad {label}", _sha(_outcome(make))
    inf, nan = float("inf"), float("nan")
    for duration, slot_time in ((0.0, 20e-6), (1.0, 0.0), (inf, 20e-6),
                                (nan, 20e-6), (1.0, inf), (1.0, nan),
                                (1e300, 1e-300)):
        yield f"bad slots_for {duration!r} {slot_time!r}", _sha(_outcome(
            lambda: slots_for(duration, slot_time)))


def _not_whole_or_out_of_range(mac, backoff):
    """(label, call) pairs: one call per setting that is not a whole
    number, and per kernel input that is NaN, infinite or out of range."""
    ss = enumerate_independent_sets(_chain(3))
    uniform = np.full(len(ss), 1.0 / len(ss))

    def chain_x(counts, cfg=None):
        return solve_fixed_point(MulticellInput(_chain(3), counts, mac,
                                                backoff), cfg).x

    def ctmc(**kw):
        return simulate_ctmc(ss, [1.0] * 3, [2.0] * 3, **kw).holding_time

    def slotted(counts=(2, 2, 2), **kw):
        return simulate_slotted(_chain(3), counts, [0.1] * 3, 10, 5, 1_000,
                                **kw).successes

    cases = [(f"sim-config {name}={value}",
              lambda name=name, value=value: SimConfig(**{name: value}))
             for name, value in (("flows_per_cell", 2.5),
                                 ("replications", 2.5), ("rng_seed", 1.5),
                                 ("warmup_flows", 2.5),
                                 ("runaway_threshold", 2.5))]
    return cases + [
        ("solver max_iterations=2.5",
         lambda: chain_x((10, 10, 10), FixedPointConfig(max_iterations=2.5))),
        ("solver multistart=1.5",
         lambda: chain_x((10, 10, 10), FixedPointConfig(multistart=1.5))),
        ("effective-rate max_iterations=2.5",
         lambda: effective_rate_fixed_point(
             _chain(3), FlowParams((0.1,) * 3, 1.0, 1.0),
             FixedPointConfig(max_iterations=2.5)).x_hat),
        ("node_counts (10, 2.5, 10)", lambda: chain_x((10, 2.5, 10))),
        ("node_counts (True, 2, 2)", lambda: chain_x((True, 2, 2))),
        ("single-cell node_count=2.5",
         lambda: solve_single_cell(2.5, mac, backoff)),
        ("slotted node_counts (2, 2.5, 2)", lambda: slotted((2, 2.5, 2))),
        ("slotted seed=1.5", lambda: slotted(seed=1.5)),
        ("ctmc seed=1.5", lambda: ctmc(transitions=1_000, seed=1.5)),
        ("ctmc transitions=True", lambda: ctmc(transitions=True)),
        ("mean_backoffs cw_min=32.5", lambda: mean_backoffs(32.5, 1024, 7)),
        ("backoff retry_limit=1.5",
         lambda: BackoffParams(1.5, (15.5, 31.5))),
        ("rho nan", lambda: stationary_distribution(ss, [np.nan, 1.0, 1.0])),
        ("rho inf", lambda: stationary_distribution(ss, [np.inf, 1.0, 1.0])),
        ("beta 1.5", lambda: collision_probability(
            ss, uniform, [1.5, 0.1, 0.1], (2, 2, 2))),
        ("beta nan", lambda: collision_probability(
            ss, uniform, [np.nan, 0.1, 0.1], (2, 2, 2)))]


def run(arrays: str | None) -> None:
    """Print the digest lines; with ``arrays``, also pickle them with
    every numeric array they digest, for ``compare``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in itertools.chain(cli_digests(tmp),
                                             cli_refusal_digests(tmp),
                                             sim_digests(),
                                             library_digests(),
                                             config_digests(tmp),
                                             slotted_digests(),
                                             sampler_edge_digests(),
                                             state_space_digests(),
                                             fixed_point_digests(),
                                             geometry_digests(),
                                             refusal_digests()):
            print(f"{digest}  {label}")
            lines.append((label, digest))
    if arrays:
        with open(arrays, "wb") as fh:
            pickle.dump({"lines": lines, "arrays": ARRAYS}, fh)


def compare(before: str, after: str) -> int:
    """Each line whose digest differs between two ``--arrays`` files,
    with the largest |difference| where both sides are numeric arrays of
    one shape, then each line found on one side only.  Returns the exit
    status: 1 if any line changed or is on one side only, else 0."""
    runs = []
    for path in (before, after):
        with open(path, "rb") as fh:
            runs.append(pickle.load(fh))
    (old, old_arrays), (new, new_arrays) = (
        (dict(r["lines"]), r["arrays"]) for r in runs)
    changed = [label for label in old if label in new
               and old[label] != new[label]]
    for label in changed:
        a, b = old_arrays.get(old[label]), new_arrays.get(new[label])
        if a is None or b is None or a.shape != b.shape:
            print(f"changed  {label}")
            continue
        with np.errstate(invalid="ignore"):
            delta = np.abs(a.astype(float) - b.astype(float))
        print(f"changed  {label}  max |diff| "
              f"{np.nanmax(delta, initial=0.0):.3g}")
    one_side = 0
    for side, lines, other in (("before", old, new), ("after", new, old)):
        for label in lines:
            if label not in other:
                print(f"{side} only  {label}")
                one_side += 1
    print(f"{len(changed)} of {len(old.keys() & new.keys())} shared lines "
          f"changed, {one_side} on one side only")
    return int(bool(changed or one_side))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--arrays", metavar="FILE",
                    help="also save the lines and their arrays to FILE")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two --arrays files instead of running")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    run(args.arrays)
