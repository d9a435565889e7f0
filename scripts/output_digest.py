"""Print one sha256 digest per output of a fixed corpus of runs.

The corpus:

- every CLI verb, in both output formats, on the three deployment presets
  and on seeded adjacency configs of 4, 6 and 8 cells, with ``tcp-short``
  running the flow simulation under both service models;
- one adjacency config that lists its cells out of id order together with
  per-cell lists (label ``unsorted``);
- seeded direct ``simulate_flow_network`` calls on random graphs of 1-7
  cells, and one call for each way a replication can end early (a
  runaway queue, a model-2 cell starved into one, a cell without
  arrivals, no event left to happen), digesting every ``DelayResult``
  field;
- direct library calls, digesting every field of the result:
  ``solve_single_cell`` for 1-30 nodes, ``effective_rate_fixed_point`` on
  seeded 3-12-cell chains, and ``simulate_ctmc`` on a 6-cell chain (21
  states, resolved by composing jump tables) and a 10-cell chain (144
  states, walked step by step);
- ``enumerate_independent_sets`` and ``mis_stats`` on seeded graphs of
  1-16 cells with non-contiguous ids and on the 5x5 grid, digesting the
  member tuples (their repr, so the type of each member counts), the
  three role masks, ``toggle_index`` and the ``MisStats`` repr;
- the ``infinite-rho`` verb on the 5x5 grid (25 cells, 55,447 states).

Run it against two checkouts and diff the results to show that a change
leaves every output byte-identical:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/output_digest.py > before.txt
    diff before.txt after.txt

Only long-standing public names are used, so older checkouts run it too.
The whole corpus takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import tempfile

import numpy as np
import yaml

from cellwlan.cli import main
from cellwlan.dcf import backoff_preset, mac_phy_preset, solve_single_cell
from cellwlan.flows import (FlowParams, SimConfig, effective_rate_fixed_point,
                            simulate_flow_network)
from cellwlan.simkit import simulate_ctmc
from cellwlan.topology import (enumerate_independent_sets, graph_from_edges,
                               mis_stats)

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


def cli_digests(tmp: str):
    cells, edges = _grid(5, 5)
    grid = {"deployment": {"adjacency": {"cells": cells,
                                         "edges": [list(e) for e in edges]}}}
    runs = [(label, doc, VERBS) for label, doc in cli_configs()]
    runs.append(("grid5x5", grid, ("infinite-rho",)))
    for label, doc, verbs in runs:
        cfg = os.path.join(tmp, f"{label}.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        for verb, fmt in itertools.product(verbs, ("csv", "doc")):
            out = os.path.join(tmp, label, verb, fmt)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = main([verb, "--config", cfg, "--out", out,
                           "--format", fmt])
            tag = f"cli {label} {verb} {fmt}"
            console = (stdout.getvalue().replace(tmp, "<tmp>")
                       + stderr.getvalue()).encode()
            yield f"{tag} rc={rc} console", _sha(console)
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                with open(os.path.join(out, name), "rb") as fh:
                    yield f"{tag} {name}", _sha(fh.read())


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


def _array_sha(value) -> str:
    value = np.asarray(value)
    return _sha(f"{value.dtype}{value.shape}".encode() + value.tobytes())


def _result_digests(tag: str, res):
    for field in (f.name for f in dataclasses.fields(res)):
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


def _chain(n: int):
    return graph_from_edges(list(range(1, n + 1)),
                            [(k, k + 1) for k in range(1, n)])


def library_digests():
    mac = mac_phy_preset("dot11b-11mbps", 8000.0)
    backoff = backoff_preset("dot11b-11mbps")
    for n in range(1, 31):
        yield from _result_digests(f"single-cell n={n}",
                                   solve_single_cell(n, mac, backoff))
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


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in itertools.chain(cli_digests(tmp), sim_digests(),
                                             library_digests(),
                                             state_space_digests()):
            print(f"{digest}  {label}")


if __name__ == "__main__":
    run()
