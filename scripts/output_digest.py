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
  field.

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
import hashlib
import io
import itertools
import os
import tempfile

import numpy as np
import yaml

from cellwlan.cli import main
from cellwlan.flows import FlowParams, SimConfig, simulate_flow_network
from cellwlan.topology import graph_from_edges

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


def cli_digests(tmp: str):
    for label, doc in cli_configs():
        cfg = os.path.join(tmp, f"{label}.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        for verb, fmt in itertools.product(VERBS, ("csv", "doc")):
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
FIELDS = ("mean_delay", "confidence_halfwidth", "effective_rates", "stable",
          "completed", "replications")


def _result_digests(tag: str, res):
    for field in FIELDS:
        value = getattr(res, field)
        if value is None:
            blob = b"None"
        else:
            value = np.asarray(value)
            blob = f"{value.dtype}{value.shape}".encode() + value.tobytes()
        yield f"{tag} {field}", _sha(blob)


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


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in itertools.chain(cli_digests(tmp), sim_digests()):
            print(f"{digest}  {label}")


if __name__ == "__main__":
    run()
