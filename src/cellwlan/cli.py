"""Command-line front end.

Verbs: saturation, tcp-long, tcp-short, infinite-rho, sweep, validate,
presets.  All analysis verbs read one YAML configuration document
(``--config``), write tables to an output directory (``--out``) as either
CSV files or a single JSON document (``--format csv|doc``), and print a
short summary.  Config units are human-facing: microseconds, bytes, and
bits per second; everything is converted to SI at the boundary.

Outputs are deterministic: same config and seed give byte-identical
files.  Exit codes: 0 success, 1 bad configuration or usage, 2 analysis
failure (non-convergence, state-space cap, degenerate parameters).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .dcf import (BackoffParams, ConvergenceError, MacPhyParams,
                  backoff_preset, mac_phy_preset, mac_phy_preset_names,
                  mean_backoffs, solve_single_cell)
from .flows import (FlowParams, SimConfig, effective_rate_fixed_point,
                    mean_delay_analytic, simulate_flow_network)
from .multicell import (FixedPointConfig, MulticellInput, infinite_rho_x,
                        payload_sweep, solve_fixed_point,
                        tcp_long_throughputs)
from .topology import (CellGeom, ContentionGraph, Deployment,
                       StateSpaceCapError, build_contention_graph, check_pbd,
                       graph_from_edges)


class ConfigError(Exception):
    """Configuration document is malformed or inconsistent."""


# geometric presets: carrier-sense range 500 m, cell radius 25 m, so every
# pair is clearly dependent (< 450 m) or clearly independent (>= 550 m)
_R = 500.0
_RAD = 25.0


def _deploy(positions: list[tuple[float, float]]) -> Deployment:
    cells = tuple(CellGeom(cell_id=i + 1, ap_position=p, radius=_RAD)
                  for i, p in enumerate(positions))
    return Deployment(cells=cells, carrier_sense_range=_R)


DEPLOYMENT_PRESETS: dict[str, Deployment] = {
    "two-cell": _deploy([(0.0, 0.0), (250.0, 0.0)]),
    "three-chain": _deploy([(0.0, 0.0), (400.0, 0.0), (800.0, 0.0)]),
    "three-clique": _deploy([(0.0, 0.0), (250.0, 0.0),
                             (125.0, 125.0 * math.sqrt(3.0))]),
}


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return obj


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; "
                          f"allowed: {sorted(allowed)}")


def _is_number(v) -> bool:
    """A finite int or float that fits a float; booleans are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _get_num(d: dict, key: str, where: str, required: bool = False,
             default=None, minimum=None):
    if key not in d:
        if required:
            raise ConfigError(f"{where}.{key}: required")
        return default
    v = d[key]
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}")
    return float(v)


def _get_int(d: dict, key: str, where: str, required: bool = False,
             default=None, minimum=None):
    v = _get_num(d, key, where, required, default, minimum)
    if v is None:
        return None
    if not float(v).is_integer():
        raise ConfigError(f"{where}.{key}: expected an integer")
    return int(v)


def _int_entries(values: list, where: str, minimum=None) -> tuple[int, ...]:
    """The entries of a list as integers; anything else is a ConfigError."""
    out = []
    for v in values:
        if not _is_number(v) or (isinstance(v, float) and not v.is_integer()):
            raise ConfigError(f"{where}: entries must be integers, got {v!r}")
        if minimum is not None and v < minimum:
            raise ConfigError(f"{where}: entries must be >= {minimum}")
        out.append(int(v))
    return tuple(out)


@dataclass
class AnalysisConfig:
    """Fully resolved configuration for one CLI run.

    ``mac_phy`` and ``backoff`` are None when their sections are absent;
    verbs that need them reject such configs.
    """

    raw: dict
    deployment: Deployment | None
    graph: ContentionGraph
    node_counts: tuple[int, ...]
    mac_phy: MacPhyParams | None
    backoff: BackoffParams | None
    traffic_mode: str
    tcp_data_bits: float | None
    tcp_ack_bits: float | None
    app_data_bits: float | None
    arrival_rates: tuple[float, ...] | None
    mean_flow_size_bits: float | None
    service_model: str
    solver: FixedPointConfig
    sim: SimConfig
    sim_enabled: bool
    sweep_payload_bits: tuple[float, ...]


def _parse_deployment(sec: dict) -> tuple[Deployment | None, ContentionGraph,
                                           tuple[int, ...]]:
    _check_keys(sec, {"preset", "cells", "carrier_sense_range_m", "adjacency"},
                "deployment")
    given = [k for k in ("preset", "cells", "adjacency") if k in sec]
    if len(given) != 1:
        raise ConfigError("deployment: give exactly one of preset, cells, "
                          "adjacency")
    if "preset" in sec:
        name = sec["preset"]
        if name not in DEPLOYMENT_PRESETS:
            raise ConfigError(f"deployment.preset: unknown {name!r}; "
                              f"have {sorted(DEPLOYMENT_PRESETS)}")
        dep = DEPLOYMENT_PRESETS[name]
        graph = build_contention_graph(dep)
        return dep, graph, tuple(c.node_count for c in dep.cells)
    if "adjacency" in sec:
        adj = _require_mapping(sec["adjacency"], "deployment.adjacency")
        _check_keys(adj, {"cells", "edges", "node_counts"},
                    "deployment.adjacency")
        if not isinstance(adj.get("cells"), list) or not adj["cells"]:
            raise ConfigError("deployment.adjacency.cells: need a list of ids")
        cells = _int_entries(adj["cells"], "deployment.adjacency.cells")
        if len(set(cells)) != len(cells):
            raise ConfigError("deployment.adjacency.cells: duplicate ids")
        raw_edges = adj.get("edges") or []
        if not isinstance(raw_edges, list):
            raise ConfigError("deployment.adjacency.edges: need a list")
        edges = []
        for e in raw_edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ConfigError("deployment.adjacency.edges: entries must "
                                  "be [a, b] pairs")
            a, b = _int_entries(e, "deployment.adjacency.edges")
            if a not in cells or b not in cells:
                raise ConfigError(f"deployment.adjacency.edges: [{a}, {b}] "
                                  f"names a cell not in cells")
            if a == b:
                raise ConfigError(f"deployment.adjacency.edges: self-loop "
                                  f"on cell {a}")
            edges.append((a, b))
        graph = graph_from_edges(cells, edges)
        ncs = adj.get("node_counts")
        if ncs is None:
            counts = (2,) * graph.size
        else:
            if not isinstance(ncs, list) or len(ncs) != graph.size:
                raise ConfigError("deployment.adjacency.node_counts: need one "
                                  "entry per cell")
            counts = _int_entries(ncs, "deployment.adjacency.node_counts",
                                  minimum=1)
        return None, graph, counts
    # inline geometric cells
    if not isinstance(sec["cells"], list) or not sec["cells"]:
        raise ConfigError("deployment.cells: need a list of cells")
    rcs = _get_num(sec, "carrier_sense_range_m", "deployment", required=True,
                   minimum=1e-9)
    geoms = []
    for k, raw in enumerate(sec["cells"]):
        c = _require_mapping(raw, f"deployment.cells[{k}]")
        _check_keys(c, {"id", "x_m", "y_m", "radius_m", "node_count",
                        "channel"}, f"deployment.cells[{k}]")
        geoms.append(CellGeom(
            cell_id=_get_int(c, "id", f"deployment.cells[{k}]", required=True),
            ap_position=(_get_num(c, "x_m", f"deployment.cells[{k}]",
                                  required=True),
                         _get_num(c, "y_m", f"deployment.cells[{k}]",
                                  required=True)),
            radius=_get_num(c, "radius_m", f"deployment.cells[{k}]",
                            required=True, minimum=0.0),
            node_count=_get_int(c, "node_count", f"deployment.cells[{k}]",
                                default=2, minimum=1),
            channel=_get_int(c, "channel", f"deployment.cells[{k}]",
                             default=1)))
    ids = [g.cell_id for g in geoms]
    if len(set(ids)) != len(ids):
        raise ConfigError("deployment.cells: duplicate ids")
    dep = Deployment(cells=tuple(geoms), carrier_sense_range=rcs)
    graph = build_contention_graph(dep)
    order = {c.cell_id: c.node_count for c in dep.cells}
    return dep, graph, tuple(order[c] for c in graph.cells)


def _parse_mac_phy(sec: dict) -> MacPhyParams:
    allowed = {"preset", "payload_bytes", "access_mode", "slot_us", "sifs_us",
               "difs_us", "overhead_us", "data_rate_bps", "control_rate_bps",
               "ack_bytes", "rts_bytes", "cts_bytes"}
    _check_keys(sec, allowed, "mac_phy")
    payload = _get_num(sec, "payload_bytes", "mac_phy", minimum=0.0)
    payload_bits = 8.0 * payload if payload is not None else 8000.0
    mode = sec.get("access_mode", "basic")
    if mode not in ("basic", "rts-cts"):
        raise ConfigError("mac_phy.access_mode: must be basic or rts-cts")
    if "preset" in sec:
        name = sec["preset"]
        try:
            base = mac_phy_preset(name, payload_bits, mode)
        except KeyError as e:
            raise ConfigError(f"mac_phy.preset: {e.args[0]}") from None
        fields = {}
        # divide rather than multiply by 1e-6: 20 / 1e6 reproduces the
        # literal 20e-6 bit for bit, 20 * 1e-6 does not
        for key, attr, div in (("slot_us", "slot_time", 1e6),
                               ("sifs_us", "sifs", 1e6),
                               ("difs_us", "difs", 1e6),
                               ("overhead_us", "overhead_time", 1e6),
                               ("data_rate_bps", "data_rate", 1.0),
                               ("control_rate_bps", "control_rate", 1.0),
                               ("ack_bytes", "ack_bits", 0.125),
                               ("rts_bytes", "rts_bits", 0.125),
                               ("cts_bytes", "cts_bits", 0.125)):
            v = _get_num(sec, key, "mac_phy", minimum=0.0)
            if v is not None:
                fields[attr] = v / div
        if fields:
            base = dataclasses.replace(base, **fields)
        return base
    required = {"slot_us": 1e6, "sifs_us": 1e6, "difs_us": 1e6,
                "overhead_us": 1e6, "data_rate_bps": 1.0,
                "control_rate_bps": 1.0}
    vals = {}
    for key, div in required.items():
        vals[key] = _get_num(sec, key, "mac_phy", required=True,
                             minimum=0.0) / div
    return MacPhyParams(
        slot_time=vals["slot_us"], sifs=vals["sifs_us"], difs=vals["difs_us"],
        overhead_time=vals["overhead_us"], data_rate=vals["data_rate_bps"],
        control_rate=vals["control_rate_bps"], payload_bits=payload_bits,
        ack_bits=8.0 * _get_num(sec, "ack_bytes", "mac_phy", default=14.0,
                                minimum=0.0),
        access_mode=mode,
        rts_bits=8.0 * _get_num(sec, "rts_bytes", "mac_phy", default=20.0,
                                minimum=0.0),
        cts_bits=8.0 * _get_num(sec, "cts_bytes", "mac_phy", default=14.0,
                                minimum=0.0))


def _parse_backoff(sec: dict) -> BackoffParams:
    _check_keys(sec, {"preset", "cw_min", "cw_max", "retry_limit"}, "backoff")
    if "preset" in sec:
        try:
            return backoff_preset(sec["preset"])
        except KeyError as e:
            raise ConfigError(f"backoff.preset: {e.args[0]}") from None
    return mean_backoffs(
        _get_int(sec, "cw_min", "backoff", required=True, minimum=1),
        _get_int(sec, "cw_max", "backoff", required=True, minimum=1),
        _get_int(sec, "retry_limit", "backoff", required=True, minimum=0))


def load_config(path: str, seed_override: int | None = None) -> AnalysisConfig:
    """Parse and validate one YAML configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}") from None
    raw = _require_mapping(raw, "config")
    _check_keys(raw, {"deployment", "mac_phy", "backoff", "traffic", "solver",
                      "sim", "sweep"}, "config")

    dep_sec = _require_mapping(raw.get("deployment"), "deployment")
    if not dep_sec:
        raise ConfigError("deployment: required section")
    deployment, graph, counts_from_dep = _parse_deployment(dep_sec)

    traffic = _require_mapping(raw.get("traffic"), "traffic")
    _check_keys(traffic, {"mode", "node_counts", "tcp_data_bytes",
                          "tcp_ack_bytes", "app_data_bytes",
                          "arrival_rates_per_s", "mean_flow_size_bytes",
                          "service_model"}, "traffic")
    mode = traffic.get("mode", "saturated")
    if mode not in ("saturated", "tcp-long", "tcp-short"):
        raise ConfigError("traffic.mode: must be saturated, tcp-long or "
                          "tcp-short")

    node_counts = counts_from_dep
    if "node_counts" in traffic:
        ncs = traffic["node_counts"]
        if not isinstance(ncs, list) or len(ncs) != graph.size:
            raise ConfigError("traffic.node_counts: need one entry per cell")
        node_counts = _int_entries(ncs, "traffic.node_counts", minimum=1)

    tcp_data = tcp_ack = app_data = None
    arrival = None
    flow_size = None
    service_model = traffic.get("service_model", "model2")
    if service_model not in ("model1", "model2"):
        raise ConfigError("traffic.service_model: must be model1 or model2")
    if mode in ("tcp-long", "tcp-short"):
        tcp_data = 8.0 * _get_num(traffic, "tcp_data_bytes", "traffic",
                                  required=True, minimum=1.0)
        tcp_ack = 8.0 * _get_num(traffic, "tcp_ack_bytes", "traffic",
                                 required=True, minimum=1.0)
    if mode == "tcp-short":
        app_data = 8.0 * _get_num(traffic, "app_data_bytes", "traffic",
                                  required=True, minimum=1.0)
        rates = traffic.get("arrival_rates_per_s")
        if not isinstance(rates, list) or len(rates) != graph.size:
            raise ConfigError("traffic.arrival_rates_per_s: need one rate "
                              "per cell")
        for r in rates:
            if not _is_number(r):
                raise ConfigError("traffic.arrival_rates_per_s: entries must "
                                  f"be finite numbers, got {r!r}")
        arrival = tuple(float(r) for r in rates)
        if any(r < 0 for r in arrival):
            raise ConfigError("traffic.arrival_rates_per_s: rates must "
                              "be >= 0")
        flow_size = 8.0 * _get_num(traffic, "mean_flow_size_bytes", "traffic",
                                   required=True, minimum=1.0)

    mac_sec = _require_mapping(raw.get("mac_phy"), "mac_phy")
    mac_phy = _parse_mac_phy(mac_sec) if mac_sec else None

    back_sec = _require_mapping(raw.get("backoff"), "backoff")
    backoff = _parse_backoff(back_sec) if back_sec else None

    solver = _require_mapping(raw.get("solver"), "solver")
    _check_keys(solver, {"tolerance", "damping", "max_iterations",
                         "multistart"}, "solver")
    fp = FixedPointConfig(
        tolerance=_get_num(solver, "tolerance", "solver", default=1e-8,
                           minimum=0.0),
        damping=_get_num(solver, "damping", "solver", default=0.5,
                         minimum=1e-6),
        max_iterations=_get_int(solver, "max_iterations", "solver",
                                default=5000, minimum=1),
        multistart=_get_int(solver, "multistart", "solver", default=3,
                            minimum=0))

    sim_sec = _require_mapping(raw.get("sim"), "sim")
    _check_keys(sim_sec, {"enabled", "seed", "flows_per_cell", "warmup_flows",
                          "replications"}, "sim")
    enabled = bool(sim_sec.get("enabled", False))
    seed = _get_int(sim_sec, "seed", "sim", default=1, minimum=0)
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed: must be >= 0")
        seed = seed_override
    sim = SimConfig(
        rng_seed=seed,
        flows_per_cell=_get_int(sim_sec, "flows_per_cell", "sim",
                                default=10_000, minimum=1),
        warmup_flows=_get_int(sim_sec, "warmup_flows", "sim", default=1_000,
                              minimum=0),
        replications=_get_int(sim_sec, "replications", "sim", default=20,
                              minimum=1))

    sweep_sec = _require_mapping(raw.get("sweep"), "sweep")
    _check_keys(sweep_sec, {"payload_bytes"}, "sweep")
    sweep_bits: tuple[float, ...] = ()
    if "payload_bytes" in sweep_sec:
        pts = sweep_sec["payload_bytes"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("sweep.payload_bytes: need a non-empty list")
        vals = []
        for v in pts:
            if not _is_number(v) or v <= 0:
                raise ConfigError("sweep.payload_bytes: entries must be "
                                  "positive numbers")
            vals.append(8.0 * float(v))
        sweep_bits = tuple(vals)

    return AnalysisConfig(
        raw=raw, deployment=deployment, graph=graph, node_counts=node_counts,
        mac_phy=mac_phy, backoff=backoff, traffic_mode=mode,
        tcp_data_bits=tcp_data, tcp_ack_bits=tcp_ack, app_data_bits=app_data,
        arrival_rates=arrival, mean_flow_size_bits=flow_size,
        service_model=service_model, solver=fp, sim=sim, sim_enabled=enabled,
        sweep_payload_bits=sweep_bits)


# ---------------------------------------------------------------------------
# result bundle and writers

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "nan"
        return format(f, ".12g")
    return str(v)


@dataclass
class ResultBundle:
    """Everything one verb produced, ready for the writers."""

    verb: str
    config_hash: str
    seed: int
    version: str
    tables: dict[str, tuple[list[str], list[list]]]
    warnings: tuple[str, ...] = ()


def config_digest(raw: dict, seed: int) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{blob}|seed={seed}".encode()).hexdigest()


def write_bundle(bundle: ResultBundle, out_dir: str, fmt: str) -> list[str]:
    """Write the bundle; returns the created file paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    meta = [["verb", bundle.verb], ["seed", bundle.seed],
            ["config_hash", bundle.config_hash],
            ["version", bundle.version]]
    if fmt == "doc":
        doc = {"meta": {k: _fmt(v) for k, v in meta},
               "warnings": list(bundle.warnings),
               "tables": {name: {"header": header,
                                 "rows": [[_fmt(v) for v in row]
                                          for row in rows]}
                          for name, (header, rows) in bundle.tables.items()}}
        path = os.path.join(out_dir, f"{bundle.verb}.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [path]
    for name, (header, rows) in bundle.tables.items():
        path = os.path.join(out_dir, f"{bundle.verb}_{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        written.append(path)
    path = os.path.join(out_dir, f"{bundle.verb}_meta.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(["key", "value"])
        for k, v in meta:
            w.writerow([k, _fmt(v)])
        for i, msg in enumerate(bundle.warnings):
            w.writerow([f"warning_{i}", msg])
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# verbs

def _need_mac(cfg: AnalysisConfig) -> None:
    if cfg.mac_phy is None:
        raise ConfigError("mac_phy: required section for this verb")
    if cfg.backoff is None:
        raise ConfigError("backoff: required section for this verb")


def _run_saturation(cfg: AnalysisConfig) -> ResultBundle:
    _need_mac(cfg)
    inp = MulticellInput(graph=cfg.graph, node_counts=cfg.node_counts,
                         mac_phy=cfg.mac_phy, backoff=cfg.backoff)
    sol = solve_fixed_point(inp, cfg.solver)
    cells_rows = [[c, cfg.node_counts[j], sol.beta[j], sol.gamma[j],
                   sol.rho[j], sol.x[j], sol.cell_throughput_pkts[j],
                   sol.per_node_throughput_pkts[j]]
                  for j, c in enumerate(cfg.graph.cells)]
    tables = {
        "cells": (["cell", "node_count", "beta", "gamma", "rho", "x",
                   "cell_throughput_pkts", "per_node_throughput_pkts"],
                  cells_rows),
        "summary": (["key", "value"],
                    [["normalized_network_throughput",
                      sol.normalized_network_throughput],
                     ["residual", sol.residual],
                     ["iterations", sol.iterations],
                     ["states", len(sol.state_space)]]),
    }
    if len(sol.state_space) <= 512:
        srows = [["+".join(str(c) for c in members) if members else "-",
                  sol.pi[s]]
                 for s, members in enumerate(sol.state_space.states)]
        tables["states"] = (["state", "pi"], srows)
    return ResultBundle(verb="saturation", config_hash="", seed=0,
                        version=__version__, tables=tables,
                        warnings=sol.warnings)


def _run_tcp_long(cfg: AnalysisConfig) -> ResultBundle:
    _need_mac(cfg)
    res = tcp_long_throughputs(cfg.graph, cfg.mac_phy, cfg.backoff,
                               cfg.tcp_data_bits, cfg.tcp_ack_bits,
                               cfg.solver)
    rows = [[c, res.solution.x[j], res.ap_throughput_pkts[j]]
            for j, c in enumerate(cfg.graph.cells)]
    tables = {
        "cells": (["cell", "x", "ap_throughput_pkts"], rows),
        "summary": (["key", "value"],
                    [["isolated_ap_throughput_pkts",
                      res.isolated_ap_throughput_pkts],
                     ["equivalent_payload_bytes",
                      res.equivalent_payload_bits / 8.0],
                     ["residual", res.solution.residual],
                     ["iterations", res.solution.iterations]]),
    }
    return ResultBundle(verb="tcp-long", config_hash="", seed=0,
                        version=__version__, tables=tables,
                        warnings=res.solution.warnings)


def _tcp_short_rate(cfg: AnalysisConfig) -> float:
    """Single-cell effective rate for short TCP flows, bits per second."""
    eq_payload = (cfg.tcp_data_bits + cfg.tcp_ack_bits) / 2.0
    mac_eq = cfg.mac_phy.with_payload(eq_payload)
    ap_pkts = solve_single_cell(2, mac_eq, cfg.backoff).throughput_pkts / 2.0
    return ap_pkts * cfg.app_data_bits


def _run_tcp_short(cfg: AnalysisConfig) -> ResultBundle:
    _need_mac(cfg)
    rate = _tcp_short_rate(cfg)
    params = FlowParams(arrival_rates=cfg.arrival_rates,
                        mean_flow_size=cfg.mean_flow_size_bits,
                        single_cell_rate=rate,
                        service_model=cfg.service_model)
    eff = effective_rate_fixed_point(cfg.graph, params,
                                     tolerance=cfg.solver.tolerance,
                                     damping=cfg.solver.damping,
                                     max_iterations=cfg.solver.max_iterations)
    ana = mean_delay_analytic(eff.x_hat, params)
    header = ["cell", "arrival_rate_per_s", "x_hat", "effective_rate_bps",
              "load", "stable", "mean_delay_s"]
    rows = [[c, cfg.arrival_rates[j], eff.x_hat[j], eff.effective_rates[j],
             eff.loads[j], bool(ana.stable[j]), ana.mean_delay[j]]
            for j, c in enumerate(cfg.graph.cells)]
    tables = {"cells": (header, rows),
              "summary": (["key", "value"],
                          [["single_cell_rate_bps", rate],
                           ["mean_flow_size_bytes",
                            cfg.mean_flow_size_bits / 8.0],
                           ["iterations", eff.iterations],
                           ["residual", eff.residual]])}
    warnings: list[str] = []
    if cfg.sim_enabled:
        sim = simulate_flow_network(cfg.graph, params, cfg.sim)
        srows = [[c, sim.mean_delay[j], sim.confidence_halfwidth[j],
                  bool(sim.stable[j]), int(sim.completed[j])]
                 for j, c in enumerate(cfg.graph.cells)]
        tables["sim"] = (["cell", "mean_delay_s", "ci_halfwidth_s", "stable",
                          "completed_flows"], srows)
        if not sim.stable.all():
            bad = [str(c) for j, c in enumerate(cfg.graph.cells)
                   if not sim.stable[j]]
            warnings.append("simulation unstable for cells: " + ",".join(bad))
    return ResultBundle(verb="tcp-short", config_hash="", seed=0,
                        version=__version__, tables=tables,
                        warnings=tuple(warnings))


def _run_infinite_rho(cfg: AnalysisConfig) -> ResultBundle:
    lim = infinite_rho_x(cfg.graph)
    rows = [[c, lim.mis.per_cell[j], lim.x[j]]
            for j, c in enumerate(cfg.graph.cells)]
    tables = {"cells": (["cell", "mis_count", "x_limit"], rows),
              "summary": (["key", "value"],
                          [["independence_number", lim.mis.max_size],
                           ["mis_total", lim.mis.count],
                           ["normalized_network_throughput",
                            lim.normalized_network_throughput]])}
    return ResultBundle(verb="infinite-rho", config_hash="", seed=0,
                        version=__version__, tables=tables)


def _run_sweep(cfg: AnalysisConfig) -> ResultBundle:
    _need_mac(cfg)
    if not cfg.sweep_payload_bits:
        raise ConfigError("sweep.payload_bytes: required for the sweep verb")
    inp = MulticellInput(graph=cfg.graph, node_counts=cfg.node_counts,
                         mac_phy=cfg.mac_phy, backoff=cfg.backoff)
    points = payload_sweep(inp, cfg.sweep_payload_bits, cfg.solver)
    rows = []
    srows = []
    for pt in points:
        srows.append([pt.payload_bits / 8.0,
                      pt.normalized_network_throughput])
        for j, c in enumerate(cfg.graph.cells):
            rows.append([pt.payload_bits / 8.0, c, pt.beta[j], pt.rho[j],
                         pt.x[j]])
    tables = {"points": (["payload_bytes", "cell", "beta", "rho", "x"], rows),
              "summary": (["payload_bytes", "normalized_network_throughput"],
                          srows)}
    return ResultBundle(verb="sweep", config_hash="", seed=0,
                        version=__version__, tables=tables)


def _run_validate(cfg: AnalysisConfig) -> ResultBundle:
    if cfg.deployment is None:
        raise ConfigError("validate needs a geometric deployment (preset or "
                          "inline cells), not an adjacency list")
    report = check_pbd(cfg.deployment)
    prow = [[r.cell_a, r.cell_b, r.relation] for r in report.pairs]
    erow = [[min(e), max(e)] for e in sorted(cfg.graph.edges,
                                             key=lambda e: tuple(sorted(e)))]
    tables = {"pairs": (["cell_a", "cell_b", "relation"], prow),
              "edges": (["cell_a", "cell_b"], erow),
              "summary": (["key", "value"],
                          [["satisfied", report.satisfied],
                           ["violations", len(report.violations)]])}
    warnings = tuple(f"cells {r.cell_a},{r.cell_b} straddle the carrier-sense "
                     f"boundary" for r in report.violations)
    return ResultBundle(verb="validate", config_hash="", seed=0,
                        version=__version__, tables=tables, warnings=warnings)


_VERBS = {
    "saturation": _run_saturation,
    "tcp-long": _run_tcp_long,
    "tcp-short": _run_tcp_short,
    "infinite-rho": _run_infinite_rho,
    "sweep": _run_sweep,
    "validate": _run_validate,
}


def _print_bundle(bundle: ResultBundle, paths: list[str]) -> None:
    print(f"{bundle.verb}: ok (config {bundle.config_hash[:12]}, "
          f"seed {bundle.seed})")
    for w in bundle.warnings:
        print(f"  warning: {w}")
    for name, (header, rows) in bundle.tables.items():
        print(f"  table {name}: {len(rows)} rows")
    for p in paths:
        print(f"  wrote {p}")


def _print_presets() -> None:
    print("deployment presets:")
    for name, dep in sorted(DEPLOYMENT_PRESETS.items()):
        g = build_contention_graph(dep)
        edges = ", ".join(f"{min(e)}-{max(e)}" for e in
                          sorted(g.edges, key=lambda e: tuple(sorted(e))))
        print(f"  {name}: {g.size} cells; edges: {edges or 'none'}")
    print("mac_phy presets:")
    for name in mac_phy_preset_names():
        print(f"  {name}")
    print("backoff presets:")
    print("  dot11b-11mbps (cw 32..1024, retry limit 7)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellwlan",
        description="Cell-level analysis of multi-cell CSMA/CA WLANs")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in (*_VERBS, "presets"):
        p = sub.add_parser(verb)
        if verb != "presets":
            p.add_argument("--config", required=True,
                           help="YAML configuration document")
            p.add_argument("--out", default="cellwlan-out",
                           help="output directory (default: cellwlan-out)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the sim seed from the config")
            p.add_argument("--format", choices=("csv", "doc"), default="csv",
                           help="csv: one file per table; doc: single JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0

    if args.verb == "presets":
        _print_presets()
        return 0

    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        bundle = _VERBS[args.verb](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ConvergenceError, StateSpaceCapError, ValueError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2

    bundle.config_hash = config_digest(cfg.raw, cfg.sim.rng_seed)
    bundle.seed = cfg.sim.rng_seed
    paths = write_bundle(bundle, args.out, args.format)
    _print_bundle(bundle, paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
