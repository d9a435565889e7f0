"""Command-line front end.

Verbs: saturation, tcp-long, tcp-short, infinite-rho, sweep, validate,
presets.  All analysis verbs read one YAML configuration document
(``--config``), write tables to an output directory (``--out``) as either
CSV files or a single JSON document (``--format csv|doc``), and print a
short summary.  Config units are human-facing: microseconds, bytes, and
bits per second; everything is converted to SI at the boundary.

Every config key is one row of ``SCHEMA``: its type, unit divisor,
default and bounds.  One validator walks the document against that table.
The rules that span keys are short code after the walk: one deployment
form, one entry per cell, presets as defaults, and the keys each traffic
mode and verb needs.  A library constructor's own refusal (an adjacency
list's repeated id or stray edge, say) is reported as a config error of
its section.

Outputs are deterministic: same config and seed give byte-identical
files.  Exit codes: 0 success, 1 bad configuration, usage or --out, 2
analysis failure (non-convergence, state-space cap, degenerate parameters).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .dcf import (BACKOFF_PRESETS, MAC_PHY_PRESETS, BackoffParams,
                  ConvergenceError, MacPhyParams, mean_backoffs,
                  solve_single_cell)
from .flows import (FlowParams, SimConfig, effective_rate_fixed_point,
                    simulate_flow_network)
from .multicell import (FixedPointConfig, MulticellInput, payload_sweep,
                        solve_fixed_point, stationary_distribution,
                        tcp_long_throughputs, tcp_pair)
from .topology import (CellGeom, ContentionGraph, Deployment,
                       StateSpaceCapError, build_contention_graph, check_pbd,
                       enumerate_independent_sets, graph_from_edges,
                       mis_stats)


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

# value kinds, worded as the error messages name them
NUM, INT, BOOL, MAP = ("a finite number", "an integer", "true or false",
                       "a mapping")
REQUIRED = object()
# unit divisors: seconds = microseconds / US, bits = bytes / BYTE
US, BYTE = 1e6, 0.125


@dataclass(frozen=True)
class Key:
    """One config key and the rule its value must pass.

    ``kind`` is NUM, INT, BOOL, MAP (a nested section whose keys are rows
    of their own), a tuple of allowed names, or ``[kind]``: a list whose
    entries each pass the rule of ``kind``.  A number parses to its value
    divided by ``per``; dividing reproduces SI literals bit for bit
    (20 / 1e6 == 20e-6, but 20 * 1e-6 != 20e-6).  ``bounds`` is an
    interval such as "(0, 1]".  ``to`` names the parsed field when it
    differs from the key.
    """

    section: str
    key: str
    kind: object = NUM
    per: float = 1.0
    default: object = None
    bounds: str = "(-inf, inf)"
    to: str = ""

    @property
    def path(self) -> str:
        return f"{self.section}.{self.key}" if self.section else self.key


# A key without a default is left out of the parsed section when absent,
# and the preset or library constructor it goes to supplies the value; a
# default stands here only when the CLI alone decides it.  retry_limit
# stops at 255, the range of the 802.11 retry limits.
# The keys that set the amount of work stop far above any useful value, so
# that one key cannot ask for a run that never ends.
SCHEMA = (
    Key("", "deployment", MAP, default=REQUIRED),
    Key("", "mac_phy", MAP),
    Key("", "backoff", MAP),
    Key("", "traffic", MAP, default={}),
    Key("", "solver", MAP, default={}),
    Key("", "sim", MAP, default={}),
    Key("", "sweep", MAP, default={}),
    Key("deployment", "preset", tuple(DEPLOYMENT_PRESETS)),
    Key("deployment", "cells", [MAP]),
    Key("deployment", "carrier_sense_range_m", bounds="(0, inf)",
        to="carrier_sense_range"),
    Key("deployment", "adjacency", MAP),
    Key("deployment.cells", "id", INT, default=REQUIRED, to="cell_id"),
    Key("deployment.cells", "x_m", default=REQUIRED),
    Key("deployment.cells", "y_m", default=REQUIRED),
    Key("deployment.cells", "radius_m", default=REQUIRED, bounds="[0, inf)",
        to="radius"),
    Key("deployment.cells", "node_count", INT, bounds="[1, inf)"),
    Key("deployment.cells", "channel", INT),
    Key("deployment.adjacency", "cells", [INT], default=REQUIRED),
    Key("deployment.adjacency", "edges", [[INT]], default=[]),
    Key("deployment.adjacency", "node_counts", [INT], bounds="[1, inf)"),
    Key("mac_phy", "preset", tuple(MAC_PHY_PRESETS)),
    Key("mac_phy", "payload_bytes", per=BYTE, default=1000,
        bounds="[0, inf)", to="payload_bits"),
    Key("mac_phy", "access_mode", ("basic", "rts-cts")),
    Key("mac_phy", "slot_us", per=US, bounds="(0, inf)", to="slot_time"),
    Key("mac_phy", "sifs_us", per=US, bounds="[0, inf)", to="sifs"),
    Key("mac_phy", "difs_us", per=US, bounds="[0, inf)", to="difs"),
    Key("mac_phy", "overhead_us", per=US, bounds="[0, inf)",
        to="overhead_time"),
    Key("mac_phy", "data_rate_bps", bounds="(0, inf)", to="data_rate"),
    Key("mac_phy", "control_rate_bps", bounds="(0, inf)", to="control_rate"),
    Key("mac_phy", "ack_bytes", per=BYTE, bounds="[0, inf)", to="ack_bits"),
    Key("mac_phy", "rts_bytes", per=BYTE, bounds="[0, inf)", to="rts_bits"),
    Key("mac_phy", "cts_bytes", per=BYTE, bounds="[0, inf)", to="cts_bits"),
    Key("backoff", "preset", tuple(BACKOFF_PRESETS)),
    Key("backoff", "cw_min", INT, bounds="[1, inf)"),
    Key("backoff", "cw_max", INT, bounds="[1, inf)"),
    Key("backoff", "retry_limit", INT, bounds="[0, 255]"),
    Key("traffic", "mode", ("saturated", "tcp-long", "tcp-short"),
        default="saturated"),
    Key("traffic", "node_counts", [INT], bounds="[1, inf)"),
    Key("traffic", "tcp_data_bytes", per=BYTE, bounds="[1, inf)",
        to="tcp_data_bits"),
    Key("traffic", "tcp_ack_bytes", per=BYTE, bounds="[1, inf)",
        to="tcp_ack_bits"),
    Key("traffic", "app_data_bytes", per=BYTE, bounds="[1, inf)",
        to="app_data_bits"),
    Key("traffic", "arrival_rates_per_s", [NUM], bounds="[0, inf)",
        to="arrival_rates"),
    Key("traffic", "mean_flow_size_bytes", per=BYTE, bounds="[1, inf)",
        to="mean_flow_size_bits"),
    Key("traffic", "service_model", ("model1", "model2")),
    Key("solver", "tolerance", bounds="[0, inf)"),
    Key("solver", "damping", bounds="(0, 1]"),
    Key("solver", "max_iterations", INT, bounds="[1, 1e6]"),
    Key("solver", "multistart", INT, bounds="[0, 100]"),
    Key("sim", "enabled", BOOL, default=False),
    Key("sim", "seed", INT, bounds="[0, inf)", to="rng_seed"),
    Key("sim", "flows_per_cell", INT, bounds="[1, 1e6]"),
    Key("sim", "warmup_flows", INT, bounds="[0, 1e6]"),
    Key("sim", "replications", INT, bounds="[1, 1000]"),
    Key("sweep", "payload_bytes", [NUM], per=BYTE, bounds="(0, inf)",
        to="sweep_payload_bits"),
)
_ROWS: dict[str, dict[str, Key]] = {}
for _row in SCHEMA:
    _ROWS.setdefault(_row.section, {})[_row.key] = _row

# keys that a traffic mode, a verb or a preset-less section needs
_TCP_LONG = (("traffic", "tcp_data_bytes"), ("traffic", "tcp_ack_bytes"))
_TCP_SHORT = _TCP_LONG + (("traffic", "app_data_bytes"),
                          ("traffic", "arrival_rates_per_s"),
                          ("traffic", "mean_flow_size_bytes"))
_MODE_NEEDS = {"saturated": (), "tcp-long": _TCP_LONG,
               "tcp-short": _TCP_SHORT}
_MAC = (("", "mac_phy"), ("", "backoff"))
_VERB_NEEDS = {"saturation": _MAC, "tcp-long": _MAC + _TCP_LONG,
               "tcp-short": _MAC + _TCP_SHORT,
               "sweep": _MAC + (("sweep", "payload_bytes"),)}
_PRESET_NEEDS = {
    "mac_phy": ("slot_us", "sifs_us", "difs_us", "overhead_us",
                "data_rate_bps", "control_rate_bps"),
    "backoff": ("cw_min", "cw_max", "retry_limit")}


def _is_number(v) -> bool:
    """A finite int or float that fits a float; booleans are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _text(v) -> str:
    """``v`` as an error names it: YAML 1.1 reads 1e3, 1.0e3 and 1e+3 as
    text, so text that ``float`` reads says how to write a number."""
    try:
        if isinstance(v, str) and math.isfinite(float(v)):
            return (f"the text {v!r}; YAML reads an exponent as a number "
                    f"only with a dot and a signed power, as in 1.0e+3")
    except ValueError:
        pass
    return repr(v)


def _parse(row: Key, kind, v, where: str):
    """One value by its row's rule: type, then bounds, then unit."""
    if isinstance(kind, list):
        if not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list, got {v!r}")
        return tuple(_parse(row, kind[0], x, f"{where}[{i}]")
                     for i, x in enumerate(v))
    if kind == MAP:
        return _walk(v, row.path, where)
    if isinstance(kind, tuple):
        if v not in kind:
            raise ConfigError(f"{where}: expected one of {sorted(kind)}, "
                              f"got {v!r}")
        return v
    if kind == BOOL:
        if not isinstance(v, bool):
            raise ConfigError(f"{where}: expected {kind}, got {v!r}")
        return v
    if not _is_number(v) or (kind == INT and not float(v).is_integer()):
        raise ConfigError(f"{where}: expected {kind}, got {_text(v)}")
    lo, hi = (float(b) for b in row.bounds[1:-1].split(","))
    if not ((lo < v if row.bounds[0] == "(" else lo <= v)
            and (v < hi if row.bounds[-1] == ")" else v <= hi)):
        raise ConfigError(f"{where}: must be in {row.bounds}, got {v!r}")
    return int(v) if kind == INT else float(v) / row.per


def _walk(doc, section: str, where: str) -> dict:
    """Check one mapping against its section's rows; return the parsed
    values by field name.  A null or empty value counts as absent."""
    rows = _ROWS[section]
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'}: expected a mapping")
    unknown = sorted(map(str, set(doc) - set(rows)))
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys {unknown}; "
                          f"allowed: {sorted(rows)}")
    out = {}
    for key, row in rows.items():
        name = f"{where}.{key}" if where else key
        v = doc.get(key)
        if v in (None, {}, []):
            if row.default is REQUIRED:
                raise ConfigError(f"{name}: required")
            if row.default is None:
                continue
            v = row.default
        out[row.to or key] = _parse(row, row.kind, v, name)
    return out


def _require(values: dict, keys, why: str) -> None:
    """Every (section, key) of ``keys`` must have a parsed value."""
    for section, key in keys:
        row = _ROWS[section][key]
        if values.get(row.to or key) is None:
            raise ConfigError(f"{row.path}: required{why}")


def _per_cell(name: str, values, listed: tuple[int, ...]) -> tuple:
    """Entries given in the order the deployment lists its cells, put in
    the graph's order (sorted ids)."""
    if len(values) != len(listed):
        raise ConfigError(f"{name}: need one entry per cell")
    return tuple(v for _, v in sorted(zip(listed, values)))


def _build(section: str, make):
    """make(), with a library constructor's ValueError reported as a
    config error of the section."""
    try:
        return make()
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from None


def _with_preset(section: str, values: dict, presets: dict, make):
    """A preset, when given, supplies the defaults; explicit keys override
    it.  Without one, the section's _PRESET_NEEDS keys are required."""
    fields = {**presets.get(values.pop("preset", None), {}), **values}
    _require(fields, [(section, k) for k in _PRESET_NEEDS[section]],
             " without a preset")
    return _build(section, lambda: make(**fields))


def _deployment(d: dict) -> tuple[Deployment | None, ContentionGraph,
                                  tuple[int, ...], tuple[int, ...]]:
    """Deployment, graph, cell ids as listed, node counts in graph order."""
    if sum(k in d for k in ("preset", "cells", "adjacency")) != 1:
        raise ConfigError("deployment: give exactly one of preset, cells, "
                          "adjacency")
    if ("carrier_sense_range" in d) != ("cells" in d):
        raise ConfigError("deployment.carrier_sense_range_m: required with "
                          "inline cells and allowed only with them")
    if "adjacency" in d:
        adj = d["adjacency"]
        cells = adj["cells"]
        graph = _build("deployment.adjacency",
                       lambda: graph_from_edges(cells, adj["edges"]))
        counts = adj.get("node_counts", (CellGeom.node_count,) * len(cells))
        return None, graph, cells, _per_cell(
            "deployment.adjacency.node_counts", counts, cells)
    if "preset" in d:
        dep = DEPLOYMENT_PRESETS[d["preset"]]
    else:
        dep = _build("deployment", lambda: Deployment(
            cells=tuple(CellGeom(ap_position=(c.pop("x_m"), c.pop("y_m")),
                                 **c) for c in d["cells"]),
            carrier_sense_range=d["carrier_sense_range"]))
    graph = build_contention_graph(dep)
    counts = {c.cell_id: c.node_count for c in dep.cells}   # listed order
    return dep, graph, tuple(counts), tuple(counts[c] for c in graph.cells)


@dataclass
class AnalysisConfig:
    """Fully resolved configuration for one CLI run.

    ``mac_phy`` and ``backoff`` are None when their sections are absent,
    and each traffic or sweep field is None when its key is; verbs that
    need them reject such configs.
    """

    raw: dict
    deployment: Deployment | None
    graph: ContentionGraph
    node_counts: tuple[int, ...]
    mac_phy: MacPhyParams | None
    backoff: BackoffParams | None
    solver: FixedPointConfig
    sim: SimConfig
    sim_enabled: bool
    service_model: str = FlowParams.service_model
    tcp_data_bits: float | None = None
    tcp_ack_bits: float | None = None
    app_data_bits: float | None = None
    arrival_rates: tuple[float, ...] | None = None
    mean_flow_size_bits: float | None = None
    sweep_payload_bits: tuple[float, ...] | None = None


def load_config(path: str, seed_override: int | None = None) -> AnalysisConfig:
    """Parse and validate one YAML configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser where PyYAML was built with it
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                               yaml.SafeLoader))
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not valid UTF-8: {e}") from None
    except yaml.YAMLError as e:
        text = "; ".join(line.strip() for line in str(e).splitlines())
        raise ConfigError(f"config is not valid YAML: {text}") from None
    v = _walk(raw, "", "")

    deployment, graph, listed, counts = _deployment(v["deployment"])
    traffic = v["traffic"]
    for key, name in (("node_counts", "traffic.node_counts"),
                      ("arrival_rates", "traffic.arrival_rates_per_s")):
        if key in traffic:
            traffic[key] = _per_cell(name, traffic[key], listed)
    counts = traffic.pop("node_counts", counts)
    mode = traffic.pop("mode")
    _require(traffic, _MODE_NEEDS[mode], f" for mode {mode}")

    sim = v["sim"]
    enabled = sim.pop("enabled")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed: must be >= 0")
        sim["rng_seed"] = seed_override
    return AnalysisConfig(
        raw=raw, deployment=deployment, graph=graph, node_counts=counts,
        mac_phy=(_with_preset("mac_phy", v["mac_phy"], MAC_PHY_PRESETS,
                              MacPhyParams) if "mac_phy" in v else None),
        backoff=(_with_preset("backoff", v["backoff"], BACKOFF_PRESETS,
                              mean_backoffs) if "backoff" in v else None),
        solver=FixedPointConfig(**v["solver"]), sim=SimConfig(**sim),
        sim_enabled=enabled, **traffic, **v["sweep"])


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
    warnings = [[f"warning_{i}", msg] for i, msg in enumerate(bundle.warnings)]
    tables = {**bundle.tables, "meta": (["key", "value"], meta + warnings)}
    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{bundle.verb}_{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# verbs

def _cells(cfg: AnalysisConfig, **columns) -> tuple[list[str], list[list]]:
    """A table of one row per cell, by ascending id: the cell, then one
    entry of each column, in the order the columns are named."""
    return (["cell", *columns], [[c, *row] for c, row in zip(
        cfg.graph.cells, zip(*columns.values(), strict=True), strict=True)])


def _keys(**values) -> tuple[list[str], list[list]]:
    """A key/value table, one row per value, in the order they are named."""
    return ["key", "value"], [[k, v] for k, v in values.items()]


def _network(cfg: AnalysisConfig) -> MulticellInput:
    return MulticellInput(graph=cfg.graph, node_counts=cfg.node_counts,
                          mac_phy=cfg.mac_phy, backoff=cfg.backoff)


def _run_saturation(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    sol = solve_fixed_point(_network(cfg), cfg.solver)
    tables = {
        "cells": _cells(cfg, node_count=cfg.node_counts, beta=sol.beta,
                        gamma=sol.gamma, rho=sol.rho, x=sol.x,
                        cell_throughput_pkts=sol.cell_throughput_pkts,
                        per_node_throughput_pkts=sol.per_node_throughput_pkts),
        "summary": _keys(
            normalized_network_throughput=sol.normalized_network_throughput,
            residual=sol.residual, iterations=sol.iterations,
            states=sol.state_count),
    }
    if sol.state_count <= 512:
        ss = enumerate_independent_sets(cfg.graph)
        srows = [["+".join(str(c) for c in members) if members else "-", p]
                 for members, p in zip(ss.states,
                                       stationary_distribution(ss, sol.rho))]
        tables["states"] = (["state", "pi"], srows)
    return tables, sol.warnings


def _run_tcp_long(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    res = tcp_long_throughputs(cfg.graph, cfg.mac_phy, cfg.backoff,
                               cfg.tcp_data_bits, cfg.tcp_ack_bits,
                               cfg.solver)
    tables = {
        "cells": _cells(cfg, x=res.solution.x,
                        ap_throughput_pkts=res.ap_throughput_pkts),
        "summary": _keys(
            isolated_ap_throughput_pkts=res.isolated_ap_throughput_pkts,
            equivalent_payload_bytes=res.equivalent_payload_bits / 8.0,
            residual=res.solution.residual,
            iterations=res.solution.iterations),
    }
    return tables, res.solution.warnings


def _tcp_short_rate(cfg: AnalysisConfig) -> float:
    """Single-cell effective rate for short TCP flows, bits per second."""
    mac_eq, ap_share = tcp_pair(cfg.mac_phy, cfg.tcp_data_bits, cfg.tcp_ack_bits)
    pair_pkts = solve_single_cell(2, mac_eq, cfg.backoff).throughput_pkts
    return pair_pkts * ap_share * cfg.app_data_bits


def _run_tcp_short(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    rate = _tcp_short_rate(cfg)
    params = FlowParams(arrival_rates=cfg.arrival_rates,
                        mean_flow_size=cfg.mean_flow_size_bits,
                        single_cell_rate=rate,
                        service_model=cfg.service_model)
    eff = effective_rate_fixed_point(cfg.graph, params, cfg.solver)
    tables = {
        "cells": _cells(cfg, arrival_rate_per_s=cfg.arrival_rates,
                        x_hat=eff.x_hat,
                        effective_rate_bps=eff.effective_rates,
                        load=eff.loads, stable=eff.stable.tolist(),
                        mean_delay_s=eff.mean_delay),
        "summary": _keys(single_cell_rate_bps=rate,
                         mean_flow_size_bytes=cfg.mean_flow_size_bits / 8.0,
                         iterations=eff.iterations, residual=eff.residual)}
    warnings: list[str] = []
    if cfg.sim_enabled:
        sim = simulate_flow_network(cfg.graph, params, cfg.sim)
        tables["sim"] = _cells(
            cfg, mean_delay_s=sim.mean_delay,
            ci_halfwidth_s=sim.confidence_halfwidth,
            stable=sim.stable.tolist(), completed_flows=sim.completed.tolist())
        if not sim.stable.all():
            bad = [str(c) for c, ok in zip(cfg.graph.cells, sim.stable)
                   if not ok]
            warnings.append("simulation unstable for cells: " + ",".join(bad))
    return tables, tuple(warnings)


def _run_infinite_rho(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    mis = mis_stats(cfg.graph)
    tables = {"cells": _cells(cfg, mis_count=mis.per_cell, x_limit=mis.share),
              "summary": _keys(
                  independence_number=mis.max_size, mis_total=mis.count,
                  normalized_network_throughput=float(mis.max_size))}
    return tables, ()


def _run_sweep(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    points = payload_sweep(_network(cfg), cfg.sweep_payload_bits, cfg.solver)
    rows, srows, warnings = [], [], []
    for pt in points:
        payload = pt.payload_bits / 8.0
        srows.append([payload, pt.normalized_network_throughput])
        header, per_cell = _cells(cfg, beta=pt.beta, rho=pt.rho, x=pt.x)
        rows += [[payload, *row] for row in per_cell]
        warnings += [f"payload {_fmt(payload)} B: {w}" for w in pt.warnings]
    tables = {"points": (["payload_bytes", *header], rows),
              "summary": (["payload_bytes", "normalized_network_throughput"],
                          srows)}
    return tables, tuple(warnings)


def _run_validate(cfg: AnalysisConfig) -> tuple[dict, tuple]:
    if cfg.deployment is None:
        raise ConfigError("validate needs a geometric deployment (preset or "
                          "inline cells), not an adjacency list")
    report = check_pbd(cfg.deployment)
    prow = [[r.cell_a, r.cell_b, r.relation] for r in report.pairs]
    erow = [list(e) for e in cfg.graph.edges]
    tables = {"pairs": (["cell_a", "cell_b", "relation"], prow),
              "edges": (["cell_a", "cell_b"], erow),
              "summary": _keys(satisfied=report.satisfied,
                               violations=len(report.violations))}
    warnings = tuple(f"cells {r.cell_a},{r.cell_b} straddle the carrier-sense "
                     f"boundary" for r in report.violations)
    return tables, warnings


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
        edges = ", ".join(f"{a}-{b}" for a, b in g.edges)
        print(f"  {name}: {g.size} cells; edges: {edges or 'none'}")
    print("mac_phy presets:")
    for name in sorted(MAC_PHY_PRESETS):
        print(f"  {name}")
    print("backoff presets:")
    for name, p in sorted(BACKOFF_PRESETS.items()):
        print(f"  {name} (cw {p['cw_min']}..{p['cw_max']}, "
              f"retry limit {p['retry_limit']})")


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = argparse.ArgumentParser(
            prog="cellwlan",
            description="Cell-level analysis of multi-cell CSMA/CA WLANs")
        sub = _PARSER.add_subparsers(dest="verb", required=True)
        for verb in (*_VERBS, "presets"):
            p = sub.add_parser(verb)
            if verb != "presets":
                p.add_argument("--config", required=True,
                               help="YAML configuration document")
                p.add_argument("--out", default="cellwlan-out",
                               help="output directory (default: cellwlan-out)")
                p.add_argument("--seed", type=int, default=None,
                               help="override the sim seed from the config")
                p.add_argument("--format", choices=("csv", "doc"),
                               default="csv",
                               help="csv: one file per table; doc: single JSON")
    return _PARSER


def main(argv=None) -> int:
    parser = _parser()
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
        _require(vars(cfg), _VERB_NEEDS.get(args.verb, ()), " for this verb")
        tables, warnings = _VERBS[args.verb](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ConvergenceError, StateSpaceCapError, ValueError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2

    seed = cfg.sim.rng_seed
    bundle = ResultBundle(args.verb, config_digest(cfg.raw, seed), seed,
                          __version__, tables, tuple(warnings))
    try:
        paths = write_bundle(bundle, args.out, args.format)
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 1
    _print_bundle(bundle, paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
