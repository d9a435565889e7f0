"""Command-line front end: schema, verbs, determinism, exit codes."""

import contextlib
import copy
import csv
import functools
import io
import json
import multiprocessing
import operator
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwlan import flows
from cellwlan.cli import (DEPLOYMENT_PRESETS, ConfigError, config_digest,
                          load_config, main)
from cellwlan.dcf import backoff_preset, mac_phy_preset, mean_backoffs
from cellwlan.flows import FlowParams, SimConfig
from cellwlan.multicell import (FixedPointConfig, MulticellInput,
                                solve_fixed_point)
from cellwlan.topology import CellGeom, build_contention_graph

import oracles


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def chain_doc(**extra):
    doc = {"deployment": {"preset": "three-chain"},
           "mac_phy": {"preset": "dot11b-11mbps", "payload_bytes": 1000},
           "backoff": {"preset": "dot11b-11mbps"}}
    doc.update(extra)
    return doc


def tcp_short_doc():
    doc = chain_doc()
    doc["traffic"] = {"mode": "tcp-short", "tcp_data_bytes": 1500,
                      "tcp_ack_bytes": 40, "app_data_bytes": 12500,
                      "arrival_rates_per_s": [1.0, 1.0, 1.0],
                      "mean_flow_size_bytes": 100000}
    doc["sim"] = {"enabled": True, "seed": 5, "flows_per_cell": 200,
                  "warmup_flows": 20, "replications": 2}
    return doc


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_presets_verb_lists_everything(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("two-cell", "three-chain", "three-clique",
                 "dot11b-11mbps"):
        assert name in out
    # listed from the preset tables, aliases included
    assert "  dot11b (cw 32..1024, retry limit 7)" in out.splitlines()


def test_saturation_csv_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, chain_doc())
    out = tmp_path / "out"
    assert main(["saturation", "--config", cfg, "--out", str(out)]) == 0
    for stem in ("cells", "summary", "states", "meta"):
        assert (out / f"saturation_{stem}.csv").exists()
    header, rows = read_csv(out / "saturation_cells.csv")
    assert header[:4] == ["cell", "node_count", "beta", "gamma"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    # values must round-trip the library solution through the ".12g" format
    dep = DEPLOYMENT_PRESETS["three-chain"]
    sol = solve_fixed_point(MulticellInput(
        graph=build_contention_graph(dep), node_counts=(2, 2, 2),
        mac_phy=mac_phy_preset("dot11b-11mbps", 8000.0),
        backoff=backoff_preset("dot11b-11mbps")))
    np.testing.assert_allclose([float(r[2]) for r in rows], sol.beta,
                               rtol=1e-10)
    np.testing.assert_allclose([float(r[5]) for r in rows], sol.x,
                               rtol=1e-10)
    _, srows = read_csv(out / "saturation_states.csv")
    assert len(srows) == 5


def test_adjacency_list_matches_geometric_preset(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cfg_a = write_cfg(tmp_path, chain_doc(), "a.yaml")
    doc_b = chain_doc()
    doc_b["deployment"] = {"adjacency": {
        "cells": [1, 2, 3], "edges": [[1, 2], [2, 3]],
        "node_counts": [2, 2, 2]}}
    cfg_b = write_cfg(tmp_path, doc_b, "b.yaml")
    assert main(["saturation", "--config", cfg_a, "--out", str(a)]) == 0
    assert main(["saturation", "--config", cfg_b, "--out", str(b)]) == 0
    for stem in ("cells", "summary", "states"):
        fa = (a / f"saturation_{stem}.csv").read_bytes()
        fb = (b / f"saturation_{stem}.csv").read_bytes()
        assert fa == fb


def test_outputs_byte_identical_for_same_config_and_seed(tmp_path):
    cfg = write_cfg(tmp_path, tcp_short_doc())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["tcp-short", "--config", cfg, "--out", str(a)]) == 0
    assert main(["tcp-short", "--config", cfg, "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "tcp-short_sim.csv" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_sim_and_digest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tcp_short_doc())
    a = tmp_path / "a"
    c = tmp_path / "c"
    assert main(["tcp-short", "--config", cfg, "--out", str(a)]) == 0
    assert main(["tcp-short", "--config", cfg, "--out", str(c),
                 "--seed", "9"]) == 0
    assert main(["tcp-short", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--seed", "-1"]) == 1
    assert "config error: --seed" in capsys.readouterr().err
    assert ((a / "tcp-short_sim.csv").read_bytes()
            != (c / "tcp-short_sim.csv").read_bytes())
    # analytic tables do not depend on the seed
    assert ((a / "tcp-short_cells.csv").read_bytes()
            == (c / "tcp-short_cells.csv").read_bytes())
    raw = yaml.safe_load(open(cfg, encoding="utf-8"))
    assert config_digest(raw, 5) != config_digest(raw, 9)
    meta = dict(read_csv(c / "tcp-short_meta.csv")[1])
    assert meta["seed"] == "9"
    assert meta["config_hash"] == config_digest(raw, 9)


def test_doc_format_writes_one_deterministic_json(tmp_path):
    cfg = write_cfg(tmp_path, tcp_short_doc())
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["tcp-short", "--config", cfg, "--out", str(out),
                     "--format", "doc"]) == 0
        assert [p.name for p in out.iterdir()] == ["tcp-short.json"]
    assert ((a / "tcp-short.json").read_bytes()
            == (b / "tcp-short.json").read_bytes())
    doc = json.loads((a / "tcp-short.json").read_text(encoding="utf-8"))
    assert doc["meta"]["verb"] == "tcp-short"
    assert doc["tables"]["cells"]["header"][0] == "cell"
    assert len(doc["tables"]["cells"]["rows"]) == 3


def test_tcp_long_reports_equivalent_payload(tmp_path):
    doc = chain_doc()
    doc["traffic"] = {"mode": "tcp-long", "tcp_data_bytes": 1500,
                      "tcp_ack_bytes": 40}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["tcp-long", "--config", cfg, "--out", str(out)]) == 0
    summary = dict(read_csv(out / "tcp-long_summary.csv")[1])
    assert float(summary["equivalent_payload_bytes"]) == pytest.approx(770.0)
    _, rows = read_csv(out / "tcp-long_cells.csv")
    assert len(rows) == 3
    assert float(rows[1][2]) < float(rows[0][2])  # middle AP starved


def test_infinite_rho_needs_no_mac_section(tmp_path):
    cfg = write_cfg(tmp_path, {"deployment": {"preset": "three-chain"}})
    out = tmp_path / "out"
    assert main(["infinite-rho", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "infinite-rho_cells.csv")
    assert [float(r[2]) for r in rows] == [1.0, 0.0, 1.0]
    summary = dict(read_csv(out / "infinite-rho_summary.csv")[1])
    assert summary["independence_number"] == "2"
    assert summary["mis_total"] == "1"


def test_sweep_verb_emits_one_row_per_payload_and_cell(tmp_path):
    doc = chain_doc()
    doc["sweep"] = {"payload_bytes": [100, 1000]}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep_points.csv")
    assert len(rows) == 6
    assert sorted({r[0] for r in rows}) == ["100", "1000"]
    _, srows = read_csv(out / "sweep_summary.csv")
    assert len(srows) == 2


def test_validate_verb_reports_relations(tmp_path):
    cfg = write_cfg(tmp_path, {"deployment": {"preset": "three-clique"}})
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    _, pairs = read_csv(out / "validate_pairs.csv")
    assert len(pairs) == 3 and all(r[2] == "dependent" for r in pairs)
    _, edges = read_csv(out / "validate_edges.csv")
    assert len(edges) == 3
    summary = dict(read_csv(out / "validate_summary.csv")[1])
    assert summary["satisfied"] == "true"


def test_validate_flags_boundary_straddlers(tmp_path):
    doc = {"deployment": {"carrier_sense_range_m": 500, "cells": [
        {"id": 1, "x_m": 0, "y_m": 0, "radius_m": 25},
        {"id": 2, "x_m": 460, "y_m": 0, "radius_m": 25}]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    summary = dict(read_csv(out / "validate_summary.csv")[1])
    assert summary["satisfied"] == "false"
    meta = (out / "validate_meta.csv").read_text(encoding="utf-8")
    assert "straddle" in meta


def test_config_rejects_unknown_and_conflicting_keys(tmp_path, capsys):
    bad = [
        {"deployment": {"preset": "three-chain"}, "bogus": {}},
        {"deployment": {"preset": "three-chain", "spam": 1}},
        {"deployment": {"preset": "nope"}},
        {"deployment": {"preset": "three-chain",
                        "adjacency": {"cells": [1]}}},
        {"deployment": {"adjacency": {"cells": [1, 2],
                                      "edges": [[1, 2, 3]]}}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": "dot11b-11mbps", "slot_us": -1}},
        {"deployment": {"preset": "three-chain"},
         "traffic": {"mode": "tcp-long", "tcp_data_bytes": 1500}},
        {"deployment": {"preset": "three-chain"},
         "backoff": {"cw_min": float("inf"), "cw_max": 32, "retry_limit": 7}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": "dot11b-11mbps", "payload_bytes": float("nan")}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": "dot11b-11mbps", "payload_bytes": 10 ** 400}},
        {"deployment": {"preset": "three-chain"},
         "sweep": {"payload_bytes": [500, float("inf")]}},
        {"deployment": {"preset": "three-chain"}, "sim": {"seed": -1}},
        {"deployment": {"preset": ["three-chain"]}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": ["dot11b-11mbps"]}},
        {"deployment": {"preset": "three-chain"}, "backoff": {"preset": {"a": 1}}},
        {"deployment": {"preset": "three-chain"},
         "backoff": {"cw_min": 64, "cw_max": 32, "retry_limit": 7}},
        {"deployment": {"preset": "three-chain"},
         "backoff": {"cw_min": 32, "cw_max": 1024, "retry_limit": 256}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": "dot11b-11mbps", "slot_us": 0}},
        {"deployment": {"preset": "three-chain"},
         "mac_phy": {"preset": "dot11b-11mbps", "data_rate_bps": 0}},
        {"deployment": {"preset": "three-chain"}, "sim": {"enabled": "false"}},
        {"deployment": {"preset": "three-chain",
                        "carrier_sense_range_m": 500}},
        {"deployment": {"adjacency": {"cells": [1, 2]},
                        "carrier_sense_range_m": 500}},
        {"deployment": {"preset": "three-chain"}, "solver": {"damping": 2.0}},
        {"deployment": {"preset": "three-chain"},
         "solver": {"multistart": 101}},
        {"deployment": {"preset": "three-chain"},
         "solver": {"multistart": 1000000}},
        {"deployment": {"preset": "three-chain"},
         "solver": {"max_iterations": 1000001}},
        {"deployment": {"preset": "three-chain"},
         "sim": {"flows_per_cell": 1000001}},
        {"deployment": {"preset": "three-chain"},
         "sim": {"replications": 1001}},
        {"deployment": {"preset": "three-chain"},
         "sim": {"warmup_flows": 1000001}},
        {"deployment": {"preset": "three-chain"},
         "sim": {"warmup_flows": 1000000000000}},
    ]
    for doc in bad:
        cfg = write_cfg(tmp_path, doc)
        rc = main(["infinite-rho" if "traffic" not in doc else "tcp-long",
                   "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1, doc
        assert "config error" in err


@pytest.mark.parametrize("adjacency,traffic", [
    ({"cells": [1, 2, 3], "edges": [[1, 2], [2, 9]]}, {}),
    ({"cells": [1, 1.7]}, {}),
    ({"cells": [1, 2, 3], "edges": [[1, 2]]}, {"node_counts": ["a", 2, 2]}),
    ({"cells": [1, 2, 1]}, {}),
    ({"cells": [1, 2, 3], "edges": [[1, 2, 3]]}, {}),
    ({"cells": [1, 2, 3], "edges": [[2, 2]]}, {}),
], ids=["edge-to-unknown-cell", "fractional-cell-id",
        "non-integer-node-count", "repeated-cell-id", "edge-not-a-pair",
        "self-loop"])
def test_malformed_adjacency_is_a_config_error(tmp_path, capsys, adjacency,
                                               traffic):
    doc = chain_doc(deployment={"adjacency": adjacency})
    if traffic:
        doc["traffic"] = traffic
    out = tmp_path / "out"
    assert main(["saturation", "--config", write_cfg(tmp_path, doc),
                 "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["a", float("nan"), True, float("inf")],
                         ids=["string", "nan", "bool", "inf"])
def test_malformed_arrival_rate_is_a_config_error(tmp_path, capsys, rate):
    doc = tcp_short_doc()
    doc["traffic"]["arrival_rates_per_s"] = [rate, 2, 2]
    out = tmp_path / "out"
    assert main(["tcp-short", "--config", write_cfg(tmp_path, doc),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: traffic.arrival_rates_per_s" in err
    assert not out.exists()


def test_config_rejects_malformed_documents(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("deployment: [unclosed\n", encoding="utf-8")
    assert main(["saturation", "--config", str(path),
                 "--out", str(tmp_path / "o1")]) == 1
    path2 = tmp_path / "list.yaml"
    path2.write_text("- 1\n- 2\n", encoding="utf-8")
    assert main(["saturation", "--config", str(path2),
                 "--out", str(tmp_path / "o2")]) == 1
    assert main(["saturation", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o3")]) == 1
    capsys.readouterr()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"# caf\xe9 \xff\n"
                     + yaml.safe_dump(chain_doc()).encode())
    assert main(["saturation", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: config is not valid UTF-8: ")


@pytest.mark.parametrize("text, where", [
    ("\0\0", "position 0"),
    ("deployment: [1, 2\n", "line 1, column 13")],
    ids=["nul-bytes", "unclosed-flow-sequence"])
def test_yaml_syntax_error_is_one_config_error_line(tmp_path, capsys, text,
                                                    where):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["saturation", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: config is not valid YAML: ")
    # the one line still names the file and the place in it
    assert f'in "{path}", {where}' in err[0]


def test_unwritable_out_is_an_output_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, chain_doc())
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    # the output directory is an existing file, or lies under one
    for out in (blocker, blocker / "out"):
        assert main(["saturation", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error: "), err
        assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("fmt", ["csv", "doc"])
def test_tcp_short_without_arrivals_writes_the_sim_table(tmp_path, fmt):
    doc = tcp_short_doc()
    doc["traffic"]["arrival_rates_per_s"] = [0, 0, 0]
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["tcp-short", "--config", cfg, "--out", str(out),
                 "--format", fmt]) == 0
    if fmt == "csv":
        header, rows = read_csv(out / "tcp-short_sim.csv")
    else:
        sim = json.loads((out / "tcp-short.json").read_text(
            encoding="utf-8"))["tables"]["sim"]
        header, rows = sim["header"], sim["rows"]
    assert header == ["cell", "mean_delay_s", "ci_halfwidth_s", "stable",
                      "completed_flows"]
    assert rows == [[c, "nan", "nan", "true", "0"] for c in "123"]


def test_tcp_short_warns_of_an_unstable_simulated_cell(tmp_path, capsys):
    # cell 1 is offered about 100 times what it can serve: its queue
    # passes the runaway threshold long before it records its quota
    doc = tcp_short_doc()
    doc["traffic"]["arrival_rates_per_s"] = [5000, 0, 0]
    doc["sim"] = {"enabled": True, "seed": 5, "flows_per_cell": 1000000,
                  "warmup_flows": 0, "replications": 1}
    out = tmp_path / "out"
    assert main(["tcp-short", "--config", write_cfg(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert "  warning: simulation unstable for cells: 1\n" \
        in capsys.readouterr().out
    _, rows = read_csv(out / "tcp-short_sim.csv")
    assert [r[3] for r in rows] == ["false", "true", "true"]
    _, meta = read_csv(out / "tcp-short_meta.csv")
    assert ["warning_0", "simulation unstable for cells: 1"] in meta


def test_verbs_reject_configs_missing_their_sections(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"deployment": {"preset": "three-chain"}})
    out = str(tmp_path / "out")
    assert main(["saturation", "--config", cfg, "--out", out]) == 1
    assert main(["sweep", "--config", write_cfg(tmp_path, chain_doc(),
                                                "s.yaml"),
                 "--out", out]) == 1
    adj = write_cfg(tmp_path, {"deployment": {"adjacency": {
        "cells": [1, 2], "edges": [[1, 2]]}}}, "adj.yaml")
    assert main(["validate", "--config", adj, "--out", out]) == 1
    # the tcp verbs need the keys of their traffic mode, whatever the mode
    for verb, key in (("tcp-long", "tcp_data_bytes"),
                      ("tcp-short", "tcp_data_bytes")):
        assert main([verb, "--config", write_cfg(tmp_path, chain_doc(),
                                                 "t.yaml"),
                     "--out", out]) == 1
    doc = chain_doc(traffic={"mode": "tcp-long", "tcp_data_bytes": 1500,
                             "tcp_ack_bytes": 40})
    assert main(["tcp-short", "--config", write_cfg(tmp_path, doc, "l.yaml"),
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error: traffic.tcp_data_bytes: required for this verb" \
        in err
    assert "config error: traffic.app_data_bytes: required for this verb" \
        in err


def test_analysis_failures_exit_one(tmp_path, capsys):
    doc = chain_doc(solver={"max_iterations": 1, "tolerance": 1e-15})
    cfg = write_cfg(tmp_path, doc)
    assert main(["saturation", "--config", cfg,
                 "--out", str(tmp_path / "o1")]) == 2
    assert "analysis error: multi-cell fixed point" in capsys.readouterr().err
    doc = chain_doc(backoff={"cw_min": 1, "cw_max": 1, "retry_limit": 0})
    cfg = write_cfg(tmp_path, doc, "degen.yaml")
    assert main(["saturation", "--config", cfg,
                 "--out", str(tmp_path / "o2")]) == 2
    assert "analysis error" in capsys.readouterr().err
    doc = chain_doc(backoff={"cw_min": 2, "cw_max": 64, "retry_limit": 3})
    cfg = write_cfg(tmp_path, doc, "half.yaml")
    assert main(["saturation", "--config", cfg,
                 "--out", str(tmp_path / "o4")]) == 2
    assert "analysis error: reachable mean backoffs average below one " \
        "slot" in capsys.readouterr().err
    doc = tcp_short_doc()
    doc["solver"] = {"max_iterations": 1}
    cfg = write_cfg(tmp_path, doc, "short.yaml")
    assert main(["tcp-short", "--config", cfg,
                 "--out", str(tmp_path / "o3")]) == 2
    assert "analysis error: effective-rate fixed point" in \
        capsys.readouterr().err
    # one cell far slower than the others: the flow simulation is refused
    doc = tcp_short_doc()
    doc["traffic"]["arrival_rates_per_s"] = [0.5, 1e-9, 0.5]
    cfg = write_cfg(tmp_path, doc, "slow.yaml")
    assert main(["tcp-short", "--config", cfg,
                 "--out", str(tmp_path / "o5")]) == 2
    assert "analysis error: flow simulation would take" in \
        capsys.readouterr().err


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one core: replications never fan out")
def test_a_replication_failing_in_a_worker_is_an_analysis_error(
        tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    real = flows._simulate_once

    def failing(*args):
        if os.getpid() != parent:
            raise ValueError("replication failed in a worker")
        return real(*args)

    monkeypatch.setattr(flows, "_POOL_EVENTS", 0.0)
    monkeypatch.setattr(flows, "_simulate_once", failing)
    cfg = write_cfg(tmp_path, tcp_short_doc())
    assert main(["tcp-short", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "analysis error: replication failed in a worker"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("verb", ["saturation", "sweep"])
def test_underflowing_law_is_one_analysis_error_line(tmp_path, capsys, verb):
    # the middle cell of the chain contends only in the empty state, whose
    # probability underflows to 0 at this payload
    doc = chain_doc(sweep={"payload_bytes": [1000, 1.0e307]})
    doc["mac_phy"]["payload_bytes"] = 1.0e307
    cfg = write_cfg(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([verb, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert capsys.readouterr().err.splitlines() == [
        "analysis error: access intensities too large: the stationary law "
        "underflows to 0 where a cell contends"]


def grid_doc(rows, cols, payload_bytes=1000):
    cells, edges = oracles.grid_graph(rows, cols)
    doc = chain_doc()
    doc["deployment"] = {"adjacency": {"cells": cells,
                                       "edges": [list(e) for e in edges]}}
    doc["mac_phy"]["payload_bytes"] = payload_bytes
    return doc


def test_overflowing_frontier_dp_is_one_analysis_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, grid_doc(5, 5, 1.0e307))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["saturation", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert capsys.readouterr().err.splitlines() == [
        "analysis error: access intensities too large: the partition "
        "function overflows"]


def test_grid_6x6_saturation_reports_its_state_count(tmp_path):
    # 5,598,861 independent sets: five times the enumeration cap
    cfg = write_cfg(tmp_path, grid_doc(6, 6))
    out = tmp_path / "out"
    assert main(["saturation", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "saturation_summary.csv")
    assert dict(rows)["states"] == "5598861"
    assert not (out / "saturation_states.csv").exists()


def test_grid_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the CSV files, and the solution's arrays to the last bit, which the
    # files' 12 digits would hide
    cfg = write_cfg(tmp_path, grid_doc(5, 5))
    code = ("import sys\n"
            "from cellwlan.cli import load_config, main\n"
            "from cellwlan.multicell import MulticellInput, "
            "solve_fixed_point\n"
            "cfg, out = sys.argv[1:]\n"
            "main(['saturation', '--config', cfg, '--out', out])\n"
            "c = load_config(cfg)\n"
            "sol = solve_fixed_point(MulticellInput(c.graph, c.node_counts, "
            "c.mac_phy, c.backoff), c.solver)\n"
            "print(sol.x.tobytes().hex(), sol.gamma.tobytes().hex(), "
            "sol.beta.tobytes().hex())\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code, cfg, str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs.append((files, proc.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0][0]) == ["saturation_cells.csv",
                                     "saturation_meta.csv",
                                     "saturation_summary.csv"]


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_mac_phy_overrides_apply_on_top_of_preset(tmp_path):
    base = load_config(write_cfg(tmp_path, chain_doc(), "m0.yaml"))
    doc = chain_doc()
    doc["mac_phy"]["slot_us"] = 20
    same = load_config(write_cfg(tmp_path, doc, "m1.yaml"))
    assert same.mac_phy == base.mac_phy
    doc["mac_phy"]["slot_us"] = 9
    fast = load_config(write_cfg(tmp_path, doc, "m2.yaml"))
    assert fast.mac_phy.slot_time == pytest.approx(9e-6)
    assert fast.mac_phy != base.mac_phy


def test_backoff_keys_override_the_preset(tmp_path):
    doc = chain_doc(backoff={"preset": "dot11b", "cw_min": 16})
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.backoff == mean_backoffs(16, 1024, 7)
    doc = chain_doc(backoff={"cw_min": 16, "cw_max": 64})
    with pytest.raises(ConfigError, match="backoff.retry_limit: required"):
        load_config(write_cfg(tmp_path, doc))


def test_schema_bounds_are_inclusive_where_stated(tmp_path):
    doc = chain_doc(backoff={"cw_min": 32, "cw_max": 1024,
                             "retry_limit": 255},
                    solver={"damping": 1.0, "multistart": 100,
                            "max_iterations": 1000000},
                    sim={"enabled": False, "flows_per_cell": 1000000,
                         "warmup_flows": 1000000, "replications": 1000})
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.backoff.retry_limit == 255
    assert cfg.solver.damping == 1.0
    assert cfg.solver.multistart == 100
    assert cfg.solver.max_iterations == 1000000
    assert cfg.sim_enabled is False
    assert cfg.sim.flows_per_cell == 1000000
    assert cfg.sim.replications == 1000
    assert cfg.sim.warmup_flows == 1000000


def test_traffic_node_counts_override_deployment(tmp_path):
    doc = chain_doc()
    doc["traffic"] = {"node_counts": [10, 10, 10]}
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.node_counts == (10, 10, 10)
    assert load_config(write_cfg(tmp_path, chain_doc(),
                                 "d.yaml")).node_counts == (2, 2, 2)


def test_absent_keys_take_the_library_defaults(tmp_path):
    doc = chain_doc(deployment={"adjacency": {"cells": [1, 2, 3],
                                              "edges": [[1, 2]]}})
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.solver == FixedPointConfig()
    assert cfg.sim == SimConfig()
    assert cfg.sim_enabled is False
    assert cfg.node_counts == (CellGeom.node_count,) * 3
    assert cfg.service_model == FlowParams.service_model
    assert cfg.mac_phy == mac_phy_preset("dot11b-11mbps", 8000.0)


def test_per_cell_lists_follow_the_listed_cell_order(tmp_path):
    # cells listed out of id order: every per-cell list is read in the
    # listed order, so cell 4 gets the first entry
    doc = chain_doc(deployment={"adjacency": {
        "cells": [4, 1, 3, 2], "edges": [[4, 1], [1, 3]],
        "node_counts": [2, 4, 1, 3]}})
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.graph.cells == (1, 2, 3, 4)
    assert cfg.node_counts == (4, 3, 1, 2)
    out = tmp_path / "out"
    assert main(["saturation", "--config", write_cfg(tmp_path, doc),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "saturation_cells.csv")
    assert [(r[0], r[1]) for r in rows] == [("1", "4"), ("2", "3"),
                                            ("3", "1"), ("4", "2")]
    doc["traffic"] = {"node_counts": [5, 6, 7, 8],
                      "arrival_rates_per_s": [0.5, 1.0, 1.5, 2.0]}
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.node_counts == (6, 8, 7, 5)
    assert cfg.arrival_rates == (1.0, 2.0, 1.5, 0.5)
    geo = chain_doc(deployment={"carrier_sense_range_m": 500, "cells": [
        {"id": 2, "x_m": 0, "y_m": 0, "radius_m": 25, "node_count": 9},
        {"id": 1, "x_m": 400, "y_m": 0, "radius_m": 25}]},
        traffic={"arrival_rates_per_s": [0.5, 1.0]})
    cfg = load_config(write_cfg(tmp_path, geo))
    assert cfg.node_counts == (2, 9)
    assert cfg.arrival_rates == (1.0, 0.5)


def fuzz_base_docs():
    """Valid three-chain configs that fill every section, one per
    deployment form."""
    doc = tcp_short_doc()
    doc["mac_phy"] = {"preset": "dot11b-11mbps", "payload_bytes": 1000,
                      "access_mode": "basic", "slot_us": 20, "sifs_us": 10,
                      "difs_us": 50, "overhead_us": 216.7, "ack_bytes": 14,
                      "data_rate_bps": 11e6, "control_rate_bps": 11e6,
                      "rts_bytes": 20, "cts_bytes": 14}
    doc["backoff"] = {"cw_min": 32, "cw_max": 1024, "retry_limit": 7}
    doc["traffic"].update(node_counts=[2, 3, 2], service_model="model2")
    doc["solver"] = {"tolerance": 1e-8, "damping": 0.5, "max_iterations": 50,
                     "multistart": 1}
    doc["sweep"] = {"payload_bytes": [500, 1000]}
    cells = [{"id": i + 1, "x_m": 400.0 * i, "y_m": 0, "radius_m": 25,
              "node_count": 2, "channel": 1} for i in range(3)]
    deployments = [
        {"preset": "three-chain"},
        {"carrier_sense_range_m": 500, "cells": cells},
        {"adjacency": {"cells": [1, 2, 3], "edges": [[1, 2], [2, 3]],
                       "node_counts": [2, 2, 2]}}]
    return [{**doc, "deployment": dep} for dep in deployments]


def doc_paths(node, prefix=()):
    """Every key path into a parsed YAML document, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from doc_paths(child, prefix + (key,))


JUNK = st.one_of(
    st.sampled_from([0, -1, -0.5, 1.5, 10 ** 400, float("nan"),
                     float("inf"), -float("inf"), True, False, None, "",
                     "false", "three-chain"]),
    st.lists(st.one_of(st.integers(-2, 9), st.just("a")), max_size=8),
    st.dictionaries(st.sampled_from(["a", "preset", "cells", "enabled"]),
                    st.integers(-1, 3), max_size=3))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(base=st.sampled_from(fuzz_base_docs()), data=st.data())
def test_mutated_configs_end_in_one_of_three_outcomes(base, data):
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(doc_paths(doc))), label="path")
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JUNK, label="value")
        if not doc:
            break
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["infinite-rho", "--config", path,
                       "--out", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc in (1, 2) and len(lines) == 1, (rc, lines)
        assert lines[0].startswith(("config error:" if rc == 1
                                    else "analysis error:")), lines


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cellwlan.cli", "presets"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "three-chain" in proc.stdout


def test_sweep_reports_its_uniqueness_warnings(tmp_path, capsys):
    # at 1000 B the main solve settles in 18 iterations and the three
    # probes need 27, 27 and 25: each point keeps the probes' warnings
    doc = chain_doc(solver={"max_iterations": 20})
    doc["sweep"] = {"payload_bytes": [1000, 1000]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert main(["saturation", "--config", cfg,
                 "--out", str(tmp_path / "t")]) == 0
    _, meta = read_csv(tmp_path / "t" / "saturation_meta.csv")
    point = [v for k, v in meta if k.startswith("warning_")]
    assert point == [f"uniqueness start {k}: did not converge"
                     for k in range(3)]
    _, meta = read_csv(tmp_path / "s" / "sweep_meta.csv")
    assert [v for k, v in meta if k.startswith("warning_")] == \
        [f"payload 1000 B: {w}" for w in point + point]
    out = capsys.readouterr().out
    assert out.count("  warning: payload 1000 B: uniqueness start") == 6
