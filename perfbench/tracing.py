"""Span recorder around the public functions of the cellwlan modules.

The package binds names at import time (``flows`` and ``multicell`` each
hold their own reference to ``mis_stats``, ``cli`` holds
``solve_fixed_point``), so each public function is replaced by its
wrapper in every module namespace that refers to it, including the
defining module, where intra-module calls look it up.  A span is
(name, start, end, parent) and stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("topology", "dcf", "multicell", "flows", "simkit", "cli")


class Tracer:
    """Spans plus the counters that the span hooks record."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.rounds = 0

    def end_round(self) -> None:
        """Distinct inputs are counted within a round, since every round
        repeats the same operations."""
        for key, seen in self.distinct.items():
            self.counts[f"distinct_{key}"] += len(seen)
            seen.clear()
        self.rounds += 1

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        mods = {layer: importlib.import_module(f"cellwlan.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("cellwlan"), *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, _HOOKS.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)

    # -- reductions ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per-name total time, self time and call count."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        self_time: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[k]
        return total, self_time, calls

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens

def _enumerate(tr, args, kwargs, space):
    graph = args[0]
    tr.distinct["enumerate"].add(graph)
    tr.counts["enumerate_calls"] += 1
    tr.counts["states"] += len(space)
    masks = (space.active_mask, space.blocked_mask, space.contending_mask,
             space.adjacency)
    tr.counts["state_space_bytes"] += sum(m.nbytes for m in masks)


def _single_cell(tr, args, kwargs, sol):
    tr.distinct["single_cell"].add((args, tuple(sorted(kwargs.items()))))


def _stationary(tr, args, kwargs, pi):
    space = args[0]
    tr.counts["state_cell_updates"] += len(space) * len(space.cells)


def _solve(tr, args, kwargs, sol):
    tr.counts["reported_iterations"] += sol.iterations


def _effrate(tr, args, kwargs, res):
    tr.counts["effrate_iterations"] += res.iterations


def _flow_sim(tr, args, kwargs, res):
    params = args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    active = sum(1 for r in params.arrival_rates if r > 0)
    warm = cfg.warmup_flows * res.replications * active if cfg else 0
    tr.counts["departures"] += int(res.completed.sum()) + warm


def _ctmc(tr, args, kwargs, run):
    tr.counts["ctmc_transitions"] += run.transitions


def _slotted(tr, args, kwargs, run):
    tr.counts["slotted_slots"] += run.horizon_slots


_HOOKS = {
    "topology.enumerate_independent_sets": _enumerate,
    "dcf.solve_single_cell": _single_cell,
    "multicell.stationary_distribution": _stationary,
    "multicell.solve_fixed_point": _solve,
    "flows.effective_rate_fixed_point": _effrate,
    "flows.simulate_flow_network": _flow_sim,
    "simkit.simulate_ctmc": _ctmc,
    "simkit.simulate_slotted": _slotted,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, import_s: float, source_lines: int) -> dict:
    """Per-layer metrics.  Times and counts are per round, so they do not
    grow with the number of rounds a run fits in; a layer that did not run
    reads 0."""
    per = 1.0 / tr.rounds
    total, self_t, calls = (Counter({k: v * per for k, v in d.items()})
                            for d in tr.totals())
    c = Counter({k: v * per for k, v in tr.counts.items()})
    iters = calls["multicell.stationary_distribution"]
    stat_s = total["multicell.stationary_distribution"]
    coll_s = total["multicell.collision_probability"]
    rate_misses = calls["flows.service_rates_model1"] + calls["flows.service_rates_model2"]
    m = {
        "setup.import_s": (import_s, "s"),
        "cli.load_config_s": (total["cli.load_config"], "s"),
        "cli.write_bundle_s": (total["cli.write_bundle"], "s"),
        "cli.main_self_s": (self_t["cli.main"], "s"),
        "topology.enumerate_s": (total["topology.enumerate_independent_sets"], "s"),
        "topology.enumerate_calls": (c["enumerate_calls"], "count"),
        "topology.enumerate_distinct_share": (
            _ratio(c["distinct_enumerate"], c["enumerate_calls"]), "ratio"),
        "topology.states_enumerated": (c["states"], "count"),
        "topology.state_space_mb": (c["state_space_bytes"] / 1e6, "MB"),
        "topology.mis_stats_s": (total["topology.mis_stats"], "s"),
        "topology.mis_stats_calls": (calls["topology.mis_stats"], "count"),
        "dcf.single_cell_s": (total["dcf.solve_single_cell"], "s"),
        "dcf.single_cell_calls": (calls["dcf.solve_single_cell"], "count"),
        "dcf.single_cell_distinct_share": (
            _ratio(c["distinct_single_cell"], calls["dcf.solve_single_cell"]), "ratio"),
        "multicell.solve_self_s": (self_t["multicell.solve_fixed_point"], "s"),
        "multicell.iterations": (iters, "count"),
        "multicell.reported_iteration_share": (_ratio(c["reported_iterations"], iters), "ratio"),
        "multicell.stationary_s": (stat_s, "s"),
        "multicell.collision_s": (coll_s, "s"),
        "multicell.state_cell_updates": (c["state_cell_updates"], "count"),
        "multicell.state_cells_per_s": (_ratio(c["state_cell_updates"], stat_s + coll_s), "1/s"),
        "multicell.iteration_us": (
            _ratio(total["multicell.solve_fixed_point"], iters) * 1e6, "us"),
        "flows.effrate_s": (total["flows.effective_rate_fixed_point"], "s"),
        "flows.effrate_iterations": (c["effrate_iterations"], "count"),
        "flows.sim_s": (total["flows.simulate_flow_network"], "s"),
        "flows.sim_departures_per_s": (
            _ratio(c["departures"], total["flows.simulate_flow_network"]), "1/s"),
        "flows.rate_table_misses": (rate_misses, "count"),
        "simkit.ctmc_s": (total["simkit.simulate_ctmc"], "s"),
        "simkit.ctmc_transitions_per_s": (
            _ratio(c["ctmc_transitions"], total["simkit.simulate_ctmc"]), "1/s"),
        "simkit.slotted_s": (total["simkit.simulate_slotted"], "s"),
        "simkit.slotted_slots_per_s": (
            _ratio(c["slotted_slots"], total["simkit.simulate_slotted"]), "1/s"),
        "package.source_lines": (source_lines, "lines"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
