"""Single-cell saturated CSMA/CA model: backoff, attempts, frame timing.

Everything here is per-cell and ignores other cells; the multi-cell
machinery layers coupling on top.  Internally all quantities are SI
(seconds, bits, bits per second).  The attempt probability of a saturated
node is tied to its collision probability through the mean backoff drawn
after each of the allowed retransmission attempts; the cell-level slot
structure (idle / success / collision) then gives saturation throughput.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np


class ConvergenceError(Exception):
    """Raised when a damped fixed-point iteration fails to settle."""


def _whole(name: str, value, low: int = 1) -> int:
    """``value`` as an int; it must be a whole number >= ``low``, and a
    bool is not one.  Otherwise ValueError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, not {value}")
    return int(value)


@dataclass(frozen=True)
class MacPhyParams:
    """Timing and rate parameters of the MAC/PHY.

    ``overhead_time`` is the fixed per-frame airtime (PHY preamble and
    header plus MAC header) added to every frame before its body bits are
    clocked out at ``data_rate`` (or ``control_rate`` for control frames).
    """

    slot_time: float
    sifs: float
    difs: float
    overhead_time: float
    data_rate: float
    control_rate: float
    payload_bits: float
    ack_bits: float = 112.0
    access_mode: str = "basic"  # "basic" | "rts-cts"
    rts_bits: float = 160.0
    cts_bits: float = 112.0

    def __post_init__(self) -> None:
        if self.access_mode not in ("basic", "rts-cts"):
            raise ValueError(f"unknown access_mode {self.access_mode!r}")
        for name, value in vars(self).items():
            if name != "access_mode" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if min(self.slot_time, self.data_rate, self.control_rate) <= 0:
            raise ValueError("slot_time and rates must be > 0")
        if min(self.sifs, self.difs, self.overhead_time, self.payload_bits,
               self.ack_bits, self.rts_bits, self.cts_bits) < 0:
            raise ValueError("times and sizes must be >= 0")

    def with_payload(self, payload_bits: float) -> "MacPhyParams":
        return dataclasses.replace(self, payload_bits=float(payload_bits))


@dataclass(frozen=True)
class BackoffParams:
    """Retry limit and the mean backoff (in slots) after each attempt."""

    retry_limit: int
    mean_backoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _whole("retry_limit", self.retry_limit, 0)
        if len(self.mean_backoffs) != self.retry_limit + 1:
            raise ValueError("need retry_limit + 1 mean backoffs")
        if not all(math.isfinite(b) for b in self.mean_backoffs):
            raise ValueError(f"mean_backoffs must be finite, not "
                             f"{self.mean_backoffs}")
        if any(b < 0 for b in self.mean_backoffs):
            raise ValueError("mean backoffs must be >= 0")


def _within(v: np.ndarray, low: float, high: float) -> bool:
    """Whether every entry of ``v`` lies in [low, high]: none is NaN."""
    return (low <= np.minimum.reduce(v, axis=None, initial=low)
            and np.maximum.reduce(v, axis=None, initial=low) <= high)


def mean_backoffs(cw_min: int, cw_max: int, retry_limit: int) -> BackoffParams:
    """Mean backoffs for binary exponential backoff with a window ceiling.

    After the k-th collision the window is min(2^k * cw_min, cw_max) slots
    and the drawn backoff is uniform on {0, ..., window - 1}, so its mean
    is (window - 1) / 2.
    """
    cw_min = _whole("cw_min", cw_min)
    cw_max = _whole("cw_max", cw_max, cw_min)
    retry_limit = _whole("retry_limit", retry_limit, 0)
    bs = tuple((min((2**k) * cw_min, cw_max) - 1) / 2
               for k in range(retry_limit + 1))
    return BackoffParams(retry_limit=retry_limit, mean_backoffs=bs)


def _attempt(backoff: BackoffParams):
    """Per-slot attempt probability G(gamma) of a saturated node on one
    ladder, as a function of a scalar or an array of gammas, its arrays
    built once (a Python float gamma skips the array checks): attempts
    per packet over mean backoff slots per packet, each weighted by the
    chance gamma^k of reaching attempt k.  G exceeds 1 exactly when the
    reachable mean backoffs average below one slot, which is an error;
    rounding above 1 when they average one slot is clipped."""
    exps, b = np.arange(backoff.retry_limit + 1), np.asarray(
        backoff.mean_backoffs)
    # with every mean backoff at least one slot, den >= 1 and G <= 1
    short = min(backoff.mean_backoffs) < 1.0

    def attempt(gamma):
        one = isinstance(gamma, float)
        g = gamma if one else np.asarray(gamma, dtype=float)
        if not (0.0 <= g <= 1.0 if one else _within(g, 0.0, 1.0)):
            raise ValueError(f"gamma = {gamma} outside [0, 1]")
        w = g ** exps if one else g[..., None] ** exps
        den = w @ b
        if short:
            if not (den > 0.0).all():
                raise ValueError("all reachable mean backoffs are zero; "
                                 "attempt probability undefined")
            if (w @ (1.0 - b) > 0.0).any():
                raise ValueError("reachable mean backoffs average below one "
                                 "slot (cw_min <= 2); attempt probability "
                                 "would exceed 1")
        out = np.add.reduce(w, axis=-1) / den
        return min(float(out), 1.0) if out.ndim == 0 else np.minimum(out, 1.0)
    return attempt


def frame_exchange_times(p: MacPhyParams) -> tuple[float, float]:
    """Durations (t_success, t_collision) of one channel activity burst.

    Basic access: success is DATA + SIFS + ACK + DIFS, collision is DATA +
    DIFS.  RTS/CTS: success is the four-frame exchange, collision costs
    only the RTS + DIFS.
    """
    t_data = p.overhead_time + p.payload_bits / p.data_rate
    t_ack = p.overhead_time + p.ack_bits / p.control_rate
    if p.access_mode == "basic":
        t_success = t_data + p.sifs + t_ack + p.difs
        t_collision = t_data + p.difs
    else:
        t_rts = p.overhead_time + p.rts_bits / p.control_rate
        t_cts = p.overhead_time + p.cts_bits / p.control_rate
        t_success = t_rts + p.sifs + t_cts + p.sifs + t_data + p.sifs + t_ack + p.difs
        t_collision = t_rts + p.difs
    return t_success, t_collision


@dataclass(frozen=True)
class SingleCellSolution:
    """Converged operating point of one isolated saturated cell.

    ``slot_fractions`` is (idle, success, collision) per virtual slot;
    ``throughput_pkts`` is delivered packets per second for the whole cell.
    """

    node_count: int
    beta: float
    gamma: float
    throughput_pkts: float
    slot_fractions: tuple[float, float, float]
    iterations: int
    residual: float


def _slot_outcomes(beta, n):
    """(p_idle, p_lone, p_succ) of a slot where each of n saturated nodes
    attempts with probability beta: none does, a given node's n - 1
    cellmates do not, or one does.  Scalars stay Python floats."""
    miss = 1.0 - beta
    lone = miss ** (n - 1)
    return miss ** n, lone, n * beta * lone


def damped_fixed_point(step, x0, tolerance: float, damping: float,
                       max_iterations: int, what: str, must_settle=False):
    """Damped iteration x <- (1 - damping) x + damping t of scalars or
    arrays, with ``(t, aux) = step(x)``.  Once the residual max|t - x| is
    at most ``tolerance``, returns (x after that update, that step's aux,
    iterations, residual); raises ConvergenceError naming ``what`` if
    ``max_iterations`` steps do not get there.

    A 2-D ``x0`` is a batch of independent rows, each stopping at its own
    first residual at most ``tolerance``; ``step(x, live)`` sees only the
    rows still running, ``live`` their indices, and returns an array of
    one aux per row.  The call returns (rows, one array of each row's aux
    from its last step, iterations and residual per row).  A row that
    never settled keeps its last iterate, ``max_iterations`` and a
    residual not at most ``tolerance``; the first such row in the mask
    ``must_settle`` raises ConvergenceError.

    The settings are taken as given: callers pass constants or a checked
    ``multicell.FixedPointConfig``."""
    batch = np.ndim(x0) == 2
    x, resid = (np.array(x0, dtype=float) if batch else x0), np.inf
    if batch:
        rows, live = np.empty_like(x), np.arange(len(x))
        its, resids = np.full(len(x), max_iterations), np.full(len(x), np.inf)
    for it in range(1, max_iterations + 1):
        target, aux = step(x, live) if batch else step(x)
        diff = abs(target - x)
        x = (1.0 - damping) * x + damping * target
        if not batch:
            resid = diff if isinstance(diff, float) else float(diff.max())
            if resid <= tolerance:
                return x, aux, it, resid
            continue
        if it == 1:
            auxes = np.empty((len(x),) + aux.shape[1:], aux.dtype)
        # each row is kept once, when it stops
        resid = np.maximum.reduce(diff, axis=1)
        done = (resid <= tolerance) | (it == max_iterations)
        if done.any():
            stop = live[done]
            rows[stop], auxes[stop], resids[stop] = x[done], aux[done], \
                resid[done]
            its[stop] = it
            x, live = x[~done], live[~done]
            if not live.size:
                break
    if batch:
        stuck = np.flatnonzero(must_settle & ~(resids <= tolerance))
        if not stuck.size:
            return rows, auxes, its, resids
        resid = resids[stuck[0]]
    raise ConvergenceError(
        f"{what}: residual {resid:.3e} > tol {tolerance:.1e} "
        f"after {max_iterations} iterations")


def solve_single_cell(node_count: int, mac_phy: MacPhyParams,
                      backoff: BackoffParams) -> SingleCellSolution:
    """Solve the attempt/collision fixed point for one isolated cell.

    Damped iteration of beta <- G(1 - (1 - beta)^(n-1)) from 1 / b_0 to a
    residual of 1e-10; for a single node it stops at beta = G(0) at once.
    """
    n = _whole("node_count", node_count)
    t_s, t_c = frame_exchange_times(mac_phy)
    attempt = _attempt(backoff)
    # b stays a Python float: its ``**`` can differ from numpy's last bit
    beta, _, it, resid = damped_fixed_point(
        lambda b: (attempt(1.0 - _slot_outcomes(b, n)[1]), None),
        attempt(0.0), 1e-10, 0.5, 10000, "single-cell fixed point")
    p_idle, lone, p_succ = _slot_outcomes(beta, n)
    gamma, p_coll = 1.0 - lone, 1.0 - p_idle - p_succ
    cycle = p_idle * mac_phy.slot_time + p_succ * t_s + p_coll * t_c
    return SingleCellSolution(
        node_count=n, beta=beta, gamma=gamma,
        throughput_pkts=p_succ / cycle,
        slot_fractions=(p_idle, p_succ, p_coll),
        iterations=it, residual=resid)


# Preset: 11 Mb/s DSSS PHY with long preamble.  192 us PHY overhead plus a
# 34-byte MAC header clocked at the data rate; ACK, RTS and CTS keep the
# MacPhyParams sizes, at the control rate.  Payload is a free knob, so the
# preset is a factory.
_DOT11B_11MBPS = dict(
    slot_time=20e-6, sifs=10e-6, difs=50e-6,
    overhead_time=192e-6 + 272.0 / 11e6,
    data_rate=11e6, control_rate=11e6)

MAC_PHY_PRESETS = {"dot11b-11mbps": _DOT11B_11MBPS}
BACKOFF_PRESETS = {name: dict(cw_min=32, cw_max=1024, retry_limit=7)
                   for name in ("dot11b-11mbps", "dot11b")}


def _preset(presets: dict, kind: str, name: str) -> dict:
    """The fields of preset ``name``; KeyError listing the known names."""
    try:
        return presets[name]
    except KeyError:
        raise KeyError(f"unknown {kind} preset {name!r}; "
                       f"have {sorted(presets)}") from None


def mac_phy_preset(name: str, payload_bits: float) -> MacPhyParams:
    """Named MAC/PHY parameter set, basic access, with the given payload
    size."""
    return MacPhyParams(payload_bits=float(payload_bits),
                        **_preset(MAC_PHY_PRESETS, "MAC/PHY", name))


def backoff_preset(name: str) -> BackoffParams:
    """Named contention-window ladder."""
    return mean_backoffs(**_preset(BACKOFF_PRESETS, "backoff", name))
