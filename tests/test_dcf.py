"""Single-cell backoff model: ladders, attempt curve, timing, fixed point."""

import dataclasses

import numpy as np
import pytest

from cellwlan.dcf import (MAC_PHY_PRESETS, BackoffParams, ConvergenceError,
                          MacPhyParams, _attempt, backoff_preset,
                          damped_fixed_point, frame_exchange_times,
                          mac_phy_preset, mean_backoffs, solve_single_cell)

import oracles

MP = mac_phy_preset("dot11b-11mbps", 8000.0)
BO = backoff_preset("dot11b-11mbps")


def test_mean_backoffs_golden_ladder():
    assert BO.retry_limit == 7
    assert BO.mean_backoffs == (15.5, 31.5, 63.5, 127.5, 255.5, 511.5,
                                511.5, 511.5)


def test_mean_backoffs_validation():
    with pytest.raises(ValueError):
        mean_backoffs(0, 1024, 7)
    with pytest.raises(ValueError):
        mean_backoffs(32, 16, 7)
    with pytest.raises(ValueError):
        BackoffParams(retry_limit=2, mean_backoffs=(1.0, 2.0))


def test_attempt_probability_matches_horner_oracle():
    rng = np.random.Generator(np.random.Philox(11))
    gammas = list(np.linspace(0.0, 1.0, 21)) + list(rng.uniform(0, 1, 50))
    for gamma in gammas:
        got = _attempt(BO)(float(gamma))
        want = oracles.attempt_probability_horner(float(gamma),
                                                  BO.mean_backoffs)
        assert got == pytest.approx(want, rel=1e-12)


def test_attempt_probability_endpoints_and_monotone():
    assert _attempt(BO)(0.0) == pytest.approx(1.0 / 15.5)
    grid = np.linspace(0.0, 1.0, 200)
    vals = [_attempt(BO)(float(g)) for g in grid]
    # more collisions mean longer windows, so attempts get rarer
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # every mean backoff one slot: G = 1 exactly, though the two sums may
    # round apart; the result must not exceed 1
    got = _attempt(mean_backoffs(3, 3, 255))(grid)
    assert got.max() == 1.0 and got.min() > 1.0 - 1e-12


def _outcome(make):
    try:
        return np.float64(make()).tobytes()
    except ValueError as e:
        return str(e)


def test_a_float_gamma_gives_what_a_one_entry_array_gives():
    # the single-cell loop hands G Python floats: the value, or the
    # refusal, must be the array path's, bit for bit
    rng = np.random.Generator(np.random.Philox(14))
    gammas = [0.0, 1.0, 0.5, 1e-300] + rng.uniform(0.0, 1.0, 60).tolist()
    ladders = (BO, mean_backoffs(3, 1024, 7), mean_backoffs(16, 64, 3),
               BackoffParams(1, (0.5, 2.0)))
    refused = 0
    for backoff in ladders:
        for g in gammas:
            one = _outcome(lambda: _attempt(backoff)(g))
            assert one == _outcome(
                lambda: _attempt(backoff)(np.array([g]))[0])
            refused += isinstance(one, str)
    assert refused > 10
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"^gamma = .* outside \[0, 1\]$"):
            _attempt(BO)(bad)


def test_single_cell_solve_is_the_damped_loop_on_g_bit_for_bit():
    # the lean loop against the damped iteration of the array path
    for n in range(1, 31):
        for backoff in (BO, mean_backoffs(3, 1024, 7)):
            sol = solve_single_cell(n, MP, backoff)
            attempt = _attempt(backoff)
            beta, _, it, resid = damped_fixed_point(
                lambda b: (attempt(np.array([1.0 - (1.0 - b) ** (n - 1)]))[0],
                           None),
                attempt(0.0), 1e-10, 0.5, 10000, "toy")
            assert (sol.beta, sol.iterations, sol.residual) == (
                beta, it, resid)
            assert type(sol.beta) is type(sol.residual) is float


def test_attempt_probability_rejects_degenerate_ladder():
    zero = BackoffParams(retry_limit=1, mean_backoffs=(0.0, 0.0))
    with pytest.raises(ValueError):
        _attempt(zero)(0.5)
    with pytest.raises(ValueError):
        _attempt(BO)(1.5)
    with pytest.raises(ValueError):
        _attempt(BO)(np.array([0.5, np.nan]))
    # cw_min = 2 gives a mean first backoff of half a slot: G(0) = 2
    for gamma in (0.0, np.array([0.0, 0.3])):
        with pytest.raises(ValueError, match="below one slot"):
            _attempt(mean_backoffs(2, 64, 3))(gamma)


def test_frame_times_frozen_1000_byte():
    t_s, t_c = frame_exchange_times(MP)
    # DATA = 192 us + (272 + 8000) bits / 11 Mb/s = 944 us
    assert t_s == pytest.approx(13540.0 / 11.0 * 1e-6, rel=1e-12)
    assert t_c == pytest.approx(994e-6, rel=1e-12)


def test_frame_times_formula_cross_check():
    p = MacPhyParams(slot_time=20e-6, sifs=10e-6, difs=50e-6,
                     overhead_time=100e-6, data_rate=2e6, control_rate=1e6,
                     payload_bits=4000.0, ack_bits=112.0)
    t_s, t_c = frame_exchange_times(p)
    t_data = 100e-6 + 4000.0 / 2e6
    t_ack = 100e-6 + 112.0 / 1e6
    assert t_s == pytest.approx(t_data + 10e-6 + t_ack + 50e-6, rel=1e-12)
    assert t_c == pytest.approx(t_data + 50e-6, rel=1e-12)


def test_frame_times_rts_mode():
    p = dataclasses.replace(MP, access_mode="rts-cts")
    t_s, t_c = frame_exchange_times(p)
    t_s_basic, t_c_basic = frame_exchange_times(MP)
    # a collision burns only the RTS, far less than a full data frame
    assert t_c < t_c_basic
    # success carries two extra control frames and SIFS gaps
    assert t_s > t_s_basic


def test_single_cell_matches_bisection_oracle():
    for n in (1, 2, 5, 10, 20):
        sol = solve_single_cell(n, MP, BO)
        want = oracles.solve_single_cell_bisection(n, BO)
        assert sol.beta == pytest.approx(want, abs=2e-10)
        assert sol.gamma == pytest.approx(1.0 - (1.0 - sol.beta) ** (n - 1),
                                          rel=1e-12)


def test_single_cell_frozen_regression_n10():
    sol = solve_single_cell(10, MP, BO)
    assert sol.beta == pytest.approx(0.038170711327617346, rel=1e-10)
    assert sol.gamma == pytest.approx(0.2954984080744003, rel=1e-10)
    assert sol.throughput_pkts == pytest.approx(676.1446344877047, rel=1e-10)
    p_idle, p_succ, p_coll = sol.slot_fractions
    assert p_idle + p_succ + p_coll == pytest.approx(1.0, abs=1e-14)


def test_single_cell_stays_in_python_floats():
    # numpy's array power can differ from float ** int in the last bit,
    # so the single-cell results must not pass through numpy arrays
    for n in range(1, 31):
        sol = solve_single_cell(n, MP, BO)
        assert type(sol.throughput_pkts) is float
        assert [type(p) for p in sol.slot_fractions] == [float] * 3


def test_single_node_has_no_collisions():
    sol = solve_single_cell(1, MP, BO)
    assert sol.gamma == 0.0
    assert sol.beta == pytest.approx(1.0 / 15.5, rel=1e-12)
    assert sol.iterations == 1


def test_single_cell_throughput_peaks_in_the_middle():
    # Too few nodes waste idle slots, too many waste collisions.
    thpts = [solve_single_cell(n, MP, BO).throughput_pkts
             for n in (1, 5, 50)]
    assert thpts[1] > thpts[0]
    assert thpts[1] > thpts[2]


def test_damped_fixed_point_returns_the_updated_iterate_and_last_aux():
    # x -> (x / 2 + 1, x): the fixed point is 2, and aux is the x a step saw
    seen = []

    def step(x):
        seen.append(x)
        return x / 2 + 1, x

    x, aux, it, resid = damped_fixed_point(
        step, np.array([0.0, 6.0]), 1e-3, 0.5, 100, "toy")
    last = seen[-1]
    assert it == len(seen) and aux is last
    assert resid == np.max(np.abs(last / 2 + 1 - last)) <= 1e-3
    np.testing.assert_array_equal(x, 0.5 * last + 0.5 * (last / 2 + 1))
    assert not np.array_equal(x, aux)
    with pytest.raises(ConvergenceError, match=r"^toy: residual 2\.000e\+00 "
                       r"> tol 1\.0e-03 after 1 iterations$"):
        damped_fixed_point(step, np.array([0.0, 6.0]), 1e-3, 0.5, 1, "toy")


def test_damped_fixed_point_runs_a_2d_iterate_as_independent_rows():
    # x -> x^2 undamped: starts below 1 settle at 0, the smaller the
    # sooner, a start of 2 runs away, and 0 and 1 are fixed from the start
    x0 = np.array([[0.5, 0.1], [2.0, 0.5], [0.9, 0.3], [0.0, 1.0]])
    seen = []

    def step(x, live):
        seen.append(live.copy())
        # each live row's aux: its index and the number of this step
        return x * x, np.column_stack((live, np.full(len(live), len(seen))))

    rows, aux, its, resids = damped_fixed_point(step, x0, 1e-9, 1.0, 9, "toy")
    # one array holds every row's aux, by row index
    assert aux.shape == (4, 2)
    for r, start in enumerate(x0):
        # each row's aux is from the step at which it stopped
        assert aux[r].tolist() == [r, its[r]]
        try:
            want, _, it, resid = damped_fixed_point(
                lambda x: (x * x, None), start, 1e-9, 1.0, 9, "toy")
        except ConvergenceError:
            assert r == 1 and its[r] == 9 and not resids[r] <= 1e-9
            np.testing.assert_array_equal(rows[r], [2.0 ** 512, 0.5 ** 512])
            continue
        assert rows[r].tobytes() == want.tobytes()
        assert (its[r], resids[r]) == (it, resid)
    assert list(its) == [6, 9, 9, 1]
    # each iteration steps only the rows still running, and names them
    assert [list(live) for live in seen] == [
        list(np.flatnonzero(its >= k)) for k in range(1, 10)]
    # a row that must settle and does not raises as its 1-D solve does;
    # rows that settle pass the same check
    with pytest.raises(ConvergenceError) as one_d:
        damped_fixed_point(lambda x: (x * x, None), x0[1], 1e-9, 1.0, 9, "toy")
    with pytest.raises(ConvergenceError) as batched:
        damped_fixed_point(step, x0, 1e-9, 1.0, 9, "toy",
                           np.array([True, True, False, False]))
    assert str(batched.value) == str(one_d.value)
    damped_fixed_point(step, x0, 1e-9, 1.0, 9, "toy",
                       np.array([True, False, True, True]))


def test_single_cell_validation():
    with pytest.raises(ValueError):
        solve_single_cell(0, MP, BO)


def test_negative_mean_backoff_is_refused():
    with pytest.raises(ValueError, match="^mean backoffs must be >= 0$"):
        BackoffParams(retry_limit=1, mean_backoffs=(15.5, -1.0))


@pytest.mark.parametrize("name, make", [
    ("node_count", lambda: solve_single_cell(2.5, MP, BO)),
    ("cw_min", lambda: mean_backoffs(32.5, 1024, 7)),
    ("cw_max", lambda: mean_backoffs(32, 1024.5, 7)),
    ("retry_limit", lambda: mean_backoffs(32, 1024, 1.5)),
    ("retry_limit", lambda: BackoffParams(retry_limit=1.5,
                                          mean_backoffs=(15.5, 31.5))),
    ("retry_limit", lambda: BackoffParams(retry_limit=True,
                                          mean_backoffs=(15.5, 31.5)))],
    ids=["node_count", "cw_min", "cw_max", "mean_backoffs-retry_limit",
         "retry_limit", "bool-retry_limit"])
def test_setting_that_is_not_a_whole_number_is_named(name, make):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        make()


def test_mac_phy_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(MP, access_mode="polling")
    with pytest.raises(ValueError):
        dataclasses.replace(MP, slot_time=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(MP, payload_bits=-1.0)


@pytest.mark.parametrize("field", [
    f.name for f in dataclasses.fields(MacPhyParams) if f.name != "access_mode"])
def test_mac_phy_rejects_non_finite(field):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(MP, **{field: bad})


def test_backoff_rejects_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mean_backoffs must be finite"):
            BackoffParams(retry_limit=1, mean_backoffs=(15.5, bad))


def test_with_payload_changes_only_payload():
    p = MP.with_payload(800.0)
    assert p.payload_bits == 800.0
    assert dataclasses.replace(p, payload_bits=MP.payload_bits) == MP


def test_presets():
    assert sorted(MAC_PHY_PRESETS) == ["dot11b-11mbps"]
    assert backoff_preset("dot11b") == BO
    with pytest.raises(KeyError, match=r"unknown MAC/PHY preset 'dot11g'; "
                                       r"have \['dot11b-11mbps'\]"):
        mac_phy_preset("dot11g", 8000.0)
    with pytest.raises(KeyError, match=r"unknown backoff preset 'dot11g'; "
                                       r"have \['dot11b', 'dot11b-11mbps'\]"):
        backoff_preset("dot11g")
