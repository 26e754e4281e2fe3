import math
import os
import random
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from magflow import (
    DomainError,
    PhaseState,
    StepFailure,
    build_solution,
    complete_K,
    conservation_report,
    eval_solution,
    integrate,
    state_from_integrals,
)
from magflow import _dop853
from magflow.dynamics import rhs
from tests.oracles import NoReturnFound, find_return, measure_period

# the module, which the package's integrate function shadows as an attribute
integrate_module = sys.modules["magflow.integrate"]

HALF_PI = 0.5 * math.pi
ROOT = Path(__file__).resolve().parent.parent


def test_vertical_line_is_exact():
    # x = pi/2, ydot = sqrt(2E): both accelerations vanish identically
    ev = find_return(PhaseState(HALF_PI, 0.0, 0.0, 1.0), t_end=10.0)
    traj = ev.trajectory
    ts = np.linspace(0.0, 10.0, 101)
    x, y, xd, yd = traj.eval(ts)
    assert np.max(np.abs(x - HALF_PI)) < 1e-12
    assert np.max(np.abs(y - ts)) < 1e-12
    dE, dp = conservation_report(traj)
    assert dE < 1e-12 and dp < 1e-12
    assert ev.turning_times == ev.return_times == ()


def test_fixed_point_is_constant():
    traj = integrate(PhaseState(0.7, -0.3, 0.0, 0.0), 5.0, 1e-11)
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0
    assert conservation_report(traj) == (0.0, 0.0)
    on_grid = np.array(traj.eval(np.linspace(0.0, 5.0, 11))).T
    assert np.max(np.abs(on_grid - traj.states[0])) == 0.0


def test_returns_to_start_after_one_period():
    T = 4.0 * complete_K(0.5)
    s0 = PhaseState(0.0, 0.0, 0.5, 0.0)
    traj = integrate(s0, T, 1e-11)
    sf = traj.final_state
    assert math.sin(sf.x) == pytest.approx(0.0, abs=1e-6)
    assert sf.xdot == pytest.approx(0.5, abs=1e-6)
    assert sf.ydot == pytest.approx(0.0, abs=1e-6)


def test_conservation_generic_orbit():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.0, 1)
    traj = integrate(s0, 100.0, 1e-11)
    dE, dp = conservation_report(traj)
    assert dE < 1e-9 and dp < 1e-9


def test_tol_domain():
    s0 = PhaseState(0.0, 0.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        integrate(s0, 1.0, 1e-14)
    with pytest.raises(DomainError):
        integrate(s0, 1.0, 1e-2)
    with pytest.raises(DomainError):
        integrate(s0, 0.0, 1e-11)


def test_turning_events_at_quarter_periods():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    T = sol.x_period
    ev = find_return(PhaseState(0.0, 0.0, 0.5, 0.0), t_end=2.0 * T)
    assert len(ev.turning_times) >= 2
    assert ev.turning_times[0] == pytest.approx(T / 4.0, abs=1e-9)
    assert ev.turning_times[1] == pytest.approx(3.0 * T / 4.0, abs=1e-9)


def test_measured_period_matches_closed_form():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    T = measure_period(PhaseState(0.0, 0.0, 0.5, 0.0), t_end=20.0)
    assert T == pytest.approx(sol.x_period, abs=1e-9)


def test_measured_y_increment_negative_for_positive_p():
    # trapped oval at p > 0 drifts downward in y each cycle
    s0 = state_from_integrals(math.asin(0.3), 0.0, 0.125, 0.3, 1)
    ev = find_return(s0, t_end=40.0)
    assert ev.return_times
    t1 = ev.return_times[0]
    st = ev.trajectory.eval(t1)
    assert st.y - s0.y < -1e-3


def test_no_return_on_vertical_line():
    with pytest.raises(NoReturnFound):
        measure_period(PhaseState(HALF_PI, 0.0, 0.0, 1.0), t_end=10.0)


def test_self_convergence_ladder():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.0, 1)
    ts = np.linspace(0.0, 20.0, 200)
    ref = np.array(integrate(s0, 20.0, 1e-13).eval(ts))
    errs = []
    for tol in (1e-5, 1e-7, 1e-9, 1e-11):
        got = np.array(integrate(s0, 20.0, tol).eval(ts))
        errs.append(np.max(np.abs(got - ref)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_time_reversal():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.2, 1)
    tol, T = 1e-9, 20.0
    fwd = integrate(s0, T, tol)
    # one-way accuracy estimated against a much tighter run
    tight = integrate(s0, T, 1e-13)
    one_way = np.max(np.abs(fwd.final_state.as_array() - tight.final_state.as_array()))
    back = integrate(fwd.final_state, -T, tol)
    round_trip = np.max(np.abs(back.final_state.as_array() - s0.as_array()))
    assert round_trip <= 10.0 * max(one_way, 1e-14)


def test_drift_scales_with_tolerance():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.2, 1)
    drift = {}
    for tol in (1e-7, 1e-9):
        dE, _ = conservation_report(integrate(s0, 100.0, tol))
        drift[tol] = dE
    assert drift[1e-7] / drift[1e-9] > 10.0


def test_samples_accessors():
    traj = integrate(PhaseState(0.0, 0.0, 0.5, 0.0), 3.0, 1e-9)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.initial_state.xdot == 0.5
    assert traj.circuit_span == pytest.approx((0.0, 3.0))
    assert traj.n_steps == len(traj.t) - 1 > 0
    assert traj.nfev > traj.n_steps
    x, _, _, _ = traj.eval(np.linspace(0.0, 3.0, 7))
    assert x[0] == 0.0 and x[-1] == pytest.approx(traj.final_state.x, abs=1e-15)


# a trapped, asymmetric oval: turning roots 0.3 -+ 0.5
OVAL = state_from_integrals(0.0, 0.0, 0.125, 0.3, 1)


def test_oracle_work_over_twenty_time_units():
    # DOP853 takes about 1770 right-hand-side calls here; RK45 took about 4680
    assert integrate(OVAL, 20.0, 1e-11).nfev < 2500


def test_oracle_matches_closed_form_on_an_oval():
    ts = np.linspace(0.0, 20.0, 201)
    xc, yc, _, _ = eval_solution(build_solution(0.0, 0.0, 0.125, 0.3, 1), ts)
    xn, yn, _, _ = integrate(OVAL, 20.0, 1e-11).eval(ts)
    assert np.max(np.abs(np.sin(xc) - np.sin(xn))) < 2e-11
    assert np.max(np.abs(yc - yn)) < 3e-11


@pytest.mark.parametrize("orbit", ["closed form", "trajectory"])
def test_eval_gives_each_row_the_shape_of_the_times(orbit):
    # either orbit type takes times of any shape: a (2, 3) grid gives rows
    # of shape (2, 3) equal to the flat call bit for bit, and an empty array
    # empty rows
    if orbit == "closed form":
        sol = build_solution(0.0, 0.0, 0.125, 0.3, 1)
    else:
        sol = integrate(OVAL, 5.0, 1e-9)
    grid = np.linspace(-1.0, 6.0, 6).reshape(2, 3)
    flat = sol.eval(grid.ravel())
    rows = sol.eval(grid)
    assert len(rows) == 4
    for row, want in zip(rows, flat):
        assert row.shape == (2, 3)
        assert np.array_equal(row.ravel().view(np.uint64), want.view(np.uint64))
    for times in (np.zeros(0), np.zeros((2, 0))):
        assert [row.shape for row in sol.eval(times)] == [times.shape] * 4


def test_samples_are_the_solver_step_values(monkeypatch):
    # the states come from the solver's steps; the interpolant is not re-run
    calls = []
    interpolate = integrate_module._interpolate

    def counted(F, x, y_old):
        calls.append(np.size(x))
        return interpolate(F, x, y_old)

    monkeypatch.setattr(integrate_module, "_interpolate", counted)
    traj = integrate(OVAL, 5.0, 1e-11)
    assert calls == []
    assert traj.states.shape == (traj.n_steps + 1, 4)
    traj.eval(1.0)
    assert calls == [1]


# ---------------------------------------------------------------------------
# the step loop against scipy's solve_ivp, the algorithm it runs


def _dense(rows, width):
    """The sparse (index, coefficient) rows of _dop853 as a dense matrix."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, j] = a
    return out


def test_tableau_is_scipys_bit_for_bit():
    ours = {
        "A": _dense(_dop853.A, 12),
        "B": _dense([_dop853.B], 12)[0],
        "C": np.array(_dop853.C),
        "E3": _dense([_dop853.E3], 13)[0],
        "E5": _dense([_dop853.E5], 13)[0],
        "D": _dense(_dop853.D, 16),
        "A_EXTRA": _dense(_dop853.A_EXTRA, 16),
        "C_EXTRA": np.array(_dop853.C_EXTRA),
    }
    for name, mine in ours.items():
        ref = np.asarray(getattr(DOP853, name), dtype=float)
        assert mine.shape == ref.shape, name
        assert mine.tobytes() == ref.tobytes(), name


def _reference(state, t_end, tol, events=None):
    """solve_ivp with the settings integrate promises to reproduce."""
    return solve_ivp(lambda t, y: rhs(t, y.tolist()), (0.0, t_end), state.as_array(),
                     method="DOP853", rtol=tol, atol=tol * 1e-2, dense_output=True,
                     events=events)


# (x0, E, p, sign of xdot, t_end), away from every separatrix
REFERENCE_LEVELS = {
    "trapped": (0.0, 0.125, 0.3, 1, 20.0),
    "crossing": (-0.5, 0.8, -0.5, -1, 20.0),
    "winding": (0.0, 1.5, 0.2, 1, 20.0),
    "p0": (0.3, 1.2, 0.0, -1, 20.0),
    "backward": (0.1, 0.3, 0.2, 1, -20.0),
}


@pytest.mark.parametrize("name, tol", [
    (name, tol) for name in ("trapped", "crossing", "winding", "p0")
    for tol in (1e-9, 1e-11, 1e-13)] + [("backward", 1e-11)])
def test_steps_and_values_match_solve_ivp(name, tol):
    x0, E, p, sign, t_end = REFERENCE_LEVELS[name]
    s0 = state_from_integrals(x0, 0.0, E, p, sign)
    traj = integrate(s0, t_end, tol)
    ref = _reference(s0, t_end, tol)
    assert traj.n_steps == len(ref.t) - 1
    assert traj.nfev == ref.nfev
    assert traj.t[-1] == ref.t[-1] == t_end
    # the same number of steps, but not at the same times: each step's error
    # estimate is a sum that cancels to rounding noise, which BLAS adds in
    # its own order, so the step ends move (by up to 1.2e-3 here) and only
    # the final state and eval at common times are compared
    assert np.max(np.abs(traj.final_state.as_array() - ref.y[:, -1])) < 1e-10
    grid = np.linspace(0.0, t_end, 1001)
    assert np.max(np.abs(np.array(traj.eval(grid)) - ref.sol(grid))) < 1e-10


@pytest.mark.parametrize("name", ["trapped", "crossing", "winding"])
def test_events_match_solve_ivp(name):
    x0, E, p, sign, _ = REFERENCE_LEVELS[name]
    s0 = state_from_integrals(x0, 0.0, E, p, sign)
    ev = find_return(s0, t_end=40.0)
    sin_x0 = math.sin(x0)
    ref = _reference(s0, 40.0, 1e-11, events=[lambda t, y: y[2],
                                               lambda t, y: math.sin(y[0]) - sin_x0])
    turning, crossings = ([t for t in times if abs(t) > 1e-9] for times in ref.t_events)
    returns = [t for t in crossings if np.sign(ref.sol(t)[2]) == np.sign(s0.xdot)]
    assert len(ev.turning_times) == len(turning)
    assert len(ev.return_times) == len(returns) > 0
    for got, want in ((ev.turning_times, turning), (ev.return_times, returns)):
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) < 1e-12


def test_overflowing_error_estimate_ends_like_solve_ivp():
    # xdot = 1.4e150: the first error norms overflow to inf and nan, which
    # numpy carries on with; the float loop must neither raise nor stall.
    # Each error estimate here cancels to pure rounding noise, so the step
    # count can move by a step or so from scipy's BLAS summation order.
    s0 = state_from_integrals(0.0, 0.0, 1e300, 0.0, 1)
    traj = integrate(s0, 1e-148)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = _reference(s0, 1e-148, 1e-11)
    assert ref.status == 0
    assert traj.t[-1] == ref.t[-1] == 1e-148
    assert abs(traj.n_steps - (len(ref.t) - 1)) <= 0.01 * (len(ref.t) - 1)
    assert np.all(np.isfinite(traj.states))
    assert np.allclose(traj.final_state.as_array(), ref.y[:, -1], rtol=1e-6, atol=0.0)


def test_step_size_underflow_is_a_step_failure():
    # the error norm is nan at every step size: solve_ivp gives up after one
    # attempt with status -1, and so does integrate
    s0 = PhaseState(0.0, 0.0, 1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = _reference(s0, 1e-100, 1e-11)
    assert ref.status == -1
    with pytest.raises(StepFailure):
        integrate(s0, 1e-100)


def test_with_events_accepts_only_false():
    # the benchmark passes with_events=False; events are found in the tests
    ref = integrate(OVAL, 5.0)
    traj = integrate(OVAL, 5.0, with_events=False)
    assert traj.t.tobytes() == ref.t.tobytes() and traj.F.tobytes() == ref.F.tobytes()
    with pytest.raises(DomainError, match="tests/oracles.py"):
        integrate(OVAL, 5.0, with_events=True)


def test_non_finite_start_is_a_domain_error():
    with pytest.raises(DomainError):
        integrate(PhaseState(0.0, 0.0, math.inf, 0.0), 1.0)
    with pytest.raises(DomainError):
        integrate(PhaseState(0.0, 0.0, 1.0, 0.0), math.nan)


def test_step_budget_ends_the_run(monkeypatch):
    n = integrate(OVAL, 20.0).n_steps
    monkeypatch.setattr(integrate_module, "MAX_STEPS", n)
    assert integrate(OVAL, 20.0).n_steps == n
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 10)
    with pytest.raises(StepFailure) as exc:
        integrate(OVAL, 20.0)
    assert 0.0 < exc.value.t < 20.0
    assert str(exc.value) == f"step budget exhausted: 10 accepted steps reached t = " \
                             f"{exc.value.t:.17g} of t_end = 20"


# ---------------------------------------------------------------------------
# the generated step kernel against the loop over the tableau rows it unrolls


def _row_sum(row, K):
    """sum_j a_j K[j] over one row's (j, a_j) pairs, per component, added in
    the row's order from 0.0: the loop the kernel writes out."""
    s0 = s1 = s2 = s3 = 0.0
    for j, a in row:
        k0, k1, k2, k3 = K[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return s0, s1, s2, s3


def _stage_arg(row, c, K, t, y, h):
    """(t, y) at which the loop evaluates a stage."""
    s = _row_sum(row, K)
    return t + c * h, tuple(yi + si * h for yi, si in zip(y, s))


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308, math.inf, -math.inf,
                  math.nan)


def _draw(rng, p_special):
    if rng.random() < p_special:
        return rng.choice(SPECIAL_FLOATS)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 4.0)


def _error_sums(err5, err3, y, y_new, rtol, atol):
    """The sums of squares of the E5 and E3 sums over their scales, as
    scipy's error norm forms them: the loop the kernel writes out."""
    ss5 = ss3 = 0.0
    for e5, e3, a, b in zip(err5, err3, y, y_new):
        a, b = abs(a), abs(b)
        big = a if a >= b else b if b > a else math.nan  # np.maximum: nan wins
        scale = atol + big * rtol
        e5, e3 = e5 / scale, e3 / scale
        ss5 += e5 * e5
        ss3 += e3 * e3
    return ss5, ss3


def _reference_step(t, y, k0, h, rtol, atol):
    """The kernel's returns as the loop over the tableau rows forms them,
    each stage from dynamics.rhs at its stage argument."""
    K = [k0]
    for j in range(1, 12):
        K.append(rhs(*_stage_arg(_dop853.A[j], _dop853.C[j], K, t, y, h)))
    y_new = tuple(yi + h * w for yi, w in zip(y, _row_sum(_dop853.B, K)))
    K.append(rhs(t + h, y_new))
    ss5, ss3 = _error_sums(_row_sum(_dop853.E5, K), _row_sum(_dop853.E3, K), y, y_new,
                           rtol, atol)
    return y_new, K[12], ss5, ss3, tuple(v for k in K for v in k)


def _kept(stages):
    """The components of the stages of KEPT_STAGES among the 52 of all 13."""
    return tuple(v for j in integrate_module.KEPT_STAGES for v in stages[4 * j:4 * j + 4])


def _returns_bits(returns):
    """The bits of the kernel's returns: y_new, f_new, the two sums of
    squares and the components of the kept stages."""
    y_new, f_new, ss5, ss3, stages = returns
    return _bits((*y_new, *f_new, ss5, ss3, *stages))


def test_kept_stages_are_those_the_interpolant_reads():
    # stages 0 and 12 are f0 and f_new; the extra stages and the dense
    # output read the others below 13, so a tableau that reads one more
    # keeps it
    read = np.flatnonzero(np.any(_dense(_dop853.A_EXTRA, 16)[:, :13] != 0.0, axis=0)
                          | np.any(_dense(_dop853.D, 16)[:, :13] != 0.0, axis=0))
    assert integrate_module.KEPT_STAGES == tuple(sorted({0, 12, *read.tolist()}))
    assert integrate_module.KEPT_STAGES == (0, 5, 6, 7, 8, 9, 10, 11, 12)


def test_kernel_sums_are_the_row_sums_bit_for_bit():
    # the kernel writes the flow into each stage: every stage must equal
    # dynamics.rhs at the in-order row sums, and y_new and the scaled sums
    # of squares must equal the loops over the rows in every bit, also with
    # signed zeros, subnormals, infinities and NaN in y, k0 and the step; a
    # stage argument of +-inf raises math.cos's ValueError on both sides.
    # The kernel returns the kept stages, each equal to its reference stage.
    # The block pass gets the same draws as kept stages: each of its 3 extra
    # stages must equal dynamics.rhs at the in-order row sums, and each
    # interpolant row the in-order row sums, in every bit; an extra-stage
    # argument of +-inf raises the same ValueError on both sides
    rng = random.Random(20261019)
    step = integrate_module._kernel()
    raised = raised_rows = 0
    for trial in range(300):
        p_special = (0.0, 0.02, 0.2)[trial % 3]
        K = [tuple(_draw(rng, p_special) for _ in range(4)) for _ in range(16)]
        y = tuple(_draw(rng, p_special) for _ in range(4))
        t = rng.uniform(-50.0, 50.0)
        # the step the loop takes: the difference of the step ends
        t_new = t + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8, 0)
        h = t_new - t
        rtol = 10.0 ** rng.uniform(-13.0, -3.0)
        try:
            want = _reference_step(t, y, K[0], h, rtol, rtol * 1e-2)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                step(y, K[0], h, rtol, rtol * 1e-2)
            assert str(got.value) == str(exc), trial
            raised += 1
        else:
            got = step(y, K[0], h, rtol, rtol * 1e-2)
            assert _returns_bits(got) == _returns_bits((*want[:4], _kept(want[4]))), trial

        y_new = tuple(yi + h * w for yi, w in zip(y, _row_sum(_dop853.B, K)))
        K = K[:13]
        kept = [K[j] for j in integrate_module.KEPT_STAGES]
        block = (np.array([t, t_new]), np.array([y, y_new]), np.array(kept).reshape(1, -1, 4))
        try:
            for row, c in zip(_dop853.A_EXTRA, _dop853.C_EXTRA):
                K.append(rhs(*_stage_arg(row, c, K, t, y, h)))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                integrate_module._interpolant_rows(*block)
            assert str(got.value) == str(exc), trial
            raised_rows += 1
            continue
        with np.errstate(all="ignore"):
            S = integrate_module._stages(np.array([[h]]), block[1][:1], block[2])
        assert _bits(S[len(kept):, 0].ravel().tolist()) == _bits(np.ravel(K[13:]).tolist()), trial
        F = integrate_module._interpolant_rows(*block)
        assert _bits(F[0].ravel().tolist()) == _bits(_rows(K, y, y_new, h)), trial
    # both branches ran on each side, most trials through the bitwise
    # comparison
    assert 0 < raised < 100 and 0 < raised_rows < 100


def _rows(K, y, y_new, h):
    """The 7 interpolant rows of a step with the 16 stages K, flattened:
    Dop853DenseOutput's rows from the step ends, then the D row sums."""
    f, f_new = K[0], K[12]
    dy = [b - a for a, b in zip(y, y_new)]
    return [*dy,
            *(h * fo - d for fo, d in zip(f, dy)),
            *(2.0 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f)),
            *(h * v for row in _dop853.D for v in _row_sum(row, K))]


def test_interpolant_rows_across_blocks_are_the_row_sums():
    # (x0, E, p) = (0, 1e6, 0) over t = 1: 3858 steps, more than 3 blocks;
    # each step re-run from its (t, y, f, h) by the kernel and by the loop
    # over the rows, which forms all 13 stages, and its rows summed in order
    traj = integrate(state_from_integrals(0.0, 0.0, 1e6, 0.0, 1), 1.0)
    assert traj.n_steps > 3 * integrate_module.BLOCK_STEPS
    step = integrate_module._kernel()
    t, y = traj.t.tolist(), [tuple(s) for s in traj.states.tolist()]
    want = []
    for i in range(traj.n_steps):
        h = t[i + 1] - t[i]
        f = rhs(t[i], y[i])
        y_new, _, _, _, stages = _reference_step(t[i], y[i], f, h, 1e-11, 1e-13)
        assert _bits(y_new) == _bits(y[i + 1])
        got = step(y[i], f, h, 1e-11, 1e-13)
        assert _bits((*got[0], *got[4])) == _bits((*y_new, *_kept(stages)))
        K = [stages[4 * j:4 * j + 4] for j in range(13)]
        for row, c in zip(_dop853.A_EXTRA, _dop853.C_EXTRA):
            K.append(rhs(*_stage_arg(row, c, K, t[i], y[i], h)))
        want += _rows(K, y[i], y_new, h)
    assert traj.F.shape == (traj.n_steps, 7, 4)
    assert traj.F.tobytes() == _bits(want)


KERNEL_PROBE = """
import sys
import magflow
kernel = sys.modules["magflow.integrate"]._kernel
magflow.classify(0.125, 0.3)
print(kernel.cache_info().currsize)
magflow.integrate(magflow.PhaseState(0.0, 0.0, 0.5, 0.0), 1.0)
print(kernel.cache_info().currsize)
"""


def test_kernel_is_built_on_the_first_integration():
    res = subprocess.run([sys.executable, "-c", KERNEL_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
                         timeout=120)
    assert res.stdout.split() == ["0", "1"]
