import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from magflow import (
    DomainError,
    NoReturnFound,
    PhaseState,
    StepFailure,
    build_solution,
    complete_K,
    conservation_report,
    eval_solution,
    find_return,
    integrate,
    measure_period,
    state_from_integrals,
)
from magflow import _dop853
from magflow.dynamics import rhs

# the module, which the package's integrate function shadows as an attribute
integrate_module = sys.modules["magflow.integrate"]

HALF_PI = 0.5 * math.pi


def test_vertical_line_is_exact():
    # x = pi/2, ydot = sqrt(2E): both accelerations vanish identically
    traj = integrate(PhaseState(HALF_PI, 0.0, 0.0, 1.0), 10.0, 1e-11)
    ts = np.linspace(0.0, 10.0, 101)
    x, y, xd, yd = traj.eval(ts)
    assert np.max(np.abs(x - HALF_PI)) < 1e-12
    assert np.max(np.abs(y - ts)) < 1e-12
    dE, dp = conservation_report(traj)
    assert dE < 1e-12 and dp < 1e-12
    assert all(kind != "x-turning" for _, kind in traj.events)


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
    ref = np.array(integrate(s0, 20.0, 1e-13, with_events=False).eval(ts))
    errs = []
    for tol in (1e-5, 1e-7, 1e-9, 1e-11):
        got = np.array(integrate(s0, 20.0, tol, with_events=False).eval(ts))
        errs.append(np.max(np.abs(got - ref)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_time_reversal():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.2, 1)
    tol, T = 1e-9, 20.0
    fwd = integrate(s0, T, tol, with_events=False)
    # one-way accuracy estimated against a much tighter run
    tight = integrate(s0, T, 1e-13, with_events=False)
    one_way = np.max(np.abs(fwd.final_state.as_array() - tight.final_state.as_array()))
    back = integrate(fwd.final_state, -T, tol, with_events=False)
    round_trip = np.max(np.abs(back.final_state.as_array() - s0.as_array()))
    assert round_trip <= 10.0 * max(one_way, 1e-14)


def test_drift_scales_with_tolerance():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.2, 1)
    drift = {}
    for tol in (1e-7, 1e-9):
        dE, _ = conservation_report(integrate(s0, 100.0, tol, with_events=False))
        drift[tol] = dE
    assert drift[1e-7] / drift[1e-9] > 10.0


def test_samples_accessors():
    traj = integrate(PhaseState(0.0, 0.0, 0.5, 0.0), 3.0, 1e-9)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.initial_state.xdot == 0.5
    assert traj.duration == pytest.approx(3.0)
    assert traj.n_steps == len(traj.t) - 1 > 0
    assert traj.nfev > traj.n_steps
    x, _, _, _ = traj.eval(np.linspace(0.0, 3.0, 7))
    assert x[0] == 0.0 and x[-1] == pytest.approx(traj.final_state.x, abs=1e-15)


# a trapped, asymmetric oval: turning roots 0.3 -+ 0.5
OVAL = state_from_integrals(0.0, 0.0, 0.125, 0.3, 1)


def test_oracle_work_over_twenty_time_units():
    # DOP853 takes about 1770 right-hand-side calls here; RK45 took about 4680
    assert integrate(OVAL, 20.0, 1e-11, with_events=False).nfev < 2500


def test_oracle_matches_closed_form_on_an_oval():
    ts = np.linspace(0.0, 20.0, 201)
    xc, yc, _, _ = eval_solution(build_solution(0.0, 0.0, 0.125, 0.3, 1), ts)
    xn, yn, _, _ = integrate(OVAL, 20.0, 1e-11, with_events=False).eval(ts)
    assert np.max(np.abs(np.sin(xc) - np.sin(xn))) < 2e-11
    assert np.max(np.abs(yc - yn)) < 3e-11


def test_samples_are_the_solver_step_values(monkeypatch):
    # the states come from the solver's steps; the interpolant is not re-run
    calls = []
    interpolate = integrate_module._interpolate

    def counted(F, x, y_old):
        calls.append(np.size(x))
        return interpolate(F, x, y_old)

    monkeypatch.setattr(integrate_module, "_interpolate", counted)
    traj = integrate(OVAL, 5.0, 1e-11, with_events=False)
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
    traj = integrate(s0, t_end, tol, with_events=False)
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
    traj = integrate(s0, 1e-148, with_events=False)
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
        integrate(s0, 1e-100, with_events=False)


def test_non_finite_start_is_a_domain_error():
    with pytest.raises(DomainError):
        integrate(PhaseState(0.0, 0.0, math.inf, 0.0), 1.0)
    with pytest.raises(DomainError):
        integrate(PhaseState(0.0, 0.0, 1.0, 0.0), math.nan)
