import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution

from magflow import (
    DomainError,
    NoReturnFound,
    PhaseState,
    build_solution,
    complete_K,
    conservation_report,
    eval_solution,
    find_return,
    integrate,
    measure_period,
    state_from_integrals,
)

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
    dense_call = OdeSolution.__call__

    def counted(self, t):
        calls.append(np.size(t))
        return dense_call(self, t)

    monkeypatch.setattr(OdeSolution, "__call__", counted)
    traj = integrate(OVAL, 5.0, 1e-11, with_events=False)
    assert calls == []
    assert traj.states.shape == (traj.n_steps + 1, 4)
    traj.eval(1.0)
    assert calls == [1]
