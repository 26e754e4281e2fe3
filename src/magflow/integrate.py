"""Direct adaptive integration of the flow, the oracle for every closed form.

A Dormand-Prince 5(4) embedded pair (scipy's RK45) with dense output does
the work; conservation of (E, p) is monitored, never enforced.  Events are
localized on the dense-output polynomial by root bracketing, which is what
makes period and y-increment measurements good to ~1e-10 in t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import PhaseState, energy, momentum, rhs
from .errors import DomainError, NoReturnFound, StepFailure

TOL_MIN, TOL_MAX = 1e-13, 1e-3

_EVENT_KINDS = ("x-turning", "x-return", "y-wrap")


@dataclass
class Trajectory:
    """Samples of one integrated orbit plus its dense interpolant."""

    t: np.ndarray                  # strictly increasing sample times
    states: np.ndarray             # shape (n, 4): x, y, xdot, ydot
    tol: float
    events: list[tuple[float, str]] = field(default_factory=list)
    dense: object | None = None    # scipy OdeSolution

    @property
    def initial_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[0])

    @property
    def final_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[-1])

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def eval(self, t):
        """Dense-output evaluation; scalar t gives a PhaseState."""
        if self.dense is None:
            raise DomainError("trajectory carries no dense output")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        vals = self.dense(t_arr)
        if np.ndim(t) == 0:
            return PhaseState.from_array(vals[:, 0])
        return vals[0], vals[1], vals[2], vals[3]


def _check_tol(tol: float) -> float:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return float(tol)


def integrate(
    state0: PhaseState,
    t_end: float,
    tol: float = 1e-11,
    grid: int | np.ndarray | None = None,
    with_events: bool = True,
) -> Trajectory:
    """Integrate the flow from state0 over [0, t_end].

    tol maps to (rtol=tol, atol=tol/100).  Sample times are the adaptive
    controller's steps merged with the requested uniform grid (an int means
    that many equally spaced points).  t_end < 0 integrates backwards.
    """
    tol = _check_tol(tol)
    if t_end == 0.0:
        raise DomainError("t_end must be nonzero")
    y0 = state0.as_array()
    x0_sin = np.sin(state0.x)
    y0_val = state0.y

    def ev_turning(t, y):
        return y[2]

    def ev_return(t, y):
        return np.sin(y[0]) - x0_sin

    def ev_ywrap(t, y):
        return np.sin(0.5 * (y[1] - y0_val))

    events = None
    kinds: tuple[str, ...] = ()
    if with_events:
        # on vertical-line orbits x is frozen and the x-event functions are
        # identically zero; registering them would fire on every step
        x_frozen = (abs(state0.xdot) < 1e-13
                    and abs(np.cos(state0.x) * state0.ydot) < 1e-13)
        fixed_point = x_frozen and abs(state0.ydot) < 1e-13
        if fixed_point:
            events, kinds = [], ()
        elif x_frozen:
            events, kinds = [ev_ywrap], ("y-wrap",)
        else:
            events = [ev_turning, ev_return, ev_ywrap]
            kinds = _EVENT_KINDS
    sol = solve_ivp(
        rhs, (0.0, t_end), y0, method="RK45",
        rtol=tol, atol=tol * 1e-2,
        dense_output=True, events=events,
    )
    if sol.status == -1:
        raise StepFailure(sol.message, t=float(sol.t[-1]) if len(sol.t) else 0.0)

    ts = sol.t
    if grid is not None:
        g = np.linspace(0.0, t_end, int(grid)) if np.ndim(grid) == 0 else np.asarray(grid, float)
        ts = np.union1d(ts, g)
        if t_end < 0:
            ts = ts[::-1]
    states = sol.sol(ts).T

    ev_list: list[tuple[float, str]] = []
    if with_events and sol.t_events is not None:
        for kind, times in zip(kinds, sol.t_events):
            for te in times:
                if abs(te) > 1e-9:  # drop the trivial event at t = 0
                    ev_list.append((float(te), kind))
        ev_list.sort()
    return Trajectory(t=ts, states=states, tol=tol, events=ev_list, dense=sol.sol)


def conservation_report(traj: Trajectory) -> tuple[float, float]:
    """Maximal drifts (max|dE|, max|dp|) over all samples."""
    if len(traj.t) == 0:
        raise DomainError("empty trajectory")
    E = energy(traj.states)
    p = momentum(traj.states)
    return float(np.abs(E - E[0]).max()), float(np.abs(p - p[0]).max())


@dataclass(frozen=True)
class ReturnEvents:
    """Localized event times of one orbit."""

    turning_times: tuple[float, ...]   # xdot = 0 crossings
    return_times: tuple[float, ...]    # sin x back to sin x0 with matching xdot sign
    trajectory: Trajectory


def find_return(
    state0: PhaseState, t_end: float = 200.0, tol: float = 1e-11
) -> ReturnEvents:
    """Locate xdot = 0 crossings and same-direction returns of sin x."""
    traj = integrate(state0, t_end, tol)
    turning = tuple(t for t, kind in traj.events if kind == "x-turning")
    sign0 = np.sign(state0.xdot)
    returns = []
    for t, kind in traj.events:
        if kind != "x-return":
            continue
        st = traj.eval(t)
        if sign0 == 0.0 or np.sign(st.xdot) == sign0:
            returns.append(t)
    return ReturnEvents(tuple(turning), tuple(returns), traj)


def measure_period(
    state0: PhaseState, t_end: float = 200.0, tol: float = 1e-11
) -> float:
    """Time of the first same-direction return of sin x (the sin-x period)."""
    ev = find_return(state0, t_end, tol)
    if not ev.return_times:
        raise NoReturnFound(
            f"no matching return of sin x within t_end = {t_end}"
        )
    return ev.return_times[0]
