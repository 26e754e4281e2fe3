"""Direct adaptive integration of the flow, the oracle for every closed form.

The Dormand-Prince 8(5,3) pair (scipy's DOP853; Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, section II.10) with its 7th-order
dense output does the work; conservation of (E, p) is monitored, never
enforced.  Events are localized on the dense-output polynomial by root
bracketing, which is what makes period and y-increment measurements good to
~1e-10 in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PhaseState, energy, momentum, rhs
from .errors import DomainError, NoReturnFound, StepFailure

TOL_MIN, TOL_MAX = 1e-13, 1e-3

_EVENT_KINDS = ("x-turning", "x-return")


@dataclass
class Trajectory:
    """The accepted steps of one integrated orbit plus its dense interpolant."""

    t: np.ndarray                  # step times, monotone in the direction of t_end
    states: np.ndarray             # shape (n, 4): x, y, xdot, ydot
    tol: float
    events: list[tuple[float, str]] = field(default_factory=list)
    dense: object | None = None    # scipy OdeSolution
    nfev: int = 0                  # right-hand-side evaluations
    n_steps: int = 0               # accepted steps

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
    with_events: bool = True,
) -> Trajectory:
    """Integrate the flow from state0 over [0, t_end].

    tol maps to (rtol=tol, atol=tol/100).  The samples are the solver's own
    values at its accepted steps; Trajectory.eval gives any other time.
    t_end < 0 integrates backwards.
    """
    # imported here so that `import magflow` does not load scipy.integrate
    from scipy.integrate import solve_ivp

    tol = _check_tol(tol)
    if t_end == 0.0:
        raise DomainError("t_end must be nonzero")
    y0 = state0.as_array()
    x0_sin = math.sin(state0.x)

    def ev_turning(t, y):
        return y[2]

    def ev_return(t, y):
        return math.sin(y[0]) - x0_sin

    # on vertical-line orbits and fixed points x is frozen and the event
    # functions are identically zero; registering them would fire on every step
    x_frozen = (abs(state0.xdot) < 1e-13
                and abs(np.cos(state0.x) * state0.ydot) < 1e-13)
    events = [ev_turning, ev_return] if with_events and not x_frozen else None
    sol = solve_ivp(
        rhs, (0.0, t_end), y0, method="DOP853",
        rtol=tol, atol=tol * 1e-2,
        dense_output=True, events=events,
    )
    if sol.status == -1:
        raise StepFailure(sol.message, t=float(sol.t[-1]) if len(sol.t) else 0.0)

    ev_list: list[tuple[float, str]] = []
    if events is not None:
        for kind, times in zip(_EVENT_KINDS, sol.t_events):
            for te in times:
                if abs(te) > 1e-9:  # drop the trivial event at t = 0
                    ev_list.append((float(te), kind))
        ev_list.sort()
    return Trajectory(t=sol.t, states=sol.y.T, tol=tol, events=ev_list, dense=sol.sol,
                      nfev=int(sol.nfev), n_steps=len(sol.t) - 1)


def conservation_report(traj: Trajectory) -> tuple[float, float]:
    """Maximal drifts (max|dE|, max|dp|) from the first sample, over traj's samples.

    The samples of integrate are the solver's accepted steps, so this is
    the drift at the steps.  Trajectory.eval answers between them from the
    dense interpolant, which drifts up to about 7 times more: at tol 1e-11
    over t = 20 from x0 = 0.1 on (E, p) = (0.3, 0.2), the drift in E is
    2.5e-12 at the steps against 1.0e-11 on a 20001-point eval grid.
    """
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
