"""Independent oracles that the tests check the package against.

The RK period oracle measures the sin-x period and the turning times of an
orbit from the events of a direct integration, independently of the closed
form's 4 C K(k): event_times finds them on the steps of a finished
magflow.integrate Trajectory.  The scans search numerically for what the
package states in closed form: the film-minimizing strip
[pi/2, 3 pi/2] with action 4 pi (sqrt(2E) - 1), the critical level 1/2
and the minimum 2E - sqrt(2E) of L_E on the level E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from magflow import DomainError, MagflowError, PhaseState, reduced_lagrangian
from magflow.integrate import Trajectory, _interpolate, integrate

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


class NoReturnFound(MagflowError):
    """No matching return event was located within the integration window."""


def event_times(traj: Trajectory) -> tuple[list[float], list[float]]:
    """The x-turning times (xdot = 0) and the x-return times (sin x back to
    sin x0) of traj, each sorted, without the trivial event at t = 0.

    An event has a root on a step where its values at the step ends change
    sign, as solve_ivp's find_active_events sees it for direction 0, and
    brentq finds it on that step's interpolant, as solve_event_equation
    does; Trajectory.eval would take the earlier step at a step end.  A
    value exactly 0 at t = 0 is no bracket.  On vertical-line orbits and
    fixed points x is frozen and both events are identically zero, so none
    is looked for.
    """
    x0, _, xdot0, ydot0 = traj.states[0].tolist()
    if abs(xdot0) < 1e-13 and abs(math.cos(x0) * ydot0) < 1e-13:
        return [], []
    sin_x0 = math.sin(x0)
    events = (lambda y: y[2], lambda y: math.sin(y[0]) - sin_x0)
    t, states, F = traj.t.tolist(), traj.states, traj.F
    g = np.array([[event(y) for event in events] for y in states.tolist()])
    a, b = g[:-1], g[1:]
    bracket = ((a <= 0.0) & (b >= 0.0)) | ((a >= 0.0) & (b <= 0.0))
    bracket[0] &= a[0] != 0.0
    found = ([], [])
    for i, k in zip(*np.nonzero(bracket)):
        t_old, h, event = t[i], t[i + 1] - t[i], events[k]
        root = brentq(lambda s: event(_interpolate(F[i], (s - t_old) / h, states[i])),
                      t_old, t[i + 1], xtol=4 * _EPS, rtol=4 * _EPS)
        if abs(root) > 1e-9:
            found[k].append(root)
    return sorted(found[0]), sorted(found[1])


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
    turning, crossings = event_times(traj)
    sign0 = np.sign(state0.xdot)
    returns = [t for t in crossings if sign0 == 0.0 or np.sign(traj.eval(t).xdot) == sign0]
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


@dataclass(frozen=True)
class StripSearchResult:
    x_a: float
    x_b: float
    action: float
    grid_step: float


def film_strip_grid_search(E: float, n: int) -> StripSearchResult:
    """Grid minimization of the strip action over (x_a, width), at the
    resolution 2 pi/(n + 1)."""
    xa = np.linspace(0.0, TWO_PI, n, endpoint=False)
    width = np.arange(1, n + 1) * (TWO_PI / (n + 1))
    best_val, best = math.inf, (0.0, 0.0)
    # row-chunked scan keeps memory flat for fine grids
    chunk = max(1, int(4e6 // n))
    for lo in range(0, n, chunk):
        xa_c = xa[lo:lo + chunk]
        flux = TWO_PI * (np.sin(xa_c[:, None] + width[None, :]) - np.sin(xa_c)[:, None])
        i, j = np.unravel_index(np.argmin(flux), flux.shape)
        if float(flux[i, j]) < best_val:
            best_val = float(flux[i, j])
            best = (float(xa_c[i]), float(xa_c[i] + width[j]))
    return StripSearchResult(x_a=best[0], x_b=best[1],
                             action=math.sqrt(2.0 * E) * 2.0 * TWO_PI + best_val,
                             grid_step=TWO_PI / (n + 1))


def mane_level_scan(grid_n: int) -> float:
    """Critical energy from the optimal gauge: sup over x of sin^2(x)/2.

    With the zero gauge function the Hamiltonian of the shifted one-form
    sin(x) dy is sin^2(x)/2, whose supremum 1/2 is attained at x = +-pi/2;
    those two points are always included in the scan grid.
    """
    if grid_n < 8:
        raise DomainError(f"grid_n must be at least 8, got {grid_n}")
    xs = np.append(np.linspace(0.0, TWO_PI, grid_n), (0.5 * math.pi, 1.5 * math.pi))
    return float(np.max(0.5 * np.sin(xs) ** 2))


@dataclass(frozen=True)
class SignScanResult:
    n_samples: int
    n_negative: int
    min_value: float
    min_state: PhaseState


def lagrangian_sign_scan(E: float, n_samples: int, seed: int) -> SignScanResult:
    """Sign census of L_E over random level-E states.

    Velocities are scaled to the level (|qdot| = sqrt(2E), random
    direction); the analytic minimizer direction (sin x = -1, xdot = 0,
    ydot > 0) and its mirror are always included, so the scan attains the
    true minimum 2E - sqrt(2E) of L_E on the level.
    """
    rng = np.random.default_rng(seed)
    speed = math.sqrt(2.0 * E)
    xs = rng.uniform(-math.pi, math.pi, n_samples)
    psi = rng.uniform(0.0, TWO_PI, n_samples)
    x = np.append(xs, (-0.5 * math.pi, 0.5 * math.pi))
    states = np.array([x, np.zeros_like(x), np.append(speed * np.cos(psi), (0.0, 0.0)),
                       np.append(speed * np.sin(psi), (speed, -speed))]).T
    values = reduced_lagrangian(states, E)
    i_min = int(np.argmin(values))
    return SignScanResult(n_samples=len(states), n_negative=int(np.sum(values < 0.0)),
                          min_value=float(values[i_min]),
                          min_state=PhaseState.from_array(states[i_min]))
