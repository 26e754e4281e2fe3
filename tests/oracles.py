"""Independent oracles that the tests check the package against.

The RK period oracle measures the sin-x period and the turning times of an
orbit from the events of a direct integration (magflow.integrate with
with_events=True), independently of the closed form's 4 C K(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from magflow import MagflowError, PhaseState
from magflow.integrate import Trajectory, integrate


class NoReturnFound(MagflowError):
    """No matching return event was located within the integration window."""


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
    traj = integrate(state0, t_end, tol, with_events=True)
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
