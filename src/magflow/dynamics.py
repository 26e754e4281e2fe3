"""Phase space and equations of motion for a charge on the flat two-torus.

The configuration space is T^2 = R^2/(2*pi*Z)^2 with the flat metric
dx^2 + dy^2 and the magnetic two-form F = cos(x) dx^dy = d(sin(x) dy).
The Lagrangian

    L = (xdot^2 + ydot^2)/2 + sin(x) ydot

yields the flow

    xddot =  cos(x) ydot,
    yddot = -cos(x) xdot,

with two independent first integrals: the energy E = (xdot^2 + ydot^2)/2
and the y-momentum p = ydot + sin(x).  Angles are stored unwrapped on the
real line so that y-increments and winding numbers are well defined;
wrap to [0, 2*pi) only for display or export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _xp
from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: nodes of the first batch of the closed-circuit trapezoid rule over an
#: orbit's circuit span (circuit_states, orbits._circuit_trapezoid)
CIRCUIT_NODES = 257


@dataclass(frozen=True)
class PhaseState:
    """A point (x, y, xdot, ydot) of the tangent bundle of the torus."""

    x: float
    y: float
    xdot: float
    ydot: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.xdot, self.ydot], dtype=float)

    @classmethod
    def from_array(cls, a) -> "PhaseState":
        x, y, xd, yd = (float(v) for v in a)
        return cls(x, y, xd, yd)


def rhs(t, y):
    """Vector field (xdot, ydot, xddot, yddot) at y = (x, y, xdot, ydot).

    The (t, y) signature of an ODE right-hand side; t is unused.  y is four
    floats, or four float arrays of one shape, each lane of which gives the
    float call's values bit for bit (_xp); x = +-inf raises math.cos's
    ValueError on a float.  The integrator calls it on Python floats for
    the first stage and the initial step and on arrays for the 3
    interpolant stages of each step; its step kernel writes these
    operations into the other stages.
    """
    x, _, xd, yd = y
    c = _xp.of(x).cos(x)
    return (xd, yd, c * yd, -c * xd)


def _unpack(state):
    """(x, xdot, ydot) of a PhaseState, or of states (x, y, xdot, ydot)
    stacked along the last axis of an array."""
    if isinstance(state, PhaseState):
        return state.x, state.xdot, state.ydot
    s = np.asarray(state, dtype=float)
    return s[..., 0], s[..., 2], s[..., 3]


def energy(state):
    """Kinetic energy E = (xdot^2 + ydot^2)/2, one value per state."""
    _, xd, yd = _unpack(state)
    return 0.5 * (xd * xd + yd * yd)


def momentum(state):
    """Conserved y-momentum p = ydot + sin(x), one value per state."""
    x, _, yd = _unpack(state)
    return yd + np.sin(x)


def speed(E: float) -> float:
    """sqrt(2E), the speed on the level E.

    Where 2E overflows (E > DBL_MAX/2) it is 2 sqrt(E/2): halving and
    doubling are exact there, so that is the correctly rounded sqrt(2E)
    too.  Everywhere else it is math.sqrt(2.0 * E) bit for bit.
    """
    two_e = 2.0 * E
    if two_e == math.inf:
        return 2.0 * math.sqrt(0.5 * E)
    return math.sqrt(two_e)


def reduced_lagrangian(state, E: float):
    """Level-E reduced Lagrangian L_E = sqrt(2E)|qdot| + sin(x) ydot, per state.

    L_E is homogeneous of first order in the velocities; its extremals on
    the level set {energy = E} coincide with flow trajectories up to
    reparameterization.  For E < 1/2 it takes negative values (e.g. at
    sin(x) = -1, xdot = 0, ydot > 0), which is what makes the action
    functional unbounded below at subcritical energies.
    """
    if E < 0.0:
        raise DomainError(f"energy level must be nonnegative, got {E}")
    x, xd, yd = _unpack(state)
    return speed(E) * np.hypot(xd, yd) + np.sin(x) * yd


def circuit_states(orbit) -> np.ndarray:
    """The states of orbit at CIRCUIT_NODES equispaced times over
    orbit.circuit_span = (a, b), a < b, forward in time: one row
    (x, y, xdot, ydot) per time, read-only.

    The rows are the transpose of the four arrays orbit.eval returns, so
    each column reads contiguous memory.  ClosedFormSolution.circuit and
    Trajectory.circuit keep it, 257 x 4 float64 (8 KiB) per orbit, so the
    actions of one orbit share one evaluation.
    """
    a, b = orbit.circuit_span
    q = np.array(orbit.eval(np.linspace(a, b, CIRCUIT_NODES)))
    q.flags.writeable = False
    return q.T


def state_from_integrals(
    x0: float, y0: float, E: float, p: float, xdot_sign: int
) -> PhaseState:
    """Reconstruct a state at (x0, y0) from (E, p) and a sign for xdot.

    ydot = p - sin(x0) is forced; xdot = xdot_sign*sqrt(2E - (p - sin x0)^2)
    is determined only up to the caller-supplied sign.  A negative radicand
    within the rounding of its operands is a turning point, xdot = 0; any
    other start off the level raises DomainError.
    """
    if E < 0.0:
        raise DomainError(f"energy must be nonnegative, got {E}")
    if xdot_sign not in (-1, 1):
        raise DomainError(f"xdot_sign must be +1 or -1, got {xdot_sign}")
    sin_x0 = math.sin(x0)
    ydot = p - sin_x0
    rad = 2.0 * E - ydot * ydot
    if rad < 0.0:
        # the rounding of the operands: 2E, ydot^2 and ydot's own, of the
        # larger of |p| and |sin x0|, doubled in ydot^2
        slack = 1e-14 * max(2.0 * E, ydot * ydot, abs(ydot) * max(abs(p), abs(sin_x0)))
        if rad > -slack:
            rad = 0.0  # turning point hit within rounding
        else:
            raise DomainError(
                f"(p - sin x0)^2 = {ydot * ydot:.6g} exceeds 2E = {2 * E:.6g}: "
                "point lies in the forbidden region"
            )
    return PhaseState(float(x0), float(y0), xdot_sign * math.sqrt(rad), ydot)
