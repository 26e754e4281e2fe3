"""Orbit classification, y-increments, action functionals and films.

Classification over the integral values (E, p) follows the position of the
turning roots z1,2 = p -+ sqrt(2E) of xdot relative to [-1, 1]:

* both inside      -> trapped oval (closes up exactly when p = 0)
* exactly one      -> crossing librator (never closes in the plane;
                      its y-increment per sin-x cycle is reported as a
                      rotation datum without asserting torus closure)
* none, all of [-1,1] allowed -> winding orbit
* double root      -> vertical line x = +-pi/2 (exact) or separatrix (band)
* |p| > 1+sqrt(2E) -> forbidden (empty level set)

All cycle data of a level come from one Legendre reduction of the quartic
(legendre.LegendreReduction.cycle_values: the period, Delta_y and the
action from the moments int (z-p)^j dz/w, j = 0, 1, 2, over the bounded
oval, as complete elliptic integrals read from the rungs of one AGM
ladder).  The sin-x period of a cycle is 4 C K(k), the same value the
closed-form orbit reads from cycle_values.  The y-increment per
cycle is Delta_y = 2 int (p-z) dz / w, which is 0 for p = 0 and, on a
trapped oval, has sign opposite to p.  The action of a closed curve on the
level E is S_E = int L_E dt.  On shell |qdot| = sqrt(2E) and ydot = p - z,
so the integrand is L_E = 2E + z(p - z) with z = sin x, and the action over
one sin-x cycle is 2 int (2E + z(p - z)) dz / w over the bounded oval of z.
No quadrature runs in any of them.  For closed curves the action also
equals int xdot^2 dt + p Delta_y, and for the simple contractible orbits
it has the closed expression 2 int_{-a}^{a} sqrt(2E - sin^2 x) dx,
a = arcsin sqrt(2E), which is a complete elliptic integral too.
action_direct and action_increment integrate over a given orbit by the
closed-circuit trapezoid rule (257 nodes, tol CIRCUIT_TOL = 1e-8), forward
in time over the orbit's circuit span.  Its first batch, the states at the
257 nodes, is the orbit's own circuit (dynamics.circuit_states), 8 KiB
formed by the first action and kept with the orbit, so both actions on one
orbit take one orbit evaluation together; only refinement midpoints, which
depend on the integrand, are evaluated per call.

The kind rule lives in legendre.quartic_from_params, with the roots and
gaps it reads; this module reads QuarticCurve.kind and never tests the
roots itself.  The vertical-line data and the cycle data are written once
over operands that are Python floats or float arrays of one shape.
classify runs them on one level; cycle_data runs them on a whole grid,
masked by the kind and by the cells whose reduction fails, and its lanes
equal classify bit for bit.

Films (embedded surfaces with boundary) carry the action
sqrt(2E) length(boundary) + flux of F; within the cylinder-strip family
the minimizer is the strip between x = pi/2 and x = 3*pi/2, with value
4*pi*(sqrt(2E) - 1).  Energy 1/2 is the Mane critical level: below it the
reduced Lagrangian takes negative values and the film action can be
negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _xp
from .closedform import ClosedFormSolution, build_solution
from .dynamics import CIRCUIT_NODES, TWO_PI, energy, momentum, reduced_lagrangian
from .elliptic import _rd
from .errors import DegenerateCurve, DomainError, MagflowError, OpenCurve, WrongRegime
from .integrate import Trajectory
from .legendre import (
    KINDS,
    VERTICAL,
    WINDING,
    OrbitKind,
    quartic_from_params,
    reduce_lanes,
    reduce_to_legendre,
)

#: joint tolerance of the contractibility test (|p| and |Delta_y| together,
#: so rounding noise cannot flip the verdict)
EPS_CONTRACTIBLE = 1e-10

#: the closed-circuit trapezoid rule, from its first batch of CIRCUIT_NODES
#: (dynamics), refines until two successive sums differ by less than this
CIRCUIT_TOL = 1e-8


@dataclass(frozen=True)
class OrbitClassification:
    """Orbit type of the level set (E, p) with its cycle data."""

    E: float
    p: float
    kind: OrbitKind
    turning_roots: tuple[float, float]
    delta_y: float | None
    period: float | None
    action: float | None
    contractible: bool

    def to_dict(self) -> dict:
        return {
            "E": self.E,
            "p": self.p,
            "kind": self.kind.value,
            "turning_roots": list(self.turning_roots),
            "delta_y": self.delta_y,
            "period": self.period,
            "action": self.action,
            "contractible": self.contractible,
        }


def _line_data(curve):
    """(period, action) of one y-circuit of the vertical line at curve.wall;
    floats or array lanes."""
    E, wall = curve.E, curve.wall
    xp = _xp.of(E)
    return (math.pi * xp.sqrt(2.0 / E),
            TWO_PI * (xp.sqrt(2.0 * E) + wall * xp.copysign(1.0, curve.p - wall)))


def vertical_line_action(E: float, p: float) -> float:
    """Action of the vertical-line orbit of a level that classify calls VerticalLine."""
    curve = quartic_from_params(E, p)
    if curve.kind != VERTICAL:
        raise WrongRegime(f"(E={E}, p={p}) carries no vertical-line orbit")
    return _line_data(curve)[1]


def classify(E: float, p: float) -> OrbitClassification:
    """Classify the level set (E, p) for E > 0.

    A bounded oval gets its cycle data in closed form from the moments of
    the Legendre reduction, m_j = int (z - p)^j dz/w over the oval: the
    sin-x period 2 m_0 = 4 C K(k), Delta_y = 2 int (p - z) dz/w = -2 m_1
    and the action 2 int (2E + z(p - z)) dz/w of one sin-x cycle.  A
    vertical line reports the time and the action of one y-circuit.
    cycle_data gives the same numbers for whole arrays of levels.  Where
    the reduction of an oval fails its self-check, as at the crossing
    levels (0.5, +-1e-7) next to the critical energy or past E = 6.7e153,
    where the product of the root gaps overflows, classify raises
    ReductionInconsistency and cycle_data fails the lane.
    """
    curve = quartic_from_params(E, p)
    kind = KINDS[curve.kind]
    delta: float | None = None
    period: float | None = None
    action: float | None = None
    if curve.kind == VERTICAL:
        period, action = _line_data(curve)
    elif curve.kind <= WINDING:
        period, delta, action = reduce_to_legendre(curve).cycle_values()

    contractible = (
        kind is OrbitKind.TRAPPED_OVAL
        and abs(p) < EPS_CONTRACTIBLE
        and delta is not None
        and abs(delta) < EPS_CONTRACTIBLE
    )
    return OrbitClassification(
        E=curve.E, p=curve.p, kind=kind, turning_roots=(curve.z1, curve.z2),
        delta_y=delta, period=period, action=action, contractible=contractible,
    )


class CycleData(NamedTuple):
    """classify over arrays of levels, one lane per level.

    kind indexes tuple(OrbitKind).  A value the kind does not carry is NaN,
    as is every value of a failed lane, where classify raises because the
    Legendre reduction fails.
    """

    kind: np.ndarray
    delta_y: np.ndarray
    period: np.ndarray
    action: np.ndarray
    failed: np.ndarray


def cycle_data(E, p) -> CycleData:
    """Kind, Delta_y, period and action of classify for arrays E > 0 and p.

    The levels run through the formulas classify runs, as array lanes: one
    curve of the whole grid decides the kinds, and the kind masks the
    moments of one Legendre reduction of every lane and the vertical-line
    data, which are formed only on a grid with some vertical-line lane.
    Each lane equals classify(E, p) bit for bit.
    """
    E, p = np.broadcast_arrays(np.atleast_1d(np.asarray(E, dtype=float)),
                               np.atleast_1d(np.asarray(p, dtype=float)))
    # lanes of another kind, or failed, hold garbage, and 2E overflows
    # next to E = 1e308
    with np.errstate(all="ignore"):
        curve = quartic_from_params(E, p)  # DomainError unless E > 0
        red, bad = reduce_lanes(curve)
        cycle = red.cycle_values()
        line = curve.kind == VERTICAL
        line_data = _line_data(curve) if np.count_nonzero(line) else None
    oval = curve.kind <= WINDING
    failed = oval & bad
    ok = oval & ~bad
    delta_y = np.where(ok, cycle[1], np.nan)
    period = np.where(ok, cycle[0], np.nan)
    action = np.where(ok, cycle[2], np.nan)
    if line_data is not None:  # no lane is both an oval and a vertical line
        period = np.where(line, line_data[0], period)
        action = np.where(line, line_data[1], action)
    return CycleData(curve.kind, delta_y, period, action, failed)


def cycle_action(E: float, p: float) -> float:
    """Action int L_E dt accumulated over one sin-x cycle, classify(E, p).action.

    On the level E the integrand is L_E = 2E + z(p - z) with z = sin x; the
    action is well defined per cycle even when the orbit does not close
    up.  Separatrices and vertical lines raise DegenerateCurve (the latter
    has vertical_line_action), a forbidden level WrongRegime.
    """
    c = classify(E, p)
    if c.kind is OrbitKind.FORBIDDEN:
        raise WrongRegime(f"(E={E}, p={p}) is forbidden: its level set is empty")
    if c.kind in (OrbitKind.SEPARATRIX, OrbitKind.VERTICAL_LINE):
        raise DegenerateCurve(
            f"(E={E}, p={p}) is a {c.kind.value}: no bounded oval, no cycle"
        )
    return c.action


def contractible_orbit(
    E: float, strip: int = 1, phase_x0: float = 0.0
) -> ClosedFormSolution:
    """One member of the S^1-family of simple contractible orbits at level E.

    Exists only for 0 < E < 1/2; the two families live in the strips
    cos x > 0 (strip=1, centered at x=0) and cos x < 0 (strip=2, centered
    at x=pi, the mirror image under x -> pi - x).  phase_x0 fixes the
    family parameter: the orbit passes through x0 = phase_x0 (strip 1)
    or pi - phase_x0 (strip 2), requiring |sin phase_x0| <= sqrt(2E), the
    admissibility test of build_solution.
    """
    if not 0.0 < E < 0.5:
        raise DomainError(
            f"no contractible closed orbits exist at E = {E}: "
            "they require 0 < E < 1/2"
        )
    if strip not in (1, 2):
        raise DomainError(f"strip must be 1 or 2, got {strip}")
    if not math.cos(phase_x0) > 0.0:
        raise DomainError("phase_x0 must lie in the strip |x| < pi/2 mod 2*pi")
    if strip == 1:
        return build_solution(phase_x0, 0.0, E, 0.0, +1)
    return build_solution(math.pi - phase_x0, 0.0, E, 0.0, -1)


# ---------------------------------------------------------------------------
# action functionals


def _circuit_span(orbit) -> tuple[float, float]:
    if isinstance(orbit, (ClosedFormSolution, Trajectory)):
        return orbit.circuit_span
    raise DomainError(f"unsupported orbit type {type(orbit).__name__}")


def _circuit_trapezoid(orbit, integrand):
    """Closed-circuit trapezoid rule for int_a^b integrand dt over
    (a, b) = orbit.circuit_span: (value, start, end).

    The first batch is orbit.circuit, the read-only states at CIRCUIT_NODES
    equispaced times over [a, b], formed once per orbit and shared by every
    call on it.  It serves the closure test (endpoints equal on the torus to
    1e-6, else OpenCurve), the start state integrand(start, states) may
    read, with the states (x, y, xdot, ydot) stacked along the last axis,
    and the sums T_n and T_{n/2}, whose end weights (f_0 + f_n)/2 suit a
    curve closed only to 1e-6.  On a smooth periodic integrand they converge
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  Until
    |T_n - T_{n/2}| < CIRCUIT_TOL, the n midpoints are evaluated in one call
    of this rule's own and n doubles, at most 12 times.
    """
    a, b = orbit.circuit_span
    T, n = b - a, CIRCUIT_NODES - 1
    q = orbit.circuit
    start, end = q[0], q[-1]
    d = end - start  # x and y on the torus, the velocities as they are
    gap = max(abs(math.remainder(d[0], TWO_PI)), abs(math.remainder(d[1], TWO_PI)),
              abs(d[2]), abs(d[3]))
    if gap > 1e-6:
        raise OpenCurve(f"endpoints differ by {gap:.3g} on the torus (tolerance 1e-06)")
    f = integrand(start, q)
    ends = 0.5 * (f[0] + f[-1])
    total = ends + f[1:-1].sum()
    s, prev = total * (T / n), (ends + f[2:-1:2].sum()) * (2.0 * T / n)
    while abs(s - prev) >= CIRCUIT_TOL:
        if n >= (CIRCUIT_NODES - 1) << 12:
            raise MagflowError(f"trapezoid refinement did not stabilize to {CIRCUIT_TOL}")
        q = np.array(orbit.eval(np.linspace(a, b, 2 * n + 1)[1::2])).T
        total += integrand(start, q).sum()
        n *= 2
        s, prev = total * (T / n), s
    return s, start, end


def action_direct(orbit) -> float:
    """S_E = int L_E dt over one closed circuit of the orbit.

    The circuit is [0, recurrence_time] of a closed-form solution and the
    span of an integrated Trajectory, taken forward in time also for a run
    integrated backwards; the run must so span exactly one circuit.  Any
    other orbit raises DomainError.  The endpoints must agree on the torus
    to 1e-6, else OpenCurve.  E is the energy at the start of the circuit;
    the closed-circuit trapezoid rule (257 nodes, tol CIRCUIT_TOL) takes the
    integral from the orbit's circuit batch where it converges there, the
    batch action_increment reads too.
    """
    a, b = _circuit_span(orbit)
    if a == b:
        return 0.0
    return _circuit_trapezoid(orbit, lambda s0, q: reduced_lagrangian(q, energy(s0)))[0]


def action_increment(orbit) -> float:
    """S_E via the closed-curve identity int xdot^2 dt + p Delta_y.

    The circuit is action_direct's.  p is ydot + sin x at its start and
    Delta_y = y(end) - y(start) is the lifted increment; both come from the
    first batch of the closed-circuit trapezoid rule (257 nodes, tol
    CIRCUIT_TOL) that integrates xdot^2, the orbit's circuit batch that
    action_direct reads too.
    """
    a, b = _circuit_span(orbit)
    if a == b:
        return 0.0
    s, start, end = _circuit_trapezoid(orbit, lambda s0, q: q[:, 2] * q[:, 2])
    return s + momentum(start) * (end[1] - start[1])


def action_contractible_formula(E: float) -> float:
    """Closed expression 2 int_{-a}^{a} sqrt(2E - sin^2 x) dx, a = arcsin sqrt(2E).

    After sin x = sqrt(2E) sin(theta) this is 8E int_0^{pi/2} cos^2(theta)
    / sqrt(1 - k^2 sin^2 theta) dtheta with k^2 = 2E, and that integral is
    (E(k) - k'^2 K(k))/k^2 = (k'^2/3) R_D(0, 1, k'^2) (DLMF 19.25.1), one
    Carlson integral with no cancellation, even as E -> 1/2, taken on
    Python floats (elliptic._rd).
    """
    if not 0.0 < E < 0.5:
        raise DomainError(
            f"the contractible-orbit action requires 0 < E < 1/2, got E = {E}"
        )
    k2c = 1.0 - 2.0 * E
    return 8.0 * E * k2c * _rd(0.0, 1.0, k2c) / 3.0


# ---------------------------------------------------------------------------
# films


@dataclass(frozen=True)
class CylinderStrip:
    """Embedded cylinder x_a <= x <= x_b (full y-circle) on the level E."""

    x_a: float
    x_b: float
    E: float

    def __post_init__(self):
        if not 0.0 < self.x_b - self.x_a < TWO_PI:
            raise DomainError(
                f"strip width must lie in (0, 2*pi), got {self.x_b - self.x_a:.6g}"
            )
        if self.E < 0.0:
            raise DomainError(f"energy must be nonnegative, got {self.E}")


@dataclass(frozen=True)
class OrbitDisc:
    """Disc bounded by a closed orbit classify calls contractible, with integer multiplicity."""

    orbit: ClosedFormSolution
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise DomainError("multiplicity must be a positive integer")
        if not classify(self.orbit.E, self.orbit.p).contractible:
            raise DomainError("the boundary orbit is not contractible")


def film_action(film) -> float:
    """sqrt(2E) length(boundary) + flux of F through the film.

    For a cylinder strip the boundary is two y-circles (length 4*pi) and
    the flux is 2*pi (sin x_b - sin x_a).  For an orbit disc, exactness of
    F reduces the film action to the boundary orbit's action (times the
    multiplicity for iterated orbits), in closed form: p = 0 on the
    boundary, so it recurs after one sin-x cycle and its action is the
    cycle action of its reduction.
    """
    if isinstance(film, CylinderStrip):
        return (math.sqrt(2.0 * film.E) * 2.0 * TWO_PI
                + TWO_PI * (math.sin(film.x_b) - math.sin(film.x_a)))
    if isinstance(film, OrbitDisc):
        return film.multiplicity * film.orbit.reduction.cycle_values()[2]
    raise DomainError(f"unsupported film type {type(film).__name__}")
