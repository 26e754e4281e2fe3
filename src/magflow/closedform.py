"""Exact trajectories of the flow through Jacobi elliptic functions.

On any non-degenerate level set (E, p) the variable z = sin(x) oscillates
over the bounded oval [a1, a2] of the quartic, and in the Legendre
coordinate the motion is exactly

    xi(t) = sn((t + D)/C, k),     sin x(t) = a1 + h (1 + xi(t))/(1 + c xi(t)),

where (k, C, h, c) come from the reduction, the second formula is the
inverse of its coordinate map (legendre._z_of_xi), and the phase constant
D matches the initial condition.  The reduction is the orbit's one modulus record: sn,
cn, F and K all run on the AGM ladder it keeps (LegendreReduction.ladder),
so a build runs the AGM once and an evaluation not at all.  Note the
coordinate map is part of the solution: in the p = 0 trapped case it
reduces to the amplitude factor, sin x(t) = sqrt(2E) sn((t+D)/C, sqrt(2E)).

Recovering x itself needs the sheet x = pi m + (-1)^m asin z the orbit is
on, with cos x = (-1)^m.  z = +1 at the phases u = K and z = -1 at u = -K
(mod 4K); m changes there exactly when the oval reaches that wall, while
interior endpoints are xdot-turning points where the sign of zdot flips
instead.  One integer per phase, the half-period index j, decides all
of it.  elliptic.sn_cn decides it and its parity (-1)^j, folding u to
v = u - 2K j in [-K, K] and sn, cn by (-1)^j; the sheet m, cos x = (-1)^m,
the sign (-1)^j of zdot and the continuation of J2 below read them
(_orbit_phase), so none can disagree with sn or another at a boundary.
The walls the oval reaches are fixed by the kind of the level:

* trapped oval    - no wall: m = 0 or 1 from the strip of x0, and the
  tangent-bundle recurrence time equals the sin(x) period 4CK.
* crossing orbit  - the wall on the side of p: m alternates between 0
  and +-1 there, so one full x oscillation spans two sin(x) cycles and
  the recurrence time is 8CK (after 4CK the position repeats with xdot
  reversed).
* winding orbit   - both walls: m steps by the sign of xdot at each, and
  x advances by 2 pi per sin(x) cycle.

y(t) = y0 + p t - int_0^t sin x(tau) dtau is in closed form too.  With
c = s h the map reads z - nu = h (1 - c) sn/(1 + c sn), and

    int_0^u sn/(1 + c sn) du' = J1(u) - c J2(u),

    J1 = int_0^u sn/(1 - c^2 sn^2) du'
       = [atanh(rho) - atanh(rho cn/dn)] / (rho (1 - c^2)),
         rho^2 = (k^2 - c^2)/(1 - c^2),
    J2 = int_0^u sn^2/(1 - c^2 sn^2) du'
       = (sn^3/3) R_J(cn^2, dn^2, 1, 1 - c^2 sn^2)   on |u| <= K,

where J1 is 4K-periodic and J2(u + 2K) = J2(u) + L, with L the complete
integral LegendreReduction.L (DLMF 19.25.14, 22.14).
So one evaluation costs one sn/cn call for any t, plus one R_J call where
c != 0, that is p != 0 (on p = 0 the map is affine and G = J1); the sin(x)
period and the y-advance per period are those of
LegendreReduction.cycle_values, the numbers classify reports.  The phase
is written once over _xp: a float phase runs on Python floats, a batch on
numpy, and the two agree bit for bit (_orbit_phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _xp
from .dynamics import TWO_PI, PhaseState, state_from_integrals
from .elliptic import F, sn_cn
from .errors import DomainError, ReductionInconsistency, UnsupportedRegime
from .legendre import (
    CROSSING,
    WINDING,
    LegendreReduction,
    QuarticCurve,
    _xi_of_z,
    _z_of_xi,
    quartic_from_params,
    reduce_to_legendre,
)


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exact orbit, evaluable at any time."""

    curve: QuarticCurve
    reduction: LegendreReduction
    E: float
    p: float
    x0: float
    y0: float
    xdot_sign: int
    C: float
    D: float
    x_offset: float           # constant 2*pi*n placing the orbit at x0
    x_period: float           # sin(x) period 4*C*K
    delta_y_per_cycle: float  # y-increment over one sin(x) period
    _G0: float                # G at the phase of t = 0

    @property
    def k(self) -> float:
        return self.reduction.k

    @property
    def k2(self) -> float:
        return self.reduction.k2

    @property
    def recurrence_time(self) -> float:
        """Time after which the full tangent-bundle state repeats."""
        if self.curve.kind == CROSSING:
            return 2.0 * self.x_period
        return self.x_period

    def eval(self, t):
        return eval_solution(self, t)


def _sn_integral(red: LegendreReduction, sn, cn, j, flip):
    """G(u) = int_0^u sn/(1 + c sn) du' = J1 - c J2 from sn, cn, j, flip = (-1)^j at u.

    Every factor is a sum or product of positive terms: next to k = 1
    (rho -> 1) the complement rho'^2 = 1 - rho^2 = k'^2/(1 - c^2) is taken
    from k', and where cn < 0 the denominator dn + rho cn is rewritten as
    rho'^2 (1 - c^2 sn^2)/(dn - rho cn).  On p = 0, c = 0 and G = J1: J2
    and its R_J run only where c != 0, and import scipy.special on first
    use, so that building the cycle data does not load it.
    """
    xp = _xp.of(sn)
    c, kc2, one_c2 = red.c, red.kc * red.kc, red.one_c2
    rho = math.sqrt(red.k2_c2 / one_c2)
    rhoc4 = (kc2 / one_c2) ** 2
    s2, cn2, acn = sn * sn, cn * cn, abs(cn)
    dn2 = cn2 + kc2 * s2
    dn = xp.sqrt(dn2)
    den = one_c2 + c * c * cn2  # 1 - c^2 sn^2
    # 2 [atanh(rho) - atanh(rho cn/dn)] = log1p(rho Y), on either side of cn = 0
    front, back = dn + acn, dn + rho * acn
    Y = 2.0 * (1.0 + rho) * xp.where(
        cn >= 0.0, one_c2 * s2 / (front * back), front * back / (rhoc4 * den))
    J1 = xp.log1p(rho * Y) / (2.0 * rho * one_c2)
    if c == 0.0:
        return J1
    from scipy.special import elliprj
    # J2 on the half period [-K, K] that holds u - 2K j, continued by j L
    J2 = flip * s2 * sn * elliprj(cn2, dn2, 1.0, den) / 3.0 + j * red.L
    return J1 - c * J2


def _sheet(curve: QuarticCurve, xdot_sign: int, cos_x0: float, j, flip):
    """Sheet index m at half period j, and cos x = (-1)^m; flip = (-1)^j.

    x = pi m + (-1)^m asin z.  A trapped oval stays on the sheet of x0; a
    crossing oval reaches the wall on the side of p, since its turning
    roots p -+ sqrt(2E) straddle that wall only, and m alternates between 0
    and +-1 there; a winding orbit steps one sheet at each wall, in the
    direction of xdot.
    """
    if curve.kind == WINDING:
        if xdot_sign > 0:
            return j, flip
        return -j - 1.0, -flip
    if curve.kind == CROSSING:
        wall = -1.0 if curve.p < 0.0 else 1.0
        b = (j + 0.5 * (1.0 + wall)) // 2.0 % 2.0
        return wall * b, 1.0 - 2.0 * b
    m = 0.0 if cos_x0 > 0 else 1.0
    return m, 1.0 - 2.0 * m


def _orbit_phase(red: LegendreReduction, xdot_sign: int, cos_x0: float, u):
    """(x - x_offset, z, the sign of xdot, G) at the phases u, a float or an array.

    sn_cn decides the half period j of each phase and its parity, the sign
    of zdot; the sheet of x, cos x and G's continuation read that one j.
    build_solution takes its start here at the float D/C and eval_solution
    every sample at (t + D)/C, a float for a scalar t; a float phase equals
    its lane of an array bit for bit, so y(0) = y0 on either path.
    """
    j, flip, sn, cn = sn_cn(u, red.ladder)
    z = _z_of_xi(red, sn)  # sn lies in [-1, 1] by construction
    m, cos_sign = _sheet(red.curve, xdot_sign, cos_x0, j, flip)
    # z lies on the oval [a1, a2], inside [-1, 1]
    x = np.pi * m + cos_sign * _xp.of(z).arcsin(z)
    return x, z, flip * cos_sign, _sn_integral(red, sn, cn, j, flip)


def build_solution(
    x0: float, y0: float, E: float, p: float, xdot_sign: int
) -> ClosedFormSolution:
    """Construct the exact solution through (x0, y0) on the level (E, p).

    The curve must be non-degenerate (DegenerateCurve otherwise: the orbit
    is a separatrix or one of the vertical lines x = +-pi/2) and the point
    admissible, (p - sin x0)^2 <= 2E as state_from_integrals tests it.  All
    non-degenerate regimes are supported: trapped ovals, crossing librators
    and winding orbits.
    """
    if xdot_sign not in (-1, 1):
        raise DomainError(f"xdot_sign must be +1 or -1, got {xdot_sign}")
    if E == 0.0:
        raise UnsupportedRegime("E = 0 is a fixed point; no closed form needed")
    curve = quartic_from_params(E, p)  # DomainError for E < 0 or NaN
    red = reduce_to_legendre(curve)  # raises DegenerateCurve on separatrices
    K, C = red.K, red.C_const

    state_from_integrals(x0, y0, E, p, xdot_sign)  # DomainError unless admissible
    z0 = math.sin(x0)
    cos_x0 = math.cos(x0)

    # at an oval end xi0 = -+1: the map sends a1 to -1 exactly (zeta = 0), a2 up to rounding,
    # and the phase is -+K of the ladder, which F(asin(-+1)) misses by rounding
    zc = min(max(z0, curve.a1), curve.a2)
    xi0 = 1.0 if zc == curve.a2 else min(max(_xi_of_z(red, zc), -1.0), 1.0)
    F0 = math.copysign(K, xi0) if abs(xi0) == 1.0 else F(math.asin(xi0), red.ladder)
    # the half period j of the motion just after t = 0, where
    # zdot = xdot cos x: on a wall z turns back, and cos x follows from
    # zdot and xdot; at an interior turning point xdot(0) = 0 and z turns
    # back from the root
    cos_sign = math.copysign(1.0, cos_x0)
    zdot_sign = xdot_sign * cos_sign
    if abs(cos_x0) < 1e-9:
        zdot_sign = -math.copysign(1.0, z0)
        cos_sign = zdot_sign * xdot_sign
    elif abs(abs(xi0) - 1.0) < 1e-12 and abs(abs(z0) - 1.0) > 1e-9:
        zdot_sign = -math.copysign(1.0, xi0)
    j = 0 if zdot_sign > 0 else 1
    if (curve.kind == CROSSING
            and _sheet(curve, xdot_sign, cos_x0, j, zdot_sign)[1] != cos_sign):
        j += 2  # the same half period on the other sheet, a sin(x) cycle on
    u_ref = (F0 if j % 2 == 0 else 2.0 * K - F0) + 4.0 * K * (j // 2)

    D = C * u_ref
    # the start through eval_solution's path at its phase of t = 0, so that
    # y(0) = y0 holds by construction
    x_hat0, _, _, G0 = _orbit_phase(red, xdot_sign, cos_x0, D / C)
    x_offset = x0 - float(x_hat0)
    n_turns = x_offset / TWO_PI
    if abs(n_turns - round(n_turns)) > 1e-8:
        raise ReductionInconsistency(
            f"x reconstruction offset {x_offset:.6g} is not a multiple of 2*pi"
        )
    x_offset = TWO_PI * round(n_turns)
    G0 = float(G0)
    x_period, delta_y, _action = red.cycle_values()

    return ClosedFormSolution(
        curve=curve, reduction=red,
        E=float(E), p=float(p), x0=float(x0), y0=float(y0),
        xdot_sign=xdot_sign, C=C, D=D, x_offset=x_offset,
        x_period=x_period, delta_y_per_cycle=delta_y, _G0=G0,
    )


def eval_solution(sol: ClosedFormSolution, t):
    """Evaluate (x, y, xdot, ydot) at time(s) t.

    Scalar t returns a PhaseState of Python floats, computed on floats
    (see _orbit_phase); an array returns four arrays.  The velocities come
    from the first integrals: ydot = p - sin x exactly, and
    xdot = +-sqrt(2E - (p - sin x)^2) with the sign of zdot cos x, both
    read from the sheet of the phase.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = float(t) if scalar else t
    xp, red = _xp.of(t), sol.reduction
    x, z, xdot_sign, G = _orbit_phase(red, sol.xdot_sign, math.cos(sol.x0),
                                      (t + sol.D) / sol.C)
    x = x + sol.x_offset
    ydot = sol.p - z
    xdot = xdot_sign * xp.sqrt(xp.maximum(2.0 * sol.E - ydot * ydot, 0.0))
    # y - y0 = int_0^t (p - z) dt = (p - nu) t - C h (1 - c) (G(u) - G(u0))
    y = sol.y0 + red.q * t - sol.C * red.h * red.one_c * (G - sol._G0)
    if scalar:
        return PhaseState(float(x), float(y), float(xdot), float(ydot))
    return x, y, xdot, ydot
