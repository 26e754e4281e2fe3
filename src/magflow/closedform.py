"""Exact trajectories of the flow through Jacobi elliptic functions.

On any non-degenerate level set (E, p) the variable z = sin(x) oscillates
over the bounded oval [a1, a2] of the quartic, and in the Legendre
coordinate the motion is exactly

    xi(t) = sn((t + D)/C, k),     sin x(t) = map_xi_to_z(xi(t)),

where (k, C) come from the reduction and the phase constant D matches the
initial condition.  Note the coordinate map is part of the solution: in
the p = 0 trapped case it reduces to the amplitude factor,
sin x(t) = sqrt(2E) sn((t+D)/C, sqrt(2E)).

Recovering x itself needs glue logic, because sn is not monotone where the
orbit crosses cos(x) = 0: the sign of cos(x) flips exactly when z reaches
an oval endpoint equal to -1 or +1 (phases u = -K resp. +K mod 4K), while
interior endpoints are xdot-turning points where the sign of zdot flips
instead.  Three regimes result:

* trapped oval    - x oscillates inside one strip of fixed cos(x) sign;
  the tangent-bundle recurrence time equals the sin(x) period 4CK.
* crossing orbit  - x librates through +-pi/2; one full x oscillation
  spans two sin(x) cycles, so the recurrence time is 8CK (after 4CK the
  position repeats with xdot reversed).
* winding orbit   - xdot never vanishes and x advances by 2 pi per sin(x)
  cycle.

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
So one evaluation costs one sn/cn call and one R_J call for any t, and
the y-advance per sin(x) period is -2 m_1 of LegendreReduction.oval_moments,
the same number classify reports as Delta_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import elliprj

from .dynamics import TWO_PI, PhaseState, state_from_integrals
from .elliptic import EllipticModulus
from .errors import DomainError, ReductionInconsistency, UnsupportedRegime
from .legendre import (
    CROSSING,
    WINDING,
    LegendreReduction,
    QuarticCurve,
    map_xi_to_z,
    map_z_to_xi,
    quartic_from_params,
    reduce_to_legendre,
)


class BranchMode(Enum):
    """How x is rebuilt from sin(x) along the phase u."""

    TRAPPED_POS = "trapped, cos x > 0"
    TRAPPED_NEG = "trapped, cos x < 0"
    CROSS_LEFT = "crossing through x = -pi/2"
    CROSS_RIGHT = "crossing through x = +pi/2"
    WIND_UP = "winding, xdot > 0"
    WIND_DOWN = "winding, xdot < 0"


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exact orbit, evaluable at any time."""

    curve: QuarticCurve
    reduction: LegendreReduction
    modulus: EllipticModulus
    E: float
    p: float
    x0: float
    y0: float
    xdot_sign: int
    mode: BranchMode
    C: float
    D: float
    x_offset: float           # constant 2*pi*n placing the orbit at x0
    x_period: float           # sin(x) period 2 m_0 = 4*C*K
    delta_y_per_cycle: float  # y-increment over one sin(x) period, -2 m_1
    _G0: float                # G at the phase of t = 0

    @property
    def k(self) -> float:
        return self.modulus.k

    @property
    def k2(self) -> float:
        return self.modulus.k2

    @property
    def recurrence_time(self) -> float:
        """Time after which the full tangent-bundle state repeats."""
        if self.mode in (BranchMode.CROSS_LEFT, BranchMode.CROSS_RIGHT):
            return 2.0 * self.x_period
        return self.x_period

    def eval(self, t):
        return eval_solution(self, t)


def _sn_integral(red: LegendreReduction, K: float, u, sn, cn):
    """G(u) = int_0^u sn/(1 + c sn) du' = J1 - c J2 from sn and cn at u.

    Every factor is a sum or product of positive terms: next to k = 1
    (rho -> 1) the complement rho'^2 = 1 - rho^2 = k'^2/(1 - c^2) is taken
    from k', and where cn < 0 the denominator dn + rho cn is rewritten as
    rho'^2 (1 - c^2 sn^2)/(dn - rho cn).
    """
    c, kc2, one_c2 = red.s * red.h, red.kc * red.kc, red.one_c2
    rho = math.sqrt(red.k2_c2 / one_c2)
    rhoc4 = (kc2 / one_c2) ** 2
    s2, cn2, acn = sn * sn, cn * cn, np.abs(cn)
    dn2 = cn2 + kc2 * s2
    dn = np.sqrt(dn2)
    den = one_c2 + c * c * cn2  # 1 - c^2 sn^2
    # 2 [atanh(rho) - atanh(rho cn/dn)] = log1p(rho Y), on either side of cn = 0
    front, back = dn + acn, dn + rho * acn
    Y = 2.0 * (1.0 + rho) * np.where(
        cn >= 0.0, one_c2 * s2 / (front * back), front * back / (rhoc4 * den))
    J1 = np.log1p(rho * Y) / (2.0 * rho * one_c2)
    # J2 on the half period [-K, K) that holds u - 2K m, continued by m L
    m = np.floor((u + K) / (2.0 * K))
    flip = np.where(np.mod(m, 2.0) == 0.0, 1.0, -1.0)
    J2 = flip * s2 * sn * elliprj(cn2, dn2, 1.0, den) / 3.0 + m * red.L
    return J1 - c * J2


def _branch_arrays(mode: BranchMode, u, K: float):
    """Branch index data at phase u: (cos sign, zdot sign, cycle index).

    zdot >= 0 exactly on the sn-increasing half [-K, K) mod 4K.  The cycle
    index counts 4K periods for the winding drift.
    """
    u = np.asarray(u, dtype=float)
    fourK = 4.0 * K
    zdot_sign = np.where(np.mod(u + K, fourK) < 2.0 * K, 1.0, -1.0)
    if mode is BranchMode.TRAPPED_POS:
        return np.ones_like(u), zdot_sign, np.zeros_like(u)
    if mode is BranchMode.TRAPPED_NEG:
        return -np.ones_like(u), zdot_sign, np.zeros_like(u)
    if mode is BranchMode.CROSS_LEFT:
        b = np.mod(np.floor((u + K) / fourK), 2.0)
        return np.where(b == 0.0, 1.0, -1.0), zdot_sign, np.zeros_like(u)
    if mode is BranchMode.CROSS_RIGHT:
        b = np.mod(np.floor((u + 3.0 * K) / fourK), 2.0)
        return np.where(b == 0.0, 1.0, -1.0), zdot_sign, np.zeros_like(u)
    cyc = np.floor((u + K) / fourK)
    first_half = np.mod(u + K, fourK) < 2.0 * K
    if mode is BranchMode.WIND_UP:
        return np.where(first_half, 1.0, -1.0), zdot_sign, cyc
    return np.where(first_half, -1.0, 1.0), zdot_sign, cyc


def _x_hat(mode: BranchMode, alpha, cos_sign, cyc):
    """Continuous lift of x (up to a constant 2*pi*n offset)."""
    if mode is BranchMode.TRAPPED_POS:
        return alpha
    if mode is BranchMode.TRAPPED_NEG:
        return math.pi - alpha
    if mode is BranchMode.CROSS_LEFT:
        return np.where(cos_sign > 0, alpha, -math.pi - alpha)
    if mode is BranchMode.CROSS_RIGHT:
        return np.where(cos_sign > 0, alpha, math.pi - alpha)
    if mode is BranchMode.WIND_UP:
        return TWO_PI * cyc + np.where(cos_sign > 0, alpha, math.pi - alpha)
    return -TWO_PI * cyc + np.where(cos_sign < 0, -math.pi - alpha, alpha - TWO_PI)


def _pick_mode(curve: QuarticCurve, cos_x0: float, xdot_sign: int) -> BranchMode:
    """The branch of x from the kind of the level.

    A winding oval reaches both walls; a crossing oval reaches the wall on
    the side of p, since its turning roots p -+ sqrt(2E) straddle that wall
    only.
    """
    if curve.kind == WINDING:
        return BranchMode.WIND_UP if xdot_sign > 0 else BranchMode.WIND_DOWN
    if curve.kind == CROSSING:
        return BranchMode.CROSS_LEFT if curve.p < 0.0 else BranchMode.CROSS_RIGHT
    return BranchMode.TRAPPED_POS if cos_x0 > 0 else BranchMode.TRAPPED_NEG


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
    if not E > 0.0:
        raise UnsupportedRegime("E = 0 is a fixed point; no closed form needed")
    curve = quartic_from_params(E, p)
    red = reduce_to_legendre(curve)  # raises DegenerateCurve on separatrices
    mod = red.modulus
    K = mod.K_complete
    C = red.C_const

    state_from_integrals(x0, y0, E, p, xdot_sign)  # DomainError unless admissible
    z0 = math.sin(x0)
    cos_x0 = math.cos(x0)
    mode = _pick_mode(curve, cos_x0, xdot_sign)

    xi0 = map_z_to_xi(red, min(max(z0, curve.a1), curve.a2))
    F0 = mod.F(math.asin(xi0))
    # phases with sn(u) = xi0 over one recurrence cycle of the orbit
    candidates = [F0, 2.0 * K - F0]
    if mode in (BranchMode.CROSS_LEFT, BranchMode.CROSS_RIGHT):
        candidates += [F0 + 4.0 * K, 2.0 * K - F0 + 4.0 * K]

    # |xi0| = 1 at an interior turning point makes xdot(0) = 0; the
    # requested sign then refers to the motion just after t = 0 and the
    # two sn-phases coincide, so skip the velocity match there.
    at_turning = abs(abs(xi0) - 1.0) < 1e-12 and abs(abs(z0) - 1.0) > 1e-9

    u_ref = None
    for uc in candidates:
        # probe a hair inside the phase interval so half-open boundary
        # conventions do not misread exact turning/crossing starts
        probe = uc + 1e-12 * max(1.0, K)
        cos_sign, zdot_sign, _ = _branch_arrays(mode, probe, K)
        cs = float(cos_sign)
        xd = float(zdot_sign) * cs
        cos_ok = abs(cos_x0) < 1e-9 or math.copysign(1.0, cos_x0) == cs
        xd_ok = at_turning or xd == xdot_sign
        if cos_ok and xd_ok:
            u_ref = uc
            break
    if u_ref is None:
        raise ReductionInconsistency(
            f"no phase matches the initial data (mode={mode}, xi0={xi0:.6g})"
        )

    cos_sign, _, cyc = _branch_arrays(mode, u_ref + 1e-12 * max(1.0, K), K)
    D = C * u_ref
    u0 = D / C  # the phase eval_solution computes at t = 0
    sn0, cn0 = mod.sn_cn(u0)
    z_ref = float(map_xi_to_z(red, sn0[0]))
    alpha = math.asin(min(1.0, max(-1.0, z_ref)))
    x_hat0 = float(_x_hat(mode, alpha, cos_sign, cyc))
    x_offset = x0 - x_hat0
    n_turns = x_offset / TWO_PI
    if abs(n_turns - round(n_turns)) > 1e-8:
        raise ReductionInconsistency(
            f"x reconstruction offset {x_offset:.6g} is not a multiple of 2*pi"
        )
    x_offset = TWO_PI * round(n_turns)

    G0 = float(_sn_integral(red, K, u0, sn0, cn0)[0])
    m0, m1, _m2 = red.oval_moments()

    return ClosedFormSolution(
        curve=curve, reduction=red, modulus=mod,
        E=float(E), p=float(p), x0=float(x0), y0=float(y0),
        xdot_sign=xdot_sign, mode=mode, C=C, D=D,
        x_offset=x_offset, x_period=2.0 * m0, delta_y_per_cycle=-2.0 * m1, _G0=G0,
    )


def eval_solution(sol: ClosedFormSolution, t):
    """Evaluate (x, y, xdot, ydot) at time(s) t.

    Scalar t returns a PhaseState; an array returns four arrays.  The
    velocities come from the first integrals: ydot = p - sin x exactly, and
    xdot = +-sqrt(2E - (p - sin x)^2) with the sign tracked through the
    branch structure of the phase.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    red = sol.reduction
    K = sol.modulus.K_complete
    u = (t_arr + sol.D) / sol.C
    sn, cn = sol.modulus.sn_cn(u)
    z = map_xi_to_z(red, sn)
    alpha = np.arcsin(z)  # z lies on the oval [a1, a2], inside [-1, 1]
    cos_sign, zdot_sign, cyc = _branch_arrays(sol.mode, u, K)
    x = _x_hat(sol.mode, alpha, cos_sign, cyc) + sol.x_offset
    ydot = sol.p - z
    xdot = zdot_sign * cos_sign * np.sqrt(
        np.maximum(2.0 * sol.E - ydot * ydot, 0.0)
    )
    # y - y0 = int_0^t (p - z) dt = (p - nu) t - C h (1 - c) (G(u) - G(u0))
    G = _sn_integral(red, K, u, sn, cn)
    y = sol.y0 + red.q * t_arr - sol.C * red.h * red.one_c * (G - sol._G0)
    if scalar:
        return PhaseState(float(x[0]), float(y[0]), float(xdot[0]), float(ydot[0]))
    return x, y, xdot, ydot
