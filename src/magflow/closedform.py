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
of it.  elliptic._sn_cn_rungs decides it and its parity (-1)^j, folding u to
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
    J2 = int_0^u sn^2/(1 - c^2 sn^2) du',

where J1 is 4K-periodic and J2(u + 2K) = J2(u) + L, with L the complete
integral LegendreReduction.L (DLMF 19.25.14, 22.14).  c J2 is Jacobi's
form of the third-kind integral at the parameter a with sn a = c/k,
Pi(u, a) = u Z(a) + (1/2) ln Theta(u - a)/Theta(u + a) (Whittaker &
Watson, ch. XXII), over k cn a dn a = sqrt((k^2 - c^2)(1 - c^2)).  Each
Landen rung squares the nome, so ln Theta at one rung is half of ln Theta
at the next, less (1/2) ln dn, and the addition theorem of dn (DLMF
22.8) gives ln dn(x + y)/dn(x - y) = -2 artanh(B/A), with A = dn x dn y
and B = k^2 sn x cn x sn y cn y; both dn are positive, so |B/A| < 1.  On
the folded phase v = u - 2K j in [-K, K],

    c J2 = [v Z(a) - sum_n 2^-(n+1) artanh(q_n sin phi_n cos phi_n / d_n)]
           / (k cn a dn a) + j c L,

with phi_n the Landen amplitude of v at rung n, of modulus
kappa_n = c_n/a_n, d_n = sqrt(cos^2 phi_n + kappa'_n^2 sin^2 phi_n), and
Z(a) and q_n = kappa_n^2 sin phi_n(a) cos phi_n(a) / d_n(a) the constants
of a (theta of PhaseConstants).  The descent of sn already walks the
phases phi_n (elliptic._sn_cn_rungs); a rung costs one artanh, and rung 0
takes sin phi_0 cos phi_0 = sn cn and d_0 = dn from J1.  So one evaluation
costs one sn/cn descent for any t, plus a few artanh where c != 0, that
is p != 0 (on p = 0 the map is affine and G = J1); the sin(x) period and
the y-advance per period are those of LegendreReduction.cycle_values, the
numbers classify reports.  The phase is written once over _xp: a float
phase runs on Python floats, a batch on numpy, and the two agree bit for
bit (_orbit_phase).

Per sample, a batch costs one floor-mod (the fold of u to v), a sin and
an arcsin per Landen rung, and where c != 0 a cos, a sqrt and an artanh
per rung of the theta sum: about 225 ns at p = 0.3 and 135 ns at p = 0
(4,000 samples at E = 0.3, 4 Landen rungs and 5 theta rungs, 2-CPU x86-64
host); the descent leaves out the top rungs that would only halve the
phase (elliptic.Descent), here one.  The parity (-1)^j and the sheet of a
crossing orbit take floors, not floor-mods (_xp.mod2), which cost a
twentieth as much.  Per call it costs about 125 numpy calls at p != 0 and
70 at p = 0, 95 and 58 us at 16 samples there.  The constants those calls
read are one record of Python floats (PhaseConstants), formed once, by
the build, and kept on the orbit (ClosedFormSolution.phase_constants), for
floats and arrays alike (_xp), and each temporary that nothing else holds
is updated in place.  On a one-sample array numpy's in-place operations
cost more than new arrays, so such a call takes longer than one of a few
samples; a scalar t takes the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _xp
from .dynamics import TWO_PI, PhaseState, circuit_states, state_from_integrals
from .elliptic import THETA_WEIGHT, Descent, F, _sn_cn_rungs, descent
from .errors import DomainError, ReductionInconsistency, UnsupportedRegime
from .legendre import (
    CROSSING,
    WINDING,
    LegendreReduction,
    QuarticCurve,
    _xi_of_zeta,
    _z_of_xi,
    quartic_from_params,
    reduce_to_legendre,
)


class PhaseConstants(NamedTuple):
    """The constants of one orbit's closed-form phase, in Python floats: the
    descent of sn (elliptic.Descent), J1, y(t) and xdot, and the third-kind
    term where c != 0 (cL = c L and theta, both None where c = 0).  The
    build forms the record once (_phase_constants) and keeps it on the
    orbit (ClosedFormSolution.phase_constants); every phase reads it, on
    floats and on arrays alike (_xp).  The map z(xi) reads its constants
    from the reduction (legendre._z_of_xi), and y(t) the reduction's q and
    the orbit's p and C.  Each constant is formed by the expression and in
    the order the phase would use per call, so the phase's values do not
    depend on where they were formed."""

    descent: Descent
    kc2: float             # k'^2
    one_c2: float          # 1 - c^2
    c2: float              # c^2
    rho: float             # sqrt((k^2 - c^2)/(1 - c^2))
    rhoc4: float           # rho'^4 = (k'^2/(1 - c^2))^2
    two_one_rho: float     # 2 (1 + rho)
    two_rho_one_c2: float  # 2 rho (1 - c^2)
    Chc: float             # C h (1 - c)
    two_E: float           # 2E
    cL: float | None       # c L
    theta: tuple | None    # (Z(a)/d, (w, q, -bound, bound), rungs): see _phase_constants


def _phase_constants(red: LegendreReduction) -> PhaseConstants:
    """The PhaseConstants of an orbit on the float reduction red, in one pass.

    theta holds the constants of the parameter a of y(t)'s third-kind term,
    sn(a, k) = c/k, where c != 0: Z(a)/d, rung 0 and the later rungs, with
    d = k cn a dn a.  The phase of a ascends the AGM ladder by the Landen
    step of its rung n, tan(phi_{n+1} - phi_n) = kappa'_n tan phi_n with
    kappa_n = c_n/a_n and kappa'_n = b_n/a_n, here in products of sin and
    cos: from sin phi_0 = c/k, cos phi_0 = cn a = sqrt(k^2 - c^2)/k and
    d_0 = dn a = sqrt(1 - c^2),

        sin phi_{n+1} = (1 + kappa'_n) sin phi_n cos phi_n / d_n,
        cos phi_{n+1} = (cos^2 phi_n - kappa'_n sin^2 phi_n) / d_n,
        d_n = sqrt(cos^2 phi_n + kappa'_n^2 sin^2 phi_n),

    so no angle is rounded and sin phi_n keeps its relative accuracy as
    a -> K on a tiny oval.  Z(a) = sum_{n>=1} c_n sin phi_n (the zeta
    function on the ladder, A&S 17.6), and q_n = kappa_n^2 sin phi_n
    cos phi_n / d_n.  Rung 0 is (w, q, -bound, bound): its weight 1/(2d),
    q_0 = c rho with rho^2 = (k^2 - c^2)/(1 - c^2), and the bound
    |q_0|/(1 + k') of its artanh argument, since
    |sin phi cos phi / d| <= 1/(1 + kappa').  Each later rung n whose
    kappa_n^2 is at least THETA_WEIGHT k^2 gives (n, 2^-(n+1)/d, q_n,
    kappa_n^2, kappa'_n^2); a lower rung adds nothing to _third_kind,
    whatever the level, and elliptic.descent keeps every rung that has
    weight.
    """
    c, one_c2, k2_c2 = red.c, red.one_c2, red.k2_c2
    kc2 = red.kc * red.kc
    rho = math.sqrt(k2_c2 / one_c2)
    cL = theta = None
    if c != 0.0:
        cL = c * red.L
        lad, k = red.ladder, red.k
        d = math.sqrt(one_c2)
        scale = 1.0 / (d * math.sqrt(k2_c2))  # 1/(k cn a dn a)
        s, co = c / k, math.sqrt(k2_c2) / k
        Z, rungs = 0.0, []
        for n, (a_n, b_n, c_n) in enumerate(zip(lad.a, lad.b, lad.c)):
            kap2, kapc = (c_n / a_n) * (c_n / a_n), b_n / a_n
            if n:
                d = math.sqrt(co * co + kapc * kapc * (s * s))
                Z += c_n * s
            if kap2 >= THETA_WEIGHT * red.k2:
                rungs.append((n, 0.5 ** (n + 1) * scale, kap2 * s * co / d, kap2, kapc * kapc))
            s, co = (1.0 + kapc) * s * co / d, (co * co - kapc * (s * s)) / d
        (_, w, q, _, _), *rungs = rungs
        bound = abs(q) / (1.0 + red.kc)
        theta = (Z * scale, (w, q, -bound, bound), rungs)
    return PhaseConstants(
        descent=descent(red.ladder), kc2=kc2, one_c2=one_c2, c2=c * c, rho=rho,
        rhoc4=(kc2 / one_c2) ** 2, two_one_rho=2.0 * (1.0 + rho),
        two_rho_one_c2=2.0 * rho * one_c2, Chc=red.C_const * red.h * red.one_c,
        two_E=2.0 * red.curve.E, cL=cL, theta=theta)


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exact orbit, evaluable at any time.

    It keeps one batch of its own states, circuit: the first batch of the
    closed-circuit trapezoid rule of the actions, 257 x 4 float64 (8 KiB),
    formed by the first action on the orbit and freed with it.
    """

    curve: QuarticCurve
    reduction: LegendreReduction
    phase_constants: PhaseConstants = field(repr=False, compare=False)  # formed by the build
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

    @property
    def circuit_span(self) -> tuple[float, float]:
        """The closed circuit (0, recurrence_time) of the actions."""
        return 0.0, self.recurrence_time

    @cached_property
    def circuit(self) -> np.ndarray:
        """The states at CIRCUIT_NODES equispaced times over circuit_span,
        one row (x, y, xdot, ydot) per time, read-only
        (dynamics.circuit_states).  Formed on first use and kept:
        action_direct and action_increment both read it."""
        return circuit_states(self)

    def eval(self, t):
        return eval_solution(self, t)


def _third_kind(pc: PhaseConstants, j, v, sn, cn, dn, phi, sin_phi):
    """c J2 at u = v + 2K j, for c != 0: Jacobi's third-kind integral at the
    parameter a, sn a = c/k, over k cn a dn a (see the module docstring and
    _phase_constants), continued by j c L:

        c J2 = [v Z(a) - sum_n 2^-(n+1) artanh(q_n sin phi_n cos phi_n / d_n)]
               / (k cn a dn a) + j c L.

    pc holds the constants (PhaseConstants); v is the folded phase and phi,
    sin_phi its Landen phases (elliptic._sn_cn_rungs).  A rung that carries
    weight costs one artanh, and rung 0 takes sin phi_0 cos phi_0 / d_0 =
    sn cn/dn.  Only at rung 0 can |B/A| come near 1, as k' -> 0, so only
    there is the rounding of its argument held inside (-1, 1).
    """
    xp = _xp.of(sn)
    Z, (w, q, lo, hi), rungs = pc.theta
    S = q * sn
    S *= cn
    S /= dn
    S = xp.arctanh(xp.minimum(xp.maximum(S, lo), hi))
    S *= w
    for n, w, q, kap2, kapc2 in rungs:
        # d_n^2 = kappa'^2 + kappa^2 cos^2 phi_n, a sum of positive terms
        co = xp.cos(phi[n])
        d = co * co
        d *= kap2
        d += kapc2
        a = q * sin_phi[n]
        a *= co
        a /= xp.sqrt(d)
        a = xp.arctanh(a)
        a *= w
        S += a
    out = v * Z  # v Z - S + j c L
    out -= S
    out += j * pc.cL
    return out


def _sn_integral(pc: PhaseConstants, j, sn, cn, v, phi, sin_phi):
    """G(u) = int_0^u sn/(1 + c sn) du' = J1 - c J2 at u, from the descent of
    elliptic._sn_cn_rungs: the half period j, sn, cn, the folded phase
    v = u - 2K j and the Landen phases phi, sin_phi of v; pc holds the
    constants (PhaseConstants).

    Every factor of J1 is a sum or product of positive terms: next to k = 1
    (rho -> 1) the complement rho'^2 = 1 - rho^2 = k'^2/(1 - c^2) is taken
    from k', and where cn < 0 the denominator dn + rho cn is rewritten as
    rho'^2 (1 - c^2 sn^2)/(dn - rho cn).  On p = 0, c = 0 and G = J1; c J2
    (_third_kind) runs only where c != 0.
    """
    xp = _xp.of(sn)
    one_c2 = pc.one_c2
    s2, cn2 = sn * sn, cn * cn
    dn = pc.kc2 * s2
    dn += cn2
    dn = xp.sqrt(dn)
    den = pc.c2 * cn2
    den += one_c2  # 1 - c^2 sn^2
    den *= pc.rhoc4
    # 2 [atanh(rho) - atanh(rho cn/dn)] = log1p(rho Y), on either side of cn = 0,
    # with Y / 2 (1 + rho) = (1 - c^2) sn^2 / (front back) or front back / (rho'^4 den)
    back = abs(cn)
    front = dn + back
    back *= pc.rho
    back += dn
    front *= back
    s2 *= one_c2
    s2 /= front
    Y = xp.where(cn >= 0.0, s2, front / den)
    Y *= pc.two_one_rho
    Y *= pc.rho
    J1 = xp.log1p(Y)
    J1 /= pc.two_rho_one_c2
    if pc.theta is None:
        return J1
    J1 -= _third_kind(pc, j, v, sn, cn, dn, phi, sin_phi)
    return J1


def _sheet(curve: QuarticCurve, xdot_sign: int, cos_x0: float, j, flip):
    """Sheet index m at half period j, and cos x = (-1)^m; flip = (-1)^j.

    x = pi m + (-1)^m asin z.  A trapped oval stays on the sheet of x0; a
    crossing oval reaches the wall on the side of p, since its turning
    roots p -+ sqrt(2E) straddle that wall only, and m alternates between 0
    and +-1 there; a winding orbit steps one sheet at each wall, in the
    direction of xdot.  On a crossing orbit m = wall b with
    b = floor((j + (1 + wall)/2)/2) mod 2, both taken by floor (_xp.floor,
    _xp.mod2): on a whole number j they equal numpy's // and %, signed
    zeros, NaN and inf included, at a fraction of their cost.
    """
    if curve.kind == WINDING:
        if xdot_sign > 0:
            return j, flip
        return -j - 1.0, -flip
    if curve.kind == CROSSING:
        xp = _xp.of(j)
        wall = -1.0 if curve.p < 0.0 else 1.0
        b = _xp.mod2(xp.floor(0.5 * (j + 0.5 * (1.0 + wall))))
        m = wall * b
        b *= -2.0
        b += 1.0
        return m, b
    m = 0.0 if cos_x0 > 0 else 1.0
    return m, 1.0 - 2.0 * m


def _orbit_phase(red: LegendreReduction, pc: PhaseConstants, xdot_sign: int, cos_x0: float, u):
    """(x - x_offset, z, the sign of xdot, G) at the phases u, a float or an array;
    pc is the orbit's PhaseConstants.

    _sn_cn_rungs decides the half period j of each phase and its parity,
    the sign of zdot; the sheet of x, cos x and G's continuation read that
    one j.
    build_solution takes its start here at the float D/C and eval_solution
    every sample at (t + D)/C, a float for a scalar t; a float phase equals
    its lane of an array bit for bit, so y(0) = y0 on either path.
    """
    xp = _xp.of(u)
    j, flip, sn, cn, v, phi, sin_phi = _sn_cn_rungs(u, pc.descent)
    z = _z_of_xi(red, sn)  # sn lies in [-1, 1] by construction
    m, cos_sign = _sheet(red.curve, xdot_sign, cos_x0, j, flip)
    # z lies on the oval [a1, a2], inside [-1, 1]; x = pi m + cos_sign asin z
    x = xp.arcsin(z)
    x *= cos_sign
    x += np.pi * m
    return x, z, flip * cos_sign, _sn_integral(pc, j, sn, cn, v, phi, sin_phi)


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
    xi0 = 1.0 if zc == curve.a2 else min(max(_xi_of_zeta(red, zc - curve.a1), -1.0), 1.0)
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
    pc = _phase_constants(red)
    x_hat0, _, _, G0 = _orbit_phase(red, pc, xdot_sign, cos_x0, D / C)
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
        curve=curve, reduction=red, phase_constants=pc,
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
    xp, red, pc = _xp.of(t), sol.reduction, sol.phase_constants
    u = t + sol.D
    u /= sol.C
    x, z, xdot, G = _orbit_phase(red, pc, sol.xdot_sign, math.cos(sol.x0), u)
    x += sol.x_offset
    ydot = sol.p - z
    # xdot = sign sqrt(max(2E - ydot^2, 0))
    xdot *= xp.sqrt(xp.maximum(pc.two_E - ydot * ydot, 0.0))
    # y - y0 = int_0^t (p - z) dt = (p - nu) t - C h (1 - c) (G(u) - G(u0))
    G -= sol._G0
    G *= pc.Chc
    y = xp.multiply(red.q, t)  # q = 0 at p = 0: an infinite t gives NaN, silently
    y += sol.y0
    y -= G
    if scalar:
        return PhaseState(float(x), float(y), float(xdot), float(ydot))
    return x, y, xdot, ydot
