"""Reduction of the quartic curve w^2 = (1-z^2)(2E-(p-z)^2) to Legendre form.

With z = sin(x), the time quadrature of the flow runs over the bounded real
oval of the elliptic curve

    w^2 = P(z) = (z - a1)(z - a2)(z - a3)(z - a4),

whose roots are {-1, +1, p - sqrt(2E), p + sqrt(2E)} labelled in the order
a3 < a1 < a2 < a4, so the oval covers the middle interval [a1, a2].  One
fractional-linear change of variable takes the curve to the normal form

    eta^2 = (1 - xi^2)(1 - k^2 xi^2),      0 < k^2 < 1,

with dz/w = C dxi/eta for a positive constant C, so every orbit is sn of
time and its sin(x) period is 4 C K(k).  The map sends the common harmonic
conjugates (nu, mu) of the root pairs {a1, a2} and {a3, a4} to xi = 0 and
xi = infinity:

    xi = (zeta - h) / (h (1 - s zeta)),   zeta = z - a1,  h = nu - a1,
                                           s = 1 / (mu - a1).

It is anchored at a1 and its constants are built only from the positive
root gaps, so they keep full accuracy as mu escapes to infinity or closes
in on a root next to a separatrix; s = 0 exactly when the two root pairs
share a midpoint (always for p = 0), and the map is then affine.  The
reduction forms c = s h (the inverse map is z = a1 + h (1 + xi)/(1 + c xi))
and q = p - nu once, as fields of LegendreReduction.  It is normalized so that xi(a1) = -1, xi(a2) = +1, xi(a3) = -1/k,
xi(a4) = +1/k.  One self-check, _passes, tests a reduction: 0 < k^2 < 1,
K not NaN, C > 0 and the map targets; reduce_to_legendre raises
ReductionInconsistency when it fails, and reduce_lanes masks those lanes.

quartic_from_params is the one home of the root picture: it forms the
turning roots p -+ sqrt(2E), the ordered roots, the five root gaps the
reduction reads, the wall nearest a turning root, and the kind of the level
(OrbitKind: trapped, crossing, winding, separatrix, vertical line or
forbidden).  A curve is degenerate exactly when its kind is a separatrix or
a vertical line; orbits.classify, orbits.cycle_data and
closedform.build_solution read the kind rather than testing the roots again.

The root ordering, the kind, the map constants, K and the oval moments are
written once over operands that are Python floats (one level:
quartic_from_params, reduce_to_legendre) or float arrays of one shape (a
grid of levels: reduce_lanes, which orbits.cycle_data runs); one lane of an
array call equals the float call bit for bit (see _xp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _xp
from .elliptic import Descent, Ladder, complete_L, complete_RD, descent, masked_K_ladder
from .errors import DegenerateCurve, DomainError, ReductionInconsistency

#: absolute root-gap threshold below which the level is a separatrix (beyond
#: it the period integral diverges and there is no oval to reduce)
EPS_DEGENERATE = 1e-9

#: tolerance, relative to max(1, sqrt(2E), |p|), under which a turning root
#: on a wall is the exact vertical line x = +-pi/2
EPS_VERTICAL = 1e-12

#: accuracy demanded of the internal map-normalization checks
_NORMALIZATION_TOL = 1e-10


class OrbitKind(str, Enum):
    """Orbit type of a level (E, p); QuarticCurve.kind indexes tuple(OrbitKind)."""

    TRAPPED_OVAL = "TrappedOval"
    CROSSING_LIBRATOR = "CrossingLibrator"
    WINDING = "Winding"
    SEPARATRIX = "Separatrix"
    VERTICAL_LINE = "VerticalLine"
    FORBIDDEN = "Forbidden"


KINDS = tuple(OrbitKind)
TRAPPED, CROSSING, WINDING, SEPARATRIX, VERTICAL, FORBIDDEN = range(len(KINDS))


@dataclass(frozen=True)
class QuarticCurve:
    """The curve w^2 = (1-z^2)(2E-(p-z)^2) with ordered roots a3<a1<a2<a4.

    z1 <= z2 are the turning roots p -+ sqrt(2E), g_ij = a_i - a_j the
    positive root gaps, wall the wall z = +-1 nearest a turning root and
    kind the index into OrbitKind.
    The fields are floats (kind an int), or arrays of one shape for a
    batch of levels.
    """

    E: float
    p: float
    z1: float
    z2: float
    a1: float
    a2: float
    a3: float
    a4: float
    g13: float
    g21: float
    g23: float
    g41: float
    g42: float
    wall: float
    kind: int

    @property
    def degenerate(self):
        """The level has no oval to reduce: a separatrix or a vertical line."""
        return (self.kind == SEPARATRIX) | (self.kind == VERTICAL)


def quartic_from_params(E, p) -> QuarticCurve:
    """Build the quartic for the level set (E, p) and decide its kind.

    E and p are floats, or float arrays of one shape.  The roots are
    {-1, 1} merged with z1 <= z2.  The kind follows the turning roots:

    * vertical line  - a turning root within EPS_VERTICAL (relative) of a wall;
    * separatrix     - else a gap the reduction divides by, g13, g21 or
                       g42, below EPS_DEGENERATE;
    * forbidden      - else |p| > 1 + sqrt(2E), no real motion;
    * winding        - else z1 < -1 and z2 > 1, the oval is [-1, 1];
    * crossing       - else one of them, the oval reaches one wall;
    * trapped oval   - else the oval [z1, z2] lies inside (-1, 1).
    """
    xp = _xp.of(E)
    E, p = xp.real(E), xp.real(p)
    if not xp.all(E > 0.0):
        raise DomainError(f"energy must be positive, got {E}")
    a = xp.sqrt(2.0 * E)
    z1, z2 = p - a, p + a
    lo, hi = xp.maximum(-1.0, z1), xp.minimum(1.0, z2)
    a3, a1, a2, a4 = (xp.minimum(-1.0, z1), xp.minimum(lo, hi), xp.maximum(lo, hi),
                      xp.maximum(1.0, z2))
    g13, g21, g42 = a1 - a3, a2 - a1, a4 - a2
    d_plus = xp.minimum(abs(z2 - 1.0), abs(z1 - 1.0))
    d_minus = xp.minimum(abs(z2 + 1.0), abs(z1 + 1.0))
    wall_gap = xp.minimum(d_plus, d_minus)
    left, right = z1 < -1.0, z2 > 1.0
    oval = xp.where(left & right, WINDING, xp.where(left | right, CROSSING, TRAPPED))
    scale = xp.maximum(xp.maximum(1.0, a), abs(p))
    kind = xp.where(
        wall_gap < EPS_VERTICAL * scale, VERTICAL,
        xp.where(xp.minimum(xp.minimum(g13, g21), g42) < EPS_DEGENERATE, SEPARATRIX,
                 xp.where(abs(p) > 1.0 + a, FORBIDDEN, oval)))
    return QuarticCurve(
        E=E, p=p, z1=z1, z2=z2, a1=a1, a2=a2, a3=a3, a4=a4,
        g13=g13, g21=g21, g23=a2 - a3, g41=a4 - a1, g42=g42,
        wall=xp.where(d_plus <= d_minus, 1.0, -1.0), kind=kind,
    )


class PhaseConstants(NamedTuple):
    """The constants of the closed-form phase of one float reduction
    (LegendreReduction.phase_constants): the descent of sn
    (elliptic.Descent), the inverse map z(xi) (_z_of_xi), J1, y(t) and
    xdot of closedform, and the third-kind term where c != 0 (theta:
    theta_terms with rung 0's artanh bound as the pair -bound, bound; None
    where c = 0, as is cL).  Each is formed once, by the expression and in
    the order the phase would use per call, so the phase's values do not
    depend on where they were formed."""

    descent: Descent
    a1: float
    a2: float
    h: float
    c: float
    kc2: float             # k'^2
    one_c2: float          # 1 - c^2
    c2: float              # c^2
    rho: float             # sqrt((k^2 - c^2)/(1 - c^2))
    rhoc4: float           # rho'^4 = (k'^2/(1 - c^2))^2
    two_one_rho: float     # 2 (1 + rho)
    two_rho_one_c2: float  # 2 rho (1 - c^2)
    p: float
    q: float
    C: float
    Chc: float             # C h (1 - c)
    two_E: float           # 2E
    cL: float | None       # c L
    theta: tuple | None


@dataclass(frozen=True)
class LegendreReduction:
    """Constants and coordinate map taking the quartic to Legendre form.

    The map is xi = (zeta - h) / (h (1 - s zeta)) with zeta = z - a1, and
    its inverse z - a1 = h (1 + xi) / (1 + c xi) with c = s h.  c and
    q = p - nu, the momentum less the centre of the map (xi = 0), are
    fields, formed once by the reduction.  The fields are floats, or
    arrays of one shape when the curve's are.  A float reduction also
    keeps, once formed, the constants of a closed-form orbit on it: L,
    theta_terms and phase_constants.
    """

    curve: QuarticCurve
    k2: float
    k: float
    kc: float  # k' = sqrt(1 - k^2), from the root gaps
    K: float   # K(k) with this k'
    ladder: Ladder = field(repr=False, compare=False)  # the AGM rungs: K, R_D, L, sn, cn and F
    C_const: float
    s: float  # 1/(mu - a1), the reciprocal pole measured from a1
    h: float  # nu - a1, the scale of the map
    c: float  # s h, the image -1/c of z = infinity
    q: float  # p - nu
    # the differences that cancel next to |c| = 1 or |c| = k,
    # from the root gaps: 1 - c, 1 - c^2 and k^2 - c^2
    one_c: float
    one_c2: float
    k2_c2: float

    @cached_property
    def L(self) -> float:
        """L = int_{-1}^{1} xi^2 dxi / ((1 - c^2 xi^2) eta) = (2/3) R_J(0, k'^2, 1, 1 - c^2).

        c = s h; the integral over one half of the sn cycle (DLMF 19.25.2),
        read from the rungs of the AGM ladder of K by the sequence of DLMF
        19.8.6 (elliptic.complete_L).  Computed on first use and kept: the
        moments and y(t) both read it.
        """
        return complete_L(self.ladder, self.one_c2)

    @cached_property
    def theta_terms(self) -> tuple[float, tuple, list]:
        """(Z(a)/d, rung 0, rungs): the constants of the parameter a of y(t)'s
        third-kind term, sn(a, k) = c/k, on a float reduction with c != 0;
        d = k cn a dn a.

        The phase of a ascends the AGM ladder by the Landen step of its
        rung n, tan(phi_{n+1} - phi_n) = kappa'_n tan phi_n with
        kappa_n = c_n/a_n and kappa'_n = b_n/a_n, here in products of sin and
        cos: from sin phi_0 = c/k, cos phi_0 = cn a = sqrt(k^2 - c^2)/k and
        d_0 = dn a = sqrt(1 - c^2),

            sin phi_{n+1} = (1 + kappa'_n) sin phi_n cos phi_n / d_n,
            cos phi_{n+1} = (cos^2 phi_n - kappa'_n sin^2 phi_n) / d_n,
            d_n = sqrt(cos^2 phi_n + kappa'_n^2 sin^2 phi_n),

        so no angle is rounded and sin phi_n keeps its relative accuracy as
        a -> K on a tiny oval.  Z(a) = sum_{n>=1} c_n sin phi_n (the zeta
        function on the ladder, A&S 17.6), and q_n = kappa_n^2 sin phi_n
        cos phi_n / d_n.  Rung 0 gives its weight 1/(2d), q_0 = c rho with
        rho^2 = (k^2 - c^2)/(1 - c^2), and |q_0|/(1 + k'), the bound of its
        artanh argument, since |sin phi cos phi / d| <= 1/(1 + kappa').
        Each later rung n whose kappa_n^2 is at least 1e-18 k^2 gives
        (n, 2^-(n+1)/d, q_n, kappa_n^2, kappa'_n^2); a lower rung adds
        nothing to closedform._third_kind, whatever the level.  Computed on
        first use and kept, so a build forms them once and an evaluation not
        at all.
        """
        lad, k2 = self.ladder, self.k2
        d = math.sqrt(self.one_c2)
        scale = 1.0 / (d * math.sqrt(self.k2_c2))  # 1/(k cn a dn a)
        s, co = self.c / self.k, math.sqrt(self.k2_c2) / self.k
        Z, rungs = 0.0, []
        for n, (a, b, c) in enumerate(zip(lad.a, lad.b, lad.c)):
            kap2, kapc = (c / a) * (c / a), b / a
            if n:
                d = math.sqrt(co * co + kapc * kapc * (s * s))
                Z += c * s
            if kap2 >= 1e-18 * k2:
                rungs.append((n, 0.5 ** (n + 1) * scale, kap2 * s * co / d, kap2, kapc * kapc))
            s, co = (1.0 + kapc) * s * co / d, (co * co - kapc * (s * s)) / d
        (_, w0, q0, _, _), *rungs = rungs
        return Z * scale, (w0, q0, abs(q0) / (1.0 + self.kc)), rungs

    @cached_property
    def phase_constants(self) -> PhaseConstants:
        """The PhaseConstants of a float reduction, in Python floats: the
        constants of every closed-form phase on it, on floats and on arrays
        alike.  Formed on first use (by build_solution, at its start phase)
        and kept.  A float operand gives numpy the float64 operation that a
        0-d array of it would, so one record serves both operands bit for
        bit, and a 0-d copy would cost more to form than an orbit's one or
        two array evaluations save (_xp).
        """
        c, one_c2 = self.c, self.one_c2
        kc2 = self.kc * self.kc
        rho = math.sqrt(self.k2_c2 / one_c2)
        cL = theta = None
        if c != 0.0:
            cL = c * self.L
            Z, (w, q, bound), rungs = self.theta_terms
            theta = (Z, (w, q, -bound, bound), rungs)
        cv = self.curve
        return PhaseConstants(
            descent=descent(self.ladder), a1=cv.a1, a2=cv.a2, h=self.h, c=c,
            kc2=kc2, one_c2=one_c2, c2=c * c, rho=rho, rhoc4=(kc2 / one_c2) ** 2,
            two_one_rho=2.0 * (1.0 + rho), two_rho_one_c2=2.0 * rho * one_c2,
            p=cv.p, q=self.q, C=self.C_const, Chc=self.C_const * self.h * self.one_c,
            two_E=2.0 * cv.E, cL=cL, theta=theta)

    def cycle_values(self):
        """(period, Delta_y, action) of one sin-x cycle, 2 m_0, -2 m_1 and
        2 int (2E + z(p - z)) dz/w, from the oval moments m_j = int_{a1}^{a2}
        (z - p)^j dz / w, j = 0, 1, 2, in closed form; floats or array lanes.

        The moments are first taken about the centre nu = a1 + h of the map
        (xi = 0).  With c = s h the map reads z - nu = h (1 - c) xi / (1 + c xi)
        and dz/w = C dxi/eta; only the even part survives the symmetric
        integral over [-1, 1], which leaves K and two complete integrals of
        the third kind with characteristic c^2 (Byrd & Friedman, four real
        roots; DLMF 19.25.2 for their Carlson forms):

            L = int xi^2 dxi / ((1 - c^2 xi^2) eta) = (2/3) R_J(0, k'^2, 1, 1 - c^2)
            M = int xi^2 dxi / ((1 - c^2 xi^2)^2 eta)
              = [c^2 K - k^2 R_D/3 + (c^4 - k^2) L/2] / ((k^2 - c^2)(c^2 - 1))
            n_0 = 2 C K,  n_1 = -C h c (1 - c) L,  n_2 = C h^2 (1 - c)^2 (2M - L)

        with R_D = R_D(0, k'^2, 1) = 3 (K - E)/k^2, which DLMF 19.8.5 gives
        from the rungs of the AGM ladder of K (elliptic.complete_RD), as
        DLMF 19.8.6 gives L, and k', 1 - c, 1 - c^2 and k^2 - c^2 from the
        root gaps.  No term divides by c, and |c| < k < 1, so
        p = 0 (c = 0) takes the same formulas.  The shift to p uses the
        accurately summed field q = p - nu, so a nearly symmetric oval,
        where m_1 is small, keeps its digits.
        """
        k2, c, q, L = self.k2, self.c, self.q, self.L
        c2 = c * c
        # c^4 - k^2 = -(k^2 - c^2) - c^2 (1 - c^2): no cancellation
        M = (self.k2_c2 + c2 * self.one_c2) * L / 2.0
        M += k2 * complete_RD(self.ladder, k2) / 3.0
        M -= c2 * self.K
        M /= self.k2_c2 * self.one_c2
        M *= 2.0
        M -= L
        C, hc = self.C_const, self.h * self.one_c
        n0, n2 = 2.0 * C * self.K, C * hc
        n1 = -n2 * c * L
        n2 *= hc
        n2 *= M  # C hc^2 (2M - L)
        # the moments about p: m0 = n0, m1 = n1 - q n0, m2 = n2 - 2 q n1 + q^2 n0
        n2 -= 2.0 * q * n1
        n2 += q * q * n0
        n1 -= q * n0
        E, p = self.curve.E, self.curve.p
        # 2E + z(p - z) = 2E - p (z - p) - (z - p)^2
        return 2.0 * n0, -2.0 * n1, 2.0 * (2.0 * E * n0 - p * n1 - n2)


def _map_targets(red: LegendreReduction):
    """(z, xi(z), wanted xi) of the four roots: the map sends a1, a2, a3, a4
    to -1, 1, -1/k, 1/k.  Floats or array lanes."""
    cv, k = red.curve, red.k
    return [(z, _xi_of_zeta(red, z - cv.a1), want)
            for z, want in ((cv.a1, -1.0), (cv.a2, 1.0), (cv.a3, -1.0 / k), (cv.a4, 1.0 / k))]


def _passes(red: LegendreReduction):
    """The one self-check of a reduction: 0 < k^2 < 1, K not NaN, C > 0, and
    the map sends each root to its target within _NORMALIZATION_TOL.

    zeta = z - a1 is read from the gaps, g21, -g13 and g41 at a2, a3 and a4
    (fl(x - y) = -fl(y - x)).  a1's xi is -h/h, -1 wherever h is finite and
    nonzero; elsewhere k is 0 or NaN, and where s is not finite a2's target
    fails, so a1 needs no test.  _map_targets gives all four for a message.
    A float, or a mask over array lanes.  Every test is a comparison that
    is false on NaN, so a NaN anywhere fails the check.
    """
    cv, inv_k, tol = red.curve, 1.0 / red.k, _NORMALIZATION_TOL
    tol_k = tol * abs(inv_k)  # tol |want|: |want| >= 1 once 0 < k^2 < 1
    ok = (0.0 < red.k2) & (red.k2 < 1.0) & (red.K == red.K) & (red.C_const > 0.0)
    for zeta, want, bound in ((cv.g21, 1.0, tol), (-cv.g13, -inv_k, tol_k),
                              (cv.g41, inv_k, tol_k)):
        ok &= abs(_xi_of_zeta(red, zeta) - want) <= bound
    return ok


def _reduction(curve: QuarticCurve) -> LegendreReduction:
    """The constants of reduce_to_legendre, unchecked; float or array roots."""
    g13, g21, g23, g41, g42 = curve.g13, curve.g21, curve.g23, curve.g41, curve.g42
    sqrt = _xp.of(g13).sqrt
    # a product or sum used twice is formed once (g23 g41 = g41 g23 exactly)
    g13_41, g41_23 = g13 * g41, g41 * g23
    R = sqrt(g13_41 * g23 * g42)
    w1, w2, w3, w4 = g13_41 + R, g23 * g42 + R, g13 * g23 + R, g41 * g42 + R
    h = g21 / (1.0 + w2 / w1)
    k = h * (w3 / w1) / (g13 + h)
    C_const = 2.0 * k * sqrt(w1 * w2 / (w3 * w4)) / g21
    kappa_c = R / g41_23  # sqrt(g13 g42 / (g41 g23))
    T = g13_41 / R        # sqrt(g13 g41 / (g42 g23))
    one_T, one_kappa_c = 1.0 + T, 1.0 + kappa_c
    one_c2 = 4.0 * T / (one_T * one_T)
    kc = 2.0 * sqrt(kappa_c) / one_kappa_c
    K, ladder = masked_K_ladder(k, kc)
    s = (curve.a1 + curve.a2 - curve.a3 - curve.a4) / w1
    # q = (2p - a1 - a2 - (p - a1) g21 s) / (2 - g21 s), from
    # h = g21 / (2 - g21 s); 2p - a1 - a2 is summed by error-free TwoSums and
    # rounded at the end, so a nearly symmetric oval, where q is small, keeps
    # its digits
    g21s = g21 * s
    s1, e1 = _xp.two_sum(2.0 * curve.p, -curve.a1)
    s2, e2 = _xp.two_sum(s1, -curve.a2)
    return LegendreReduction(
        curve=curve, k2=k * k, k=k, kc=kc, K=K, ladder=ladder,
        C_const=C_const, s=s, h=h, c=s * h,
        q=(s2 + (e1 + e2) - (curve.p - curve.a1) * g21s) / (2.0 - g21s),
        one_c=2.0 / one_T, one_c2=one_c2,
        # a product, not ** 2: numpy squares exactly, libm's pow need not
        k2_c2=one_c2 * g21 * g21 / (g41_23 * (one_kappa_c * one_kappa_c)),
    )


def reduce_to_legendre(curve: QuarticCurve) -> LegendreReduction:
    """Reduce a non-degenerate quartic to Legendre normal form.

    Everything is built from the positive root gaps g_ij = a_i - a_j.  The
    distances mu - a_i are w_i / (a1 + a2 - a3 - a4), with w_i a product
    of two gaps plus R = sqrt(g13 g41 g23 g42), so the ratios
    v_i = (mu - a_i) / (mu - a1) = w_i / w1 keep full relative accuracy
    however close mu comes to a root or to infinity.  h = g21 / (1 + v2)
    fixes xi(a1) = -1 and xi(a2) = +1; then k = h v3 / (g13 + h) and
    C = 2 k sqrt(v2 / (v3 v4)) / g21.  The complement k' comes from the
    gaps too, by the Landen relation k'^2 = 4 kappa' / (1 + kappa')^2 with
    kappa'^2 = g13 g42 / (g41 g23), not from (1 - k)(1 + k): next to a
    separatrix K(k) would magnify the last bit of k.  So do 1 - c, 1 - c^2
    and k^2 - c^2 (c = s h, the image -1/c of z = infinity): the cross
    ratios of (a1, a2, infinity, a4) and (a1, a2, infinity, a3) give
    T = (1 + c)/(1 - c) = sqrt(g41 g13 / (g42 g23)), so 1 - c = 2/(1 + T),
    1 - c^2 = 4T/(1 + T)^2 and
    k^2 - c^2 = (1 - c^2) g21^2 / (g23 g41 (1 + kappa')^2).
    """
    if curve.degenerate:
        # the rule of quartic_from_params that decided the kind
        if curve.kind == VERTICAL:
            gap = min(abs(curve.z1 - curve.wall), abs(curve.z2 - curve.wall))
            rule = (f"turning root {gap!r} from the wall z = {curve.wall:g}, vertical-line "
                    f"threshold EPS_VERTICAL = {EPS_VERTICAL} relative to max(1, sqrt(2E), |p|)")
        else:
            gap = min(curve.g13, curve.g21, curve.g42)
            rule = f"smallest root gap {gap!r}, separatrix threshold {EPS_DEGENERATE}"
        raise DegenerateCurve(
            f"curve at (E={curve.E}, p={curve.p}) is a {KINDS[curve.kind].value}: {rule}")
    red = _reduction(curve)
    if not _passes(red):
        targets = ", ".join(f"xi({z:.6g}) = {got:.17g} (want {want:.17g})"
                            for z, got, want in _map_targets(red))
        raise ReductionInconsistency(
            f"Legendre reduction failed its self-check: k^2 = {red.k2:.6g}, "
            f"C = {red.C_const:.6g}, {targets}"
        )
    return red


def reduce_lanes(curve: QuarticCurve) -> tuple[LegendreReduction, np.ndarray]:
    """reduce_to_legendre over a curve with array fields, one lane per level.

    Returns the reduction of every lane and the mask of the lanes where
    reduce_to_legendre raises: a degenerate curve, or a reduction that fails
    _passes (a modulus outside the domain of K gives K = NaN there).  Those
    lanes hold garbage, as do forbidden ones, whose roots bound no motion, so
    call it under np.errstate(all="ignore").
    """
    red = _reduction(curve)
    return red, curve.degenerate | ~_passes(red)


def _xi_of_zeta(red: LegendreReduction, zeta):
    return (zeta - red.h) / (red.h * (1.0 - red.s * zeta))


def _z_of_xi(red: LegendreReduction, xi):
    """z of xi in [-1, 1], a float or an array, clamped to the oval [a1, a2]
    that rounding may leave by an ulp; on a float reduction."""
    xp, pc = _xp.of(xi), red.phase_constants
    z = xi + 1.0  # a1 + h (1 + xi)/(1 + c xi)
    z *= pc.h
    den = pc.c * xi
    den += 1.0
    z /= den
    z += pc.a1
    return xp.minimum(xp.maximum(z, pc.a1), pc.a2)


def map_z_to_xi(red: LegendreReduction, z):
    """Forward coordinate map, defined on the bounded oval [a1, a2]."""
    z_arr = np.asarray(z, dtype=float)
    c = red.curve
    slack = 1e-12 * max(1.0, abs(c.a1), abs(c.a2))
    if z_arr.size and (z_arr.min() < c.a1 - slack or z_arr.max() > c.a2 + slack):
        raise DomainError(
            f"z outside the bounded oval [{c.a1:.6g}, {c.a2:.6g}]"
        )
    z_arr = np.minimum(np.maximum(z_arr, c.a1), c.a2)
    out = np.minimum(np.maximum(_xi_of_zeta(red, z_arr - c.a1), -1.0), 1.0)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out

