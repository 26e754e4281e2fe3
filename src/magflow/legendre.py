"""Reduction of the quartic curve w^2 = (1-z^2)(2E-(p-z)^2) to Legendre form.

With z = sin(x), the time quadrature of the flow runs over the bounded real
oval of the elliptic curve

    w^2 = P(z) = (z - a1)(z - a2)(z - a3)(z - a4),

whose roots are {-1, +1, p - sqrt(2E), p + sqrt(2E)} labelled in the order
a3 < a1 < a2 < a4, so the oval covers the middle interval [a1, a2].  A
fractional-linear change of variable takes the curve to the normal form

    eta^2 = (1 - xi^2)(1 - k^2 xi^2),      0 < k^2 < 1,

with dz/w = C dxi/eta for a positive constant C.  Two branches:

* common-center case: the two quadratic factors Q1 = (z-a1)(z-a2) and
  Q2 = (z-a3)(z-a4) share a midpoint (always true for p = 0); then the
  affine map xi = (z - m)/h works directly, with k^2 = h^2/(m - a3)^2 and
  C = 1/|a3 - m|.
* general case: mu, nu are the common harmonic conjugates of the two root
  pairs, obtained from the eigenvalue problem of the quadratic pair; the
  map is xi = (1/lambda)(z - nu)/(z - mu).

The map is normalized so that xi(a1) = -1, xi(a2) = +1, xi(a3) = -1/k,
xi(a4) = +1/k; all four values are verified internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateCurve, DomainError, ReductionInconsistency

#: absolute root-gap threshold below which the curve is flagged degenerate
#: (beyond it the period integral diverges and the orbit is a separatrix,
#: which belongs to the classifier rather than to the reducer)
EPS_DEGENERATE = 1e-9

#: accuracy demanded of the internal map-normalization checks
_NORMALIZATION_TOL = 1e-10


class ReductionCase(str, Enum):
    SYMMETRIC = "symmetric"
    GENERAL = "general"


class OvalKind(str, Enum):
    """Position of the bounded oval relative to the unit interval in z."""

    TRAPPED = "trapped"          # both middle roots strictly inside (-1, 1)
    CROSS_LEFT = "cross_left"    # oval [-1, z2]: orbit crosses x = -pi/2
    CROSS_RIGHT = "cross_right"  # oval [z1, +1]: orbit crosses x = +pi/2
    WINDING = "winding"          # oval [-1, +1]: xdot never vanishes


@dataclass(frozen=True)
class QuarticCurve:
    """The curve w^2 = (1-z^2)(2E-(p-z)^2) with ordered roots a3<a1<a2<a4."""

    E: float
    p: float
    a1: float
    a2: float
    a3: float
    a4: float
    min_gap: float
    degenerate: bool

    @property
    def turning_roots(self) -> tuple[float, float]:
        """Zeros (z1, z2) of 2E - (p-z)^2, the sin(x) values where xdot = 0."""
        a = math.sqrt(2.0 * self.E)
        return self.p - a, self.p + a

    def P(self, z):
        z = np.asarray(z, dtype=float)
        return (z - self.a1) * (z - self.a2) * (z - self.a3) * (z - self.a4)

    def w(self, z):
        """Positive branch sqrt(P(z)) on the bounded oval."""
        return np.sqrt(np.maximum(self.P(z), 0.0))

    def oval_kind(self) -> OvalKind:
        if self.degenerate:
            raise DegenerateCurve(
                f"curve at (E={self.E}, p={self.p}) has root gap "
                f"{self.min_gap:.3g} < {EPS_DEGENERATE}"
            )
        left = abs(self.a1 + 1.0) < EPS_DEGENERATE
        right = abs(self.a2 - 1.0) < EPS_DEGENERATE
        if left and right:
            return OvalKind.WINDING
        if left:
            return OvalKind.CROSS_LEFT
        if right:
            return OvalKind.CROSS_RIGHT
        return OvalKind.TRAPPED


def quartic_from_params(E: float, p: float) -> QuarticCurve:
    """Build the quartic for the level set (E, p); degeneracy is flagged, not raised."""
    if not E > 0.0:
        raise DomainError(f"energy must be positive, got {E}")
    a = math.sqrt(2.0 * E)
    roots = np.sort([-1.0, 1.0, p - a, p + a])
    min_gap = float(np.diff(roots).min())
    a3, a1, a2, a4 = (float(r) for r in roots)
    return QuarticCurve(
        E=float(E), p=float(p), a1=a1, a2=a2, a3=a3, a4=a4,
        min_gap=min_gap, degenerate=min_gap < EPS_DEGENERATE,
    )


@dataclass(frozen=True)
class LegendreReduction:
    """Constants and coordinate map taking the quartic to Legendre form."""

    curve: QuarticCurve
    case_tag: ReductionCase
    k2: float
    k: float
    C_const: float
    # common-center branch
    center: float | None = None
    halfwidth: float | None = None
    # general branch
    mu: float | None = None
    nu: float | None = None
    lam: float | None = None


def _reduce_symmetric(curve: QuarticCurve) -> LegendreReduction:
    m = 0.5 * (curve.a1 + curve.a2)
    h = 0.5 * (curve.a2 - curve.a1)
    span = m - curve.a3  # == a4 - m by the common center
    k2 = (h / span) ** 2
    return LegendreReduction(
        curve=curve, case_tag=ReductionCase.SYMMETRIC,
        k2=k2, k=math.sqrt(k2), C_const=1.0 / span,
        center=m, halfwidth=h,
    )


def _reduce_general(curve: QuarticCurve) -> LegendreReduction:
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    den = a1 + a2 - a3 - a4
    A = 2.0 * (a1 * a2 - a3 * a4) / den
    B = (a1 * a2 * (a3 + a4) - a3 * a4 * (a1 + a2)) / den
    disc = A * A - 4.0 * B
    if disc <= 0.0:
        raise ReductionInconsistency(
            f"conjugate-point quadratic has no real roots (disc={disc:.3g})"
        )
    r1 = 0.5 * (A + math.copysign(math.sqrt(disc), A))
    r2 = B / r1
    if a1 < r1 < a2:
        nu, mu = r1, r2
    elif a1 < r2 < a2:
        nu, mu = r2, r1
    else:
        raise ReductionInconsistency(
            f"neither conjugate point lies in (a1, a2): {r1:.6g}, {r2:.6g}"
        )
    if not (mu < a3 or mu > a4):
        raise ReductionInconsistency(
            f"mu = {mu:.6g} does not lie on the unbounded oval"
        )
    lam = (a1 - nu) / (mu - a1)  # fixes xi(a1) = -1
    k2 = ((nu - a1) / (mu - a1)) ** 2 * ((mu - a3) / (nu - a3)) ** 2
    Pnu = float(curve.P(nu))
    C_const = lam * (nu - mu) / math.sqrt(Pnu)
    return LegendreReduction(
        curve=curve, case_tag=ReductionCase.GENERAL,
        k2=k2, k=math.sqrt(k2), C_const=C_const,
        mu=mu, nu=nu, lam=lam,
    )


def _verify(red: LegendreReduction) -> None:
    c = red.curve
    if not 0.0 < red.k2 < 1.0:
        raise ReductionInconsistency(f"k^2 = {red.k2:.6g} not in (0, 1)")
    if not red.C_const > 0.0:
        raise ReductionInconsistency(f"C = {red.C_const:.6g} not positive")
    targets = (
        (c.a1, -1.0), (c.a2, 1.0), (c.a3, -1.0 / red.k), (c.a4, 1.0 / red.k),
    )
    for z, want in targets:
        got = float(_xi_of_z(red, z))
        if abs(got - want) > _NORMALIZATION_TOL * max(1.0, abs(want)):
            raise ReductionInconsistency(
                f"map normalization failed: xi({z:.6g}) = {got:.12g}, "
                f"expected {want:.12g}"
            )


def reduce_to_legendre(curve: QuarticCurve) -> LegendreReduction:
    """Reduce a non-degenerate quartic to Legendre normal form.

    The common-center branch triggers whenever the quadratic factors share
    a midpoint (p = 0, and the one crossing-librator configuration at
    E = 1/2 where the general eigenvalue formula degenerates).
    """
    if curve.degenerate:
        raise DegenerateCurve(
            f"curve at (E={curve.E}, p={curve.p}) has root gap "
            f"{curve.min_gap:.3g} < {EPS_DEGENERATE}: separatrix"
        )
    scale = max(1.0, abs(curve.a3), abs(curve.a4))
    if abs((curve.a1 + curve.a2) - (curve.a3 + curve.a4)) < 1e-12 * scale:
        red = _reduce_symmetric(curve)
    else:
        red = _reduce_general(curve)
    _verify(red)
    return red


def _xi_of_z(red: LegendreReduction, z):
    if red.case_tag is ReductionCase.SYMMETRIC:
        return (z - red.center) / red.halfwidth
    return (z - red.nu) / ((z - red.mu) * red.lam)


def map_z_to_xi(red: LegendreReduction, z):
    """Forward coordinate map, defined on the bounded oval [a1, a2]."""
    z_arr = np.asarray(z, dtype=float)
    c = red.curve
    slack = 1e-12 * max(1.0, abs(c.a1), abs(c.a2))
    if np.any(z_arr < c.a1 - slack) or np.any(z_arr > c.a2 + slack):
        raise DomainError(
            f"z outside the bounded oval [{c.a1:.6g}, {c.a2:.6g}]"
        )
    z_arr = np.clip(z_arr, c.a1, c.a2)
    out = np.clip(_xi_of_z(red, z_arr), -1.0, 1.0)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def map_xi_to_z(red: LegendreReduction, xi):
    """Inverse coordinate map from [-1, 1] back to the oval."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < -1.0 - 1e-12) or np.any(xi_arr > 1.0 + 1e-12):
        raise DomainError("xi outside [-1, 1]")
    xi_arr = np.clip(xi_arr, -1.0, 1.0)
    c = red.curve
    if red.case_tag is ReductionCase.SYMMETRIC:
        out = red.center + red.halfwidth * xi_arr
    else:
        t = red.lam * xi_arr
        out = (red.mu * t - red.nu) / (t - 1.0)
    out = np.clip(out, c.a1, c.a2)
    return float(out) if np.isscalar(xi) or np.ndim(xi) == 0 else out
