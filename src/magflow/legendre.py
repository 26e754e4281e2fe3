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
share a midpoint (always for p = 0), and the map is then affine.  It is
normalized so that xi(a1) = -1, xi(a2) = +1, xi(a3) = -1/k,
xi(a4) = +1/k; all four values are verified internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elliptic import complete_K
from .errors import DegenerateCurve, DomainError, ReductionInconsistency

#: absolute root-gap threshold below which the curve is flagged degenerate
#: (beyond it the period integral diverges and the orbit is a separatrix,
#: which belongs to the classifier rather than to the reducer)
EPS_DEGENERATE = 1e-9

#: accuracy demanded of the internal map-normalization checks
_NORMALIZATION_TOL = 1e-10


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
    """Constants and coordinate map taking the quartic to Legendre form.

    The map is xi = (zeta - h) / (h (1 - s zeta)) with zeta = z - a1.
    """

    curve: QuarticCurve
    k2: float
    k: float
    C_const: float
    s: float  # 1/(mu - a1), the reciprocal pole measured from a1
    h: float  # nu - a1, the scale of the map

    @property
    def period(self) -> float:
        """sin(x) period 4 C K(k): one full sn cycle in time."""
        return 4.0 * self.C_const * complete_K(self.k)


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

    Everything is built from the positive root gaps g_ij = a_i - a_j.  The
    distances mu - a_i are w_i / (a1 + a2 - a3 - a4), with w_i a product
    of two gaps plus R = sqrt(g13 g41 g23 g42), so the ratios
    v_i = (mu - a_i) / (mu - a1) = w_i / w1 keep full relative accuracy
    however close mu comes to a root or to infinity.  h = g21 / (1 + v2)
    fixes xi(a1) = -1 and xi(a2) = +1; then k = h v3 / (g13 + h) and
    C = 2 k sqrt(v2 / (v3 v4)) / g21.
    """
    if curve.degenerate:
        raise DegenerateCurve(
            f"curve at (E={curve.E}, p={curve.p}) has root gap "
            f"{curve.min_gap:.3g} < {EPS_DEGENERATE}: separatrix"
        )
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    g13, g21, g23, g41, g42 = a1 - a3, a2 - a1, a2 - a3, a4 - a1, a4 - a2
    R = math.sqrt(g13 * g41 * g23 * g42)
    w1, w2, w3, w4 = g13 * g41 + R, g23 * g42 + R, g13 * g23 + R, g41 * g42 + R
    h = g21 / (1.0 + w2 / w1)
    k = h * (w3 / w1) / (g13 + h)
    C_const = 2.0 * k * math.sqrt(w1 * w2 / (w3 * w4)) / g21
    red = LegendreReduction(
        curve=curve, k2=k * k, k=k, C_const=C_const,
        s=(a1 + a2 - a3 - a4) / w1, h=h,
    )
    _verify(red)
    return red


def _xi_of_z(red: LegendreReduction, z):
    zeta = z - red.curve.a1
    return (zeta - red.h) / (red.h * (1.0 - red.s * zeta))


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
    out = c.a1 + red.h * (1.0 + xi_arr) / (1.0 + red.s * red.h * xi_arr)
    out = np.clip(out, c.a1, c.a2)
    return float(out) if np.isscalar(xi) or np.ndim(xi) == 0 else out
