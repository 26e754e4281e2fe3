"""Adaptive quadrature along the real oval of the quartic, the test oracle.

No production path runs it: the period, Delta_y and the cycle action come
in closed form from legendre.LegendreReduction.cycle_values.  One cycle-data
test (tests/test_orbits.py) and the benchmark's trace use oval_quad as an
independent check on them, which is also why this module, unlike the
package, imports scipy.integrate.

Integrals of the form  int g(z) dz / sqrt(P(z))  over the bounded oval
[a1, a2] have inverse-square-root singularities at both endpoints.  The
substitution z = m + h*sin(theta) with (m, h) the oval midpoint and
half-width absorbs the singular factor sqrt((z-a1)(a2-z)) = h*cos(theta)
exactly, leaving a smooth integrand handled by adaptive Gauss-Kronrod
quadrature (absolute tolerance 1e-10 unless stated otherwise).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

QUAD_ABS_TOL = 1e-10
_HALF_PI = 0.5 * np.pi


def oval_quad(g, a1: float, a2: float, a3: float, a4: float,
              tol: float = QUAD_ABS_TOL) -> float:
    """int_{a1}^{a2} g(z) dz / sqrt(P(z)) with P monic quartic, roots a3<a1<a2<a4.

    On (a1, a2) the outer factor (z-a3)(a4-z) is strictly positive, so after
    the sine substitution the integrand g(z(theta))/sqrt(outer) is smooth.
    """
    m = 0.5 * (a1 + a2)
    h = 0.5 * (a2 - a1)

    def integrand(theta):
        z = m + h * np.sin(theta)
        outer = (z - a3) * (a4 - z)
        return g(z) / np.sqrt(outer)

    val, _ = quad(integrand, -_HALF_PI, _HALF_PI, epsabs=tol, epsrel=tol, limit=200)
    return val
