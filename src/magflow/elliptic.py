"""Elliptic integrals and the Jacobi sn function.

Everything is parameterized by the modulus k (never by m = k^2).  The
complete integral K comes from the arithmetic-geometric mean, sn from the
descending Landen ladder attached to the same AGM scale sequence, and the
incomplete integral F from Carlson's symmetric R_F (scipy's elliprf).
Only sn is needed downstream; cn and dn are out of scope.  The complete
integrals of the second and third kind enter the cycle data and the
contractible action directly as Carlson's R_D and R_J (scipy's elliprd
and elliprj), in legendre.LegendreReduction.oval_moments and
orbits.action_contractible_formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LossOfPrecisionWarning

_AGM_TOL = 1e-15
# below this value of 1 - k^2 the quarter period is still finite but the
# ladder has lost digits to the logarithmic divergence at k = 1
_K_PRECISION_EDGE = 1e-10


def _check_modulus(k: float) -> float:
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return k


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("agm requires positive arguments")
    while abs(a - b) > _AGM_TOL * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K = pi/(2 agm(1, k'))."""
    k = _check_modulus(k)
    k2c = (1.0 - k) * (1.0 + k)
    if k2c < _K_PRECISION_EDGE:
        warnings.warn(
            f"K(k) with 1-k^2 = {k2c:.3g}: value is near the logarithmic "
            "divergence at k=1 and carries reduced precision",
            LossOfPrecisionWarning,
            stacklevel=2,
        )
    return math.pi / (2.0 * agm(1.0, math.sqrt(k2c)))


def _agm_ladder(k: float) -> tuple[np.ndarray, np.ndarray]:
    """AGM scale sequence (a_n, c_n) descending from (1, k)."""
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    avals, cvals = [a], [c]
    while abs(c) > _AGM_TOL:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        avals.append(a)
        cvals.append(c)
    return np.array(avals), np.array(cvals)


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral F(phi, k) for any real amplitude phi.

    Uses F(phi, k) = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1) on the
    principal strip and the quasi-periodicity F(phi + n pi) = F(phi) + 2nK
    elsewhere.  Strictly increasing in phi with F(pi/2, k) = K.
    """
    from scipy.special import elliprf

    k = _check_modulus(k)
    phi = float(phi)
    n = math.floor((phi + 0.5 * math.pi) / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    val = s * float(elliprf(c * c, (1.0 - k * s) * (1.0 + k * s), 1.0))
    if n != 0:
        val += 2.0 * n * complete_K(k)
    return val


def sn(u, k: float):
    """Jacobi sn(u, k) for real u, scalar or array.

    Descending Landen phase recursion on the AGM ladder: the argument is
    reduced modulo the 4K period and folded into [-K, K] (sn is odd and
    symmetric about u = K) so the principal arcsin branch applies at every
    rung.  Quadratic convergence, no series truncation.
    """
    k = _check_modulus(k)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if k == 0.0:
        out = np.sin(u_arr)
        return float(out[0]) if scalar else out
    avals, cvals = _agm_ladder(k)
    n_steps = len(avals) - 1
    K = math.pi / (2.0 * avals[-1])
    v = np.mod(u_arr + 2.0 * K, 4.0 * K) - 2.0 * K
    v = np.where(v > K, 2.0 * K - v, v)
    v = np.where(v < -K, -2.0 * K - v, v)
    phi = (2.0**n_steps) * avals[-1] * v
    for n in range(n_steps, 0, -1):
        ratio = cvals[n] / avals[n]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
    out = np.sin(phi)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EllipticModulus:
    """A modulus k with its cached quarter period K."""

    k: float
    k2: float = field(init=False)
    K_complete: float = field(init=False)

    def __post_init__(self):
        k = _check_modulus(self.k)
        object.__setattr__(self, "k2", k * k)
        object.__setattr__(self, "K_complete", complete_K(k))

    def sn(self, u):
        return sn(u, self.k)

    def F(self, phi: float) -> float:
        return incomplete_F(phi, self.k)
