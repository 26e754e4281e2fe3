"""Elliptic integrals and the Jacobi sn and cn functions.

Everything is parameterized by the modulus k (never by m = k^2) and its
complement k'.  The complete integral K comes from the arithmetic-geometric
mean, sn and cn from the descending Landen ladder attached to the same AGM
scale sequence, and the incomplete integral F from Carlson's symmetric R_F
(scipy's elliprf).  The integrals of the second and third kind enter the
cycle data, y(t) and the contractible action directly as Carlson's R_D and
R_J (scipy's elliprd and elliprj), in legendre.LegendreReduction,
closedform and orbits.action_contractible_formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _xp
from .errors import DomainError, LossOfPrecisionWarning

_AGM_TOL = 1e-15
# below this value of 1 - k^2 the quarter period is still finite, but a k'
# taken from k alone has lost digits that the logarithmic divergence at
# k = 1 magnifies
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


def _complement(k: float) -> float:
    """k' = sqrt(1 - k^2) from k alone; next to k = 1 it keeps only the digits of 1 - k."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def _given_or_complement(k: float, kc: float | None) -> float:
    """The given k', or k' from k with a warning where K would magnify its rounding."""
    if kc is not None:
        kc = float(kc)
        if not 0.0 < kc <= 1.0:
            raise DomainError(f"complementary modulus must satisfy 0 < k' <= 1, got {kc}")
        return kc
    kc = _complement(k)
    if kc * kc < _K_PRECISION_EDGE:
        warnings.warn(
            f"K(k) with 1-k^2 = {kc * kc:.3g}: value is near the logarithmic "
            "divergence at k=1 and carries reduced precision",
            LossOfPrecisionWarning,
            stacklevel=3,
        )
    return kc


def _agm_ladder(k: float, kc: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """AGM scale sequence (a_n, c_n) descending from (a, b, c) = (1, k', k)."""
    a, b, c = 1.0, kc, k
    avals, cvals = [a], [c]
    while abs(c) > _AGM_TOL:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        avals.append(a)
        cvals.append(c)
    return tuple(avals), tuple(cvals)


def _landen(u: np.ndarray, k: float, ladder) -> tuple[np.ndarray, np.ndarray]:
    """(sn, cn) at the phases u by the descending Landen phase recursion.

    The argument is reduced modulo the 4K period and folded into [-K, K]
    (sn is odd and symmetric about u = K) so the principal arcsin branch
    applies at every rung; |c_n/a_n sin phi| < 1 there, so no clip is
    needed.  The recursion yields the amplitude phi, so cn = +-cos(phi)
    keeps full absolute accuracy at the turning points sn = +-1, where
    sqrt(1 - sn^2) would lose half the digits.  This is the only routine
    that does per-phase elliptic work.
    """
    if k == 0.0:
        return np.sin(u), np.cos(u)
    avals, cvals = ladder
    n_steps = len(avals) - 1
    K = math.pi / (2.0 * avals[-1])
    v = np.mod(u + 2.0 * K, 4.0 * K) - 2.0 * K
    cn_sign = np.where(np.abs(v) > K, -1.0, 1.0)
    v = np.where(v > K, 2.0 * K - v, v)
    v = np.where(v < -K, -2.0 * K - v, v)
    phi = (2.0**n_steps) * avals[-1] * v
    for n in range(n_steps, 0, -1):
        phi = 0.5 * (phi + np.arcsin((cvals[n] / avals[n]) * np.sin(phi)))
    return np.sin(phi), cn_sign * np.cos(phi)


def _agm_K(k, kc):
    """pi/(2 agm(1, k')) on floats or lanes of arrays.

    The recurrence of _agm_ladder, without keeping the rungs.  A lane stops
    once its own c has converged and stays put while the others run on, so
    it takes the float call's steps and gives its K bit for bit.
    """
    xp = _xp.of(k)
    a, b, c = 1.0, kc, k
    run = abs(c) > _AGM_TOL
    while xp.any(run):
        a, b, c = xp.where_each(run, (0.5 * (a + b), xp.sqrt(a * b), 0.5 * (a - b)), (a, b, c))
        run = run & (abs(c) > _AGM_TOL)
    return math.pi / (2.0 * a)


def complete_K(k, kc=None):
    """Complete elliptic integral of the first kind, K = pi/(2 agm(1, k')).

    k' = sqrt(1 - k^2) is taken from k unless it is given (see
    EllipticModulus).  The AGM is the ladder that sn runs on, so sn has
    period 4 K exactly.  k and a given k' may also be float arrays of one
    shape: each lane equals the float call, and a lane outside the domain
    gives NaN where the float call raises DomainError.
    """
    if isinstance(k, np.ndarray):
        ok = (0.0 <= k) & (k < 1.0) & (0.0 < kc) & (kc <= 1.0)
        return np.where(ok, _agm_K(np.where(ok, k, 0.0), np.where(ok, kc, 1.0)), np.nan)
    k = _check_modulus(k)
    return _agm_K(k, _given_or_complement(k, kc))


def _principal_F(phi: float, k: float, kc: float) -> tuple[int, float]:
    """(n, F(phi - n pi)) with phi - n pi in [-pi/2, pi/2)."""
    from scipy.special import elliprf

    n = math.floor((phi + 0.5 * math.pi) / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    # 1 - k^2 s^2 = c^2 + k'^2 s^2, a sum of two positive terms
    return n, s * float(elliprf(c * c, c * c + kc * kc * s * s, 1.0))


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral F(phi, k) for any real amplitude phi.

    Uses F(phi, k) = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1) on the
    principal strip and the quasi-periodicity F(phi + n pi) = F(phi) + 2nK
    elsewhere.  Strictly increasing in phi with F(pi/2, k) = K.
    """
    k = _check_modulus(k)
    n, val = _principal_F(float(phi), k, _complement(k))
    if n != 0:
        val += 2.0 * n * complete_K(k)
    return val


def sn(u, k: float):
    """Jacobi sn(u, k) for real u, scalar or array.

    Descending Landen phase recursion on the AGM ladder (see _landen):
    quadratic convergence, no series truncation.
    """
    k = _check_modulus(k)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    out = _landen(np.atleast_1d(u_arr), k, _agm_ladder(k, _complement(k)))[0]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EllipticModulus:
    """A modulus k with its complement k', its AGM ladder and quarter period K.

    k' = sqrt(1 - k^2) is taken from k unless it is given.  Next to k = 1,
    (1 - k)(1 + k) keeps only the digits of 1 - k, and K, which grows like
    log(4/k'), magnifies the last bit of k; a k' built from the data k
    came from (the root gaps of a quartic) keeps K and sn accurate there.
    K, sn and F all run on this one k'.
    """

    k: float
    kc: float | None = None
    k2: float = field(init=False)
    K_complete: float = field(init=False)
    _ladder: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = _check_modulus(self.k)
        kc = _given_or_complement(k, self.kc)
        ladder = _agm_ladder(k, kc)
        object.__setattr__(self, "kc", kc)
        object.__setattr__(self, "k2", k * k)
        object.__setattr__(self, "K_complete", math.pi / (2.0 * ladder[0][-1]))
        object.__setattr__(self, "_ladder", ladder)

    def sn(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = _landen(np.atleast_1d(u_arr), self.k, self._ladder)[0]
        return float(out[0]) if u_arr.ndim == 0 else out

    def sn_cn(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(sn, cn) at an array of phases, from one Landen recursion."""
        return _landen(np.atleast_1d(np.asarray(u, dtype=float)), self.k, self._ladder)

    def F(self, phi: float) -> float:
        n, val = _principal_F(float(phi), self.k, self.kc)
        return val + 2.0 * n * self.K_complete if n != 0 else val
