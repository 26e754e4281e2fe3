"""Elliptic integrals and the Jacobi sn and cn functions.

Everything is parameterized by the modulus k (never by m = k^2) and its
complement k'.  The arithmetic-geometric-mean ladder of (k, k'), run on a
float or on array lanes, is the one record of a modulus: it starts at
(a, b, c) = (1, k', k), K is read from its last rung, R_D(0, k'^2, 1) by
DLMF 19.8.5 and L = (2/3) R_J(0, k'^2, 1, 1 - c^2) by the sequence of
DLMF 19.8.6 from its rungs (complete_RD, complete_L), sn and cn by the
descending Landen recursion on the same rungs (_sn_cn_rungs, on the
constants descent reads from the ladder), and the incomplete F takes k'
and K from it (F) on the strip n = round(phi/pi), so |phi| <= fl(pi/2) is
n = 0.  legendre.LegendreReduction keeps the ladder of its (k, k') in its
field ladder, so one run of the AGM serves a level's cycle data and its
closed-form orbit, and the orbit keeps the constants the descent reads
from it (Descent) in its phase record (closedform.PhaseConstants).
masked_K_ladder is the one builder of a ladder, of a given k' or one
taken from k, on floats or array lanes; the public complete_K(k),
incomplete_F(phi, k) and sn(u, k) check their float modulus and build
through it.  Where complete_K or incomplete_F takes k' from k next to
k = 1, it warns (LossOfPrecisionWarning); sn takes k' from k silently.
F takes Carlson's R_F and orbits.action_contractible_formula his R_D, both
on Python floats by the duplication theorem and the series of DLMF
19.36(i) (_rf, _rd), and y(t)'s third-kind term where p != 0 reads the
Landen phases of the descent (_sn_cn_rungs, closedform), so no elliptic
integral of the package calls scipy.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

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


def _complement(k):
    """k' = sqrt(1 - k^2) from k alone, on a float or array lanes in [0, 1);
    next to k = 1 it keeps only the digits of 1 - k."""
    return _xp.of(k).sqrt((1.0 - k) * (1.0 + k))


class Ladder(NamedTuple):
    """The rungs a_n, b_n, c_n of an AGM ladder, ran[n], where step n + 1
    ran, and K = pi/(2 a_N) from its last rung.

    On array lanes a lane that has stopped keeps its last a_n, hence its K,
    while its b_n and c_n step on with the others, finite and meaningless;
    so a sum over rungs adds rung n + 1 times ran[n], a bool that is 1
    where the step ran and 0 where it did not; a float's ran is all True.
    """

    a: list
    b: list
    c: list
    ran: list
    K: float


def _agm_ladder(k, kc) -> Ladder:
    """AGM rungs (a_n, b_n, c_n) descending from (a, b, c) = (1, k', k).

    k and k' are floats, or float arrays of one shape.  A lane stops once
    its own c has converged and keeps its a while the others run on, so it
    takes the float call's steps and its last a_n, hence its K, equals the
    float call's bit for bit (its b and c step on: see Ladder).
    """
    xp = _xp.of(k)
    # looked up once: on a float the lookups cost a third of a step
    sqrt, where, running = xp.sqrt, xp.where, xp.any
    a, b, c = 1.0, kc, k
    avals, bvals, cvals, ran = [a], [b], [c], []
    run = abs(c) > _AGM_TOL
    while running(run):
        a, b, c = where(run, 0.5 * (a + b), a), sqrt(a * b), 0.5 * (a - b)
        avals.append(a)
        bvals.append(b)
        cvals.append(c)
        ran.append(run)
        run = run & (abs(c) > _AGM_TOL)
    return Ladder(avals, bvals, cvals, ran, math.pi / (2.0 * a))


def complete_RD(ladder: Ladder, k2):
    """R_D(0, k'^2, 1) = 3 (K - E)/k^2 from the rungs of the AGM ladder of k.

    K - E = K sum_{n >= 0} 2^(n-1) c_n^2 (DLMF 19.8.5), and c_0 = k: every
    term is positive, so no digit cancels, and the n = 0 term gives the
    1/2 below exactly.  0 < k < 1; k2 = k^2 and the ladder are floats or
    array lanes, and a lane sums its own rungs only, so it equals the
    float call bit for bit.
    """
    s = 0.0
    for n, (c, ran) in enumerate(zip(ladder.c[1:], ladder.ran)):
        t = 2.0 ** n * c
        t *= c
        t *= ran
        s += t
    return 3.0 * ladder.K * (0.5 + s / k2)


def complete_L(ladder: Ladder, one_c2):
    """L = (2/3) R_J(0, k'^2, 1, 1 - c^2) from the rungs of the AGM ladder of k.

    With Pi(c^2, k) - K = (c^2/3) R_J(0, k'^2, 1, 1 - c^2) (DLMF 19.25.2)
    factored out of DLMF 19.8.6,

        L = K sum_{n >= 0} Q_n / (1 - c^2),    p_0^2 = 1 - c^2,  Q_0 = 1,
        e_n = (p_n^2 - a_n b_n)/(p_n^2 + a_n b_n),  Q_{n+1} = Q_n e_n / 2,
        p_{n+1} = (p_n^2 + a_n b_n)/(2 p_n),

    which never divides by c^2, so c = 0 takes the same formula.  one_c2
    = 1 - c^2 in (k'^2, 1] and the ladder are floats or array lanes; a lane
    sums its own rungs only, so it equals the float call bit for bit;
    one_c2 is never written into.
    """
    p2, p = one_c2, _xp.of(one_c2).sqrt(one_c2)
    Q = s = 1.0
    for a, b, ran in zip(ladder.a, ladder.b, [True, *ladder.ran]):
        ab = a * b
        d = p2 + ab
        Q *= 0.5
        Q *= p2 - ab
        Q /= d
        s += Q * ran
        d /= 2.0 * p
        p, p2 = d, d * d
    return ladder.K * s / one_c2


# Carlson's stopping rule 4^-m Q < |A_m| with Q = (3r)^(-1/6) max|A_0 - x|
# for R_F and (r/4)^(-1/6) max|A_0 - x| for R_D, at the binary64 r = 2^-53:
# the series left after m duplications then errs by less than r
_RF_Q = (3.0 * 2.0**-53) ** (-1.0 / 6.0)
_RD_Q = (0.25 * 2.0**-53) ** (-1.0 / 6.0)


def _rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) on Python floats, x, y, z >= 0 and at most one
    of them 0, by the duplication theorem and the fifth-order series of
    DLMF 19.36.1 (Carlson 1995)."""
    A0 = A = (x + y + z) / 3.0
    dx, dy = A0 - x, A0 - y
    Q = _RF_Q * max(abs(dx), abs(dy), abs(A0 - z))
    f = 1.0  # 4^-m
    while Q * f >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, A = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (A + lam)
        f *= 0.25
    X, Y = dx * f / A, dy * f / A
    Z = -(X + Y)
    E2, E3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0) / math.sqrt(A)


def _rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) on Python floats, x, y >= 0, at most one of
    them 0, and z > 0, by the duplication theorem and the series of DLMF
    19.36.2 (Carlson 1995)."""
    A0 = A = (x + y + 3.0 * z) / 5.0
    dx, dy = A0 - x, A0 - y
    Q = _RD_Q * max(abs(dx), abs(dy), abs(A0 - z))
    f, tail = 1.0, 0.0  # 4^-m and the sum of the duplication terms
    while Q * f >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += f / (sz * (z + lam))
        x, y, z, A = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (A + lam)
        f *= 0.25
    X, Y = dx * f / A, dy * f / A
    Z = -(X + Y) / 3.0
    XY, Z2 = X * Y, Z * Z
    E2, E3 = XY - 6.0 * Z2, (3.0 * XY - 8.0 * Z2) * Z
    E4, E5 = 3.0 * (XY - Z2) * Z2, XY * Z2 * Z
    series = (1.0 - 3.0 * E2 / 14.0 + E3 / 6.0 + 9.0 * E2 * E2 / 88.0 - 3.0 * E4 / 22.0
              - 9.0 * E2 * E3 / 52.0 + 3.0 * E5 / 26.0)
    return f * series / (A * math.sqrt(A)) + 3.0 * tail


# the theta sum of y(t)'s third-kind term (closedform._phase_constants)
# gives weight to the rungs n whose (c_n/a_n)^2 is at least THETA_WEIGHT k^2
THETA_WEIGHT = 1e-18
# a ratio c_n/a_n in [0, 2^-55) moves no phase p at its rung: there
# |asin(ratio sin p)| < 2^-54 |p|, below half an ulp of p, so the rung
# only halves p
_FLAT_RATIO = 2.0 ** -55


class Descent(NamedTuple):
    """The constants the descent of _sn_cn_rungs reads from a ladder of N steps:
    K, 2K, 2^n a_N and the rung ratios c_i/a_i for i = n ... 1.  Formed
    once per ladder, each by the expression and in the order the descent
    would use per call, so its values do not depend on where they were
    formed.

    The top N - n rungs, whose ratios move no phase and carry no theta
    weight (_FLAT_RATIO, THETA_WEIGHT), are left out: each would only
    halve the phase, exactly, so 2^n a_N = 2^-(N - n) 2^N a_N takes their
    halvings, and the phases of rungs n ... 0 are those of the full
    ladder, bit for bit.  The halvings and the product are exact because
    the folded phase v is 0 or a multiple of about an ulp of K, never
    near the subnormal range."""

    K: float
    two_K: float
    scale: float
    ratios: tuple


def descent(ladder: Ladder) -> Descent:
    """The Descent of a float ladder, in Python floats."""
    avals, _, cvals, _, K = ladder
    ratios = [c / a for a, c in zip(avals[1:], cvals[1:])]
    weight = THETA_WEIGHT * (cvals[0] * cvals[0])
    n = len(ratios)
    while n and 0.0 <= ratios[n - 1] < _FLAT_RATIO and ratios[n - 1] * ratios[n - 1] < weight:
        n -= 1
    return Descent(K, 2.0 * K, (2.0 ** n) * avals[-1], tuple(reversed(ratios[:n])))


def _sn_cn_rungs(u, d: Descent):
    """(j, (-1)^j, sn, cn, v, phi, sin_phi) at the phases u, a float or an
    array, by the descending Landen phase recursion on the ladder whose
    constants d holds (Descent); a float u runs on Python floats (_xp) and
    equals its lane of an array bit for bit.  This descent is the only
    routine that does per-phase elliptic work.

    j is the half period of u, the one decision about a phase: u folds to
    v = mod(u + K, 2K) - K in [-K, K] and j = rint((u - v)/2K), so j agrees
    with v by construction, and sn, cn = (-1)^j (sin phi, cos phi) at the
    amplitude phi of v; j is a whole number (or NaN), so its parity is
    _xp.mod2(j).  On [-K, K] the principal arcsin branch applies at every
    rung, |c_n/a_n sin phi| < 1; k = 0 runs no rung.  cn from the amplitude
    keeps full absolute accuracy at the turning points sn = +-1, where
    sqrt(1 - sn^2) would lose half the digits.  phi[n], sin_phi[n] are the
    amplitude of v at rung n, of modulus c_n/a_n, and its sine, for n = 0
    ... len(d.ratios), the rungs the descent keeps; closedform reads them
    for the theta functions of y(t).  Temporaries are updated in place.
    """
    xp = _xp.of(u)
    K, two_K = d.K, d.two_K
    v = xp.remainder(u + K, two_K)
    v -= K
    j = xp.rint((u - v) / two_K)
    n = len(d.ratios)
    phi, sin_phi = [None] * (n + 1), [None] * (n + 1)
    p = d.scale * v
    for ratio in d.ratios:
        phi[n], s = p, xp.sin(p)
        sin_phi[n] = s
        p = xp.arcsin(ratio * s)
        p += phi[n]
        p *= 0.5
        n -= 1
    phi[0], s = p, xp.sin(p)
    sin_phi[0] = s
    flip = _xp.mod2(j)  # 1 - 2 (j mod 2)
    flip *= -2.0
    flip += 1.0
    cn = xp.cos(p)
    cn *= flip
    return j, flip, flip * s, cn, v, phi, sin_phi


def masked_K_ladder(k, kc=None):
    """(K, ladder): K and the AGM ladder of k and k', floats or arrays of
    one shape, the one builder of a ladder.

    complete_RD, complete_L, descent and F read the same ladder, so one run
    of the AGM serves everything of a modulus.  A k or k' outside its
    domain gives K = NaN and rungs of no meaning, not DomainError: the
    Legendre reduction's self-check then fails the level.  Without k' each
    lane takes it from k, and a call where a lane in the domain has 1 - k^2
    below _K_PRECISION_EDGE warns once, since K magnifies its rounding.
    """
    xp = _xp.of(k)
    ok = (0.0 <= k) & (k < 1.0)
    if kc is None:
        kc = _complement(xp.where(ok, k, 0.0))
        if xp.any(kc * kc < _K_PRECISION_EDGE):
            warnings.warn(
                f"K(k) with 1-k^2 = {np.min(kc * kc):.3g}: value is near the "
                "logarithmic divergence at k=1 and carries reduced precision",
                LossOfPrecisionWarning,
                # past masked_K_ladder and complete_K (or incomplete_F) to
                # their caller; sn and the package's own calls pass k'
                stacklevel=3,
            )
    ok = ok & (0.0 < kc) & (kc <= 1.0)
    ladder = _agm_ladder(xp.where(ok, k, 0.0), xp.where(ok, kc, 1.0))
    return xp.where(ok, ladder.K, math.nan), ladder


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K = pi/(2 agm(1, k')),
    for a float 0 <= k < 1, on the ladder that sn runs on, so sn has period
    4 K exactly.  k' = sqrt(1 - k^2) is taken from k, which keeps only the
    digits of 1 - k, and K, which grows like log(4/k'), magnifies them: it
    warns next to k = 1 (LossOfPrecisionWarning).  masked_K_ladder takes a
    k' formed from the data k came from (see legendre), and array lanes.
    """
    return masked_K_ladder(_check_modulus(k))[0]


def F(phi: float, ladder: Ladder) -> float:
    """incomplete_F on the float ladder of (k, k'): k' = b_0, and K for the
    quasi-period, both read from the ladder.  The strip n = round(phi/pi)
    rounds the ties phi/pi = +-1/2 to even, so |phi| <= fl(pi/2) is n = 0."""
    phi = float(phi)
    n = round(phi / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    kc = ladder.b[0]
    # 1 - k^2 s^2 = c^2 + k'^2 s^2, a sum of two positive terms
    val = s * _rf(c * c, c * c + kc * kc * s * s, 1.0)
    return val + 2.0 * n * ladder.K if n != 0 else val


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral F(phi, k) for any real amplitude phi.

    Uses F(phi, k) = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1) on the
    principal strip and the quasi-periodicity F(phi + n pi) = F(phi) + 2nK
    elsewhere, on the one AGM ladder of k (F).  Strictly increasing in phi
    with F(pi/2, k) = K.  Next to k = 1 it warns as complete_K does.
    """
    return F(phi, masked_K_ladder(_check_modulus(k))[1])


def sn(u, k: float):
    """Jacobi sn(u, k) for real u: a float for a scalar u, else an array.

    Descending Landen phase recursion on the AGM ladder (see _sn_cn_rungs),
    on Python floats for a scalar: quadratic convergence, no series
    truncation.
    """
    k = _check_modulus(k)
    u = np.asarray(u, dtype=float)
    d = descent(masked_K_ladder(k, _complement(k))[1])
    return _sn_cn_rungs(float(u) if u.ndim == 0 else u, d)[2]
