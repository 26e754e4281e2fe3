"""Accuracy of the Legendre reduction against 40-digit mpmath.

The oracle takes the same binary64 roots a3 < a1 < a2 < a4 the reduction
sees, so it measures the reduction's own rounding, not that of the roots.
For these roots the oval integral int_{a1}^{a2} dz/w is 2 K(m)/sqrt(g41 g23)
with parameter m = g21 g43/(g41 g23) (Byrd & Friedman, four real roots,
path between the middle two); the Legendre form used here has the
descending-Landen modulus of m, so

    k = (1 - k_m')/(1 + k_m'),   k_m' = sqrt(g13 g42/(g41 g23)),
    C = (1 + k)/sqrt(g41 g23).

Each bound is the worst value measured on the ladder, rounded up to the
next power of ten.
"""

import math

import pytest

from magflow import build_solution, quartic_from_params, reduce_to_legendre

mp = pytest.importorskip("mpmath")

# (turning root, wall, side of the wall): the turning root sits at
# wall + side * gap, so each configuration puts one root gap next to a wall
GAP_CONFIGS = (("z1", 1.0, -1.0), ("z2", -1.0, 1.0), ("z1", -1.0, -1.0),
               ("z1", -1.0, 1.0), ("z2", 1.0, -1.0), ("z2", 1.0, 1.0))
GAPS = tuple(1.5 * 10.0 ** d for d in range(-9, -1))   # 1.5e-9 .. 1.5e-2
AMPLITUDES = (0.3, 1.3)                                # sqrt(2E)
TINY_ENERGIES = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
TINY_WALL_FRACTIONS = (1e-6, 1e-3, 0.5)


def gap_levels():
    out = []
    for root, wall, side in GAP_CONFIGS:
        for g in GAPS:
            for a in AMPLITUDES:
                target = wall + side * g
                out.append((0.5 * a * a, target + a if root == "z1" else target - a))
    return out


def tiny_levels():
    # a tiny trapped oval whose distance to the wall +-1 is a fraction f
    # of the room 1 - sqrt(2E) it has
    out = []
    for E in TINY_ENERGIES:
        a = math.sqrt(2.0 * E)
        for f in TINY_WALL_FRACTIONS:
            for side in (-1.0, 1.0):
                out.append((E, side * (1.0 - a - f * (1.0 - a))))
    return out


def oracle(curve):
    """(k, C) at 40 digits from the binary64 roots of the curve."""
    with mp.workdps(40):
        a1, a2, a3, a4 = (mp.mpf(v) for v in (curve.a1, curve.a2, curve.a3, curve.a4))
        g13, g23, g41, g42 = a1 - a3, a2 - a3, a4 - a1, a4 - a2
        kc = mp.sqrt(g13 * g42 / (g41 * g23))
        k = (1 - kc) / (1 + kc)
        C = (1 + k) / mp.sqrt(g41 * g23)
        return k, C


def worst_errors(levels):
    worst_k = worst_C = 0.0
    for E, p in levels:
        c = quartic_from_params(E, p)
        red = reduce_to_legendre(c)
        k, C = oracle(c)
        worst_k = max(worst_k, float(abs(red.k / k - 1)))
        worst_C = max(worst_C, float(abs(red.C_const / C - 1)))
    return worst_k, worst_C


def admissible_x0(E, p):
    a = math.sqrt(2.0 * E)
    lo, hi = max(-1.0, p - a), min(1.0, p + a)
    return math.asin(0.5 * (lo + hi))


# measured worst relative errors of k and C: 3.3e-16 and 4.4e-16 (gap),
# 3.3e-16 and 2.2e-16 (tiny)
@pytest.mark.parametrize("ladder", [gap_levels, tiny_levels])
def test_ladder_constants_match_mpmath(ladder):
    worst_k, worst_C = worst_errors(ladder())
    assert worst_k < 1e-15
    assert worst_C < 1e-15


# measured worst |sin x(0) - sin x0|: 6.0e-13 (gap), where most of a thin
# oval maps next to xi = +-1, and 1.1e-16 (tiny)
@pytest.mark.parametrize("ladder, bound", [(gap_levels, 1e-12), (tiny_levels, 1e-15)])
def test_ladder_solutions_round_trip_initial_point(ladder, bound):
    worst = 0.0
    for E, p in ladder():
        x0 = admissible_x0(E, p)
        sol = build_solution(x0, 0.0, E, p, +1)
        worst = max(worst, abs(math.sin(sol.eval(0.0).x) - math.sin(x0)))
    assert worst < bound
