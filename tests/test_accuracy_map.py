"""Accuracy of the Legendre reduction against 40-digit mpmath.

The oracle takes the same binary64 roots a3 < a1 < a2 < a4 the reduction
sees, so it measures the reduction's own rounding, not that of the roots.
For these roots the oval integral int_{a1}^{a2} dz/w is 2 K(m)/sqrt(g41 g23)
with parameter m = g21 g43/(g41 g23) (Byrd & Friedman, four real roots,
path between the middle two); the Legendre form used here has the
descending-Landen modulus of m, so

    k = (1 - k_m')/(1 + k_m'),   k_m' = sqrt(g13 g42/(g41 g23)),
    C = (1 + k)/sqrt(g41 g23).

The cycle data of classify (period, Delta_y, action) are checked against
40-digit quadrature of the oval integrals on the same roots.  Each half of
the oval is mapped by z = a1 + (a1 - a3) sinh^2 u (z = a2 - (a4 - a2)
sinh^2 u on the other half), which turns the endpoint singularity and the
nearby root of a thin gap into the smooth weight 2 du / sqrt of the far
factor, so tanh-sinh needs no help at any gap.

Each bound is the worst value measured on the ladder, rounded up to the
next power of ten.
"""

import math

import numpy as np
import pytest

from magflow import (build_solution, classify, complete_K, cycle_data, eval_solution,
                     incomplete_F, quartic_from_params, reduce_to_legendre, sn)

mp = pytest.importorskip("mpmath")

# (turning root, wall, side of the wall): the turning root sits at
# wall + side * gap, so each configuration puts one root gap next to a wall
GAP_CONFIGS = (("z1", 1.0, -1.0), ("z2", -1.0, 1.0), ("z1", -1.0, -1.0),
               ("z1", -1.0, 1.0), ("z2", 1.0, -1.0), ("z2", 1.0, 1.0))
GAPS = tuple(1.5 * 10.0 ** d for d in range(-9, -1))   # 1.5e-9 .. 1.5e-2
AMPLITUDES = (0.3, 0.8, 1.3)                           # sqrt(2E)
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


def _from_end(curve, integrands, left, z):
    """int of g(z') dz'/w from the oval end a1 (left) or a2 to z, for each g.

    The end's half of the oval is mapped by z' = a1 + (a1 - a3) sinh^2 u
    (z' = a2 - (a4 - a2) sinh^2 u), so the weight 2 du / sqrt of the far
    factor is smooth at any gap.  Call inside mp.workdps(40).
    """
    a1, a2, a3, a4 = (mp.mpf(v) for v in (curve.a1, curve.a2, curve.a3, curve.a4))
    r, g, side, f1, f2 = (a1, a1 - a3, 1, a2, a4) if left else (a2, a4 - a2, -1, a1, a3)
    u_end = mp.asinh(mp.sqrt(abs(z - r) / g))
    cache = {}

    def z_and_weight(u):
        if u not in cache:
            zu = r + side * g * mp.sinh(u) ** 2
            cache[u] = zu, 2 / mp.sqrt((f1 - zu) * (f2 - zu))
        return cache[u]

    return [mp.quad(lambda u: g_of_z(z_and_weight(u)[0]) * z_and_weight(u)[1], [0, u_end])
            for g_of_z in integrands]


def cycle_oracle(E, p, curve):
    """(period, Delta_y, action) at 40 digits: 2 int g(z) dz/w over the oval
    for g = 1, p - z and 2E + z (p - z), from the binary64 roots of the curve."""
    with mp.workdps(40):
        Em, pm = mp.mpf(E), mp.mpf(p)
        mid = (mp.mpf(curve.a1) + mp.mpf(curve.a2)) / 2
        integrands = (lambda z: 1, lambda z: pm - z, lambda z: 2 * Em + z * (pm - z))
        halves = zip(_from_end(curve, integrands, True, mid),
                     _from_end(curve, integrands, False, mid))
        return tuple(2 * (left + right) for left, right in halves)


def worst_cycle_errors(levels):
    worst = [0.0, 0.0, 0.0]
    for E, p in levels:
        c = classify(E, p)
        ref = cycle_oracle(E, p, quartic_from_params(E, p))
        for i, got in enumerate((c.period, c.delta_y, c.action)):
            worst[i] = max(worst[i], float(abs(got / ref[i] - 1)))
    return worst


# measured worst relative errors of (period, Delta_y, action): 4.4e-16,
# 1.2e-15 and 1.3e-13 on the gap ladder, and 3.3e-16, 1.1e-15 and 1.6e-15 on
# tiny ovals.  k' and 1 - c^2, k^2 - c^2 come from the root gaps; built from
# the rounded k and c they gave 5.4e-13, 4.0e-13 and 5.9e-12 on the gaps,
# where K(k) near k = 1 magnifies the last bit of k.  The action's 1.3e-13
# is the cancellation in 2 (2E m0 - p m1 - m2) where the action is small
# (-0.10 against terms of 15), 1.4e-14 absolute.  Adaptive quadrature of the
# same integrals: 1.7e-9, 2.1e-9 and 1.1e-9 on the gaps.
@pytest.mark.parametrize("ladder, bounds", [(gap_levels, (1e-15, 1e-14, 1e-12)),
                                            (tiny_levels, (1e-15, 1e-14, 1e-14))])
def test_ladder_cycle_data_match_mpmath(ladder, bounds):
    worst = worst_cycle_errors(ladder())
    assert all(w < b for w, b in zip(worst, bounds)), worst


def test_delta_y_near_its_sign_change_in_absolute_error():
    # a crossing level of the README grid where Delta_y = -2 m1, m1 = n1 - q n0,
    # is 1.5e-3 and cancels: measured 3.3e-16 absolute, 2.2e-13 relative error
    E, p = 0.294375, 0.4
    ref = float(cycle_oracle(E, p, quartic_from_params(E, p))[1])
    assert abs(ref) < 2e-3
    for got in (classify(E, p).delta_y, cycle_data(E, p).delta_y[0]):
        assert abs(got - ref) <= 1e-14


def k2to1_levels():
    # k^2 = 2E -> 1 on the symmetric line p = 0
    return [(0.5 - d, 0.0) for d in (1e-8, 1e-6, 1e-4, 1e-2)]


def orbit_oracle(E, p, curve, z0, zs):
    """(T, Delta_y, [(z, t, y) ...]) at 40 digits for the orbit through z0 moving up.

    With tau(z), Y(z) = int_{a1}^{z} (1, p - z') dz'/w along the oval, the
    orbit meets z at t = tau(z) - tau(z0) on its way up and at
    t = -tau(z) - tau(z0) on the way down before (z(t) is even about the
    turning time -tau(z0), y - y(turn) odd); y - y0 follows Y the same way.
    Each z in zs gives both entries.  Call inside mp.workdps(40).
    """
    pm = mp.mpf(p)
    integrands = (lambda z: 1, lambda z: pm - z)
    mid = (mp.mpf(curve.a1) + mp.mpf(curve.a2)) / 2
    half = [a + b for a, b in zip(_from_end(curve, integrands, True, mid),
                                  _from_end(curve, integrands, False, mid))]

    def tau_Y(z):
        if z <= mid:
            return _from_end(curve, integrands, True, z)
        return [h - v for h, v in zip(half, _from_end(curve, integrands, False, z))]

    t0, y0 = tau_Y(mp.mpf(z0))
    out = []
    for z in zs:
        t, y = tau_Y(z)
        out += [(z, t - t0, y - y0), (z, -t - t0, -y - y0)]
    return 2 * half[0], 2 * half[1], out


Y_FRACTIONS = (1e-3, 0.3, 0.7, 0.999)   # z = a1 + f (a2 - a1)


def worst_y_errors(levels, cycles):
    """max |y(t) - oracle| at the Y_FRACTIONS points n cycles on, for each n in cycles."""
    worst = [0.0] * len(cycles)
    for E, p in levels:
        curve = quartic_from_params(E, p)
        x0 = admissible_x0(E, p)
        sol = build_solution(x0, 0.0, E, p, +1)
        ts, refs = [], []
        with mp.workdps(40):
            a1, g21 = mp.mpf(curve.a1), mp.mpf(curve.a2) - mp.mpf(curve.a1)
            period, dy, points = orbit_oracle(E, p, curve, math.sin(x0),
                                              [a1 + f * g21 for f in Y_FRACTIONS])
            for n in cycles:
                for z, t, y in points:
                    t_exact = n * period + t
                    ts.append(float(t_exact))
                    # the oracle at the binary64 time the closed form is asked for
                    refs.append(n * dy + y + (ts[-1] - t_exact) * (p - z))
            _, y_cf, _, _ = eval_solution(sol, np.array(ts))
            errs = [float(abs(got - ref)) for got, ref in zip(y_cf, refs)]
        per_n = len(points)
        worst = [max(w, *errs[i * per_n:(i + 1) * per_n]) for i, w in enumerate(worst)]
    return worst


def gap_levels_mid_amplitude():
    return [(E, p) for E, p in gap_levels() if math.isclose(math.sqrt(2.0 * E), 0.8)]


# measured worst |y - oracle| in the first cycle and 137 cycles on: gap
# ladder (amplitude 0.8) 3.8e-13 and 3.3e-12, where the start phase carries
# the round-trip error of sin x0; tiny ovals 7.2e-16 and 1.3e-13 (t up to
# 1e5); k^2 -> 1 1.2e-14 and 7.6e-13.  The per-period Gauss-Legendre cache
# this replaced measured 1.0e-11 and 1.9e-9, 9.7e-13 and 2.1e-10, 1.1e-14
# and 6.1e-13.
@pytest.mark.parametrize("ladder, bounds", [(gap_levels_mid_amplitude, (1e-12, 1e-11)),
                                            (tiny_levels, (1e-15, 1e-12)),
                                            (k2to1_levels, (1e-13, 1e-12))])
def test_ladder_y_matches_mpmath(ladder, bounds):
    first, later = worst_y_errors(ladder(), (0, 137))
    assert first < bounds[0] and later < bounds[1], (first, later)


PIN_MODULI = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


def worst_sn_error(moduli):
    worst = 0.0
    for k in moduli:
        with mp.workdps(40):
            m = mp.mpf(k) ** 2       # the exact square of the binary64 k
            K = float(mp.ellipk(m))
            us = np.linspace(-5.3 * K, 7.9 * K, 25)
            worst = max(worst, max(float(abs(got - mp.ellipfun("sn", mp.mpf(u), m=m)))
                                   for u, got in zip(us, sn(us, k))))
    return worst


# measured worst |sn - mpmath|: 2.5e-15 for k <= 0.99 and 1.0e-15 at
# k = 0.999999, over u in [-5.3 K, 7.9 K].  An oracle that takes m = k*k
# rounded to binary64 reports 1.1e-11 at k = 0.999999: that is the rounding
# of m, which sn never sees.
@pytest.mark.parametrize("moduli, bound", [(PIN_MODULI, 1e-14), ((0.999999,), 1e-14)])
def test_sn_matches_mpmath(moduli, bound):
    assert worst_sn_error(moduli) < bound


# measured worst relative errors: F 2.9e-16 over phi in [-4, 4] and at
# +-pi/2, K 2.2e-16.  F(fl(pi/2)) stays on the principal strip, so it equals
# -F(-fl(pi/2)) exactly (a strip n = 1 there read 2.4e-13 at k = 1 - 1e-9)
def test_F_and_K_match_mpmath():
    worst_F = worst_K = 0.0
    for k in PIN_MODULI + (0.999999, 1.0 - 1e-9):
        assert incomplete_F(math.pi / 2, k) == -incomplete_F(-math.pi / 2, k)
        with mp.workdps(40):
            m = mp.mpf(k) ** 2
            worst_K = max(worst_K, float(abs(complete_K(k) / mp.ellipk(m) - 1)))
            for phi in (*np.linspace(-4.0, 4.0, 16), math.pi / 2, -math.pi / 2):
                ref = mp.ellipf(mp.mpf(phi), m)
                worst_F = max(worst_F, float(abs(incomplete_F(float(phi), k) / ref - 1)))
    assert worst_F < 1e-15 and worst_K < 1e-15, (worst_F, worst_K)


def third_kind_generic_levels():
    # trapped, crossing and winding levels with either sign of p
    return [(0.125, 0.3), (0.3, -0.5), (1.0, 0.3), (0.72, 0.9), (2.0, 0.5), (0.3, 0.2),
            (0.05, -0.7), (3.0, -1.2)]


def third_kind_tiny_levels():
    # tiny ovals, a fraction f of their room 1 - sqrt(2E) from either wall:
    # k^2 - c^2 down to 2e-13, and c/k -> 1 as f -> 0
    out = []
    for E in (1e-4, 1e-8, 1e-13):
        a = math.sqrt(2.0 * E)
        for f in (1e-8, 1e-6, 1e-3, 0.5):
            out += [(E, side * (1.0 - a - f * (1.0 - a))) for side in (-1.0, 1.0)]
    return out


def third_kind_small_p_levels():
    # |p| down to 1e-9 with either sign, so c -> 0 from either side
    return [(E, side * q) for E in (0.125, 1.0) for q in (1e-9, 1e-6, 1e-3)
            for side in (-1.0, 1.0)]


def third_kind_gap_levels():
    # the gap ladder at amplitude 0.8, and the corner (E, p) -> (1/2, 0),
    # where both gaps to the walls close and 1 - k^2 falls to 2e-8
    out = []
    for root, wall, side in GAP_CONFIGS:
        for g in (1.5e-9, 1.5e-6, 1.5e-3):
            target = wall + side * g
            out.append((0.32, target + 0.8 if root == "z1" else target - 0.8))
    for d in (1e-8, 1e-6, 1e-4):
        a = 1.0 - d
        out += [(0.5 * a * a, side * 0.1 * d) for side in (-1.0, 1.0)]
    return out


def third_kind_errors(levels):
    """Worst |c J2 - oracle| times |C h (1 - c)|, the J2 term's share of y,
    of the package's theta form and of scipy's R_J form.

    The phases are v = 0, +-K and four interior points of [-K, K], each in
    the half periods j = -2, 0, 1 and 3.  The oracle is 40-digit mpmath on
    the binary64 k', c and 1 - c^2 that the reduction holds and at the
    folded phase v and j that the descent returns:
    c J2 = c [sn^3 R_J(cn^2, dn^2, 1, 1 - c^2 + c^2 cn^2)/3 + j L] with
    L = (2/3) R_J(0, k'^2, 1, 1 - c^2) (DLMF 19.25.2, 19.25.14).
    """
    from scipy.special import elliprj

    from magflow.closedform import _third_kind
    from magflow.elliptic import _sn_cn_rungs, descent

    worst_theta = worst_rj = 0.0
    for E, p in levels:
        red = reduce_to_legendre(quartic_from_params(E, p))
        v0 = np.array([-1.0, -0.6, -1e-3, 0.0, 0.3, 0.9, 1.0]) * red.K
        u = (v0[None, :] + 2.0 * red.K * np.array([-2.0, 0.0, 1.0, 3.0])[:, None]).ravel()
        j, flip, s, c, v, phi, sin_phi = _sn_cn_rungs(u, descent(red.ladder))
        kc2, cc = red.kc * red.kc, red.c
        dn = np.sqrt(c * c + kc2 * s * s)
        theta = _third_kind(red.phase_constants, j, v, s, c, dn, phi, sin_phi)
        rj = cc * (flip * s ** 3 * elliprj(c * c, dn * dn, 1.0, red.one_c2 + cc * cc * c * c)
                   / 3.0 + j * red.L)
        share = abs(red.C_const * red.h * red.one_c)
        with mp.workdps(40):
            m, cm, one_c2 = 1 - mp.mpf(red.kc) ** 2, mp.mpf(cc), mp.mpf(red.one_c2)
            L = 2 * mp.elliprj(0, mp.mpf(red.kc) ** 2, 1, one_c2) / 3
            for i, (vi, ji) in enumerate(zip(v.tolist(), j.tolist())):
                sm = mp.ellipfun("sn", mp.mpf(vi), m=m)
                cn2, dn2 = 1 - sm * sm, 1 - m * sm * sm
                J2 = sm ** 3 * mp.elliprj(cn2, dn2, 1, one_c2 + cm * cm * cn2) / 3 if sm else 0
                ref = cm * (J2 + ji * L)
                worst_theta = max(worst_theta, float(abs(theta[i] - ref)) * share)
                worst_rj = max(worst_rj, float(abs(rj[i] - ref)) * share)
    return worst_theta, worst_rj


# measured worst |c J2 - oracle| times |C h (1 - c)| of the theta form and
# of scipy's R_J form: generic levels 1.6e-15 and 1.6e-15, tiny ovals
# 3.0e-16 and 2.4e-16, |p| down to 1e-9 4.1e-18 and 8.7e-19, gaps and
# k^2 -> 1 1.2e-14 and 2.3e-14.  Past j = 0 both carry j c L, whose rounding
# grows with L next to a separatrix
@pytest.mark.parametrize("ladder, bounds", [(third_kind_generic_levels, (1e-14, 1e-14)),
                                            (third_kind_tiny_levels, (1e-15, 1e-15)),
                                            (third_kind_small_p_levels, (1e-17, 1e-18)),
                                            (third_kind_gap_levels, (1e-13, 1e-13))])
def test_third_kind_term_matches_mpmath(ladder, bounds):
    worst = third_kind_errors(ladder())
    assert all(w < b for w, b in zip(worst, bounds)), worst
