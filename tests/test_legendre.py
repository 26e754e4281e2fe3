import math

import numpy as np
import pytest
from scipy.integrate import quad

from magflow import (
    DegenerateCurve,
    DomainError,
    build_solution,
    classify,
    map_z_to_xi,
    quartic_from_params,
    reduce_to_legendre,
)
from magflow.legendre import _z_of_xi
from tests.conftest import quartic, sample_level

# a genuinely trapped, genuinely asymmetric benchmark pair: turning roots
# 0.3 -+ 0.5, all four roots well separated
E_GEN, P_GEN = 0.125, 0.3


def general_curves(rng, n):
    out = []
    while len(out) < n:
        E, p = sample_level(rng, e_lo=0.05, e_hi=1.5, margin=0.05)
        if abs(p) < 1e-3:
            continue
        out.append(quartic_from_params(E, p))
    return out


def test_symmetric_root_labels():
    c = quartic_from_params(0.125, 0.0)
    assert (c.a3, c.a1, c.a2, c.a4) == (-1.0, -0.5, 0.5, 1.0)
    assert not c.degenerate
    assert classify(0.125, 0.0).turning_roots == (-0.5, 0.5)
    sol = build_solution(0.0, 0.0, 0.125, 0.0, 1)
    x, _, _, _ = sol.eval(np.linspace(0.0, sol.recurrence_time, 200))
    assert np.all(np.cos(x) > 0.0)  # trapped in the strip of x0 = 0


def test_roots_satisfy_quartic():
    c = quartic_from_params(E_GEN, P_GEN)
    for r in (c.a1, c.a2, c.a3, c.a4):
        assert abs(quartic(E_GEN, P_GEN, r)) < 1e-12
    assert (c.a1, c.a2) == pytest.approx((-0.2, 0.8), abs=1e-15)


def test_degenerate_flags():
    assert quartic_from_params(0.5, 0.0).degenerate       # roots +-1 doubled
    assert quartic_from_params(0.125, 0.5).degenerate     # turning root hits +1
    assert not quartic_from_params(0.125, 0.499).degenerate
    with pytest.raises(DomainError):
        quartic_from_params(0.0, 0.0)


def test_symmetric_reduction_constants():
    red = reduce_to_legendre(quartic_from_params(0.125, 0.0))
    assert red.s == 0.0
    assert red.k2 == 0.25  # exactly 2E
    assert red.C_const == 1.0
    assert map_z_to_xi(red, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert map_z_to_xi(red, -0.5) == pytest.approx(-1.0, abs=1e-15)


def test_symmetric_winding_reduction():
    # p = 0 above the critical energy: oval covers [-1, 1]
    red = reduce_to_legendre(quartic_from_params(1.0, 0.0))
    assert red.s == 0.0
    assert red.k2 == pytest.approx(0.5, abs=1e-15)         # 1/(2E)
    assert red.C_const == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_reduction_rejects_degenerate():
    with pytest.raises(DegenerateCurve):
        reduce_to_legendre(quartic_from_params(0.5, 0.0))
    with pytest.raises(DegenerateCurve):
        build_solution(0.0, 0.0, 0.5, 0.0, 1)


def test_degenerate_message_names_the_rule_that_decided_the_kind():
    # p + sqrt(2E) = 1 exactly: the turning root sits on the wall z = 1
    with pytest.raises(DegenerateCurve) as exc:
        reduce_to_legendre(quartic_from_params(0.125, 0.5))
    msg = str(exc.value)
    assert "VerticalLine" in msg and "turning root 0.0 from the wall z = 1" in msg
    assert "EPS_VERTICAL = 1e-12" in msg and "root gap" not in msg
    # a gap of 1e-10 between the turning root and the wall, 1e-9 > gap > 1e-12
    with pytest.raises(DegenerateCurve) as exc:
        reduce_to_legendre(quartic_from_params(0.125, 0.5 + 1e-10))
    msg = str(exc.value)
    assert "Separatrix" in msg and "smallest root gap 1.0000000" in msg
    assert "separatrix threshold 1e-09" in msg and "EPS_VERTICAL" not in msg


def test_general_reduction_normalization():
    c = quartic_from_params(E_GEN, P_GEN)
    red = reduce_to_legendre(c)
    assert red.s != 0.0
    assert 0.0 < red.k2 < 1.0
    assert red.C_const > 0.0
    nu, mu = c.a1 + red.h, c.a1 + 1.0 / red.s
    assert c.a1 < nu < c.a2
    assert mu < c.a3 or mu > c.a4
    assert map_z_to_xi(red, c.a1) == pytest.approx(-1.0, abs=1e-12)
    assert map_z_to_xi(red, c.a2) == pytest.approx(1.0, abs=1e-12)


def test_general_reduction_harmonicity_and_decomposition(rng):
    for c in general_curves(rng, 12):
        red = reduce_to_legendre(c)
        if red.s == 0.0:
            continue
        mu, nu = c.a1 + 1.0 / red.s, c.a1 + red.h
        diff2 = (mu - nu) ** 2
        B1 = (nu - c.a1) * (nu - c.a2) / diff2
        C1 = (mu - c.a1) * (mu - c.a2) / diff2
        B2 = (nu - c.a3) * (nu - c.a4) / diff2
        C2 = (mu - c.a3) * (mu - c.a4) / diff2
        assert (nu - c.a1) / (nu - c.a2) == pytest.approx(
            -(mu - c.a1) / (mu - c.a2), abs=1e-10)
        assert (nu - c.a3) / (nu - c.a4) == pytest.approx(
            -(mu - c.a3) / (mu - c.a4), abs=1e-10)
        for z in np.linspace(-2.0, 2.0, 50):
            q1 = (z - c.a1) * (z - c.a2)
            q2 = (z - c.a3) * (z - c.a4)
            assert abs(q1 - (B1 * (z - mu) ** 2 + C1 * (z - nu) ** 2)) < 1e-10
            assert abs(q2 - (B2 * (z - mu) ** 2 + C2 * (z - nu) ** 2)) < 1e-10


def test_pullback_identity(rng):
    # int dz/w over a sub-interval of the oval equals C * int dxi/eta over
    # its image, by independent adaptive quadrature
    for c in general_curves(rng, 10):
        red = reduce_to_legendre(c)
        k2 = red.k2
        for _ in range(5):
            pad = 0.05 * (c.a2 - c.a1)
            za, zb = np.sort(rng.uniform(c.a1 + pad, c.a2 - pad, 2))
            if zb - za < 1e-3:
                continue
            lhs, _ = quad(lambda z: 1.0 / np.sqrt(quartic(c.E, c.p, z)), za, zb,
                          epsabs=1e-12, epsrel=1e-12)
            xa, xb = map_z_to_xi(red, za), map_z_to_xi(red, zb)
            rhs, _ = quad(lambda x: 1.0 / np.sqrt((1 - x * x) * (1 - k2 * x * x)),
                          xa, xb, epsabs=1e-12, epsrel=1e-12)
            assert abs(lhs - red.C_const * rhs) < 1e-8


def test_modulus_in_unit_interval(rng):
    for c in general_curves(rng, 30):
        red = reduce_to_legendre(c)
        assert 0.0 < red.k2 < 1.0


def test_general_path_agrees_with_symmetric_in_small_p_limit():
    # at p = 0 exactly the conjugate point mu escapes to infinity (s = 0);
    # the fractional-linear map must tend to the affine one as p -> 0
    red = reduce_to_legendre(quartic_from_params(0.125, 1e-6))
    assert red.s != 0.0
    assert abs(red.k2 - 0.25) < 1e-10
    assert abs(red.C_const - 1.0) < 1e-6


def test_map_round_trip(rng):
    for c in general_curves(rng, 6) + [quartic_from_params(0.125, 0.0)]:
        red = reduce_to_legendre(c)
        zs = rng.uniform(c.a1, c.a2, 100)
        back = _z_of_xi(red, map_z_to_xi(red, zs))
        assert np.max(np.abs(back - zs)) < 1e-12
        xi = map_z_to_xi(red, zs)
        assert np.all(np.diff(xi[np.argsort(zs)]) >= 0.0)  # monotone


def test_map_domain_errors():
    red = reduce_to_legendre(quartic_from_params(0.125, 0.0))
    with pytest.raises(DomainError):
        map_z_to_xi(red, 0.75)
