import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from magflow import (
    DomainError,
    LossOfPrecisionWarning,
    complete_K,
    incomplete_F,
    sn,
)
from magflow.elliptic import (
    Descent,
    F,
    Ladder,
    _complement,
    _sn_cn_rungs,
    complete_L,
    complete_RD,
    descent,
    masked_K_ladder,
)

# frozen from the AGM oracle: K(0.5) = pi / (2 agm(1, sqrt(0.75)))
K_HALF = 1.6857503548125961


def F_quadrature(phi, k):
    val, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (k * np.sin(t)) ** 2), 0.0, phi,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_complete_K_values():
    assert complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    # agm(1, sqrt(0.75)), read back from the ladder complete_K runs on
    assert math.pi / (2.0 * complete_K(0.5)) == pytest.approx(0.9318083916224482, abs=1e-15)
    assert complete_K(0.5) == pytest.approx(K_HALF, abs=1e-15)
    assert complete_K(0.5) == pytest.approx(F_quadrature(math.pi / 2, 0.5), abs=1e-12)


def test_complete_K_domain_and_lower_bound():
    with pytest.raises(DomainError):
        complete_K(1.0)
    with pytest.raises(DomainError):
        complete_K(-0.1)
    assert complete_K(0.0) == pytest.approx(math.pi / 2)
    for k in (0.1, 0.4, 0.9):
        assert complete_K(k) > math.pi / 2


def test_complete_K_near_one_is_finite_but_flagged():
    # incomplete_F runs complete_K's ladder, so it warns as complete_K does
    for call in (lambda: complete_K(1.0 - 1e-12), lambda: incomplete_F(4.0, 1.0 - 1e-12)):
        with pytest.warns(LossOfPrecisionWarning) as record:
            val = call()
        # the warning names the line that called complete_K or incomplete_F
        assert record[0].filename == __file__
        assert math.isfinite(val)
        assert val > 10.0


def test_modulus_caches_consistent_K(rng):
    # the ladder is the record of a modulus: it starts at (1, k', k) and K
    # is read from it
    for k in rng.uniform(0.0, 0.98, 20):
        K, ladder = masked_K_ladder(float(k))
        assert K == pytest.approx(F_quadrature(math.pi / 2, k), abs=1e-13)
        kc = math.sqrt((1.0 - k) * (1.0 + k))
        assert (ladder.a[0], ladder.b[0], ladder.c[0]) == (1.0, kc, k)
        assert ladder.c[0] ** 2 == pytest.approx(k * k, abs=1e-16)


def test_incomplete_F_basic():
    assert incomplete_F(0.0, 0.7) == 0.0
    assert incomplete_F(math.pi / 2, 0.5) == pytest.approx(complete_K(0.5), abs=1e-14)
    for phi in (0.3, -1.1, 1.5):
        assert incomplete_F(phi, 0.0) == pytest.approx(phi, abs=1e-15)


def test_incomplete_F_quadrature_oracle(rng):
    for _ in range(100):
        k = float(rng.uniform(0.0, 0.99))
        phi = float(rng.uniform(-math.pi / 2, math.pi / 2))
        assert incomplete_F(phi, k) == pytest.approx(F_quadrature(phi, k), abs=1e-12)


def test_incomplete_F_strictly_increasing_and_quasiperiodic(rng):
    k = 0.8
    phis = np.sort(rng.uniform(-4.0, 4.0, 60))
    vals = [incomplete_F(float(p), k) for p in phis]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    K = complete_K(k)
    for phi in (-1.0, 0.3, 1.2):
        assert incomplete_F(phi + math.pi, k) == pytest.approx(
            incomplete_F(phi, k) + 2 * K, abs=1e-12)


def test_sn_degenerate_modulus_is_sine():
    for u in (0.3, 1.0, 2.5):
        assert sn(u, 0.0) == pytest.approx(math.sin(u), abs=1e-13)


def test_sn_special_values():
    assert sn(0.0, 0.5) == 0.0
    assert sn(complete_K(0.5), 0.5) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        sn(1.0, 1.0)


def test_sn_odd_bounded_periodic(rng):
    for _ in range(100):
        k = float(rng.uniform(0.01, 0.995))
        u = float(rng.uniform(-30.0, 30.0))
        K = complete_K(k)
        assert abs(sn(u, k)) <= 1.0 + 1e-14
        assert sn(-u, k) == pytest.approx(-sn(u, k), abs=1e-13)
        assert abs(sn(u + 4.0 * K, k) - sn(u, k)) < 1e-11


def test_sn_differential_identity(rng):
    h = 1e-5
    for _ in range(200):
        k = float(rng.uniform(0.0, 0.99))
        u = float(rng.uniform(-20.0, 20.0))
        d = (sn(u + h, k) - sn(u - h, k)) / (2.0 * h)
        s = sn(u, k)
        assert abs(d * d - (1.0 - s * s) * (1.0 - (k * s) ** 2)) < 1e-7


def test_sn_inverts_incomplete_F(rng):
    for _ in range(200):
        k = float(rng.uniform(0.0, 0.995))
        tau = float(rng.uniform(-0.999, 0.999))
        assert sn(incomplete_F(math.asin(tau), k), k) == pytest.approx(tau, abs=1e-11)


def test_sn_against_scipy(rng):
    for _ in range(300):
        k = float(rng.uniform(0.0, 0.999))
        u = float(rng.uniform(-50.0, 50.0))
        assert sn(u, k) == pytest.approx(special.ellipj(u, k * k)[0], abs=1e-12)


def test_sn_vectorized_matches_scalar(rng):
    k = 0.73
    us = rng.uniform(-10, 10, 40)
    arr = sn(us, k)
    for ui, vi in zip(us, arr):
        assert sn(float(ui), k) == vi


# sn on a fixed set of (u, k), as hex floats, bit for bit: the arcsin
# argument c_n/a_n sin(phi) of every Landen rung lies inside (-1, 1) by
# construction, so clipping it to [-1, 1] changes no value; a change of the
# phase reduction moves these bits, and test_sn_pinned_against_mpmath says
# whether it moved them closer
SN_PINNED_U = (-53.7, -7.3, -1.0, -1e-09, 0.0, 0.3, 1.7, 4.4, 12.5, 101.9)
SN_PINNED = {
    0.1: ('0x1.438ad778587bbp-3', '-0x1.aebc8f09cec3ep-1', '-0x1.ae74a47dff16ap-1', '-0x1.12e0c00000001p-30', '0x0.0p+0', '0x1.2e91c7ecaa89fp-2', '0x1.fc075f6484016p-1', '-0x1.e593c9ccece9dp-1', '-0x1.909d5b0824a72p-4', '0x1.cb9cec2c20f10p-1'),
    0.5: ('0x1.ed9a4e80bb373p-3', '-0x1.0bb9c90dc7fd1p-1', '-0x1.a5307d9130081p-1', '-0x1.12e0c00000000p-30', '0x0.0p+0', '0x1.2d8860a6d0d75p-2', '0x1.fff604ffb595ap-1', '-0x1.ac9866750d73ep-1', '-0x1.a170136d1e837p-1', '0x1.58e017f45e6aap-1'),
    0.9: ('0x1.9599d98189579p-1', '0x1.f53b388c0f983p-1', '-0x1.8e271bea38999p-1', '-0x1.12e0c00000000p-30', '0x0.0p+0', '0x1.2b1ed44426a04p-2', '0x1.ee2f56b725c54p-1', '0x1.475ebd775c857p-3', '0x1.b306074dc150cp-1', '0x1.e2fbc20e6c777p-1'),
    0.99: ('0x1.6f8bebedfb254p-8', '0x1.0e641c9364279p-1', '-0x1.86ce2ecc4a6e1p-1', '-0x1.12e0c00000000p-30', '0x0.0p+0', '0x1.2a63ba556344ep-2', '0x1.e0bedf549e812p-1', '0x1.f83617bbb39b8p-1', '-0x1.75f3ff45e77e7p-1', '-0x1.ac54d55b1ba88p-1'),
    0.999999: ('0x1.fffe808da74ecp-1', '-0x1.ffffefda9e737p-1', '-0x1.85efb10c8df3ap-1', '-0x1.12e0c00000000p-30', '0x0.0p+0', '0x1.2a4ddb0da2436p-2', '0x1.deedfc2e097cep-1', '0x1.ffd88eb844cbcp-1', '0x1.fed977d8a9641p-1', '0x1.ffff817f9f475p-1'),
    math.sqrt(1.0 - 1e-12): ('0x1.ffffd2f38e777p-1', '-0x1.ffffe15fed580p-1', '-0x1.85efab514f696p-1', '-0x1.12e0c00000000p-30', '0x0.0p+0', '0x1.2a4dda7d91551p-2', '0x1.deedf00d3ee50p-1', '0x1.ffd87dffc418ap-1', '0x1.ffffffffc3780p-1', '-0x1.fffffff71568cp-1'),
}


def test_sn_pinned_bit_for_bit():
    for k, want in SN_PINNED.items():
        got = sn(np.array(SN_PINNED_U), k)
        assert [float(v).hex() for v in got] == list(want), k
        assert [sn(u, k).hex() for u in SN_PINNED_U] == list(want), k


def test_sn_pinned_against_mpmath():
    # the pinned table against 40-digit sn on the modulus m = 1 - k'^2 that
    # sn's ladder runs; measured worst 4.6e-15, at (u, k) = (101.9, 0.99),
    # where a fold of u mod 4K with three reflections read 7.3e-15
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for k, want in SN_PINNED.items():
            m = 1 - mp.mpf(math.sqrt((1.0 - k) * (1.0 + k))) ** 2
            for u, h in zip(SN_PINNED_U, want):
                ref = mp.ellipfun("sn", mp.mpf(u), m=m)
                worst = max(worst, float(abs(float.fromhex(h) - ref)))
    assert worst < 5e-15


def test_modulus_with_complement_runs_one_ladder():
    # K, sn, cn and F of a modulus all take the given k' from its one
    # ladder; sn has period 4 K
    k = 0.9999
    kc = math.sqrt((1.0 - k) * (1.0 + k)) * (1.0 + 1e-9)
    K, ladder = masked_K_ladder(k, kc)
    assert ladder.b[0] == kc
    assert K == ladder.K != complete_K(k)
    j, flip, s, c = _sn_cn_rungs(np.array([K, 2.0 * K]), descent(ladder))[:4]
    assert np.array_equal(flip, (-1.0) ** j)
    assert s[0] == 1.0 and c[0] == pytest.approx(0.0, abs=1e-15)
    assert c[1] == -1.0
    assert F(math.pi / 2, ladder) == pytest.approx(K, rel=1e-15)
    assert F(math.pi, ladder) == pytest.approx(2.0 * K, rel=1e-15)
    for bad in (0.0, -0.1, 1.5, math.nan):
        # the builder masks a k' outside (0, 1]
        assert math.isnan(masked_K_ladder(k, bad)[0])


def test_sn_cn_keeps_cn_at_turning_points(rng):
    # cn = +-cos(amplitude): full absolute accuracy where sn = +-1, where
    # sqrt(1 - sn^2) keeps only half the digits (measured 5.7e-16 against
    # 1.0e-8 for sqrt(1 - sn^2) on these phases)
    mp = pytest.importorskip("mpmath")
    for k in (0.5, 0.99, 0.999999):
        K, ladder = masked_K_ladder(k)
        u = K * (1.0 + 2.0 * rng.integers(-3, 4, 20)) + rng.uniform(-1e-6, 1e-6, 20)
        _, _, s, c = _sn_cn_rungs(u, descent(ladder))[:4]
        with mp.workdps(40):
            ref = [mp.ellipfun("cn", mp.mpf(v), m=mp.mpf(k) ** 2) for v in u]
        assert max(float(abs(ci - r)) for ci, r in zip(c, ref)) < 1e-15
        assert np.array_equal(s, sn(u, k))


def ladder_draws(rng, n):
    """(k, k', 1 - c^2): 1 - k^2 log-uniform in 1e-14 ... 1 and c^2 uniform
    in [0, k^2), with c = 0 at every tenth draw."""
    kc2 = 10.0 ** rng.uniform(-14.0, 0.0, n)
    k = np.sqrt(1.0 - kc2)
    c2 = rng.uniform(0.0, 1.0, n) * k * k
    c2[::10] = 0.0
    return k, np.sqrt(kc2), 1.0 - c2


def test_ladder_RD_and_L_match_mpmath():
    # R_D(0, k'^2, 1) = 3 (K - E)/k^2 and L = (2/3) R_J(0, k'^2, 1, 1 - c^2)
    # from the rungs of the ladder that K runs (DLMF 19.8.5, 19.8.6), on 1000
    # seeded draws; measured worst 5.4e-16 and 5.6e-16 (scipy's elliprd and
    # elliprj: 4.5e-16 and 2.3e-15 on these draws)
    mp = pytest.importorskip("mpmath")
    worst_rd = worst_l = 0.0
    draws = ladder_draws(np.random.default_rng(19), 1000)
    for k, kc, one_c2 in zip(*(d.tolist() for d in draws)):
        _, ladder = masked_K_ladder(k, kc)
        rd, L = complete_RD(ladder, k * k), complete_L(ladder, one_c2)
        with mp.workdps(40):
            m = 1 - mp.mpf(kc) ** 2
            rd_ref = 3 * (mp.ellipk(m) - mp.ellipe(m)) / m
            L_ref = 2 * mp.elliprj(0, mp.mpf(kc) ** 2, 1, one_c2) / 3
            worst_rd = max(worst_rd, float(abs(rd - rd_ref) / rd_ref))
            worst_l = max(worst_l, float(abs(L - L_ref) / L_ref))
    assert worst_rd < 6e-16
    assert worst_l < 6e-16


def test_carlson_RF_and_RD_match_mpmath():
    # elliptic._rf on the arguments F passes it, (cos^2 phi, cos^2 phi +
    # k'^2 sin^2 phi, 1), on 3000 seeded draws with 1 - k^2 log-uniform in
    # 1e-12 ... 1 and every tenth phi next to +-pi/2, and elliptic._rd on
    # those of action_contractible_formula, (0, 1, 1 - 2E), on 2000 energies
    # up to 1/2 - 1e-12; measured worst 6.4e-16 and 5.8e-16 (scipy's
    # elliprf and elliprd: 4.0e-16 and 3.9e-16 on these draws)
    mp = pytest.importorskip("mpmath")
    from magflow.elliptic import _rd, _rf

    rng = np.random.default_rng(23)
    kc = np.sqrt(10.0 ** rng.uniform(-12.0, 0.0, 3000))
    phi = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 3000)
    phi[::10] = rng.choice([-1.0, 1.0], 300) * np.nextafter(0.5 * math.pi, 0.0)
    s, c = np.sin(phi), np.cos(phi)
    rf_args = zip((c * c).tolist(), (c * c + kc * kc * s * s).tolist())
    z_rd = 1.0 - 2.0 * (0.5 * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 2000)))
    worst_rf = worst_rd = 0.0
    with mp.workdps(40):
        for x, y in rf_args:
            ref = mp.elliprf(x, y, 1)
            worst_rf = max(worst_rf, float(abs(_rf(x, y, 1.0) - ref) / ref))
        for z in z_rd.tolist():
            # R_D(0, 1, k'^2) = 3 (E - k'^2 K)/(k^2 k'^2) (DLMF 19.25.1), at a
            # tenth of the cost of mpmath's elliprd
            m = 1 - mp.mpf(z)
            ref = 3 * (mp.ellipe(m) - z * mp.ellipk(m)) / (m * z)
            worst_rd = max(worst_rd, float(abs(_rd(0.0, 1.0, z) - ref) / ref))
    assert worst_rf < 1e-15
    assert worst_rd < 1e-15


def test_ladder_integral_lanes_equal_float_calls():
    # one array call over lanes whose ladders stop at different rungs
    k = np.array([1e-9, 1e-4, 0.1, 0.5, 0.9, 0.999999, math.sqrt(1.0 - 1e-14), 0.5])
    kc = np.sqrt((1.0 - k) * (1.0 + k))
    one_c2 = 1.0 - np.array([0.0, 0.3, 0.9, 0.5, 0.999, 0.2, 0.7, 0.0]) * k * k
    K, ladder = masked_K_ladder(k, kc)
    rd, L = complete_RD(ladder, k * k), complete_L(ladder, one_c2)
    rungs = set()
    for i in range(len(k)):
        Ki, lad = masked_K_ladder(float(k[i]), float(kc[i]))
        rungs.add(len(lad.a))
        assert (K[i], rd[i], L[i]) == (Ki, complete_RD(lad, float(k[i] * k[i])),
                                       complete_L(lad, float(one_c2[i])))
    assert len(rungs) >= 4


def test_ladder_lanes_do_not_depend_on_their_neighbours():
    # a lane that stops keeps its last a_n while the others step on, and its
    # b_n and c_n weigh nothing in R_D and L: K, R_D and L of 1 - k^2
    # log-uniform in 1e-14 ... 1 (5 to 9 rungs) and of k = 1e-20 (no step),
    # as one call and in blocks of 1, 7 and 100 lanes, give the same bits.
    # Where k and k' agree, a stopped lane's a_n is a fixed point of the
    # step (no change over 2e5 draws); a k' given apart from k (0.5 with
    # k = 1e-20, where the float call runs no step and K = pi/2) shows a
    # lane that would step on
    k, kc, one_c2 = ladder_draws(np.random.default_rng(29), 300)
    k[::50], kc[::50] = 1e-20, 1.0
    k[25::50], kc[25::50] = 1e-20, 0.5

    def integrals(s):
        K, ladder = masked_K_ladder(k[s], kc[s])
        return K, complete_RD(ladder, k[s] * k[s]), complete_L(ladder, one_c2[s])

    whole = integrals(slice(None))
    for size in (1, 7, 100):
        blocks = [integrals(slice(i, i + size)) for i in range(0, len(k), size)]
        for j, lanes in enumerate(whole):
            assert np.concatenate([b[j] for b in blocks]).tobytes() == lanes.tobytes(), size
    rungs = {len(masked_K_ladder(float(a), float(b))[1].a) for a, b in zip(k, kc)}
    assert min(rungs) == 1 and max(rungs) >= 8


def test_complete_K_array_lanes_take_k_prime_from_k():
    # complete_K is the checked entry of a float k, and masked_K_ladder
    # builds array lanes: without k' each lane takes it from k as the float
    # call does, a lane outside [0, 1) is NaN, and a lane next to k = 1 makes
    # the call warn once
    k = np.array([0.0, 1e-9, 0.1, 0.5, 0.9, 0.999999, 1.0, -0.1, math.nan])
    K = masked_K_ladder(k)[0]
    for i in range(6):
        assert K[i] == complete_K(float(k[i]))
    assert np.isnan(K[6:]).all()
    near = np.array([0.5, 1.0 - 1e-12, 1.0 - 1e-13])
    with pytest.warns(LossOfPrecisionWarning) as record:
        K = masked_K_ladder(near)[0]
    assert len(record) == 1
    with pytest.warns(LossOfPrecisionWarning):
        assert K[1] == complete_K(float(near[1]))
    with pytest.raises(TypeError):
        complete_K(k)


def _full_descent(ladder):
    """The Descent of every rung of a float ladder: 2^N a_N and all N ratios."""
    avals, _, cvals, _, K = ladder
    return Descent(K, 2.0 * K, 2.0 ** (len(avals) - 1) * avals[-1],
                   tuple(c / a for a, c in zip(avals[:0:-1], cvals[:0:-1])))


def _float_bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_descent_leaves_out_only_rungs_that_move_no_phase(rng):
    # a top rung whose ratio c_n/a_n lies in [0, 2^-55) and carries no theta
    # weight only halves the phase: j, (-1)^j, sn, cn, the folded phase and
    # every phase and sine of the rungs kept equal those of the full ladder
    # bit for bit, for an array u and float u, signed zeros, subnormals and
    # NaN among them.  The ladders of k = 1e-12 and 0.5 leave out their top
    # rung; that of 0.8, whose top ratio is negative, keeps it
    u = np.concatenate([rng.uniform(-1000.0, 1000.0, 500),
                        [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.nan]])
    left_out = {}
    for k in (1e-12, 1e-9, 1e-4, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-12):
        ladder = masked_K_ladder(k, _complement(k))[1]
        d, full = descent(ladder), _full_descent(ladder)
        n = len(d.ratios)
        left_out[k] = len(full.ratios) - n
        for x in (u, *u[::25].tolist()):
            got, want = _sn_cn_rungs(x, d), _sn_cn_rungs(x, full)
            for a, b in zip(got[:5], want[:5]):
                assert _float_bits(a) == _float_bits(b), (k, x)
            for a, b in zip(got[5:], want[5:]):
                assert len(a) == n + 1
                assert _float_bits(a) == _float_bits(b[:n + 1]), (k, x)
    assert left_out[1e-12] == left_out[0.5] == 1 and left_out[0.8] == 0


def test_descent_keeps_each_rung_that_carries_theta_weight():
    # below k^2 = 1e-15 a ratio under 2^-55 can still carry theta weight,
    # (c_n/a_n)^2 >= 1e-18 k^2: such a rung stays, one just below goes
    def top(c1):
        return descent(Ladder([1.0, 1.0], [1.0, 1.0], [1e-12, c1], [True], math.pi / 2.0))

    assert top(1e-20).ratios == (1e-20,)
    assert top(1e-22).ratios == () and top(1e-22).scale == 1.0
