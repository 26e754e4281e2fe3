import math

import numpy as np
import pytest
from scipy.integrate import quad

from magflow import (
    DegenerateCurve,
    DomainError,
    UnsupportedRegime,
    build_solution,
    classify,
    complete_K,
    contractible_orbit,
    energy,
    eval_solution,
    integrate,
    momentum,
    sn,
    state_from_integrals,
)
from tests.conftest import sample_level

K_HALF = complete_K(0.5)


def numeric_reference(sol, ts, tol=1e-11):
    s0 = state_from_integrals(sol.x0, sol.y0, sol.E, sol.p, sol.xdot_sign)
    traj = integrate(s0, float(ts[-1]) + 1e-9, tol)
    return traj.eval(ts)


SHEET_CASES = [
    (0.1, 0.125, 0.3, 1, ()),                         # trapped, cos x > 0
    (math.pi - 0.1, 0.125, 0.3, 1, ()),               # trapped, cos x < 0
    (0.1, 0.3, 0.6, 1, (1.0,)),                       # crossing through x = pi/2
    (0.1, 0.3, -0.5, 1, (-1.0,)),                     # crossing through x = -pi/2
    (0.1, 0.5, 0.3, 1, (1.0,)),                       # E = 1/2: affine map
    (0.1, 1.0, 0.0, 1, (-1.0, 1.0)),                  # winding, xdot > 0
    (0.1, 1.0, 0.0, -1, (-1.0, 1.0)),                 # winding, xdot < 0
    (0.1, 0.125, 0.5 + 2e-9, 1, (1.0,)),              # root 2e-9 past the wall
]


@pytest.mark.parametrize("x0, E, p, sign, walls", SHEET_CASES)
def test_sheet_follows_the_walls_the_oval_touches(x0, E, p, sign, walls):
    sol = build_solution(x0, 0.0, E, p, sign)
    s = sol.eval(0.0)
    assert (s.x, s.y) == pytest.approx((x0, 0.0), abs=1e-12)
    assert math.copysign(1.0, s.xdot) == sign
    # sin x reaches the wall z = +-1 at the phase u = +-K exactly when the
    # oval touches it; otherwise that phase is a turning root inside (-1, 1)
    K = sol.reduction.K
    for wall in (-1.0, 1.0):
        z = math.sin(sol.eval(sol.C * wall * K - sol.D).x)
        assert (abs(z - wall) < 1e-9) == (wall in walls)
    # a trapped orbit keeps the sign of cos x0 over a recurrence; an orbit
    # reaching a wall passes into the other strip
    x, _, _, _ = sol.eval(np.linspace(0.0, sol.recurrence_time, 400))
    assert bool(np.all(np.cos(x) * math.cos(x0) > 0.0)) == (not walls)
    # over a recurrence x returns, or advances by 2 pi xdot_sign when winding
    a, b = sol.eval(0.7), sol.eval(0.7 + sol.recurrence_time)
    drift = 2.0 * math.pi * sign if len(walls) == 2 else 0.0
    assert b.x - a.x == pytest.approx(drift, abs=1e-9)



@pytest.mark.parametrize("x0, E, p, sign, walls", SHEET_CASES)
def test_xdot_keeps_its_sign_across_the_walls(x0, E, p, sign, walls):
    # at a wall phase u = +-K + 4Kn both the sheet and the sign of zdot
    # change, so xdot = zdot cos x keeps its sign through it; read from
    # one half-period index they change together even within ulps of it
    sol = build_solution(x0, 0.0, E, p, sign)
    K = sol.reduction.K
    for wall in walls:
        for n in range(-4, 6):
            t = sol.C * (wall * K + 4.0 * K * n) - sol.D
            before, after = (math.copysign(1.0, sol.eval(t + d).xdot) for d in (-1e-6, 1e-6))
            assert before == after
            xdot = sol.eval(t + np.arange(-64, 65) * np.spacing(t))[2]
            assert np.all(np.sign(xdot) == before)

def test_worked_example_amplitude_and_phase():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    assert sol.D == 0.0
    assert sol.k == 0.5
    assert sol.C == 1.0
    ts = np.linspace(0.0, 30.0, 400)
    x, _, _, _ = eval_solution(sol, ts)
    assert np.max(np.abs(np.sin(x) - 0.5 * sn(ts, 0.5))) < 1e-14
    assert np.all(np.cos(x) > 0.0)  # trapped in the strip of x0 = 0


def test_initial_state_contract():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    st = sol.eval(0.0)
    assert (st.x, st.y) == (0.0, 0.0)
    assert st.xdot == pytest.approx(0.5, abs=1e-15)   # sqrt(2E)
    assert st.ydot == pytest.approx(0.0, abs=1e-15)


def test_start_at_turning_point():
    # starting on top of the oval moving down: sn = 1 at phase K, so D = C*K
    x0 = math.asin(0.5)
    sol = build_solution(x0, 0.0, 0.125, 0.0, -1)
    assert sol.D == pytest.approx(sol.C * complete_K(sol.k), abs=1e-14)
    st = sol.eval(0.0)
    assert math.sin(st.x) == pytest.approx(0.5, abs=1e-10)
    assert abs(st.xdot) < 1e-7
    after = sol.eval(0.05)
    assert after.x < st.x and after.xdot < 0.0


@pytest.mark.parametrize("E, p, x0", [
    (0.18230050950239163, 0.39649109610635813, 0.5 * math.pi),   # crossing, top wall
    (0.49766262222561114, 0.007001713799390075, 0.5 * math.pi),  # crossing, top wall
    (0.72, -0.9, -0.5 * math.pi),                                 # crossing, bottom wall
    (1.125, 0.3, 0.5 * math.pi),                                  # winding
    (1.125, 0.3, -0.5 * math.pi),
    (0.125, 0.3, math.asin(-0.2)),                                # trapped, lower root
])
@pytest.mark.parametrize("sign", [1, -1])
def test_start_at_an_oval_end_has_the_ladders_phase(E, p, x0, sign):
    # at xi0 = -+1 the start phase is an odd multiple m of the ladder's K
    # itself, which F(asin(-+1)) missed by rounding: D = C (m K) exactly
    mp = pytest.importorskip("mpmath")
    sol = build_solution(x0, 0.0, E, p, sign)
    K = sol.reduction.K
    m = round(sol.D / (sol.C * K))
    assert m % 2 == 1
    assert sol.D == sol.C * (m * K)
    with mp.workdps(40):
        K_ref = mp.ellipk(1 - mp.mpf(sol.reduction.kc) ** 2)
        assert float(abs(K / K_ref - 1)) < 1e-15


def test_separatrix_rejected():
    with pytest.raises(DegenerateCurve):
        build_solution(0.0, 0.0, 0.5, 0.0, +1)
    with pytest.raises(UnsupportedRegime):
        build_solution(0.0, 0.0, 0.0, 0.0, +1)
    for bad_E in (-0.1, math.nan):  # no level at all, not a fixed point
        with pytest.raises(DomainError):
            build_solution(0.0, 0.0, bad_E, 0.0, +1)
    with pytest.raises(DomainError):
        build_solution(0.0, 0.0, 0.1, 1.0, +1)  # forbidden region


def test_one_admissibility_rule():
    # (p - sin x0)^2 exceeds 2E by 5e-13, within rounding of no input here:
    # state_from_integrals, build_solution and contractible_orbit reject the
    # point alike
    E, p = 0.125, 0.3
    x0 = math.asin(p - math.sqrt(2.0 * E) - 5e-13)
    with pytest.raises(DomainError):
        state_from_integrals(x0, 0.0, E, p, +1)
    with pytest.raises(DomainError):
        build_solution(x0, 0.0, E, p, +1)
    with pytest.raises(DomainError):
        contractible_orbit(E, 1, math.asin(0.5 + 5e-13))


def test_period_value_and_half_cycle():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    assert sol.x_period == pytest.approx(4.0 * K_HALF, abs=1e-14)
    full = sol.eval(sol.x_period)
    assert math.sin(full.x) == pytest.approx(0.0, abs=1e-12)
    assert full.xdot == pytest.approx(0.5, abs=1e-12)
    assert full.y == pytest.approx(0.0, abs=1e-10)  # Delta_y = 0 at p = 0
    half = sol.eval(sol.x_period / 2.0)
    assert math.sin(half.x) == pytest.approx(0.0, abs=1e-12)
    assert half.xdot == pytest.approx(-0.5, abs=1e-12)


def test_period_equals_oval_quadrature():
    # oracle: 2 int_{a1}^{a2} dz/w with the inverse-sqrt endpoint weights
    # handled by the algebraic-weight Gauss rule; the closed form and the
    # classifier both take the period 4 C K from the Legendre reduction
    levels = [
        (0.1, 0.125, 0.3),         # trapped
        (0.6, 0.3, 0.6),           # crossing right
        (-1.2, 0.3, -0.5),         # crossing left
        (0.0, 1.0, 0.3),           # winding
        (0.15, 0.5, 0.3),          # crossing at E = 1/2: affine map, s = 0
        (0.4, 0.18, 0.4 - 1e-7),   # trapped, turning root 1e-7 below +1
    ]
    for x0, E, p in levels:
        sol = build_solution(x0, 0.0, E, p, +1)
        c = sol.curve
        val, _ = quad(lambda z: 1.0 / np.sqrt((z - c.a3) * (c.a4 - z)),
                      c.a1, c.a2, weight="alg", wvar=(-0.5, -0.5),
                      epsabs=1e-12, epsrel=1e-12)
        assert sol.x_period == pytest.approx(2.0 * val, abs=1e-8)
        assert classify(E, p).period == pytest.approx(2.0 * val, abs=1e-8)


def test_small_energy_period_limit():
    # k -> 0: the oscillation linearizes and the period tends to 2*pi
    sol = build_solution(0.0, 0.0, 1e-8, 0.0, +1)
    assert sol.x_period == pytest.approx(2.0 * math.pi, abs=1e-7)


@pytest.mark.parametrize("x0,y0,E,p,sgn", [
    (0.0, 0.0, 0.125, 0.0, +1),              # trapped symmetric
    (np.pi - 0.2, 1.0, 0.125, 0.0, +1),      # trapped, cos x < 0 strip
    (0.1, 0.0, 0.125, 0.3, +1),              # trapped general
    (-np.pi / 2, 0.0, 0.3, -0.5, +1),        # crossing left, start on the seam
    (-2.0, 0.0, 0.3, -0.5, +1),              # crossing left, cos x < 0 start
    (1.2, 0.0, 0.3, 0.5, +1),                # crossing right
    (2.2, 0.3, 0.3, 0.5, -1),                # crossing right, other branch
    (0.0, 0.0, 1.0, 0.3, +1),                # winding up
    (0.7, 0.0, 1.0, 0.3, -1),                # winding down
    (2.5, 0.0, 1.0, 0.0, +1),                # winding, symmetric reduction
])
def test_matches_integrator_across_regimes(x0, y0, E, p, sgn):
    sol = build_solution(x0, y0, E, p, sgn)
    ts = np.linspace(0.0, 40.0, 500)
    xc, yc, xdc, ydc = eval_solution(sol, ts)
    xn, yn, xdn, ydn = numeric_reference(sol, ts)
    assert np.max(np.abs(np.sin(xc) - np.sin(xn))) < 1e-6
    assert np.max(np.abs(xc - xn)) < 1e-6          # full unwrapped angle
    assert np.max(np.abs(yc - yn)) < 1e-5
    assert np.max(np.abs(xdc - xdn)) < 1e-6
    assert np.max(np.abs(ydc - ydn)) < 1e-6


def test_oracle_equivalence_random_levels(rng):
    for _ in range(8):
        E, p = sample_level(rng)
        a = math.sqrt(2 * E)
        z0 = rng.uniform(max(p - a, -1.0) + 0.02, min(p + a, 1.0) - 0.02)
        x0 = float(np.arcsin(z0)) if rng.random() < 0.5 else math.pi - float(np.arcsin(z0))
        sgn = int(rng.choice([-1, 1]))
        sol = build_solution(x0, 0.0, E, p, sgn)
        ts = np.linspace(0.0, 50.0, 600)
        xc, yc, _, _ = eval_solution(sol, ts)
        xn, yn, _, _ = numeric_reference(sol, ts)
        assert np.max(np.abs(np.sin(xc) - np.sin(xn))) < 1e-6
        assert np.max(np.abs(yc - yn)) < 1e-5


def test_integrals_exact_along_solution(rng):
    for x0, y0, E, p, sgn in [
        (0.1, 0.0, 0.125, 0.3, +1),
        (-2.0, 0.0, 0.3, -0.5, +1),
        (0.0, 0.0, 1.0, 0.3, +1),
    ]:
        sol = build_solution(x0, y0, E, p, sgn)
        for t in rng.uniform(0.0, 200.0, 40):
            st = sol.eval(float(t))
            assert energy(st) == pytest.approx(E, abs=1e-9)
            assert momentum(st) == pytest.approx(p, abs=1e-9)


def test_state_repeats_after_recurrence_time():
    cases = [
        build_solution(0.1, 0.0, 0.125, 0.3, +1),    # trapped: 4CK
        build_solution(0.0, 0.0, 1.0, 0.3, +1),      # winding: 4CK
        build_solution(-1.2, 0.0, 0.3, -0.5, +1),    # crossing: 8CK
    ]
    for sol in cases:
        T = sol.recurrence_time
        for t in (0.0, 1.3, 7.7):
            a, b = sol.eval(t), sol.eval(t + T)
            assert math.sin(b.x) == pytest.approx(math.sin(a.x), abs=1e-9)
            assert b.xdot == pytest.approx(a.xdot, abs=1e-9)
            assert b.ydot == pytest.approx(a.ydot, abs=1e-9)


def test_sin_x_periodic_with_y_advancing_by_delta_y():
    sol = build_solution(0.1, 0.0, 0.125, 0.3, +1)
    dy_oracle = classify(0.125, 0.3).delta_y
    assert sol.delta_y_per_cycle == pytest.approx(dy_oracle, abs=1e-8)
    for t in (0.0, 2.0):
        a, b = sol.eval(t), sol.eval(t + sol.x_period)
        assert math.sin(b.x) == pytest.approx(math.sin(a.x), abs=1e-9)
        assert b.y - a.y == pytest.approx(dy_oracle, abs=1e-8)


def test_crossing_reverses_xdot_after_one_sinx_cycle():
    # after 4CK a crossing librator repeats its position with xdot flipped;
    # only after 8CK does the full tangent state recur
    sol = build_solution(-1.2, 0.0, 0.3, -0.5, +1)
    a = sol.eval(1.0)
    b = sol.eval(1.0 + sol.x_period)
    assert math.sin(b.x) == pytest.approx(math.sin(a.x), abs=1e-9)
    assert b.xdot == pytest.approx(-a.xdot, abs=1e-9)


def test_winding_advances_2pi_per_cycle():
    up = build_solution(0.0, 0.0, 1.0, 0.3, +1)
    down = build_solution(0.0, 0.0, 1.0, 0.3, -1)
    for sol, sgn in ((up, 1.0), (down, -1.0)):
        a, b = sol.eval(0.7), sol.eval(0.7 + sol.x_period)
        assert b.x - a.x == pytest.approx(sgn * 2.0 * math.pi, abs=1e-9)


def test_long_time_evaluation_consistent():
    sol = build_solution(0.1, 0.0, 0.125, 0.3, +1)
    n = 987
    t_far = n * sol.x_period + 1.234
    near, far = sol.eval(1.234), sol.eval(t_far)
    assert math.sin(far.x) == pytest.approx(math.sin(near.x), abs=1e-9)
    assert far.y == pytest.approx(near.y + n * sol.delta_y_per_cycle, abs=1e-7)


def test_sin_x_confined_to_oval(rng):
    sol = build_solution(0.1, 0.0, 0.125, 0.3, +1)
    ts = rng.uniform(0.0, 300.0, 500)
    x, _, _, _ = eval_solution(sol, ts)
    z = np.sin(x)
    assert np.all(z >= sol.curve.a1 - 1e-12)
    assert np.all(z <= sol.curve.a2 + 1e-12)


@pytest.mark.parametrize("x0, E, p, sgn", [
    (0.1, 0.125, 0.3, +1),       # trapped
    (-2.0, 0.3, -0.5, +1),       # crossing
    (0.7, 1.0, 0.3, -1),         # winding
    (0.4, 0.3, 0.0, +1),         # p = 0, trapped
    (0.7, 1.0, 0.0, -1),         # p = 0, winding
])
def test_elliptic_work_is_one_phase_per_sample(monkeypatch, x0, E, p, sgn):
    # elliptic._sn_cn_rungs, the Landen descent, is the one routine that
    # does per-phase elliptic work (sn and sn_cn run through it too), and
    # elliptic._agm_ladder the one that runs the AGM: a build runs one
    # ladder, the reduction's, and takes the one phase of t = 0 on it as a
    # Python float, and an evaluation runs no ladder and one array batch
    # of exactly its samples, so neither per-sample quadrature, nor a
    # second ladder of the same modulus, nor a start phase wrapped in an
    # array again can come back unseen.  y's third-kind term reads the
    # phases of that same descent where p != 0, and its constants of the
    # parameter a are formed once, by the build; so is the one record of
    # the phase's constants, in Python floats, which every later evaluation
    # reads, on arrays and on a scalar alike, with no second record beside
    # it; no scipy.special function runs, since importing scipy.special
    # fails here
    import sys

    import magflow.closedform
    import magflow.elliptic
    import magflow.legendre

    batches, ladders, records, read = [], [], [], []
    rungs, agm_ladder = magflow.closedform._sn_cn_rungs, magflow.elliptic._agm_ladder
    descent = magflow.legendre.descent

    def counted(u, d):
        batches.append((type(u), np.size(u)))
        read.append(d)
        return rungs(u, d)

    def counted_ladder(k, kc):
        ladders.append((k, kc))
        return agm_ladder(k, kc)

    def counted_descent(ladder):
        records.append(ladder)
        return descent(ladder)

    # patched where closedform, masked_K_ladder and the reduction look them up
    monkeypatch.setattr(magflow.closedform, "_sn_cn_rungs", counted)
    monkeypatch.setattr(magflow.elliptic, "_agm_ladder", counted_ladder)
    monkeypatch.setattr(magflow.legendre, "descent", counted_descent)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    sol = build_solution(x0, 0.0, E, p, sgn)
    assert batches == [(float, 1)]
    assert len(ladders) == 1
    # the cached constants of a, formed by the build where p != 0 only
    kept = vars(sol.reduction)
    theta = kept.get("theta_terms")
    assert (theta is None) == (p == 0.0)
    assert len(records) == 1
    floats = kept["phase_constants"]
    batches.clear()
    ladders.clear()
    out = eval_solution(sol, np.linspace(0.0, 50.0, 1000))
    assert batches == [(np.ndarray, 1000)]
    assert ladders == []
    assert kept.get("theta_terms") is theta
    assert all(np.isfinite(v).all() for v in out)
    eval_solution(sol, np.linspace(0.0, 5.0, 7))
    eval_solution(sol, 1.5)
    assert len(records) == 1
    assert kept["phase_constants"] is floats
    assert len(read) == 4 and all(d is floats.descent for d in read)
    records_kept = [v for v in kept.values() if isinstance(v, magflow.legendre.PhaseConstants)]
    assert records_kept == [floats]


@pytest.mark.parametrize("x0, E, p, sgn", [
    (0.1, 0.125, 0.3, +1),       # trapped
    (-2.0, 0.3, -0.5, +1),       # crossing
    (0.7, 1.0, 0.3, -1),         # winding
    (0.4, 0.3, 0.0, +1),         # p = 0
])
def test_half_period_boundaries_are_continuous(x0, E, p, sgn):
    # elliptic.sn_cn folds the phase u to v and takes the half period j
    # from v, and sn, cn, the sheet of x, the sign of xdot and y's
    # continuation all read that j: within 64 ulp on either side of each
    # boundary u = (2i + 1) K no output may jump (measured at most 3.6e-14;
    # a j taken as floor((u + K)/2K) apart from the fold jumps by up to pi)
    sol = build_solution(x0, 0.0, E, p, sgn)
    K = sol.reduction.K
    tb = sol.C * (2.0 * np.arange(-30, 30) + 1.0) * K - sol.D
    t = tb[:, None] + np.arange(-64, 65)[None, :] * np.spacing(np.abs(tb))[:, None]
    x, y, xdot, _ = eval_solution(sol, t.ravel())
    for v in (x, y, xdot):
        assert np.max(np.abs(np.diff(v.reshape(t.shape), axis=1))) < 1e-13
