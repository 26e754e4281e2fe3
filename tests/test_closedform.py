import math

import numpy as np
import pytest
from scipy.integrate import quad

from magflow import (
    BranchMode,
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
    traj = integrate(s0, float(ts[-1]) + 1e-9, tol, with_events=False)
    return traj.eval(ts)


@pytest.mark.parametrize("x0, E, p, sign, mode", [
    (0.1, 0.125, 0.3, 1, BranchMode.TRAPPED_POS),
    (math.pi - 0.1, 0.125, 0.3, 1, BranchMode.TRAPPED_NEG),
    (0.1, 0.3, 0.6, 1, BranchMode.CROSS_RIGHT),
    (0.1, 0.3, -0.5, 1, BranchMode.CROSS_LEFT),
    (0.1, 0.5, 0.3, 1, BranchMode.CROSS_RIGHT),            # E = 1/2: affine map
    (0.1, 1.0, 0.0, 1, BranchMode.WIND_UP),
    (0.1, 1.0, 0.0, -1, BranchMode.WIND_DOWN),
    (0.1, 0.125, 0.5 + 2e-9, 1, BranchMode.CROSS_RIGHT),   # root 2e-9 past the wall
])
def test_branch_mode_follows_the_walls_the_oval_touches(x0, E, p, sign, mode):
    sol = build_solution(x0, 0.0, E, p, sign)
    assert sol.mode is mode
    s = sol.eval(0.0)
    assert (s.x, s.y) == pytest.approx((x0, 0.0), abs=1e-12)
    assert math.copysign(1.0, s.xdot) == sign


def test_worked_example_amplitude_and_phase():
    sol = build_solution(0.0, 0.0, 0.125, 0.0, +1)
    assert sol.D == 0.0
    assert sol.k == 0.5
    assert sol.C == 1.0
    assert sol.mode is BranchMode.TRAPPED_POS
    ts = np.linspace(0.0, 30.0, 400)
    x, _, _, _ = eval_solution(sol, ts)
    assert np.max(np.abs(np.sin(x) - 0.5 * sn(ts, 0.5))) < 1e-14


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


def test_separatrix_rejected():
    with pytest.raises(DegenerateCurve):
        build_solution(0.0, 0.0, 0.5, 0.0, +1)
    with pytest.raises(UnsupportedRegime):
        build_solution(0.0, 0.0, 0.0, 0.0, +1)
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
    from magflow import delta_y

    sol = build_solution(0.1, 0.0, 0.125, 0.3, +1)
    dy_oracle = delta_y(0.125, 0.3)
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
])
def test_elliptic_work_is_one_phase_per_sample(monkeypatch, x0, E, p, sgn):
    # elliptic._landen is the one routine that does per-phase elliptic work
    # (sn and EllipticModulus.sn_cn run through it): a build takes O(1)
    # phases and an evaluation one batch of exactly its samples, so no
    # per-sample quadrature can come back unseen
    import magflow.elliptic

    batches = []
    landen = magflow.elliptic._landen

    def counted(u, k, ladder):
        batches.append(np.size(u))
        return landen(u, k, ladder)

    monkeypatch.setattr(magflow.elliptic, "_landen", counted)
    sol = build_solution(x0, 0.0, E, p, sgn)
    assert sum(batches) <= 4
    batches.clear()
    eval_solution(sol, np.linspace(0.0, 50.0, 1000))
    assert batches == [1000]
