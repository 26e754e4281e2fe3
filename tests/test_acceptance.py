"""End-to-end verification gate.

Each test checks one headline guarantee at its stated tolerance and prints
a single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to
see them).  Random draws are seeded, so the gate is deterministic.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from magflow import (
    DomainError,
    OrbitKind,
    action_contractible_formula,
    action_direct,
    action_increment,
    build_solution,
    classify,
    complete_K,
    conservation_report,
    contractible_orbit,
    CylinderStrip,
    eval_solution,
    film_action,
    integrate,
    map_z_to_xi,
    quartic_from_params,
    reduce_to_legendre,
    sn,
    state_from_integrals,
)
from tests.conftest import quartic, sample_level, sample_trapped
from tests.oracles import (
    film_strip_grid_search,
    lagrangian_sign_scan,
    mane_level_scan,
    measure_period,
)

SEED = 424242


def report(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_01_conservation_drift():
    s0 = state_from_integrals(0.1, 0.0, 0.3, 0.2, 1)
    t0 = time.perf_counter()
    traj = integrate(s0, 100.0, 1e-11)
    elapsed = time.perf_counter() - t0
    dE, dp = conservation_report(traj)
    report(1, "first-integral drift at tol=1e-11 over t=100 below 1e-9",
           dE < 1e-9 and dp < 1e-9 and elapsed < 5.0,
           f"dE={dE:.2e}, dp={dp:.2e}, {elapsed:.2f}s")


def test_02_closed_form_matches_integrator():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    ts = np.linspace(0.0, 50.0, 1200)
    for _ in range(20):
        E, p = sample_level(rng)
        a = math.sqrt(2.0 * E)
        z0 = rng.uniform(max(p - a, -1.0) + 0.02, min(p + a, 1.0) - 0.02)
        x0 = float(np.arcsin(z0))
        if rng.random() < 0.5:
            x0 = math.pi - x0
        sgn = int(rng.choice([-1, 1]))
        sol = build_solution(x0, 0.0, E, p, sgn)
        xc = eval_solution(sol, ts)[0]
        traj = integrate(state_from_integrals(x0, 0.0, E, p, sgn),
                         50.0 + 1e-9, 1e-11)
        xn = traj.eval(ts)[0]
        worst = max(worst, float(np.max(np.abs(np.sin(xc) - np.sin(xn)))))
    elapsed = time.perf_counter() - t0
    report(2, "sup |sin x| gap closed form vs integrator below 1e-6 (20 levels)",
           worst < 1e-6 and elapsed < 30.0,
           f"worst={worst:.2e}, {elapsed:.1f}s")


def test_03_symmetric_reduction_and_measured_period():
    red = reduce_to_legendre(quartic_from_params(0.125, 0.0))
    k2_ok = abs(red.k2 - 0.25) < 1e-12
    T_agm = 4.0 * complete_K(0.5)
    T_num = measure_period(state_from_integrals(0.0, 0.0, 0.125, 0.0, 1),
                           t_end=20.0)
    report(3, "p=0 reduction gives k^2 = 2E and period 4K(1/2) to 1e-6",
           k2_ok and abs(T_num - T_agm) < 1e-6,
           f"k2={red.k2!r}, 4K={T_agm:.9f}, measured={T_num:.9f}")


def test_04_pullback_identity():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    count = 0
    while count < 10:
        E, p = sample_level(rng, e_lo=0.05, e_hi=1.5, margin=0.05)
        if abs(p) < 1e-3:
            continue
        c = quartic_from_params(E, p)
        red = reduce_to_legendre(c)
        count += 1
        for _ in range(5):
            pad = 0.05 * (c.a2 - c.a1)
            za, zb = np.sort(rng.uniform(c.a1 + pad, c.a2 - pad, 2))
            lhs = quad(lambda z: 1.0 / np.sqrt(quartic(c.E, c.p, z)), za, zb,
                       epsabs=1e-12, epsrel=1e-12)[0]
            xa, xb = map_z_to_xi(red, za), map_z_to_xi(red, zb)
            rhs = quad(lambda x: 1.0 / np.sqrt((1 - x * x) * (1 - red.k2 * x * x)),
                       xa, xb, epsabs=1e-12, epsrel=1e-12)[0]
            worst = max(worst, abs(lhs - red.C_const * rhs))
    report(4, "pullback identity int dz/w = C int dxi/eta below 1e-8",
           worst < 1e-8, f"worst={worst:.2e}")


def test_05_jacobi_kernel():
    rng = np.random.default_rng(SEED + 2)
    h = 1e-5
    worst_diff = 0.0
    for _ in range(200):
        k = float(rng.uniform(0.0, 0.99))
        u = float(rng.uniform(-20.0, 20.0))
        d = (sn(u + h, k) - sn(u - h, k)) / (2.0 * h)
        s = sn(u, k)
        worst_diff = max(worst_diff, abs(d * d - (1 - s * s) * (1 - (k * s) ** 2)))
    worst_sine = max(abs(sn(u, 0.0) - math.sin(u))
                     for u in rng.uniform(-10, 10, 50))
    worst_per = 0.0
    for _ in range(100):
        k = float(rng.uniform(0.01, 0.995))
        u = float(rng.uniform(-30.0, 30.0))
        worst_per = max(worst_per, abs(sn(u + 4 * complete_K(k), k) - sn(u, k)))
    report(5, "sn kernel: differential identity 1e-7, sine limit 1e-13, 4K period 1e-11",
           worst_diff < 1e-7 and worst_sine < 1e-13 and worst_per < 1e-11,
           f"diff={worst_diff:.2e}, sine={worst_sine:.2e}, period={worst_per:.2e}")


def test_06_contractible_action_three_ways():
    ok = True
    details = []
    for E in (0.05, 0.125, 0.25, 0.4, 0.49):
        sol = contractible_orbit(E)
        direct = action_direct(sol)
        increment = action_increment(sol)
        formula = action_contractible_formula(E)
        ok &= direct > 1e-4
        ok &= abs(direct - increment) < 1e-7
        ok &= abs(direct - formula) < 1e-6
        details.append(f"E={E}: S={direct:.6f}")
    report(6, "contractible action positive; direct = increment = formula",
           ok, "; ".join(details[:2]) + " ...")


def test_07_film_minimizer():
    exact = film_action(CylinderStrip(0.5 * math.pi, 1.5 * math.pi, 0.125))
    ok = abs(exact - (-2.0 * math.pi)) < 1e-12
    for E in (0.125, 0.3):
        res = film_strip_grid_search(E, n=6284)  # grid step below 1e-3
        ok &= abs(math.remainder(res.x_a - 0.5 * math.pi, 2 * math.pi)) < 1e-3
        ok &= abs(math.remainder(res.x_b - 1.5 * math.pi, 2 * math.pi)) < 1e-3
        # the grid minimum lies above the closed form by at most pi step^2
        closed = 4.0 * math.pi * (math.sqrt(2.0 * E) - 1.0)
        ok &= 0.0 <= res.action - closed <= math.pi * res.grid_step ** 2
    report(7, "strip action at the negative-field strip is 4pi(sqrt(2E)-1); grid minimum sits there",
           ok, f"value at E=1/8: {exact:.15f}")


def test_08_no_contractible_orbits_at_or_above_half():
    ok = True
    for E in (0.5, 0.7):
        try:
            contractible_orbit(E)
            ok = False
        except DomainError:
            pass
        for p in np.linspace(-2.0, 2.0, 101):
            c = classify(E, float(p))
            ok &= not c.contractible
            ok &= c.kind is not OrbitKind.TRAPPED_OVAL or not c.contractible
    report(8, "no contractible orbits at E in {0.5, 0.7} (construction + 101-point p-grid)", ok)


def test_09_delta_y_sign_law():
    rng = np.random.default_rng(SEED + 3)
    ok = abs(classify(0.125, 0.0).delta_y) < 1e-10
    for _ in range(50):
        E, p = sample_trapped(rng)
        dy = classify(E, p).delta_y
        ok &= (dy < 0 < p) or (p < 0 < dy)
    report(9, "sign(Delta_y) = -sign(p) on 50 trapped levels; zero at p=0", ok)


def test_10_critical_level():
    ok = mane_level_scan(64) == 0.5 and mane_level_scan(101) == 0.5
    below = lagrangian_sign_scan(0.4, 1000, seed=SEED)
    at = lagrangian_sign_scan(0.5, 1000, seed=SEED)
    above = lagrangian_sign_scan(0.6, 1000, seed=SEED)
    ok &= below.n_negative >= 1
    ok &= above.n_negative == 0
    ok &= at.min_value >= -1e-9
    ok &= abs(math.sin(at.min_state.x) + 1.0) < 1e-9 and abs(at.min_state.xdot) < 1e-9
    for E, scan in ((0.4, below), (0.5, at), (0.6, above)):
        ok &= abs(scan.min_value - (2.0 * E - math.sqrt(2.0 * E))) < 1e-12
    report(10, "critical level 1/2: gauge scan exact, L_E sign census at E in {0.4, 0.5, 0.6}",
           ok, f"min L at E=0.5: {at.min_value:.2e}")
