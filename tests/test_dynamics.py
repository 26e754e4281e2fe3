import math

import numpy as np
import pytest

from magflow import (
    DomainError,
    PhaseState,
    energy,
    integrals,
    integrate,
    momentum,
    reduced_lagrangian,
    rhs,
    state_from_integrals,
)

HALF_PI = 0.5 * math.pi


def test_rhs_kills_acceleration_on_the_line():
    xdot, ydot, xddot, yddot = rhs(0.0, PhaseState(HALF_PI, 0.0, 0.0, 1.0).as_array())
    assert (xdot, ydot) == (0.0, 1.0)
    assert abs(xddot) < 1e-16 and abs(yddot) < 1e-16


def test_rhs_at_origin():
    assert rhs(0.0, PhaseState(0.0, 0.0, 1.0, 0.0).as_array()) == (1.0, 0.0, 0.0, -1.0)
    assert rhs(0.0, PhaseState(0.0, 0.0, 0.0, 1.0).as_array()) == (0.0, 1.0, 1.0, 0.0)


def test_energy_values():
    assert energy(PhaseState(0.3, 0.1, 0.0, 0.0)) == 0.0
    assert energy(PhaseState(0.0, 0.0, 1.0, 1.0)) == 1.0
    assert energy(PhaseState(0.0, 0.0, 0.6, 0.8)) == pytest.approx(0.5, abs=1e-15)


def test_momentum_values():
    assert momentum(PhaseState(0.0, 0.0, 1.0, 0.0)) == 0.0
    assert momentum(PhaseState(HALF_PI, 0.0, 0.0, -1.0)) == pytest.approx(0.0, abs=1e-15)
    assert momentum(PhaseState(math.pi / 6, 0.0, 0.0, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_reduced_lagrangian_vanishes_at_critical_configuration():
    # at E = 1/2 the minimum of L_E sits at sin x = -1, xdot = 0, ydot > 0
    s = PhaseState(-HALF_PI, 0.0, 0.0, 1.0)
    assert reduced_lagrangian(s, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert reduced_lagrangian(s, 0.125) == pytest.approx(-0.5, abs=1e-15)
    assert reduced_lagrangian(PhaseState(1.0, 2.0, 0.0, 0.0), 0.37) == 0.0
    # states stacked along the last axis give the values one state at a time
    stack = np.array([[[-HALF_PI, 0.0, 0.0, 1.0], [1.0, 2.0, 0.0, 0.0]],
                      [[0.3, -1.0, 0.6, -0.8], [2.5, 0.4, -0.2, 0.9]]])
    one_by_one = [[reduced_lagrangian(PhaseState.from_array(r), 0.37) for r in row]
                  for row in stack]
    assert np.array_equal(reduced_lagrangian(stack, 0.37), one_by_one)
    with pytest.raises(DomainError):
        reduced_lagrangian(s, -0.1)


def test_state_from_integrals_examples():
    s = state_from_integrals(0.0, 0.0, 0.5, 0.0, +1)
    assert (s.x, s.y, s.xdot, s.ydot) == (0.0, 0.0, 1.0, 0.0)
    s = state_from_integrals(HALF_PI, 0.0, 0.5, 2.0, +1)
    assert s.xdot == pytest.approx(0.0, abs=1e-7)
    assert s.ydot == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        state_from_integrals(0.0, 0.0, 0.1, 1.0, +1)
    with pytest.raises(DomainError):
        state_from_integrals(0.0, 0.0, 0.5, 0.0, 2)


def test_state_round_trip(rng):
    for _ in range(100):
        s = PhaseState(*rng.uniform(-6, 6, 2), *rng.uniform(-2, 2, 2))
        if abs(s.xdot) < 1e-3:
            continue
        E, p = energy(s), momentum(s)
        r = state_from_integrals(s.x, s.y, E, p, 1 if s.xdot > 0 else -1)
        assert r.x == s.x and r.y == s.y
        assert r.xdot == pytest.approx(s.xdot, abs=1e-12)
        assert r.ydot == pytest.approx(s.ydot, abs=1e-12)


def test_first_integral_derivatives_vanish(rng):
    # dE/dt = xd*xdd + yd*ydd and dp/dt = ydd + cos(x) xd are identically zero
    for _ in range(200):
        s = PhaseState(*rng.uniform(-6, 6, 2), *rng.uniform(-2, 2, 2))
        _, _, xddot, yddot = rhs(0.0, s.as_array())
        assert abs(s.xdot * xddot + s.ydot * yddot) < 1e-15
        assert abs(yddot + math.cos(s.x) * s.xdot) < 1e-15


def test_invariants_object():
    s = PhaseState(0.2, 0.0, 0.3, 0.4)
    iv = integrals(s)
    assert iv.E == energy(s) and iv.p == momentum(s)
    with pytest.raises(DomainError):
        type(iv)(-1.0, 0.0)


def test_p_zero_reduces_to_pendulum_in_doubled_angle(rng):
    # for p = 0, u = 2x obeys u'' = -sin u; check the identity at states and
    # against a second difference along an integrated orbit
    for _ in range(50):
        x = rng.uniform(-0.8, 0.8)  # admissible: |sin x| <= sqrt(2E)
        s = state_from_integrals(x, 0.0, 0.3, 0.0, 1)
        _, _, xddot, _ = rhs(0.0, s.as_array())
        assert 2.0 * xddot == pytest.approx(-math.sin(2.0 * x), abs=1e-13)

    s0 = state_from_integrals(0.4, 0.0, 0.3, 0.0, 1)
    traj = integrate(s0, 5.0, 1e-11, with_events=False)
    ts = np.linspace(0.0, 5.0, 2001)
    h = ts[1] - ts[0]
    x, _, _, _ = traj.eval(ts)
    u = 2.0 * x
    second_diff = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    assert np.max(np.abs(second_diff + np.sin(u[1:-1]))) < 5e-5


def test_wrapped_reporting():
    s = PhaseState(7.0, -1.0, 0.0, 0.0)
    xw, yw = s.wrapped()
    assert 0.0 <= xw < 2 * math.pi and 0.0 <= yw < 2 * math.pi
    assert xw == pytest.approx(7.0 - 2 * math.pi, abs=1e-15)
