"""Property tests: a closed-form orbit starts where it was asked to, and its
lift x(t) is continuous across the walls sin x = +-1."""

import math

import numpy as np
import pytest

from magflow import (
    DegenerateCurve,
    PhaseState,
    ReductionInconsistency,
    build_solution,
    integrate,
    map_xi_to_z,
    quartic_from_params,
    reduce_to_legendre,
    state_from_integrals,
)
from magflow.legendre import WINDING

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(1e-4, 2.5),
    log_gap=st.floats(-9.0, 0.0),
    root=st.sampled_from((-1.0, 1.0)),
    wall=st.sampled_from((-1.0, 1.0)),
    side=st.sampled_from((-1.0, 1.0)),
    frac=st.floats(0.0, 1.0),
    far_strip=st.booleans(),
    sign=st.sampled_from((-1, 1)),
    y0=st.floats(-10.0, 10.0),
)
def test_build_then_eval_at_zero_returns_the_initial_state(
        a, log_gap, root, wall, side, frac, far_strip, sign, y0):
    # the turning root p + root*a sits a gap 1e-9 .. 1 beside the wall:
    # trapped, crossing and winding levels, tiny ovals (small a) and
    # near-separatrix levels; the start is anywhere on the oval, turning
    # points and the walls sin x = +-1 included, in either strip
    E, p = 0.5 * a * a, wall + side * 10.0 ** log_gap - root * a
    lo, hi = max(-1.0, p - a), min(1.0, p + a)
    if lo > hi:
        return  # forbidden level: no state to start from
    x0 = math.asin(lo + frac * (hi - lo))
    if far_strip:
        x0 = math.pi - x0
    try:
        sol = build_solution(x0, y0, E, p, sign)
    except DegenerateCurve:
        assert quartic_from_params(E, p).degenerate
        return
    want = state_from_integrals(x0, y0, E, p, sign)
    got = sol.eval(0.0)
    assert got.y == y0
    assert got.ydot == pytest.approx(want.ydot, abs=1e-11)
    assert math.sin(got.x) == pytest.approx(math.sin(x0), abs=1e-11)
    # x itself and xdot = +-sqrt(2E - ydot^2) lose half the digits where
    # cos x or xdot vanishes
    assert math.remainder(got.x - x0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-5)
    assert got.xdot == pytest.approx(want.xdot, abs=1e-5)
    if abs(want.xdot) > 1e-5:
        assert math.copysign(1.0, got.xdot) == math.copysign(1.0, want.xdot)



# the message of build_solution's 2 pi self-check of x_offset
OFFSET_CHECK = "is not a multiple of 2*pi"


def reduction_fails(E, p):
    try:
        reduce_to_legendre(quartic_from_params(E, p))
    except ReductionInconsistency:
        return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(1e-4, 2.5),
    log_gap=st.floats(-9.0, 0.0),
    root=st.sampled_from((-1.0, 1.0)),
    wall=st.sampled_from((-1.0, 1.0)),
    side=st.sampled_from((-1.0, 1.0)),
    frac=st.floats(0.0, 1.0),
    far_strip=st.booleans(),
    sign=st.sampled_from((-1, 1)),
)
def test_lift_is_continuous_and_recurs(a, log_gap, root, wall, side, frac, far_strip, sign):
    # the levels and starts of the test above; the sheet index of
    # x = pi m + (-1)^m asin z must step exactly where z meets a wall: a
    # misplaced step is a jump in x, a wrong step count shows in the drift
    # of x over one recurrence
    E, p = 0.5 * a * a, wall + side * 10.0 ** log_gap - root * a
    lo, hi = max(-1.0, p - a), min(1.0, p + a)
    if lo > hi:
        return
    x0 = math.asin(lo + frac * (hi - lo))
    if far_strip:
        x0 = math.pi - x0
    try:
        sol = build_solution(x0, 0.0, E, p, sign)
    except DegenerateCurve:
        assert quartic_from_params(E, p).degenerate
        return
    except ReductionInconsistency as exc:
        # failures of the build, not of the lift: next to a separatrix the
        # reduction can fail its self-check, and where the map misses a wall
        # the 2 pi self-check of x_offset can fail (test_start_on_a_wall)
        assert reduction_fails(E, p) or OFFSET_CHECK in str(exc)
        return
    T = sol.recurrence_time
    ts = np.linspace(-2.0 * T, 2.0 * T, 2001)
    x = sol.eval(ts)[0]
    # where z(+-K) misses the wall it should reach by d, x = pi m +- asin z
    # steps by 2 sqrt(2 d) as the sheet changes there; asin also turns the
    # rounding of z next to a wall into an error of order sqrt(eps)
    cv = sol.curve
    miss = max([abs(float(map_xi_to_z(sol.reduction, xi)) - z)
                for xi, z in ((-1.0, cv.a1), (1.0, cv.a2)) if abs(z) == 1.0], default=0.0)
    slack = 2.0 * math.sqrt(2.0 * (miss + 1e-15)) + 1e-12 * max(1.0, float(np.max(np.abs(x))))
    # |xdot| <= sqrt(2E)
    assert np.max(np.abs(np.diff(x)) - math.sqrt(2.0 * E) * (ts[1] - ts[0])) <= slack
    drift = 2.0 * math.pi * sign if cv.kind == WINDING else 0.0
    x_later = sol.eval(ts[:1001] + T)[0]
    assert np.max(np.abs(x_later - x[:1001] - drift)) <= slack


@pytest.mark.parametrize("E, p, x0, sign", [
    # winding: the map sends xi = 1 to 1 - 8.9e-15, asin turns that into an
    # error of 1.3e-7 in x, and the 2 pi self-check of x_offset raises
    pytest.param(0.5 * 2.5 ** 2, 1.499, 0.5 * math.pi, -1, marks=pytest.mark.xfail(
        strict=True, raises=ReductionInconsistency,
        reason="the map misses the wall by 8.9e-15 and the x_offset check raises")),
    (0.72, 0.9, 0.5 * math.pi, -1),               # crossing
])
def test_start_on_a_wall(E, p, x0, sign):
    got = build_solution(x0, 0.0, E, p, sign).eval(0.0)
    assert math.copysign(1.0, got.xdot) == sign
    assert math.sin(got.x) == pytest.approx(math.sin(x0), abs=1e-11)


@pytest.mark.parametrize("E, p", [
    (0.49766262222561114, 0.007001713799390075),
    (0.18230050950239163, 0.39649109610635813),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_start_on_a_wall_keeps_the_phase(E, p, sign):
    # z0 = sin(pi/2) = 1 is the oval's end a2, so xi0 = 1 exactly; the map
    # sends z = 1 to 1 - O(1e-14), and asin would turn that into a phase
    # error of about 1e-7 that shifts the whole orbit in time: sin x was
    # 1.23e-6 and 4.5e-7 off DOP853, y 2.45e-6 and 9.6e-7
    sol = build_solution(0.5 * math.pi, 0.0, E, p, sign)
    s0 = sol.eval(0.0)
    traj = integrate(PhaseState(0.5 * math.pi, 0.0, s0.xdot, s0.ydot), 20.0, 1e-12,
                     with_events=False)
    ts = np.linspace(0.0, 20.0, 2001)
    x, y, _, _ = sol.eval(ts)
    x_rk, y_rk, _, _ = traj.eval(ts)
    assert np.max(np.abs(np.sin(x) - np.sin(x_rk))) < 1e-9
    assert np.max(np.abs(y - y_rk)) < 1e-9


def wall_starts(n, seed):
    """n seeded starts on or next to a wall of a crossing or winding level.

    Either wall, either strip and either sign of xdot; a quarter of the
    starts lie exactly on the wall, the rest 1e-16 ... 1e-6 off it.  Every
    turning root stays 1e-3 or more away from the walls.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        wall, strip, sign = (float(rng.choice([-1.0, 1.0])) for _ in range(3))
        if rng.random() < 0.5:  # crossing: one root past the wall, one inside
            a = rng.uniform(0.05, 2.4)
            r = rng.uniform(max(-1.0, 1.0 - 2.0 * a) + 1e-3, 1.0 - 1e-3)
            p = wall * (r + a)
        else:  # winding: both roots past the walls
            p = rng.uniform(-1.5, 1.5)
            a = 1.0 + abs(p) + rng.uniform(1e-3, 1.5)
        off = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-16.0, -6.0)
        yield 0.5 * a * a, p, wall * 0.5 * math.pi + strip * off, int(sign)


def test_starts_next_to_a_wall_keep_xdot_and_sin_x():
    # the half period of t = 0 is chosen from the motion just after it, so
    # eval(0) moves the way it was asked to on either side of a wall.  A
    # start may raise only from the x_offset check, where the map misses
    # the wall as in the winding case of test_start_on_a_wall: one does,
    # 1.5e-8 off the wall at (E, p) = (1.5693, 0.8062), where xi = 1 maps
    # to 1 - 1.4e-15
    raised = 0
    for E, p, x0, sign in wall_starts(2000, 20261018):
        try:
            got = build_solution(x0, 0.0, E, p, sign).eval(0.0)
        except ReductionInconsistency as exc:
            assert OFFSET_CHECK in str(exc)
            raised += 1
            continue
        assert math.copysign(1.0, got.xdot) == sign
        assert math.sin(got.x) == pytest.approx(math.sin(x0), abs=1e-11)
    assert raised <= 1
