"""Property test: a closed-form orbit starts where it was asked to."""

import math

import pytest

from magflow import DegenerateCurve, build_solution, quartic_from_params, state_from_integrals

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
