"""The closed-form phase on Python floats equals its lane of an array call.

elliptic._sn_cn_rungs and closedform._orbit_phase are written once over
_xp: a float phase (build_solution's start, a scalar t of eval_solution, a
scalar u of elliptic.sn) runs the lines on Python floats, a batch on numpy.
Every value of the float path must equal the array path bit for bit, so
that y(0) = y0 and x_offset stay exact and no output of the package moves.
So must dynamics.rhs, the flow, which the RK oracle calls on floats for
its first stage and on arrays for the interpolant stages of a block.
"""

import math

import numpy as np
import pytest

from magflow import build_solution, eval_solution, sn
from magflow._xp import ARRAY, FLOAT, mod2
from magflow.closedform import _orbit_phase, _sheet
from magflow.dynamics import rhs
from magflow.elliptic import _sn_cn_rungs, descent, masked_K_ladder
from magflow.legendre import CROSSING, quartic_from_params

# every orbit kind, both signs of xdot, p = 0 and p != 0, and a level next
# to a separatrix, where the ladder has the most rungs
ORBITS = [
    (0.1, 0.125, 0.3, +1),          # trapped
    (math.pi - 0.1, 0.125, 0.3, -1),  # trapped, cos x0 < 0
    (0.4, 0.3, 0.0, +1),            # trapped, p = 0
    (0.1, 0.3, 0.6, +1),            # crossing at x = pi/2
    (-2.0, 0.3, -0.5, -1),          # crossing at x = -pi/2
    (0.7, 1.0, 0.3, -1),            # winding
    (0.7, 1.0, 0.0, +1),            # winding, p = 0
    (0.7, 1.0, 0.0, -1),            # winding, p = 0
    (0.1, 0.125, 0.5 + 2e-9, +1),   # crossing, a root 2e-9 past the wall
    (0.2, 0.5 * (1.0 - 1e-9), 1e-6, +1),  # k^2 next to 1
]
BATCHES = (1, 7, 1000)  # one lane, a SIMD tail and a long batch


def bits(a):
    """The bit patterns of a float or an array, with every NaN one pattern."""
    a = np.array(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


def phases(K, u0, rng):
    """u0, 0, +-K, multiples of 2K, 3 ulp on either side of the half-period
    boundaries (2i + 1) K, near and with |i| up to 1e5, and |u| uniform and
    log-uniform up to 1e3 and up to 1e6, where the half period j runs down
    to about -1e6/(2K)."""
    i = np.concatenate([np.arange(-4, 5), rng.integers(-100_000, 100_000, 6),
                        [-100_000, 99_999]])
    edges = (2.0 * i + 1.0) * K
    near = edges[:, None] + np.arange(-3, 4)[None, :] * np.spacing(np.abs(edges))[:, None]
    wide = np.concatenate([rng.uniform(-1e3, 1e3, 300),
                           rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-8.0, 3.0, 300),
                           rng.uniform(-1e6, 1e6, 100),
                           rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(3.0, 6.0, 100)])
    return [u0, 0.0, -0.0, K, -K, *(2.0 * K * np.arange(-6, 7)), *near.ravel(), *wide]


def assert_lanes_equal(f, us):
    """f on each float u equals its lane of f on the array of all us, cut
    into batches of each size in BATCHES (cyclically padded)."""
    want = [tuple(bits(v) for v in f(u)) for u in us]
    for size in BATCHES:
        padded = np.resize(np.array(us), -(-len(us) // size) * size)
        for start in range(0, len(padded), size):
            got = f(padded[start:start + size])
            for lane in range(size):
                i = (start + lane) % len(us)
                assert tuple(bits(v[lane]) for v in got) == want[i], (us[i], size, lane)


@pytest.mark.parametrize("x0, E, p, sign", ORBITS)
def test_float_phase_equals_array_lanes(x0, E, p, sign, rng):
    sol = build_solution(x0, 0.0, E, p, sign)
    red, pc, cos_x0 = sol.reduction, sol.phase_constants, math.cos(x0)
    us = phases(red.K, sol.D / sol.C, rng)
    assert min(_sn_cn_rungs(np.array(us), pc.descent)[0]) <= -1e5  # j far below 0
    assert not isinstance(_orbit_phase(red, pc, sign, cos_x0, us[0])[0], np.ndarray)
    # j, (-1)^j, sn, cn and the folded phase v
    assert_lanes_equal(lambda u: _sn_cn_rungs(u, pc.descent)[:5], us)
    assert_lanes_equal(lambda u: _orbit_phase(red, pc, sign, cos_x0, u), us)


@pytest.mark.parametrize("k", [0.0, 1e-9, 0.5, 0.999, math.sqrt(1.0 - 1e-12)])
def test_sn_cn_float_equals_array_lanes(k, rng):
    K, ladder = masked_K_ladder(k, math.sqrt((1.0 - k) * (1.0 + k)))
    d = descent(ladder)
    assert_lanes_equal(lambda u: _sn_cn_rungs(u, d)[:5], phases(K, 0.5 * K, rng))


@pytest.mark.parametrize("x0, E, p, sign", ORBITS)
def test_scalar_eval_is_python_floats_equal_to_the_array_lane(x0, E, p, sign, rng):
    sol = build_solution(x0, 0.5, E, p, sign)
    ts = np.concatenate([[0.0], rng.uniform(-50.0, 50.0, 6), rng.uniform(-1e6, 1e6, 4)])
    lanes = eval_solution(sol, ts)
    for i, t in enumerate(ts.tolist()):
        s = eval_solution(sol, t)
        assert all(type(v) is float for v in (s.x, s.y, s.xdot, s.ydot))
        assert [bits(v) for v in (s.x, s.y, s.xdot, s.ydot)] == [bits(v[i]) for v in lanes]
    # the start phase of the build is the phase of t = 0 on either path
    assert eval_solution(sol, 0.0).y == 0.5
    assert lanes[1][0] == 0.5


def test_scalar_sn_is_a_python_float_equal_to_the_array_lane(rng):
    for k in (0.0, 0.3, 0.9, 0.999999):
        us = rng.uniform(-1e3, 1e3, 7)
        lanes = sn(us, k)
        for i, u in enumerate(us.tolist()):
            s = sn(u, k)
            assert type(s) is float
            assert bits(s) == bits(lanes[i])
        assert type(sn(np.float64(0.3), k)) is float
        assert type(sn(np.array(0.3), k)) is float


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_scalar_nonfinite_phase_gives_nan(bad):
    # Python's round(nan) and math.sin(inf) raise; the float path must not,
    # and under the test suite's RuntimeWarning filter it warns of nothing
    for x0, E, p, sign in ORBITS:
        s = eval_solution(build_solution(x0, 0.0, E, p, sign), bad)
        assert all(math.isnan(v) for v in (s.x, s.y, s.xdot, s.ydot))
    assert math.isnan(sn(bad, 0.5))
    assert all(math.isnan(v) for v in _sn_cn_rungs(bad, descent(masked_K_ladder(0.5)[1]))[:5])


@pytest.mark.parametrize("p", [0.2, 0.0])
def test_nonfinite_times_of_an_array_give_nan_silently(p):
    # numpy warns of an invalid value at the fold inf % 2K, and at p = 0,
    # where q = 0, at q t = 0 inf; a float gives the same NaN silently, and
    # so does each lane of an array, under the test suite's RuntimeWarning
    # filter, equal to its float call bit for bit
    sol = build_solution(0.1, 0.0, 0.3, p, +1)
    ts = [math.inf, -math.inf, math.nan, 1.0]
    lanes = eval_solution(sol, np.array(ts))
    for i, t in enumerate(ts):
        s = eval_solution(sol, t)
        assert [bits(v) for v in (s.x, s.y, s.xdot, s.ydot)] == [bits(v[i]) for v in lanes]
    assert not any(math.isnan(v[3]) for v in lanes)
    assert np.array_equal(bits(sn(np.array(ts), 0.3)), bits([sn(t, 0.3) for t in ts]))


def draws(rng, n, lo_exp, hi_exp, signed=True):
    """n floats, half uniform in magnitude over [0, 4], half log-uniform
    over [10^lo_exp, 10^hi_exp], with a random sign when signed."""
    mag = np.concatenate([rng.uniform(0.0, 4.0, n // 2),
                          10.0 ** rng.uniform(lo_exp, hi_exp, n - n // 2)])
    return mag * rng.choice([-1.0, 1.0], n) if signed else mag


def test_xp_operations_of_the_phase_agree_on_floats_and_arrays(rng):
    # 10^5 draws over the ranges the phase feeds each operation: the
    # amplitudes phi of the Landen rungs (up to 2^n K), arcsin of
    # |c_n/a_n sin phi| < 1, arctanh of the theta terms of y, inside
    # (-1, 1) and up to 1e-15 from either end, the log1p and sqrt of
    # positive terms, rint of (u - v)/2K, which is an integer up to
    # rounding, floor of the half period j and of its halves (with
    # half-integers, -0.0, NaN and +-inf among them), the clamp of z, the
    # fold and q t of eval_solution, any and all of a mask, and the flow
    n = 100_000
    unit = np.clip(draws(rng, n, -20.0, 0.0), -1.0, 1.0)
    unit[:8] = [1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 1.0 - 2.0**-53, -1.0 + 2.0**-53]
    whole = np.rint(draws(rng, n, 0.0, 15.0))
    near_whole = whole + rng.choice([0.0, 0.5, -0.5, 1e-12, -1e-12, 0.3, -0.3], n)
    near_whole[:4] = [math.nan, math.inf, -math.inf, -0.0]
    cases = {
        "sin": (draws(rng, n, -20.0, 3.0),),
        "cos": (draws(rng, n, -20.0, 3.0),),
        "arcsin": (unit,),
        "arctanh": (np.concatenate([rng.uniform(-1.0, 1.0, n // 2),
                                    rng.choice([-1.0, 1.0], n - n // 2)
                                    * (1.0 - 10.0 ** rng.uniform(-15.0, 0.0, n - n // 2))]),),
        "log1p": (draws(rng, n, -300.0, 300.0, signed=False),),
        "sqrt": (draws(rng, n, -300.0, 300.0, signed=False),),
        "rint": (near_whole,),
        "floor": (near_whole,),
        # the phase passes NaN as the first operand only
        "minimum": (draws(rng, n, -5.0, 1.0), draws(rng, n, -5.0, 1.0)),
        "maximum": (draws(rng, n, -5.0, 1.0), draws(rng, n, -5.0, 1.0)),
        # the fold of u + K by 2K >= pi, and q t; +-inf, NaN and 0 among
        # them, which numpy warns of unless these operations silence it
        "remainder": (draws(rng, n, -20.0, 8.0), draws(rng, n, 0.5, 3.0, signed=False)),
        "multiply": (draws(rng, n, -20.0, 8.0), draws(rng, n, -20.0, 8.0)),
    }
    cases["minimum"][0][:2] = cases["maximum"][0][:2] = math.nan
    cases["remainder"][0][:5] = [math.inf, -math.inf, math.nan, 0.0, -0.0]
    cases["multiply"][0][:6] = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.0]
    cases["multiply"][1][:6] = [math.inf, -math.inf, 0.0, -0.0, 1.0, math.nan]
    for name, args in cases.items():
        on_floats = [getattr(FLOAT, name)(*a) for a in zip(*(x.tolist() for x in args))]
        assert np.array_equal(bits(on_floats), bits(getattr(ARRAY, name)(*args))), name
    cond, a, b = rng.uniform(size=n) < 0.5, rng.normal(size=n), rng.normal(size=n)
    on_floats = [FLOAT.where(*v) for v in zip(cond.tolist(), a.tolist(), b.tolist())]
    assert np.array_equal(bits(on_floats), bits(ARRAY.where(cond, a, b)))
    # any and all of a mask, the numpy bool of a comparison of 0-d arrays
    # among them, and of a float's comparison
    zero_d = np.array(0.3)
    for mask in (np.zeros(0, bool), np.zeros(5, bool), np.arange(7) == 3, np.ones(4, bool),
                 cond, zero_d > 0.1, zero_d > 1.0):
        assert bool(ARRAY.any(mask)) is bool(np.any(mask))
        assert bool(ARRAY.all(mask)) is bool(np.all(mask))
    for truth in (0.3 > 0.1, 0.3 > 1.0):
        assert FLOAT.any(truth) is FLOAT.all(truth) is truth
    # the flow dynamics.rhs, whose cos comes from _xp: x, xdot and ydot up
    # to 1e300, with +-0, subnormals and NaN among each; x = +-inf raises
    # math.cos's ValueError on floats, as the RK oracle's block pass raises
    # it for an array (integrate._stages)
    flow = [draws(rng, n, -320.0, 300.0) for _ in range(3)]
    for v in flow:
        v[:6] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.nan]
        rng.shuffle(v)
    x, xd, yd = flow
    on_floats = [rhs(0.0, s) for s in zip(x.tolist(), x.tolist(), xd.tolist(), yd.tolist())]
    assert np.array_equal(bits(on_floats), bits(np.array(rhs(0.0, (x, x, xd, yd))).T))
    for x_inf in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="math domain error"):
            rhs(0.0, (x_inf, 0.0, 1.0, 1.0))


def whole_numbers(rng):
    """Whole-numbered floats, as the half period j and the sheet's halves of
    it are: every integer in [-9, 9], draws of either sign up to 2^53 in
    magnitude, +-2^53 - 1, +-2^53, +-0, NaN and +-inf."""
    big = np.rint(rng.choice([-1.0, 1.0], 3000) * 2.0 ** rng.uniform(0.0, 53.0, 3000))
    edge = [2.0**53 - 1.0, 2.0**53, -(2.0**53) + 1.0, -(2.0**53)]
    return [*np.arange(-9.0, 10.0), *big, *edge, 0.0, -0.0, math.nan, math.inf, -math.inf]


def test_floor_forms_equal_the_floor_mods_they_replace(rng):
    # the parity of the half period j and the sheet of a crossing orbit take
    # j mod 2 as j - 2 floor(j/2) (_xp.mod2) and (j + s) // 2 as floor of
    # the half; on every whole number, +-0, NaN and +-inf they must equal
    # numpy's % and // bit for bit, sign of zero included, on floats and on
    # arrays, and a non-finite j must give NaN without raising
    js = whole_numbers(rng)
    arr = np.array(js)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(mod2(arr)), bits(arr % 2.0))
        assert np.array_equal(bits([mod2(j) for j in js]), bits(arr % 2.0))
        for p, wall in ((0.6, 1.0), (-0.5, -1.0)):
            curve = quartic_from_params(0.3, p)
            assert curve.kind == CROSSING
            b = (arr + 0.5 * (1.0 + wall)) // 2.0 % 2.0
            want = (wall * b, 1.0 - 2.0 * b)  # m and cos x
            on_floats = [_sheet(curve, 1, 1.0, j, None) for j in js]
            for k, got in enumerate(_sheet(curve, 1, 1.0, arr, None)):
                assert np.array_equal(bits(got), bits(want[k]))
                assert np.array_equal(bits([v[k] for v in on_floats]), bits(want[k]))
    # the parity the descent returns with j, over phases up to |u| = 1e6
    # and the non-finite ones
    K, ladder = masked_K_ladder(0.6, 0.8)
    d = descent(ladder)
    us = np.array([*phases(K, 0.3, rng), math.nan, math.inf, -math.inf])
    with np.errstate(invalid="ignore"):
        j, flip = _sn_cn_rungs(us, d)[:2]
        assert np.array_equal(bits(flip), bits(1.0 - 2.0 * (j % 2.0)))
    for u in (-0.0, 1e6, -1e6, math.nan, math.inf):
        j, flip = _sn_cn_rungs(u, d)[:2]
        assert bits(flip) == bits(1.0 - 2.0 * (j % 2.0))
