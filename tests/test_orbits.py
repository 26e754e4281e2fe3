import math

import numpy as np
import pytest

from magflow import (
    CylinderStrip,
    DegenerateCurve,
    DomainError,
    OpenCurve,
    OrbitDisc,
    OrbitKind,
    PhaseState,
    ReductionInconsistency,
    WrongRegime,
    action_contractible_formula,
    action_direct,
    action_increment,
    build_solution,
    classify,
    contractible_orbit,
    cycle_action,
    cycle_data,
    eval_solution,
    film_action,
    integrate,
    quartic_from_params,
    vertical_line_action,
)
from magflow.cli import main
from magflow.closedform import ClosedFormSolution
from magflow.orbits import _circuit_trapezoid
from magflow.quadrature import oval_quad
from tests.conftest import sample_trapped
from tests.oracles import film_strip_grid_search, lagrangian_sign_scan, mane_level_scan

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# classification


def test_classify_trapped_contractible():
    c = classify(0.125, 0.0)
    assert c.kind is OrbitKind.TRAPPED_OVAL
    assert c.contractible
    assert abs(c.delta_y) < 1e-10
    assert c.turning_roots == pytest.approx((-0.5, 0.5), abs=1e-15)


def test_classify_winding():
    c = classify(1.0, 0.0)
    assert c.kind is OrbitKind.WINDING
    assert not c.contractible


def test_classify_vertical_line():
    p = 1.0 + math.sqrt(0.5)
    c = classify(0.25, p)
    assert c.kind is OrbitKind.VERTICAL_LINE
    assert c.period == pytest.approx(math.pi * math.sqrt(2.0 / 0.25), abs=1e-12)
    assert vertical_line_action(0.25, p) == pytest.approx(
        TWO_PI * (math.sqrt(0.5) + 1.0), abs=1e-12)
    assert c.action == vertical_line_action(0.25, p)


@pytest.mark.parametrize("E, p", [(0.5, 1e-10), (0.125, 1.5 + 5e-10)])
def test_vertical_line_action_reads_the_kind(E, p):
    # a turning root within 1e-9 of a wall: classify calls the level a
    # separatrix, so it carries no vertical line (a test of the wall gap
    # alone answered 0.0 and 9.42 here)
    assert classify(E, p).kind is OrbitKind.SEPARATRIX
    with pytest.raises(WrongRegime):
        vertical_line_action(E, p)


def test_classify_separatrix_band_and_crossing(capsys):
    assert classify(0.125, 0.5 + 1e-10).kind is OrbitKind.SEPARATRIX
    # 2 sqrt(2E) is 1e-9 to the last bit and the rounded root gap just
    # below it: one rule calls the level a separatrix, and the CLI agrees
    assert classify(1.25e-19, 0.3).kind is OrbitKind.SEPARATRIX
    assert main(["classify", "--e", "1.25e-19", "--p", "0.3"]) == 0
    assert '"kind": "Separatrix"' in capsys.readouterr().out
    assert classify(0.3, -0.5).kind is OrbitKind.CROSSING_LIBRATOR
    assert classify(0.3, -0.5).delta_y is not None


@pytest.mark.xfail(raises=ReductionInconsistency, strict=True,
                   reason="the reduction fails its self-check next to E = 1/2")
def test_classify_crossing_levels_next_to_the_critical_energy():
    # at p = 1e-7, z1 = p - 1 lies just inside the wall z = -1 and z2 = p + 1
    # just outside z = +1 (at -1e-7 the mirror): crossing librators with a
    # finite period
    for p in (1e-7, -1e-7):
        c = classify(0.5, p)
        assert c.kind is OrbitKind.CROSSING_LIBRATOR
        assert math.isfinite(c.period)


def test_classify_forbidden_level():
    c = classify(0.125, 3.0)
    assert c.kind is OrbitKind.FORBIDDEN
    assert c.delta_y is None and c.period is None and c.action is None


def test_classification_invariant_under_p_reflection(rng):
    for _ in range(20):
        E, p = sample_trapped(rng)
        a, b = classify(E, p), classify(E, -p)
        assert a.kind is b.kind
        assert a.period == pytest.approx(b.period, abs=1e-9)
        assert a.delta_y == pytest.approx(-b.delta_y, abs=1e-10)


# one level per regime: (E, p, kind)
CYCLE_LEVELS = [
    (0.125, 0.0, OrbitKind.TRAPPED_OVAL),
    (0.125, 0.3, OrbitKind.TRAPPED_OVAL),
    (0.18, 0.4 - 1e-7, OrbitKind.TRAPPED_OVAL),    # turning root 1e-7 below +1
    (1e-6, -0.9, OrbitKind.TRAPPED_OVAL),          # tiny oval
    (0.3, 0.6, OrbitKind.CROSSING_LIBRATOR),       # crossing right
    (0.3, -0.5, OrbitKind.CROSSING_LIBRATOR),      # crossing left
    (0.5, 0.3, OrbitKind.CROSSING_LIBRATOR),       # E = 1/2: affine map, s = 0
    (1.0, 0.0, OrbitKind.WINDING),
    (3.0, 0.1, OrbitKind.WINDING),
]


@pytest.mark.parametrize("E, p, kind", CYCLE_LEVELS)
def test_cycle_data_match_oval_quadrature(E, p, kind):
    # oracle: adaptive quadrature of 2 int g(z) dz/w over the oval
    c = classify(E, p)
    assert c.kind is kind
    cv = quartic_from_params(E, p)

    def oval(g):
        return 2.0 * oval_quad(g, cv.a1, cv.a2, cv.a3, cv.a4, tol=1e-12)

    assert c.period == pytest.approx(oval(np.ones_like), rel=1e-10)
    assert c.delta_y == pytest.approx(oval(lambda z: p - z), rel=1e-10, abs=1e-12)
    assert c.action == pytest.approx(oval(lambda z: 2.0 * E + z * (p - z)), rel=1e-10)
    assert cycle_action(E, p) == c.action


@pytest.mark.parametrize("E, p, kind", CYCLE_LEVELS)
def test_closed_form_y_advance_equals_classified_delta_y(E, p, kind):
    a = math.sqrt(2.0 * E)
    x0 = math.asin(0.5 * (max(-1.0, p - a) + min(1.0, p + a)))
    sol = build_solution(x0, 0.0, E, p, +1)
    c = classify(E, p)
    assert sol.x_period == c.period                        # the same 2 m_0 = 4 C K, bit for bit
    assert sol.delta_y_per_cycle == c.delta_y


@pytest.mark.parametrize("E, p, error", [
    (0.125, 3.0, WrongRegime),                          # forbidden: empty level set
    (0.125, 0.5 + 1e-10, DegenerateCurve),              # separatrix band
    (0.25, 1.0 + math.sqrt(0.5), DegenerateCurve),      # vertical line
])
def test_cycle_action_without_a_cycle_raises(E, p, error):
    with pytest.raises(error):
        cycle_action(E, p)


def test_cycle_data_run_no_quadrature(monkeypatch, capsys):
    import scipy.integrate

    import magflow.quadrature

    def no_quad(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad was called")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    monkeypatch.setattr(magflow.quadrature, "quad", no_quad)
    for E, p, _kind in CYCLE_LEVELS:
        classify(E, p)
        cycle_action(E, p)
    # a grid that meets every kind, the vertical line x = pi/2 included
    assert main(["sweep", "--e-min", "0.125", "--e-max", "1.125", "--grid-n", "9",
                 "--p-min", "-2", "--p-max", "2"]) == 0
    kinds = {line.split("\t")[2] for line in capsys.readouterr().out.splitlines()[1:]}
    assert {k.value for k in OrbitKind} - kinds == {OrbitKind.SEPARATRIX.value}


def test_cycle_data_lanes_equal_classify(rng):
    # one array call over levels of every kind: root gaps 1e-12 .. 1 next to
    # each wall, so the vertical-line and separatrix bands, thin ovals and
    # K near k = 1 (the AGM's slowest lanes) sit among ordinary levels
    n = 3000
    E = 10.0 ** rng.uniform(-8.0, 1.0, n)
    a = np.sqrt(2.0 * E)
    gap = 10.0 ** rng.uniform(-12.0, 0.0, n)
    p = (rng.choice([-1.0, 1.0], n) + rng.choice([-1.0, 1.0], n) * gap
         + rng.choice([-1.0, 1.0], n) * a)
    p[::3] = rng.uniform(-3.0, 3.0, n)[::3]
    # tiny ovals at p = 0.3 whose 2 sqrt(2E) runs through 1e-9, the
    # separatrix threshold, with the rounded root gap on either side of it
    ladder = 1.25e-19 * (1.0 + np.linspace(-1e-6, 1e-6, 41))
    E = np.concatenate([E, ladder])
    p = np.concatenate([p, np.full(ladder.shape, 0.3)])
    d = cycle_data(E, p)
    assert not d.failed.any()
    kinds = list(OrbitKind)
    no_oval = {OrbitKind.SEPARATRIX, OrbitKind.VERTICAL_LINE}
    for i in range(len(E)):
        c = classify(E[i], p[i])
        values = [math.nan if v is None else v for v in (c.delta_y, c.period, c.action)]
        lane = [d.delta_y[i], d.period[i], d.action[i]]
        assert kinds[d.kind[i]] is c.kind
        assert np.array_equal(lane, values, equal_nan=True), (E[i], p[i])
        assert quartic_from_params(E[i], p[i]).degenerate == (c.kind in no_oval)
    assert set(d.kind.tolist()) == set(range(len(kinds)))


def test_cycle_data_forms_the_line_data_only_next_to_a_vertical_line(monkeypatch):
    # a window of no vertical-line lane skips _line_data, a window of exactly
    # one forms it, and so does a single vertical-line cell; every lane,
    # and a single cell of each kind, equals classify bit for bit
    import magflow.orbits

    calls = []
    line_data = magflow.orbits._line_data

    def counted(curve):
        calls.append(np.size(curve.E))
        return line_data(curve)

    monkeypatch.setattr(magflow.orbits, "_line_data", counted)
    E, p = (g.ravel() for g in np.meshgrid(np.linspace(0.05, 1.2, 10),
                                           np.linspace(-2.0, 2.0, 10)))
    line = (0.5, 2.0)  # p - sqrt(2E) = 1: the vertical line x = pi/2
    cells = [(0.125, 0.0), (0.3, 0.6), (3.0, 0.1), line, (0.5, 1e-10), (0.125, 2.5)]
    kinds = list(OrbitKind)
    bits = lambda vals: [float.hex(float(v)) if v == v else "nan" for v in vals]  # noqa: E731
    for E_w, p_w, n_line in [(E, p, 0), (np.append(E, line[0]), np.append(p, line[1]), 1),
                             *(([e], [q], int((e, q) == line)) for e, q in cells)]:
        calls.clear()
        d = cycle_data(E_w, p_w)
        assert np.count_nonzero(d.kind == kinds.index(OrbitKind.VERTICAL_LINE)) == n_line
        assert calls == ([len(E_w)] if n_line else [])
        for i, (e, q) in enumerate(zip(np.asarray(E_w).tolist(), np.asarray(p_w).tolist())):
            c = classify(e, q)
            values = [math.nan if v is None else v for v in (c.delta_y, c.period, c.action)]
            assert kinds[d.kind[i]] is c.kind, (e, q)
            assert bits([d.delta_y[i], d.period[i], d.action[i]]) == bits(values), (e, q)
    assert {classify(e, q).kind for e, q in cells} == set(OrbitKind)


def wide_levels(rng, n):
    """(E, p) over the whole float range: E log-uniform over [5e-324, 1.7e308];
    p uniform over [-3, 3], log-uniform in |p| up to 1e300, or exactly 0."""
    E = np.clip(np.exp(rng.uniform(math.log(5e-324), math.log(1.7e308), n)), 5e-324, 1.7e308)
    p = rng.uniform(-3.0, 3.0, n)
    p[1::3] = rng.choice([-1.0, 1.0], len(p[1::3])) * 10.0 ** rng.uniform(-300.0, 300.0,
                                                                          len(p[1::3]))
    p[2::6] = 0.0
    return E, p


def test_classify_and_cycle_data_give_one_verdict_over_the_float_range(rng):
    # a level gets one verdict: classify equals its cycle_data lane bit for
    # bit, or raises ReductionInconsistency exactly where the lane is failed;
    # past E = 6.7e153 the product of the four root gaps in the reduction
    # overflows and the modulus is NaN
    E, p = wide_levels(rng, 2000)
    d = cycle_data(E, p)
    kinds = list(OrbitKind)
    bits = lambda vals: [float.hex(float(v)) if v == v else "nan" for v in vals]  # noqa: E731
    for i, (e, q) in enumerate(zip(E.tolist(), p.tolist())):
        if d.failed[i]:
            with pytest.raises(ReductionInconsistency):
                classify(e, q)
            continue
        c = classify(e, q)
        values = [math.nan if v is None else v for v in (c.delta_y, c.period, c.action)]
        assert kinds[d.kind[i]] is c.kind, (e, q)
        assert bits([d.delta_y[i], d.period[i], d.action[i]]) == bits(values), (e, q)
    assert 0 < d.failed.sum() < len(E)


def mixed_levels(rng):
    """(E, p) whose AGM ladders stop at different rungs, shuffled side by
    side: uniform levels; turning roots 1e-9 ... 1 from a wall; crossing
    levels next to E = 1/2 and p = 0, where g13 and g42 close together and
    1 - k^2 falls to about 4e-9, the least the separatrix band leaves a
    reduction (the slowest lanes of the ladder; some fail the self-check);
    and forbidden, separatrix and vertical-line levels."""
    n, sign = 200, lambda m: rng.choice([-1.0, 1.0], m)
    E_uni, p_uni = rng.uniform(0.01, 2.0, n), rng.uniform(-2.5, 2.5, n)
    E_wall = 10.0 ** rng.uniform(-6.0, 1.0, n)
    gap = sign(n) * 10.0 ** rng.uniform(-9.0, 0.0, n)  # of the turning root, off the wall
    p_wall = sign(n) * (1.0 + gap) + sign(n) * np.sqrt(2.0 * E_wall)
    E_crit = 0.5 * (1.0 + sign(n) * 10.0 ** rng.uniform(-9.0, -1.0, n))
    p_crit = sign(n) * 10.0 ** rng.uniform(-12.0, 0.0, n)
    E_far = rng.uniform(0.01, 2.0, 20)
    p_far = sign(20) * (1.0 + np.sqrt(2.0 * E_far) + rng.uniform(0.01, 1.0, 20))
    # separatrices (a root gap of 1e-11, and a tiny oval whose 2 sqrt(2E) is
    # 6e-10) and the vertical lines where p -+ sqrt(2E) = +-1 exactly
    E_band = np.array([0.3, 0.3, 0.72, 5e-20, 0.125, 0.125, 0.125, 0.5])
    p_band = np.array([1.0 - math.sqrt(0.6) + 1e-11, -1.0 - 1e-11 + math.sqrt(0.6),
                       1.2 + 1e-11, 0.3, 0.5, -0.5, 1.5, 0.0])
    E = np.concatenate([E_uni, E_wall, E_crit, E_far, E_band])
    p = np.concatenate([p_uni, p_wall, p_crit, p_far, p_band])
    order = rng.permutation(len(E))
    return E[order], p[order]


@pytest.mark.parametrize("tol", [None, 4e-16])
def test_cycle_data_lanes_do_not_depend_on_their_neighbours(rng, monkeypatch, tol):
    # the same levels as one call and in blocks of 1, 7 and 100 lanes (a
    # bench sweep window) give the same bits: a lane whose ladder stopped
    # keeps its own K while the others step on, and no call writes into
    # the arrays it was given (float64 arrays, which np.asarray does not
    # copy); at the tightened tolerance of
    # test_failed_lanes_are_the_levels_classify_rejects, lanes of every kind
    # of neighbour fail the self-check
    import magflow.legendre
    from magflow.legendre import reduce_lanes

    if tol is not None:
        monkeypatch.setattr(magflow.legendre, "_NORMALIZATION_TOL", tol)
    E, p = mixed_levels(rng)
    E_in, p_in = E.tobytes(), p.tobytes()
    whole = cycle_data(E, p)
    for size in (1, 7, 100):
        blocks = [cycle_data(E[i:i + size], p[i:i + size]) for i in range(0, len(E), size)]
        for name, lanes in zip(whole._fields, whole):
            got = np.concatenate([getattr(b, name) for b in blocks])
            assert got.tobytes() == lanes.tobytes(), (name, size)
    assert (E.tobytes(), p.tobytes()) == (E_in, p_in)
    assert set(whole.kind.tolist()) == set(range(len(OrbitKind)))
    assert 0 < whole.failed.sum() < 0.5 * len(E)
    with np.errstate(all="ignore"):
        red, bad = reduce_lanes(quartic_from_params(E, p))
    kc2 = (red.kc * red.kc)[~bad]
    assert kc2.min() < 1e-8 and kc2.max() > 0.9


def passes_four_targets(red):
    """The self-check as it read all four map targets, a1's included, each
    at zeta = z - a1 from a difference of the roots: the oracle of
    legendre._passes, which reads three from the root gaps."""
    import magflow.legendre

    cv, h, s, k = red.curve, red.h, red.s, red.k
    ok = (0.0 < red.k2) & (red.k2 < 1.0) & (red.K == red.K) & (red.C_const > 0.0)
    for z, want in ((cv.a1, -1.0), (cv.a2, 1.0), (cv.a3, -1.0 / k), (cv.a4, 1.0 / k)):
        zeta = z - cv.a1
        got = (zeta - h) / (h * (1.0 - s * zeta))
        ok = ok & (abs(got - want) <= magflow.legendre._NORMALIZATION_TOL * abs(want))
    return ok


@pytest.mark.parametrize("tol", [None, 4e-16])
def test_self_check_from_the_gaps_equals_the_four_target_check(rng, monkeypatch, tol):
    # _passes drops a1's target and reads the others from the gaps; its
    # verdict equals the four targets' on every lane: mixed and float-range
    # levels, and garbage lanes (forbidden and degenerate levels, E = inf
    # and the subnormals, p = +-inf and NaN), on arrays and on floats
    import magflow.legendre
    from magflow.legendre import WINDING, _passes, _reduction

    if tol is not None:
        monkeypatch.setattr(magflow.legendre, "_NORMALIZATION_TOL", tol)
    E_mix, p_mix = mixed_levels(rng)
    E_wide, p_wide = wide_levels(rng, 2000)
    E_bad = np.array([math.inf, math.inf, 5e-324, 1e-320, 1.7e308, 0.3, 0.3, 0.3, 0.3])
    p_bad = np.array([0.0, math.nan, 0.3, -1.0, 1e308, math.inf, -math.inf, math.nan, -1e300])
    E, p = (np.concatenate(v) for v in ((E_mix, E_wide, E_bad), (p_mix, p_wide, p_bad)))
    with np.errstate(all="ignore"):
        curve = quartic_from_params(E, p)
        red = _reduction(curve)
        got, want = _passes(red), passes_four_targets(red)
    assert np.array_equal(got, want)
    assert 0 < want.sum() < len(want)
    for i in np.flatnonzero(curve.kind <= WINDING)[::7].tolist():
        red = _reduction(quartic_from_params(float(E[i]), float(p[i])))
        assert _passes(red) is passes_four_targets(red) is bool(want[i]), (E[i], p[i])


def test_failed_lanes_are_the_levels_classify_rejects(monkeypatch, capsys):
    # no level fails the self-check at its tolerance of 1e-10; at 4e-16 some
    # levels over the README sweep ranges do, which reaches the failed-lane
    # path by tightening the check, never by loosening it
    import magflow.legendre

    monkeypatch.setattr(magflow.legendre, "_NORMALIZATION_TOL", 4e-16)
    n = 41
    es, ps = np.linspace(0.05, 1.2, n), np.linspace(-2.0, 2.0, n)
    E, p = (g.ravel() for g in np.meshgrid(es, ps, indexing="ij"))
    rejected = []
    for e, q in zip(E.tolist(), p.tolist()):
        try:
            classify(e, q)
        except ReductionInconsistency:
            rejected.append(True)
        else:
            rejected.append(False)
    d = cycle_data(E, p)
    assert d.failed.tolist() == rejected
    assert 0 < sum(rejected) < len(rejected)
    # cli sweep writes a rejected level's E and p and leaves the rest blank
    assert main(["sweep", "--e-min", "0.05", "--e-max", "1.2", "--p-min", "-2",
                 "--p-max", "2", "--grid-n", str(n)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(rejected)
    for row, e, q, failed in zip(rows, E.tolist(), p.tolist(), rejected):
        fields = row.split("\t")
        assert (float(fields[0]), float(fields[1])) == (e, q)
        assert (fields[2:] == ["", "", "", ""]) is failed, row


# ---------------------------------------------------------------------------
# Delta_y


def test_delta_y_zero_at_zero_momentum():
    assert abs(classify(0.125, 0.0).delta_y) < 1e-10


def test_delta_y_sign_opposite_to_p():
    assert classify(0.125, 0.3).delta_y < -1e-4
    assert classify(0.125, -0.3).delta_y > 1e-4


def test_delta_y_antisymmetric(rng):
    for _ in range(20):
        E, p = sample_trapped(rng)
        assert classify(E, p).delta_y == pytest.approx(-classify(E, -p).delta_y, abs=1e-10)


def test_delta_y_matches_integrated_orbit():
    E, p = 0.125, 0.3
    sol = build_solution(math.asin(p), 0.0, E, p, 1)
    a, b = sol.eval(0.0), sol.eval(sol.x_period)
    assert b.y - a.y == pytest.approx(classify(E, p).delta_y, abs=1e-8)


# ---------------------------------------------------------------------------
# contractible orbits


def test_contractible_orbit_worked_example():
    sol = contractible_orbit(0.125, strip=1, phase_x0=0.0)
    ts = np.linspace(0.0, 20.0, 200)
    x, _, _, yd = eval_solution(sol, ts)
    from magflow import sn

    assert np.max(np.abs(np.sin(x) - 0.5 * sn(ts, 0.5))) < 1e-13
    assert np.max(np.abs(yd + np.sin(x))) < 1e-14     # ydot = -sin x at p = 0
    assert abs(sol.delta_y_per_cycle) < 1e-12          # closed


def turning_time(sol, j=0):
    """Time at which the orbit sits on top of its oval (phase u = K)."""
    K = sol.reduction.K
    return sol.C * (K + 4.0 * K * j) - sol.D


def test_contractible_orbit_amplitude_near_critical():
    sol = contractible_orbit(0.499)
    amp = math.asin(math.sqrt(2.0 * 0.499))
    ts = np.append(np.linspace(0.0, sol.x_period, 400), turning_time(sol))
    x, _, _, _ = eval_solution(sol, ts)
    assert np.max(x) == pytest.approx(amp, abs=1e-9)
    assert np.max(np.abs(np.sin(x))) < 1.0   # never reaches the lines sin x = +-1


def test_contractible_orbit_domain():
    with pytest.raises(DomainError):
        contractible_orbit(0.5)
    with pytest.raises(DomainError):
        contractible_orbit(0.7)
    with pytest.raises(DomainError):
        contractible_orbit(-0.1)
    with pytest.raises(DomainError):
        contractible_orbit(0.125, strip=3)
    with pytest.raises(DomainError):
        contractible_orbit(0.125, phase_x0=1.0)   # |sin| > sqrt(2E)
    with pytest.raises(DomainError):
        contractible_orbit(0.125, phase_x0=math.pi)


def test_strip_confinement(rng):
    for E in (0.05, 0.2, 0.49):
        sol = contractible_orbit(E, strip=int(rng.choice([1, 2])))
        ts = np.append(np.linspace(0.0, 3.0 * sol.x_period, 700),
                       [turning_time(sol, j) for j in range(3)])
        x, _, _, _ = eval_solution(sol, ts)
        assert np.max(np.abs(np.sin(x))) == pytest.approx(
            math.sqrt(2.0 * E), abs=1e-8)


def test_amplitude_degenerates_with_energy():
    sol = contractible_orbit(1e-4)
    amp = math.asin(math.sqrt(2.0e-4))
    assert amp < 0.02
    ts = np.linspace(0.0, sol.x_period, 100)
    x, _, _, _ = eval_solution(sol, ts)
    assert np.max(np.abs(x)) < 0.02


def test_two_strips_are_mirror_images():
    # x -> pi - x maps the strip-1 family onto the strip-2 family
    a = contractible_orbit(0.2, strip=1, phase_x0=0.1)
    b = contractible_orbit(0.2, strip=2, phase_x0=0.1)
    ts = np.linspace(0.0, 2.0 * a.x_period, 300)
    xa, ya, xda, yda = eval_solution(a, ts)
    xb, yb, xdb, ydb = eval_solution(b, ts)
    assert np.max(np.abs((math.pi - xa) - xb)) < 1e-10
    assert np.max(np.abs(xda + xdb)) < 1e-10
    assert np.max(np.abs(yda - ydb)) < 1e-10


# ---------------------------------------------------------------------------
# actions


def gamma_line_trajectory(E=0.5):
    # the vertical line x = pi/2 run for one full y-circuit
    speed = math.sqrt(2.0 * E)
    T = TWO_PI / speed
    s0 = PhaseState(0.5 * math.pi, 0.0, 0.0, speed)
    return integrate(s0, T, 1e-11)


def test_action_of_vertical_line_equals_4pi_at_critical_energy():
    traj = gamma_line_trajectory(E=0.5)
    direct = action_direct(traj)
    increment = action_increment(traj)
    assert direct == pytest.approx(4.0 * math.pi, abs=1e-8)
    assert increment == pytest.approx(4.0 * math.pi, abs=1e-8)
    assert vertical_line_action(0.5, 2.0) == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_action_positive_for_contractible_orbits():
    for E in (0.05, 0.125, 0.25, 0.4, 0.49):
        sol = contractible_orbit(E)
        direct = action_direct(sol)
        increment = action_increment(sol)
        formula = action_contractible_formula(E)
        assert direct > 1e-4
        assert abs(direct - increment) < 1e-7
        assert abs(direct - formula) < 1e-6


def counted_eval(monkeypatch, cls):
    """Record the size of each cls.eval call; return the list of sizes."""
    calls = []
    eval_ = cls.eval

    def counted(self, t):
        calls.append(np.size(t))
        return eval_(self, t)

    monkeypatch.setattr(cls, "eval", counted)
    return calls


@pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-8])
def test_each_action_is_one_orbit_evaluation(d, monkeypatch):
    # the orbit keeps the closed-circuit trapezoid rule's first batch of 257
    # nodes, which serves the closure test, the start state and the
    # quadrature to 1e-8 of both actions: on a fresh orbit, in either order,
    # the two make one evaluation together, and either order gives each
    # action the bits it has alone on a fresh orbit
    E = 0.5 * (1.0 - d)
    formula = action_contractible_formula(E)
    actions = (action_direct, action_increment)
    alone = {action: action(contractible_orbit(E)) for action in actions}
    calls = counted_eval(monkeypatch, ClosedFormSolution)
    for order in (actions, actions[::-1]):
        sol = contractible_orbit(E)
        calls.clear()
        values = {action: action(sol) for action in order}
        assert calls == [257]
        for action in order + order:
            assert float.hex(action(sol)) == float.hex(values[action])
        assert calls == [257]
        for action, value in values.items():
            assert float.hex(value) == float.hex(alone[action])
            assert abs(value - formula) < 1e-13


def test_the_circuit_batch_is_read_only():
    sol = contractible_orbit(0.3)
    q = sol.circuit
    assert q.shape == (257, 4) and q is sol.circuit
    with pytest.raises(ValueError):
        q[0, 0] = 1.0
    with pytest.raises(ValueError):
        q.base[0, 0] = 1.0
    assert q[0].tolist() == sol.eval(0.0).as_array().tolist()


def test_refinement_past_the_circuit_batch_leaves_it_unchanged(monkeypatch):
    # |xdot| has a kink at each turning point, so the rule converges like
    # 1/n^2 and doubles past 257 nodes; the integral of |xdot| over one
    # circuit of the contractible orbit is 4 asin sqrt(2E)
    E = 0.2
    sol = contractible_orbit(E)
    q = sol.circuit
    before = q.tobytes()
    calls = counted_eval(monkeypatch, ClosedFormSolution)
    value = _circuit_trapezoid(sol, lambda s0, q: np.abs(q[:, 2]))[0]
    assert len(calls) >= 2
    assert calls == [256 << i for i in range(len(calls))]
    assert sol.circuit is q and q.tobytes() == before
    assert value == pytest.approx(4.0 * math.asin(math.sqrt(2.0 * E)), abs=1e-8)


def test_both_actions_of_a_run_are_one_evaluation(monkeypatch):
    from magflow.integrate import Trajectory

    sol = contractible_orbit(0.3)
    traj = integrate(sol.eval(0.0), sol.recurrence_time, 1e-12)
    calls = counted_eval(monkeypatch, Trajectory)
    direct, increment = action_direct(traj), action_increment(traj)
    assert calls == [257]
    formula = action_contractible_formula(0.3)
    assert abs(direct - formula) < 1e-9 and abs(increment - formula) < 1e-9


@pytest.mark.parametrize("E", [0.1, 0.3, 0.45])
def test_actions_of_a_backward_run_keep_their_sign(E):
    # a run from t = 0 back to -T spans the same circuit, taken forward in
    # time from -T to 0
    sol = contractible_orbit(E)
    formula = action_contractible_formula(E)
    for t_end in (sol.recurrence_time, -sol.recurrence_time):
        traj = integrate(sol.eval(0.0), t_end, 1e-12)
        assert abs(action_direct(traj) - formula) < 1e-9
        assert abs(action_increment(traj) - formula) < 1e-9


def test_action_increment_equals_xdot_square_integral_at_p_zero():
    sol = contractible_orbit(0.125)
    # p = 0: increment form reduces to the xdot^2 integral
    xdot2 = _circuit_trapezoid(sol, lambda s0, q: q[:, 2] * q[:, 2])[0]
    assert action_increment(sol) == pytest.approx(xdot2, abs=1e-12)


def test_action_open_curve_rejected():
    s0 = PhaseState(0.0, 0.0, 0.5, 0.0)
    traj = integrate(s0, 1.0, 1e-11)   # far from closing
    with pytest.raises(OpenCurve):
        action_direct(traj)


def test_action_formula_limits():
    # E -> 1/2: the integrand tends to |cos x| and the action to 4
    assert action_contractible_formula(0.4999999) == pytest.approx(4.0, abs=1e-3)
    # small E: flat-bottom asymptotics S ~ 2 pi E
    for E in (1e-4, 1e-3):
        assert action_contractible_formula(E) / (TWO_PI * E) == pytest.approx(
            1.0, abs=2e-3)
    with pytest.raises(DomainError):
        action_contractible_formula(0.5)
    with pytest.raises(DomainError):
        action_contractible_formula(0.0)


def _quad_contractible_action(E):
    """2 int 2E cos^2(theta)/sqrt(1 - 2E sin^2 theta) over |theta| < pi/2, by quad."""
    from scipy.integrate import quad

    def integrand(theta):
        return 2.0 * E * np.cos(theta) ** 2 / np.sqrt(1.0 - 2.0 * E * np.sin(theta) ** 2)

    val, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * val


@pytest.mark.parametrize("E", [1e-6, 0.01, 0.125, 0.3, 0.45, 0.5 - 1e-4])
def test_action_formula_matches_quadrature(E):
    assert action_contractible_formula(E) == pytest.approx(
        _quad_contractible_action(E), rel=1e-10)


def test_action_formula_matches_mpmath():
    # S = 8E (E(k) - k'^2 K(k))/k^2 with k^2 = 2E; measured worst 3.3e-16
    mp = pytest.importorskip("mpmath")
    ladder = np.logspace(-8, math.log10(0.25), 12)
    worst = 0.0
    for E in np.concatenate([ladder, 0.5 - ladder]):
        with mp.workdps(30):
            m = 2 * mp.mpf(E)
            ref = 4 * (mp.ellipe(m) - (1 - m) * mp.ellipk(m))
        worst = max(worst, float(abs(action_contractible_formula(float(E)) / ref - 1)))
    assert worst < 1e-15


def test_cycle_action_matches_closed_form_at_p_zero():
    E = 0.125
    assert cycle_action(E, 0.0) == pytest.approx(
        action_contractible_formula(E), abs=1e-8)


def _mp_cycle_action(E, p):
    """2 int (2E - (p-z)^2) dz/w + p Delta_y at 30 digits over the bounded oval."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.sqrt(2 * mp.mpf(E))
        pm = mp.mpf(p)
        a3, a1, a2, a4 = sorted([mp.mpf(-1), mp.mpf(1), pm - a, pm + a])
        m, h = (a1 + a2) / 2, (a2 - a1) / 2

        def oval(g):
            # z = m + h sin(theta) absorbs sqrt((z - a1)(a2 - z))
            def f(th):
                z = m + h * mp.sin(th)
                return g(z) / mp.sqrt((z - a3) * (a4 - z))
            return mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2])

        dy = 2 * oval(lambda z: pm - z)
        return float(2 * oval(lambda z: 2 * E - (pm - z) ** 2) + pm * dy)


@pytest.mark.parametrize("E, p, kind", [
    (0.125, 0.3, OrbitKind.TRAPPED_OVAL),
    (0.3, 0.6, OrbitKind.CROSSING_LIBRATOR),
    (3.0, 0.1, OrbitKind.WINDING),
])
def test_cycle_action_matches_mpmath_at_nonzero_momentum(E, p, kind):
    assert classify(E, p).kind is kind
    assert cycle_action(E, p) == pytest.approx(_mp_cycle_action(E, p), rel=1e-10)


def test_action_invariant_under_y_shift_and_time_reversal():
    E = 0.2
    base = action_direct(contractible_orbit(E))
    shifted = build_solution(0.0, 5.0, E, 0.0, +1)       # different y0
    reversed_ = build_solution(0.0, 0.0, E, 0.0, -1)     # opposite launch
    assert action_direct(shifted) == pytest.approx(base, abs=1e-9)
    assert action_direct(reversed_) == pytest.approx(base, abs=1e-9)


def test_iterated_orbit_action_scales_linearly():
    sol = contractible_orbit(0.125)
    single = film_action(OrbitDisc(sol))
    triple = film_action(OrbitDisc(sol, multiplicity=3))
    assert triple == pytest.approx(3.0 * single, abs=1e-9)


# ---------------------------------------------------------------------------
# films


def test_film_minimizer_value_is_exact():
    pi_strip = CylinderStrip(0.5 * math.pi, 1.5 * math.pi, 0.125)
    assert film_action(pi_strip) == pytest.approx(-TWO_PI, abs=1e-12)
    assert film_action(CylinderStrip(0.5 * math.pi, 1.5 * math.pi, 0.5)) == (
        pytest.approx(0.0, abs=1e-12))


def test_film_disc_action_equals_boundary_action():
    sol = contractible_orbit(0.2)
    assert film_action(OrbitDisc(sol)) == pytest.approx(
        action_direct(sol), abs=1e-12)
    assert film_action(OrbitDisc(sol)) > 0.0


def test_orbit_disc_reads_classify_contractible():
    # Delta_y = -5.19e-10 at (0.3, 1e-10), past classify's joint 1e-10
    # tolerance: not contractible, so it bounds no disc
    assert not classify(0.3, 1e-10).contractible
    with pytest.raises(DomainError):
        OrbitDisc(build_solution(0.0, 0.0, 0.3, 1e-10, 1))
    for E in (0.05, 0.2, 0.4999):
        assert film_action(OrbitDisc(contractible_orbit(E))) == classify(E, 0.0).action


def test_film_strip_validation():
    with pytest.raises(DomainError):
        CylinderStrip(0.0, 0.0, 0.125)
    with pytest.raises(DomainError):
        CylinderStrip(0.0, 7.0, 0.125)
    winding = build_solution(0.0, 0.0, 1.0, 0.3, +1)
    with pytest.raises(DomainError):
        OrbitDisc(winding)   # its boundary drifts in y


def test_film_grid_search_finds_the_negative_field_strip():
    res = film_strip_grid_search(0.125, n=200)
    step = res.grid_step
    assert math.remainder(res.x_a - 0.5 * math.pi, TWO_PI) == pytest.approx(
        0.0, abs=step)
    assert math.remainder(res.x_b - 1.5 * math.pi, TWO_PI) == pytest.approx(
        0.0, abs=step)
    assert res.action == pytest.approx(-TWO_PI, abs=1e-3)
    # no strip on the grid beats the closed form, and the nearest grid strip
    # misses it by at most pi step^2
    closed = film_action(CylinderStrip(0.5 * math.pi, 1.5 * math.pi, 0.125))
    assert closed == 4.0 * math.pi * (math.sqrt(0.25) - 1.0)
    assert 0.0 <= res.action - closed <= math.pi * step ** 2


# ---------------------------------------------------------------------------
# critical level


def test_mane_level_scan_is_half():
    for n in (8, 64, 1001):
        assert mane_level_scan(n) == 0.5
    with pytest.raises(DomainError):
        mane_level_scan(4)


def test_lagrangian_sign_census():
    below = lagrangian_sign_scan(0.4, 1000, seed=7)
    at = lagrangian_sign_scan(0.5, 1000, seed=7)
    above = lagrangian_sign_scan(0.6, 1000, seed=7)
    # the 1000 random states and the analytic minimizer with its mirror
    assert below.n_samples == at.n_samples == above.n_samples == 1002
    assert below.n_negative >= 1
    assert below.min_value == pytest.approx(0.8 - math.sqrt(0.8), abs=1e-12)
    assert at.min_value >= -1e-9
    assert abs(at.min_value) < 1e-12
    assert math.sin(at.min_state.x) == pytest.approx(-1.0, abs=1e-12)
    assert abs(at.min_state.xdot) < 1e-12
    assert above.n_negative == 0
    assert above.min_value > 0.0
    for E, scan in ((0.4, below), (0.5, at), (0.6, above)):
        assert scan.min_value == pytest.approx(2.0 * E - math.sqrt(2.0 * E), abs=1e-12)
