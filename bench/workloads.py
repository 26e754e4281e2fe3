"""Seeded inputs, untraced item paths and output checks of the three workloads.

Each workload turns ``--seed`` into a list of items and runs one item at a
time through magflow's public API or its CLI entry point: a closed loop
with one client, the next item starting only after the previous one
returns.  sweep windows are blocks of the phase-diagram grid of the
README's sweep example, placed evenly over it; orbits and compare levels
follow a fixed cyclic schedule of strata whose parameters are seeded, so
every run sees the same share of each stratum.  Levels that fail today
stay in the schedule: near-separatrix levels raise
``ReductionInconsistency``.

magflow is imported by the caller (``worker.py``) from the checkout's
``src`` directory before this module is loaded.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from magflow import cli
from magflow.closedform import build_solution, eval_solution
from magflow.dynamics import state_from_integrals
from magflow.errors import MagflowError
from magflow.integrate import integrate
from magflow.orbits import action_contractible_formula, action_direct, action_increment

#: acceptance-gate tolerance of the closed form against the RK oracle
GATE_TOL = 1e-6
#: |p| and |Delta_y| below which the sign law is not checked: a window's
#: grid puts p = 0 of the full grid at about 1e-16, where Delta_y is
#: quadrature noise (magflow's contractibility test uses the same 1e-10)
SIGN_NOISE = 1e-10
#: grid side of one sweep window (cells per window = SWEEP_GRID_N**2)
SWEEP_GRID_N = 10
#: the (E, p) grid of the README's sweep example, ``magflow sweep --e-min
#: 0.05 --e-max 1.2 --p-min -2 --p-max 2 --grid-n 161``; windows are
#: SWEEP_GRID_N x SWEEP_GRID_N tiles of its points, SWEEP_TILES a side
SWEEP_E_RANGE = (0.05, 1.2)
SWEEP_P_RANGE = (-2.0, 2.0)
SWEEP_FULL_N = 161
SWEEP_TILES = (SWEEP_FULL_N - 1) // SWEEP_GRID_N
#: fixed horizon, tolerance and sample count of one compare item
COMPARE_T_END = 20.0
COMPARE_TOL = 1e-11
COMPARE_GRID_N = 1001

LEVEL_STRATA = ("trapped", "crossing", "winding", "contractible",
                "tiny", "k2to1", "gap", "gap")
# (turning root, wall, side of the wall) of a near-separatrix level; the
# first two give a thin crossing oval [1-g, 1] resp. [-1, -1+g], the
# configuration that fails in reduce_to_legendre for gaps up to ~1e-6
_GAP_CONFIGS = (("z1", 1.0, -1.0), ("z2", -1.0, 1.0), ("z1", -1.0, -1.0),
                ("z1", -1.0, 1.0), ("z2", 1.0, -1.0), ("z2", 1.0, 1.0))
_GAP_DECADES = tuple(range(-9, -1))  # root gaps 1e-9 .. 1e-1


@dataclass(frozen=True)
class Level:
    """One admissible level (E, p) with a start point and a sampling plan."""

    stratum: str
    x0: float
    E: float
    p: float
    sign: int
    n_t: int
    t_max: float

    @property
    def contractible(self) -> bool:
        return self.p == 0.0 and self.E < 0.5

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_t)


@dataclass(frozen=True)
class Window:
    """One (E, p) rectangle of the phase diagram."""

    stratum: str
    e_min: float
    e_max: float
    p_min: float
    p_max: float
    grid_n: int = SWEEP_GRID_N

    def cells(self) -> list[tuple[float, float]]:
        """Grid cells in the order cmd_sweep builds them."""
        es = np.linspace(self.e_min, self.e_max, self.grid_n)
        ps = np.linspace(self.p_min, self.p_max, self.grid_n)
        return [(float(E), float(p)) for E in es for p in ps]


# ---------------------------------------------------------------------------
# input generation


@functools.cache
def _kronecker_steps(d: int) -> tuple[float, ...]:
    """Steps of Roberts' R_d sequence: powers of 1/g, g**(d+1) = g + 1.

    The k-th point (k a_1, ..., k a_d) mod 1 lies evenly among the points
    before it, so any prefix covers the unit cube nearly uniformly.
    """
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (d + 1))
    return tuple((1.0 / g) ** (i + 1) % 1.0 for i in range(d))


def _kronecker(k: int, shift: tuple[float, ...]) -> tuple[float, ...]:
    """k-th point of the R_d sequence shifted by `shift`, in [0, 1)^d."""
    return tuple((s + (k + 1) * a) % 1.0 for s, a in zip(shift, _kronecker_steps(len(shift))))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _admissible_x0(u: float, E: float, p: float) -> float:
    """x0 with sin x0 at fraction 2u mod 1 of the admissible band, on the
    branch asin (u < 1/2) or pi - asin."""
    a = math.sqrt(2.0 * E)
    lo, hi = max(-1.0, p - a), min(1.0, p + a)
    alpha = math.asin(min(1.0, max(-1.0, lo + (hi - lo) * (2.0 * u % 1.0))))
    return alpha if u < 0.5 else math.pi - alpha


def _level(stratum: str, u: tuple[float, ...]) -> Level:
    """The level of `stratum` at the point u of [0, 1)^7.

    u[0], u[1] and u[2] place (E, p), u[3] x0, u[4] the sign, and u[5],
    u[6] the sampling plan: a handful of samples (as the orbit CLI) up to
    dense sampling, 4 to 4000 times over t in [0, 5..100], log-uniform.
    The plan is the benchmark's choice, not taken from recorded use.
    """
    side = -1.0 if u[2] < 0.5 else 1.0
    if stratum == "trapped":
        a = 0.1 + 0.85 * u[0]
        E, p = 0.5 * a * a, (1.9 * u[1] - 0.95) * (1.0 - a)
    elif stratum == "crossing":
        a = 0.2 + 1.6 * u[0]
        lo = abs(1.0 - a)
        E, p = 0.5 * a * a, side * (lo + (1.0 + a - lo) * (0.05 + 0.9 * u[1]))
    elif stratum == "winding":
        a = 1.1 + 1.4 * u[0]
        E, p = 0.5 * a * a, (1.9 * u[1] - 0.95) * (a - 1.0)
    elif stratum == "contractible":
        a = 0.1 + 0.85 * u[0]
        E, p = 0.5 * a * a, 0.0
    elif stratum == "k2to1":
        E, p = 0.5 - _log_uniform(u[0], 1e-8, 1e-2), 0.0
    elif stratum == "tiny":
        E = _log_uniform(u[0], 1e-8, 1e-4)
        a = math.sqrt(2.0 * E)
        p = side * (1.0 - a - _log_uniform(u[1], 1e-6, 1.0) * (1.0 - a))
    else:
        raise ValueError(f"unknown level stratum {stratum!r}")
    return _placed(stratum, E, p, u)


def _placed(stratum: str, E: float, p: float, u: tuple[float, ...]) -> Level:
    """Level (E, p) with x0, sign and sampling plan from u[3:7]."""
    return Level(stratum, _admissible_x0(u[3], E, p), E, p, -1 if u[4] < 0.5 else 1,
                 int(round(_log_uniform(u[5], 4.0, 4000.0))), _log_uniform(u[6], 5.0, 100.0))


#: points of the fixed ladders are R_7 points with this shift
_LADDER_SHIFT = (0.5,) * 7


@functools.cache
def gap_ladder() -> tuple[Level, ...]:
    """The near-separatrix levels: each gap configuration at two root gaps
    per decade, 10**(d + 1/4) and 10**(d + 3/4) for d in _GAP_DECADES.

    The k-th entry takes configuration k mod 6 and a decade that steps by
    3 with the configuration, so any run of consecutive entries spreads
    over configurations and decades alike.
    """
    levels = []
    for k in range(2 * len(_GAP_CONFIGS) * len(_GAP_DECADES)):
        c = k % len(_GAP_CONFIGS)
        root, wall, side = _GAP_CONFIGS[c]
        d = _GAP_DECADES[(k // len(_GAP_CONFIGS) + 3 * c) % len(_GAP_DECADES)]
        g = 10.0 ** (d + 0.25 + 0.5 * (k // (len(_GAP_CONFIGS) * len(_GAP_DECADES))))
        u = _kronecker(k, _LADDER_SHIFT)
        a = 0.05 + 1.9 * u[0]
        target = wall + side * g
        levels.append(_placed("gap", 0.5 * a * a, target + a if root == "z1" else target - a, u))
    return tuple(levels)


@functools.cache
def ladder(stratum: str) -> tuple[Level, ...]:
    """The fixed levels of a stratum next to a separatrix: the gap ladder,
    or 48 R_7 points of the tiny or k2to1 parameter box."""
    if stratum == "gap":
        return gap_ladder()
    return tuple(_level(stratum, _kronecker(k, _LADDER_SHIFT)) for k in range(48))


#: strata whose levels are seeded; the others take their fixed ladder
_SEEDED_STRATA = ("trapped", "crossing", "winding", "contractible")


def make_levels(seed: int, n: int) -> list[Level]:
    """n levels on the cyclic LEVEL_STRATA schedule.

    A seeded stratum's m-th level is the m-th point of an R_7 sequence,
    shifted by the seed, over the stratum's parameter box, so the levels
    of any run cover each box evenly and a run's cost varies little
    between seeds.  The strata next to a separatrix (gap, tiny, k2to1),
    where ReductionInconsistency and the RK oracle's misses live, take
    their ladders in order and do not depend on the seed: how many of a
    run's levels fail is then a property of the code, the same in every
    run.
    """
    rng = random.Random(f"levels:{seed}")
    shifts = {s: tuple(rng.random() for _ in range(7)) for s in _SEEDED_STRATA}
    seen: collections.Counter = collections.Counter()
    levels = []
    for i in range(n):
        stratum = LEVEL_STRATA[i % len(LEVEL_STRATA)]
        m = seen[stratum]
        seen[stratum] += 1
        if stratum in shifts:
            levels.append(_level(stratum, _kronecker(m, shifts[stratum])))
        else:
            fixed = ladder(stratum)
            levels.append(fixed[m % len(fixed)])
    return levels


def _window_stratum(cells: list[tuple[float, float]]) -> str:
    """The one orbit kind of a window's cells, or "boundary" when they differ."""
    kinds = {expected_kind(E, p) for E, p in cells}
    return kinds.pop()[0] if len(kinds) == 1 else "boundary"


def make_windows(seed: int, n: int) -> list[Window]:
    """n tiles of SWEEP_GRID_N x SWEEP_GRID_N points of the README sweep grid.

    The tiles cut SWEEP_TILES**2 disjoint blocks out of the grid, shifted
    by the seed by 0 or 1 point along each axis; together they cover all
    but one row or column of it, so a run that gets through them all has
    drawn the README's phase diagram once.  They come in four quarters,
    one for each parity of the tile's row and column, the two quarters of
    the checkerboard's black squares first.  Each quarter spreads evenly
    over the grid, separatrix bands and the critical level E = 1/2
    included, each as often as the grid meets it.  Within a quarter the
    tiles come in the order in which the R_2 sequence, shifted by the seed,
    first hits them.  Past SWEEP_TILES**2 the order repeats.
    """
    es = np.linspace(*SWEEP_E_RANGE, SWEEP_FULL_N)
    ps = np.linspace(*SWEEP_P_RANGE, SWEEP_FULL_N)
    rng = random.Random(f"windows:{seed}")
    shift = (rng.random(), rng.random())
    offset = (rng.randrange(2), rng.randrange(2))
    order, k = {}, 0
    while len(order) < SWEEP_TILES ** 2:
        order.setdefault(tuple(int(u * SWEEP_TILES) for u in _kronecker(k, shift)), None)
        k += 1
    windows = []
    for ti, tj in sorted(order, key=lambda t: ((t[0] + t[1]) % 2, t[0] % 2)):
        i, j = offset[0] + ti * SWEEP_GRID_N, offset[1] + tj * SWEEP_GRID_N
        e_lo, e_hi = float(es[i]), float(es[i + SWEEP_GRID_N - 1])
        p_lo, p_hi = float(ps[j]), float(ps[j + SWEEP_GRID_N - 1])
        w = Window("", e_lo, e_hi, p_lo, p_hi)
        windows.append(replace(w, stratum=_window_stratum(w.cells())))
    return [windows[k % len(windows)] for k in range(n)]


# ---------------------------------------------------------------------------
# untraced item paths


class ItemFailure(Exception):
    """An item ended in a documented failure; the reason names it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def call_cli(argv: list[str]) -> None:
    """In-process ``magflow.cli.main``; a nonzero exit code is a failure."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    if code != 0:
        raise ItemFailure(f"exit{code}")


def sweep_argv(w: Window, out: str) -> list[str]:
    # --flag=value: argparse takes "-1e-05" after a bare flag for an option
    return ["sweep", f"--e-min={w.e_min!r}", f"--e-max={w.e_max!r}",
            f"--p-min={w.p_min!r}", f"--p-max={w.p_max!r}",
            f"--grid-n={w.grid_n}", f"--out={out}"]


def compare_argv(lv: Level, out: str) -> list[str]:
    """compare over the fixed horizon COMPARE_T_END (lv.t_max is for orbits)."""
    return ["compare", f"--e={lv.E!r}", f"--p={lv.p!r}", f"--x0={lv.x0!r}",
            f"--sign={lv.sign}", f"--t-end={COMPARE_T_END!r}", f"--tol={COMPARE_TOL!r}",
            f"--grid-n={COMPARE_GRID_N}", f"--out={out}"]


def run_orbit(lv: Level):
    """build_solution, eval_solution and, on contractible levels, the actions."""
    sol = build_solution(lv.x0, 0.0, lv.E, lv.p, lv.sign)
    x, y, _, _ = eval_solution(sol, lv.times())
    actions = None
    if lv.contractible:
        actions = (action_direct(sol), action_increment(sol),
                   action_contractible_formula(lv.E))
    return x, y, actions


# ---------------------------------------------------------------------------
# output checks (untimed, after the timed phase)
#
# A check "decides correctness" when its oracle is exact: the turning-root
# rule, the Delta_y sign law, 30-digit mpmath quadrature, the three
# independent actions, and the fixed panel below.  A check against the RK
# oracle on seeded levels only counts its item as failed: next to a
# separatrix the oracle itself misses the gate (its error shrinks tenfold
# per decade of RK tolerance while the closed form stays put).


@dataclass(frozen=True)
class Check:
    item: int          # seeded item index, or -1 - k for panel entry k
    what: str
    err: float
    tol: float
    decides_correct: bool

    @property
    def ok(self) -> bool:
        return self.err <= self.tol  # a NaN error fails


_CYCLE_KINDS = ("TrappedOval", "CrossingLibrator", "Winding")


def expected_kind(E: float, p: float) -> tuple[str, ...]:
    """Orbit kinds the turning-root rule allows at (E, p).

    Within 1e-9 of a wall the level is a separatrix band, where the
    classifier may report the band or the exact vertical line.
    """
    a = math.sqrt(2.0 * E)
    z1, z2 = p - a, p + a
    gap = min(abs(z1 - 1.0), abs(z1 + 1.0), abs(z2 - 1.0), abs(z2 + 1.0))
    if gap < 1e-9 or 2.0 * a < 1e-9:
        return ("Separatrix", "VerticalLine")
    if abs(p) > 1.0 + a:
        return ("Forbidden",)
    if z1 > -1.0 and z2 < 1.0:
        return ("TrappedOval",)
    if z1 < -1.0 and z2 > 1.0:
        return ("Winding",)
    return ("CrossingLibrator",)


def parse_sweep(text: str) -> list[tuple[float, float, str, float, float, float]]:
    """Rows (E, p, kind, delta_y, period, action) of a sweep TSV; blanks become NaN."""
    rows = []
    for line in text.splitlines()[1:]:
        E, p, kind, *data = line.split("\t")
        rows.append((float(E), float(p), kind, *(float(v) if v else math.nan for v in data)))
    return rows


def blank_row(row) -> bool:
    """A cell whose kind carries cycle data or an action but whose TSV left it blank.

    ``cli sweep`` writes a blank when cycle_action or vertical_line_action
    raises, so a blank is a failure the CLI swallowed.
    """
    _E, _p, kind, dy, period, action = row
    if kind in _CYCLE_KINDS:
        return math.isnan(dy) or math.isnan(period) or math.isnan(action)
    return kind == "VerticalLine" and math.isnan(action)


def mp_cycle_reference(E: float, p: float, dps: int = 30) -> tuple[float, float, float]:
    """(period, Delta_y, action) at dps digits: 2 int dz/w, 2 int (p-z) dz/w
    and 2 int (2E - (p-z)^2) dz/w + p Delta_y.

    The substitution z = m + h sin(theta) over the oval [a1, a2] absorbs the
    endpoint singularity; tanh-sinh quadrature does the rest.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.sqrt(2 * mp.mpf(E))
        pm = mp.mpf(p)
        a3, a1, a2, a4 = sorted([mp.mpf(-1), mp.mpf(1), pm - a, pm + a])
        m, h = (a1 + a2) / 2, (a2 - a1) / 2

        def weight(th):
            z = m + h * mp.sin(th)
            return z, 1 / mp.sqrt((z - a3) * (a4 - z))

        def f_period(th):
            return weight(th)[1]

        def f_dy(th):
            z, w = weight(th)
            return (pm - z) * w

        def f_sq(th):
            z, w = weight(th)
            return (2 * mp.mpf(E) - (pm - z) ** 2) * w

        span = [-mp.pi / 2, 0, mp.pi / 2]
        dy = 2 * mp.quad(f_dy, span)
        action = 2 * mp.quad(f_sq, span) + pm * dy
        return float(2 * mp.quad(f_period, span)), float(dy), float(action)


def _sweep_cell_checks(i: int, rows, rng: random.Random | None,
                       n_ref: int) -> list[Check]:
    """Kind rule, blanks and sign law on every row; mpmath on n_ref cycle cells.

    A blank fails the window (the CLI swallowed an error) without deciding
    correctness; blank rows are left out of the sign law and mpmath.
    """
    bad_kind = sum(r[2] not in expected_kind(r[0], r[1]) for r in rows)
    blank = [r for r in rows if blank_row(r)]
    full = [r for r in rows if not blank_row(r)]
    bad_sign = sum(not (dy * p < 0.0 or max(abs(p), abs(dy)) < SIGN_NOISE)
                   for _E, p, kind, dy, _T, _S in full if kind == "TrappedOval")
    checks = [Check(i, "kind", float(bad_kind), 0.0, True),
              Check(i, "blank", float(len(blank)), 0.0, False),
              Check(i, "delta_y_sign", float(bad_sign), 0.0, True)]
    cyc = sorted({r for r in full if r[2] in _CYCLE_KINDS})
    picks = cyc if rng is None else rng.sample(cyc, min(n_ref, len(cyc)))
    for E, p, _kind, dy, period, action in picks:
        for what, got, ref in zip(("period", "delta_y", "action"), (period, dy, action),
                                  mp_cycle_reference(E, p)):
            checks.append(Check(i, what, abs(got - ref) / max(1.0, abs(ref)), GATE_TOL, True))
    return checks


def check_sweep(seed: int, done: list[tuple[int, Window, str]]) -> list[Check]:
    """Every cell against the rules; two cells in each of 8 windows against mpmath."""
    rng = random.Random(f"check-sweep:{seed}")
    ref_windows = {i for i, _w, _t in rng.sample(done, min(8, len(done)))}
    checks = []
    for i, _w, text in done:
        checks += _sweep_cell_checks(i, parse_sweep(text), rng, 2 if i in ref_windows else 0)
    return checks


def _orbit_checks(i: int, lv: Level, output) -> list[Check]:
    x, y, actions = output
    traj = integrate(state_from_integrals(lv.x0, 0.0, lv.E, lv.p, lv.sign),
                     lv.t_max, tol=1e-12, with_events=False)
    xn, yn, _, _ = traj.eval(lv.times())
    checks = [Check(i, "sinx", float(np.abs(np.sin(x) - np.sin(xn)).max()), GATE_TOL, False),
              Check(i, "y", float(np.abs(y - yn).max()), GATE_TOL, False)]
    if actions is not None:
        d, inc, f = actions
        checks.append(Check(i, "actions", max(abs(d - inc), abs(d - f)), GATE_TOL, True))
    return checks


def check_orbits(done: list[tuple[int, Level, tuple]]) -> list[Check]:
    """sin x and y against integrate at tol 1e-12; the three actions agree."""
    return [c for i, lv, out in done for c in _orbit_checks(i, lv, out)]


def _compare_checks(i: int, text: str, decides: bool) -> list[Check]:
    rep = json.loads(text)
    return [Check(i, "sup_err_sinx", float(rep["sup_err_sinx"]), GATE_TOL, decides),
            Check(i, "sup_err_y", float(rep["sup_err_y"]), GATE_TOL, decides)]


def check_compare(done: list[tuple[int, Level, str]]) -> list[Check]:
    """The report's sup errors must pass the acceptance gate."""
    return [c for i, _lv, text in done for c in _compare_checks(i, text, False)]


def run_checks(name: str, seed: int, done: list) -> list[Check]:
    if name == "sweep":
        return check_sweep(seed, done)
    if name == "orbits":
        return check_orbits(done)
    return check_compare(done)


_RULE_CHECKS = ("kind", "blank", "delta_y_sign")  # counts of violations, not errors


def _max_err(checks) -> float:
    errs = [c.err for c in checks if c.what not in _RULE_CHECKS]
    return max(errs) if errs else float("nan")


def summarize_checks(seeded: list[Check], panel: list[Check]) -> dict:
    """correct, failed items and errors of the seeded checks and the panel."""
    every = seeded + panel
    by_what = collections.defaultdict(float)
    for c in every:
        by_what[c.what] = max(by_what[c.what], c.err)
    return {
        "correct": all(c.ok for c in every if c.decides_correct),
        "n_checks": len(every),
        # failed seeded item -> the first check it failed
        "failed_items": {c.item: c.what for c in reversed(seeded) if not c.ok},
        "failed_checks": [[c.item, c.what, c.err, c.tol, c.decides_correct]
                          for c in every if not c.ok],
        "max_err": _max_err(panel),
        "max_err_seeded": _max_err(seeded),
        "max_err_by_check": dict(by_what),
    }


# ---------------------------------------------------------------------------
# fixed accuracy panel
#
# max_err is the worst error on this panel, the same in every run, so that
# runs with different seeds can be compared: the worst error over seeded
# items depends mostly on how close the nearest sampled level came to a
# separatrix.  Seeded errors are kept in the run record as max_err_seeded.
# The panel spans every regime, including root gaps down to 1e-7 (sweep)
# and 1e-5 (orbits, compare), k^2 = 1 - 2e-4 and a tiny oval.  Every panel
# level builds today and passes the 1e-6 gate.  The orbits panel is checked
# against 25-digit mpmath integration (panel_ref.py, stored in
# panel_ref.json), so its max_err is the closed form's own error; the
# compare panel's error is the one the CLI reports, set by its RK side.

# (E, p) cells; a sweep window with grid-n 2 collapsed on one cell
PANEL_CELLS = (
    (0.125, 0.3), (0.02, -0.5), (0.3, 0.6), (3.0, 0.1), (0.5 - 1e-6, 0.0),
    (0.18, 0.4 - 1e-7), (0.18, 0.4 + 1e-6), (0.72, 0.2 + 1e-5), (1e-6, 0.5),
    (0.5 + 1e-3, -0.01),
)
# (x0, E, p, sign, t_max)
PANEL_LEVELS = (
    (0.1, 0.125, 0.3, 1, 30.0), (0.5, 0.3, 0.6, -1, 30.0), (0.0, 3.0, 0.1, 1, 30.0),
    (0.2, 0.125, 0.0, 1, 20.0), (math.asin(0.5), 1e-6, 0.5, 1, 20.0),
    (0.3, 0.5 - 1e-4, 0.0, -1, 20.0), (0.5, 0.18, 0.4 - 1e-4, 1, 20.0),
    (math.asin(1.0 - 5e-4), 0.18, 1.599, 1, 20.0), (2.5, 0.72, 0.2 + 1e-5, -1, 20.0),
    (math.pi + 0.5, 0.02, -0.5, 1, 20.0),
)
#: samples of an orbits panel level, and those checked against panel_ref.json
PANEL_N_T = 400
PANEL_REF_INDEX = (57, 133, 210, 287, 399)
PANEL_REF_FILE = Path(__file__).resolve().parent / "panel_ref.json"


def panel_items(name: str) -> list:
    if name == "sweep":
        return [Window("panel", E, E, p, p, grid_n=2) for E, p in PANEL_CELLS]
    return [Level("panel", x0, E, p, s, PANEL_N_T, t_max) for x0, E, p, s, t_max in PANEL_LEVELS]


@functools.cache
def _panel_ref() -> list[list[list[float]]]:
    """[sin x, y] at PANEL_REF_INDEX for each orbits panel level."""
    ref = json.loads(PANEL_REF_FILE.read_text())
    if ([e["level"] for e in ref["levels"]] != [list(lv) for lv in PANEL_LEVELS]
            or ref["n_t"] != PANEL_N_T or ref["index"] != list(PANEL_REF_INDEX)):
        raise RuntimeError(f"{PANEL_REF_FILE.name} is stale: run bench/panel_ref.py")
    return [e["sinx_y"] for e in ref["levels"]]


def _orbit_panel_checks(i: int, k: int, output) -> list[Check]:
    """sin x and y against the mpmath reference; the three actions agree."""
    x, y, actions = output
    ref = np.array(_panel_ref()[k])
    idx = list(PANEL_REF_INDEX)
    checks = [Check(i, "sinx", float(np.abs(np.sin(x[idx]) - ref[:, 0]).max()), GATE_TOL, True),
              Check(i, "y", float(np.abs(y[idx] - ref[:, 1]).max()), GATE_TOL, True)]
    if actions is not None:
        d, inc, f = actions
        checks.append(Check(i, "actions", max(abs(d - inc), abs(d - f)), GATE_TOL, True))
    return checks


def panel_checks(name: str, scratch: str) -> list[Check]:
    """Run the panel through the workload's own path and check every entry."""
    wl = WORKLOADS[name]
    checks = []
    for k, item in enumerate(panel_items(name)):
        i = -1 - k
        try:
            out = wl.output(wl.run(item, scratch), scratch)
        except (ItemFailure, MagflowError) as exc:
            checks.append(Check(i, f"raised {getattr(exc, 'reason', type(exc).__name__)}",
                                math.inf, GATE_TOL, True))
            continue
        if name == "sweep":
            checks += _sweep_cell_checks(i, parse_sweep(out), None, 0)
        elif name == "orbits":
            checks += _orbit_panel_checks(i, k, out)
        else:
            checks += _compare_checks(i, out, True)
    return checks


# ---------------------------------------------------------------------------
# workload table


def _read(_result, out: str) -> str:
    with open(out) as fh:
        return fh.read()


def _orbit_output(result, _out: str):
    return result


def _sweep_run(w: Window, out: str) -> None:
    call_cli(sweep_argv(w, out))


def _compare_run(lv: Level, out: str) -> None:
    call_cli(compare_argv(lv, out))


def _orbit_run(lv: Level, _out: str):
    return run_orbit(lv)


@dataclass(frozen=True)
class Workload:
    """How one workload makes, runs and keeps its items."""

    name: str
    cells_per_item: int        # throughput units of one item
    n_inputs: int              # items generated; a long run cycles through them
    make: object               # (seed, n) -> items
    run: object                # (item, scratch file) -> result, timed
    output: object             # (result, scratch file) -> kept output, untimed
    check_all: bool            # keep every output, or the first cycle of strata
    round_items: int           # a run ends only after a whole round of this many items


WORKLOADS = {
    # a round is a quarter of the tiling, about 9 s; four draw the phase diagram
    "sweep": Workload("sweep", SWEEP_GRID_N ** 2, SWEEP_TILES ** 2, make_windows,
                      _sweep_run, _read, True, SWEEP_TILES ** 2 // 4),
    # a round is one pass over 48 cycles of strata (each ladder once), about 1.5 s
    "orbits": Workload("orbits", 1, 48 * len(LEVEL_STRATA), make_levels,
                       _orbit_run, _orbit_output, False, 48 * len(LEVEL_STRATA)),
    # a round is one pass over 8 cycles of strata, about 5 s
    "compare": Workload("compare", 1, 8 * len(LEVEL_STRATA), make_levels,
                        _compare_run, _read, True, 8 * len(LEVEL_STRATA)),
}


def check_selector(name: str):
    """Predicate on item indices: whose outputs the checks look at.

    sweep and compare keep every output; orbits keeps the first cycle of
    strata, one level of each, because its reference is an RK integration
    at tol 1e-12.  The selection does not depend on the seed, and on the
    ladder strata neither do the levels, so whether a check fails repeats
    from run to run.
    """
    if WORKLOADS[name].check_all:
        return lambda i: True
    return range(len(LEVEL_STRATA)).__contains__


def run_item(wl: Workload, item, scratch: str):
    """Run one item; returns (wall s, process CPU s, failure reason or None, result)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.run(item, scratch)
        reason = None
    except ItemFailure as exc:
        result, reason = None, exc.reason
    except MagflowError as exc:
        result, reason = None, type(exc).__name__
    except Exception as exc:  # the loop must go on; the class is the reason
        result, reason = None, type(exc).__name__
    return time.perf_counter() - t0, time.process_time() - c0, reason, result
