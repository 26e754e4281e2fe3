"""Compare the outputs of magflow at a commit with those of the working tree.

    python3 tools/parity.py --against <commit>

Run from anywhere inside a checkout.  The ``src/`` of the commit is
extracted with ``git archive`` into a temporary directory, which is removed
afterwards; the working tree's ``src/``, uncommitted edits included, is the
other side.  Each side runs the same fixed, seeded sets in a fresh
interpreter that imports magflow from that ``src/``:

* ``cycle_data`` on 200,000 levels, in blocks of 16,384 like ``cli sweep``:
  kind, delta_y, period, action and the failed mask, and the same levels
  again in blocks of 100 (outputs prefixed ``cycle_data100``), the size of
  a bench ``sweep`` window, where the lanes of a block stop their AGM
  ladders at other rungs; it reads the same inputs and draws no random
  numbers, so every other set keeps its inputs;
* ``classify`` on 3,000 levels: kind, turning roots, delta_y, period,
  action and contractible, and the same on 2,000 levels over the whole
  float range (outputs prefixed ``classify_wide``);
* ``build_solution`` on 20,000 orbits: D, x_offset, x_period,
  delta_y_per_cycle, k and k2, and ``eval_solution`` at 50 times each:
  x, y, xdot and ydot, and again at the first of them as a scalar
  (outputs ``eval_scalar``), which takes the float path of the phase;
* the same on 4,000 wall starts (outputs prefixed ``wall_``), with t = 0
  among the times;
* the same on 2,000 orbits at p = 0 exactly (outputs prefixed ``p0_``),
  the levels where the Legendre map is affine, with t = 0 among the times;
* the same on 6,000 trapped, crossing and winding orbits at times up to
  |t| = 1e6 (outputs prefixed ``long_``), where the half-period index of
  a phase runs to about 1e5 and the fold, the parity and the sheet of x
  meet large whole numbers, with NaN, +inf and -inf among the times;
* ``action_direct`` and ``action_increment`` on 2,000 contractible orbits
  (``contractible_orbit``);
* ``action_contractible_formula`` on 2,000 energies (output
  ``action_formula``), so that a change of its R_D shows its own move, as
  ``elliptic.F`` shows that of F's R_F;
* ``elliptic.sn`` on 20,000 (k, u), so that a change of the phase
  reduction shows its own move and not only through ``eval_solution``;
* ``elliptic.incomplete_F`` on 20,000 (k, phi) (output ``elliptic.F``),
  so that a change of F's strip reduction shows its own move and not only
  through ``build_solution``'s ``D``, and ``elliptic.complete_K`` on the
  same k (output ``elliptic.K``);
* ``cli.main``, run in process, on 280 command lines, 40 of each
  subcommand: the exit code and the text on stdout of each;
* ``integrate``, the RK oracle, on 500 orbits over |t| = 20: step and
  call counts, the final state, the interpolant rows ``F`` of the first
  and the last step and ``Trajectory.eval`` at 50 times, and the event
  times of 100 of them, found by the tests' event pass
  (``tests/oracles.py`` of the working tree) on each side's
  ``Trajectory``; at tol 1e-11, and the same at tol 1e-9 and 1e-13
  (outputs prefixed ``tol1e-09_`` and ``tol1e-13_``);
* ``integrate`` on the fixed extreme starts of EXTREME_STARTS (outputs
  prefixed ``integrate_extreme``): step and call counts, the final state
  and the rows ``F`` of the first and the last step, or the class and
  message of the exception (output ``integrate_extreme.raised``).

The levels mix three strata: (E, p) uniform over (0.01, 2) x (-2.5, 2.5),
a turning root p -+ sqrt(2E) within 1e-13 ... 1e-2 of a wall z = +-1 (next
to a separatrix or a vertical line), and E = (1 +- d)/2 next to the
critical level with d in 1e-12 ... 1e-2 and |p| in 1e-12 ... 1, each
spread log-uniformly.  The wall starts, drawn from a generator of their
own so that the sets above keep their inputs, lie on crossing and winding
levels with every turning root 1e-3 or more from a wall, on either wall,
strip and sign of xdot, a quarter of them exactly on the wall and the rest
1e-16 ... 1e-6 off it.  The contractible orbits, from a third generator,
have 1 - 2E log-uniform over 1e-8 ... 1, either strip, and a start
sin x0 uniform over the oval [-sqrt(2E), sqrt(2E)].  The sn set, from a
fourth generator, has 1 - k^2 log-uniform over 1e-12 ... 1 and u uniform
over [-1000, 1000].  The p = 0 orbits, from a fifth generator, are half
trapped, with 1 - 2E log-uniform over 1e-8 ... 1, and half winding, with
E uniform over (0.5, 3); each starts on the oval, on either strip and
with either sign of xdot, and t is uniform over [-40, 40].  The F set,
from a sixth generator, has 1 - k^2 log-uniform over 1e-12 ... 1 and phi
uniform over [-4 pi, 4 pi], with every tenth phi exactly at +-pi/2, the
edges of the principal strip; its LossOfPrecisionWarning next to k = 1 is
silenced.  The integrate set, from a seventh generator, has 500 levels of
the three strata, each with a start on its oval as for build_solution,
t_end = 20 but for every tenth level, which runs backwards to t_end = -20,
and 50 times uniform between 0 and t_end; integrate at each of tol 1e-11,
1e-9 and 1e-13 gives n_steps, nfev, the final state, the rows F of the
first and the last step (outputs ``F_first`` and ``F_last``, shape
(500, 7, 4)) and eval at the times, and on the first 100 levels the
turning and return times of x merged in one sorted list (outputs
``integrate_events``).
The extreme starts are those of the tests' extreme runs, at tol 1e-11:
xdot = sqrt(2e300), where the error norms overflow, over t = 1e-148 and
over t = 1, which exhausts the step budget; xdot = ydot = 1e200, where the
error norm is NaN at every step size until the step underflows; xdot =
sqrt(2e6) over t = 1 (3,858 steps, more than 3 blocks of the interpolant
pass) and backwards over t = -1; and x = 1e300 over t = 1, where every
stage takes the cosine of a huge argument.
The classify_wide levels, from an eighth generator, have E log-uniform over
[5e-324, 1.7e308] and p uniform over [-3, 3] for half of them,
log-uniform in |p| over 1e-300 ... 1e300 for a third and exactly 0 for a
sixth; past E = 6.7e153 the product of the four root gaps in the reduction
overflows.
The command lines, from a ninth generator, pass seeded options of their
subcommand as flags (cli_options): levels of the uniform stratum for
classify, and for simulate and compare with a start on the oval as for
build_solution (where the level has none, the line exits 2), t_end in
[0.5, 5], tol 1e-9 ... 1e-12 and grid_n 2 ... 29; contractible levels
with 1 - 2E log-uniform over 1e-6 ... 1 for orbit and action; strips of
width 0.1 ... 6.1 for film; and grids of 2 ... 8 points a side for sweep.
Every fourth line moves its first two options into a JSON config file.
The action_formula energies, from a tenth generator, have 1 - 2E
log-uniform over 1e-12 ... 1.
The long orbits, from an eleventh generator, are a third each trapped
(sqrt(2E) uniform over (0.01, 0.99), p uniform where both turning roots
stay 1e-3 or more inside the walls), crossing and winding (as the wall
starts' levels, either wall), each with a start on its oval as for
build_solution; t is uniform over [-1e6, 1e6], and each row holds one NaN,
one +inf and one -inf at random places, so that the scalar at the first
time meets them too.  Its RuntimeWarnings of invalid values are silenced.
For every output the report gives the number of values that differ in any
bit and the largest absolute difference among them, where NaN equals NaN
and a NaN on one side only counts as an infinite difference; for every
set, the count of each exception type on each side.
The exit status is 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 20241013
N_CYCLE, N_CLASSIFY, N_ORBITS, N_TIMES, N_WALL = 200_000, 3_000, 20_000, 50, 4_000
N_ACTION, N_SN, N_P0, N_F, N_LONG = 2_000, 20_000, 2_000, 20_000, 6_000
N_INTEGRATE, N_EVENTS, MAX_EVENTS, N_WIDE, N_FORMULA = 500, 100, 64, 2_000, 2_000
N_CLI = 40  # command lines per subcommand
CLI_COMMANDS = ("simulate", "compare", "classify", "orbit", "action", "film", "sweep")
BLOCK, SMALL_BLOCK = 16384, 100
#: (tol, output prefix) of each run of the integrate set
INTEGRATE_TOLS = ((1e-11, ""), (1e-9, "tol1e-09_"), (1e-13, "tol1e-13_"))
#: (x, y, xdot, ydot) and t_end of each extreme integrate run
EXTREME_STARTS = (
    ((0.0, 0.0, math.sqrt(2e300), 0.0), 1e-148),
    ((0.0, 0.0, math.sqrt(2e300), 0.0), 1.0),
    ((0.0, 0.0, 1e200, 1e200), 1e-100),
    ((0.0, 0.0, math.sqrt(2e6), 0.0), 1.0),
    ((0.0, 0.0, math.sqrt(2e6), 0.0), -1.0),
    ((1e300, 0.0, 1.0, 0.0), 1.0),
)


def levels(rng, n):
    """(E, p): half uniform, a quarter next to a wall, a quarter next to E = 1/2."""
    n_uni, n_wall = n // 2, n // 4
    n_crit = n - n_uni - n_wall
    E_uni, p_uni = rng.uniform(0.01, 2.0, n_uni), rng.uniform(-2.5, 2.5, n_uni)
    E_wall = rng.uniform(0.01, 2.0, n_wall)
    wall, side = rng.choice([-1.0, 1.0], n_wall), rng.choice([-1.0, 1.0], n_wall)
    miss = rng.choice([-1.0, 1.0], n_wall) * 10.0 ** rng.uniform(-13.0, -2.0, n_wall)
    p_wall = wall - side * np.sqrt(2.0 * E_wall) + miss
    E_crit = 0.5 + rng.choice([-0.5, 0.5], n_crit) * 10.0 ** rng.uniform(-12.0, -2.0, n_crit)
    p_crit = rng.choice([-1.0, 1.0], n_crit) * 10.0 ** rng.uniform(-12.0, 0.0, n_crit)
    return (np.concatenate([E_uni, E_wall, E_crit]),
            np.concatenate([p_uni, p_wall, p_crit]))


def wide_levels(rng, n):
    """(E, p) over the whole float range: E log-uniform over [5e-324, 1.7e308];
    p uniform over [-3, 3], log-uniform in |p| up to 1e300, or exactly 0."""
    E = np.clip(np.exp(rng.uniform(math.log(5e-324), math.log(1.7e308), n)), 5e-324, 1.7e308)
    p = rng.uniform(-3.0, 3.0, n)
    p[1::3] = rng.choice([-1.0, 1.0], len(p[1::3])) * 10.0 ** rng.uniform(-300.0, 300.0,
                                                                          len(p[1::3]))
    p[2::6] = 0.0
    return E, p


def wall_starts(rng, n):
    """(E, p, x0, xdot sign) on or next to a wall of crossing and winding levels."""
    wall, strip, sign = (rng.choice([-1.0, 1.0], n) for _ in range(3))
    crossing = rng.uniform(size=n) < 0.5
    a_cross = rng.uniform(0.05, 2.4, n)  # one root past the wall, one inside
    r = rng.uniform(np.maximum(-1.0, 1.0 - 2.0 * a_cross) + 1e-3, 1.0 - 1e-3)
    p_wind = rng.uniform(-1.5, 1.5, n)  # both roots past the walls
    a_wind = 1.0 + np.abs(p_wind) + rng.uniform(1e-3, 1.5, n)
    a = np.where(crossing, a_cross, a_wind)
    p = np.where(crossing, wall * (r + a_cross), p_wind)
    off = np.where(rng.uniform(size=n) < 0.25, 0.0, 10.0 ** rng.uniform(-16.0, -6.0, n))
    return 0.5 * a * a, p, wall * 0.5 * np.pi + strip * off, sign.astype(int)


def long_levels(rng, n):
    """(E, p): a third trapped, a third crossing at either wall, a third winding."""
    n_trap, n_cross = n // 3, n // 3
    a_trap = rng.uniform(0.01, 0.99, n_trap)
    p_trap = rng.uniform(-1.0, 1.0, n_trap) * (1.0 - 1e-3 - a_trap)
    wall = rng.choice([-1.0, 1.0], n_cross)
    a_cross = rng.uniform(0.05, 2.4, n_cross)  # one root past the wall, one inside
    r = rng.uniform(np.maximum(-1.0, 1.0 - 2.0 * a_cross) + 1e-3, 1.0 - 1e-3)
    p_wind = rng.uniform(-1.5, 1.5, n - n_trap - n_cross)  # both roots past the walls
    a_wind = 1.0 + np.abs(p_wind) + rng.uniform(1e-3, 1.5, len(p_wind))
    a = np.concatenate([a_trap, a_cross, a_wind])
    return 0.5 * a * a, np.concatenate([p_trap, wall * (r + a_cross), p_wind])


def oval_starts(rng, E, p):
    """x0 on the oval [max(-1, z1), min(1, z2)] of each level when there is
    one, on either strip of x, shifted by 2 pi n."""
    n = len(E)
    a = np.sqrt(2.0 * E)
    lo, hi = np.maximum(-1.0, p - a), np.minimum(1.0, p + a)
    z0 = np.where(lo <= hi, lo + rng.uniform(0.0, 1.0, n) * (hi - lo), np.clip(p, -1.0, 1.0))
    x0 = np.where(rng.uniform(size=n) < 0.5, np.arcsin(z0), np.pi - np.arcsin(z0))
    return x0 + 2.0 * np.pi * rng.integers(-1, 2, n)


def cli_options(rng, command: str) -> dict:
    """Seeded options of one valid command line, by config key."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if command in ("orbit", "action"):
        E = 0.5 * (1.0 - 10.0 ** u(-6.0, 0.0))
        return {"e": E, "strip": int(rng.choice([1, 2])),
                "phase": math.asin(u(-1.0, 1.0) * math.sqrt(2.0 * E))}
    if command == "film":
        xa = u(-math.pi, math.pi)
        return {"e": u(0.01, 2.0), "xa": xa, "xb": xa + u(0.1, 6.0)}
    if command == "sweep":
        e_min, p_min = u(0.01, 1.0), u(-2.5, 0.0)
        return {"e_min": e_min, "e_max": e_min + u(0.0, 1.0), "p_min": p_min,
                "p_max": p_min + u(0.0, 2.5), "grid_n": int(rng.integers(2, 9))}
    E, p = u(0.01, 2.0), u(-2.5, 2.5)
    if command == "classify":
        return {"e": E, "p": p}
    return {"e": E, "p": p, "x0": float(oval_starts(rng, np.array([E]), np.array([p]))[0]),
            "y0": u(-1.0, 1.0), "sign": int(rng.choice([-1, 1])), "t_end": u(0.5, 5.0),
            "tol": 10.0 ** -int(rng.integers(9, 13)), "grid_n": int(rng.integers(2, 30))}


def cli_lines(rng, n: int) -> tuple[list[str], list[str]]:
    """n command lines per subcommand as JSON argv lists, and the JSON config
    file of each: every fourth line moves its first two options there, the
    others have none ("")."""
    argvs, configs = [], []
    for command in CLI_COMMANDS:
        for i in range(n):
            opts = cli_options(rng, command)
            cfg = {key: opts.pop(key) for key in list(opts)[:2]} if i % 4 == 3 else {}
            flags = [a for key, v in opts.items() for a in ("--" + key.replace("_", "-"), repr(v))]
            argvs.append(json.dumps([command, *flags]))
            configs.append(json.dumps(cfg) if cfg else "")
    return argvs, configs


def inputs() -> dict:
    rng = np.random.default_rng(SEED)
    E_cyc, p_cyc = levels(rng, N_CYCLE)
    E_cls, p_cls = levels(rng, N_CLASSIFY)
    E_orb, p_orb = levels(rng, N_ORBITS)
    x0 = oval_starts(rng, E_orb, p_orb)
    sets = {
        "cycle_E": E_cyc, "cycle_p": p_cyc,
        "classify_E": E_cls, "classify_p": p_cls,
        "orbit_E": E_orb, "orbit_p": p_orb, "orbit_x0": x0,
        "orbit_y0": rng.uniform(-1.0, 1.0, N_ORBITS),
        "orbit_sign": rng.choice([-1, 1], N_ORBITS),
        "orbit_t": rng.uniform(-40.0, 40.0, (N_ORBITS, N_TIMES)),
    }
    wall_rng = np.random.default_rng(SEED + 1)
    E_wall, p_wall, x0_wall, sign_wall = wall_starts(wall_rng, N_WALL)
    t_wall = wall_rng.uniform(-40.0, 40.0, (N_WALL, N_TIMES))
    t_wall[:, 0] = 0.0
    sets.update({"wall_E": E_wall, "wall_p": p_wall, "wall_x0": x0_wall,
                 "wall_y0": np.zeros(N_WALL), "wall_sign": sign_wall, "wall_t": t_wall})
    action_rng = np.random.default_rng(SEED + 2)
    E_action = 0.5 * (1.0 - 10.0 ** action_rng.uniform(-8.0, 0.0, N_ACTION))
    sets.update({
        "action_E": E_action, "action_strip": action_rng.choice([1, 2], N_ACTION),
        "action_phase": np.arcsin(action_rng.uniform(-1.0, 1.0, N_ACTION)
                                  * np.sqrt(2.0 * E_action)),
    })
    sn_rng = np.random.default_rng(SEED + 3)
    sets.update({"sn_k": np.sqrt(1.0 - 10.0 ** sn_rng.uniform(-12.0, 0.0, N_SN)),
                 "sn_u": sn_rng.uniform(-1000.0, 1000.0, N_SN)})
    p0_rng = np.random.default_rng(SEED + 4)
    n_trapped = N_P0 // 2
    E_p0 = np.concatenate([
        0.5 * (1.0 - 10.0 ** p0_rng.uniform(-8.0, 0.0, n_trapped)),
        p0_rng.uniform(0.5, 3.0, N_P0 - n_trapped)])
    z_max = np.minimum(1.0, np.sqrt(2.0 * E_p0))  # the oval is [-z_max, z_max]
    z0 = p0_rng.uniform(-1.0, 1.0, N_P0) * z_max
    x0_p0 = np.where(p0_rng.uniform(size=N_P0) < 0.5, np.arcsin(z0), np.pi - np.arcsin(z0))
    t_p0 = p0_rng.uniform(-40.0, 40.0, (N_P0, N_TIMES))
    t_p0[:, 0] = 0.0
    sets.update({"p0_E": E_p0, "p0_p": np.zeros(N_P0), "p0_x0": x0_p0,
                 "p0_y0": np.zeros(N_P0), "p0_sign": p0_rng.choice([-1, 1], N_P0),
                 "p0_t": t_p0})
    F_rng = np.random.default_rng(SEED + 5)
    F_phi = F_rng.uniform(-4.0 * np.pi, 4.0 * np.pi, N_F)
    F_phi[::10] = F_rng.choice([-0.5 * math.pi, 0.5 * math.pi], len(F_phi[::10]))
    sets.update({"F_k": np.sqrt(1.0 - 10.0 ** F_rng.uniform(-12.0, 0.0, N_F)),
                 "F_phi": F_phi})
    int_rng = np.random.default_rng(SEED + 6)
    E_int, p_int = levels(int_rng, N_INTEGRATE)
    t_end = np.where(np.arange(N_INTEGRATE) % 10 == 0, -20.0, 20.0)
    sets.update({"integrate_E": E_int, "integrate_p": p_int,
                 "integrate_x0": oval_starts(int_rng, E_int, p_int),
                 "integrate_sign": int_rng.choice([-1, 1], N_INTEGRATE),
                 "integrate_t_end": t_end,
                 "integrate_t": int_rng.uniform(0.0, 1.0, (N_INTEGRATE, N_TIMES))
                 * t_end[:, None]})
    wide_rng = np.random.default_rng(SEED + 7)
    sets["classify_wide_E"], sets["classify_wide_p"] = wide_levels(wide_rng, N_WIDE)
    argvs, configs = cli_lines(np.random.default_rng(SEED + 8), N_CLI)
    sets["cli_argv"], sets["cli_config"] = np.array(argvs), np.array(configs)
    formula_rng = np.random.default_rng(SEED + 9)
    sets["formula_E"] = 0.5 * (1.0 - 10.0 ** formula_rng.uniform(-12.0, 0.0, N_FORMULA))
    long_rng = np.random.default_rng(SEED + 10)
    E_long, p_long = long_levels(long_rng, N_LONG)
    t_long = long_rng.uniform(-1e6, 1e6, (N_LONG, N_TIMES))
    places = np.argsort(long_rng.uniform(size=(N_LONG, N_TIMES)), axis=1)[:, :3]
    np.put_along_axis(t_long, places, np.array([math.nan, math.inf, -math.inf]), axis=1)
    sets.update({"long_E": E_long, "long_p": p_long,
                 "long_x0": oval_starts(long_rng, E_long, p_long),
                 "long_y0": long_rng.uniform(-1.0, 1.0, N_LONG),
                 "long_sign": long_rng.choice([-1, 1], N_LONG), "long_t": t_long})
    return sets


def worker(in_path: str, out_path: str) -> None:
    """Run every set on the magflow that PYTHONPATH names; write the outputs."""
    import magflow
    from magflow import cycle_data

    with np.load(in_path) as f:
        inp = dict(f)
    out, errors = {"magflow_file": np.array(magflow.__file__)}, {}

    E, p = inp["cycle_E"], inp["cycle_p"]
    for key, size in (("cycle_data", BLOCK), ("cycle_data100", SMALL_BLOCK)):
        blocks = [cycle_data(E[i:i + size], p[i:i + size]) for i in range(0, len(E), size)]
        for name in ("kind", "delta_y", "period", "action", "failed"):
            out[f"{key}.{name}"] = np.concatenate([getattr(b, name) for b in blocks])

    run_classify(inp, "classify", out, errors)
    run_classify(inp, "classify_wide", out, errors)
    run_orbits(inp, "orbit", "", out, errors)
    run_orbits(inp, "wall", "wall_", out, errors)
    run_orbits(inp, "p0", "p0_", out, errors)
    with np.errstate(invalid="ignore"):
        run_orbits(inp, "long", "long_", out, errors)
    run_actions(inp, out, errors)
    run_action_formula(inp, out, errors)
    run_elliptic(inp, out, errors)
    run_cli(inp, out, errors)
    for tol, prefix in INTEGRATE_TOLS:
        run_integrate(inp, tol, prefix, out, errors)
    run_integrate_extreme(out, errors)
    out["errors"] = np.array(json.dumps(errors))
    np.savez(out_path, **out)


def run_classify(inp: dict, key: str, out: dict, errors: dict) -> None:
    """classify on the level set named key."""
    from magflow import classify

    nan = math.nan
    rows, err = [], []
    for e, q in zip(inp[f"{key}_E"].tolist(), inp[f"{key}_p"].tolist()):
        try:
            c = classify(e, q)
        except Exception as exc:  # counted by type in the report
            rows.append(("", nan, nan, nan, nan, nan, False))
            err.append(type(exc).__name__)
            continue
        none = lambda v: nan if v is None else v  # noqa: E731
        rows.append((c.kind.value, *c.turning_roots, none(c.delta_y), none(c.period),
                     none(c.action), c.contractible))
        err.append("")
    cols = list(zip(*rows))
    out[f"{key}.kind"] = np.array(cols[0])
    for j, name in enumerate(("z1", "z2", "delta_y", "period", "action"), start=1):
        out[f"{key}.{name}"] = np.array(cols[j], dtype=float)
    out[f"{key}.contractible"] = np.array(cols[6], dtype=bool)
    errors[key] = err


def run_orbits(inp: dict, key: str, prefix: str, out: dict, errors: dict) -> None:
    """build_solution and eval_solution on the orbit set named key."""
    from magflow import build_solution, eval_solution

    fields = ("D", "x_offset", "x_period", "delta_y_per_cycle", "k", "k2")
    n, n_times = inp[f"{key}_t"].shape
    built = np.full((n, len(fields)), math.nan)
    evals = np.full((n, 4, n_times), math.nan)
    scalars = np.full((n, 4), math.nan)
    b_err, e_err = [], []
    for i in range(n):
        try:
            sol = build_solution(float(inp[f"{key}_x0"][i]), float(inp[f"{key}_y0"][i]),
                                 float(inp[f"{key}_E"][i]), float(inp[f"{key}_p"][i]),
                                 int(inp[f"{key}_sign"][i]))
        except Exception as exc:
            b_err.append(type(exc).__name__)
            continue
        b_err.append("")
        built[i] = [getattr(sol, f) for f in fields]
        try:
            evals[i] = eval_solution(sol, inp[f"{key}_t"][i])
            scalars[i] = eval_solution(sol, float(inp[f"{key}_t"][i, 0])).as_array()
        except Exception as exc:
            e_err.append(type(exc).__name__)
            continue
        e_err.append("")
    for j, f in enumerate(fields):
        out[f"{prefix}build_solution.{f}"] = built[:, j]
    for j, f in enumerate(("x", "y", "xdot", "ydot")):
        out[f"{prefix}eval_solution.{f}"] = evals[:, j]
        out[f"{prefix}eval_scalar.{f}"] = scalars[:, j]
    errors[f"{prefix}build_solution"], errors[f"{prefix}eval_solution"] = b_err, e_err


def run_actions(inp: dict, out: dict, errors: dict) -> None:
    """action_direct and action_increment on the contractible orbit set."""
    from magflow import action_direct, action_increment, contractible_orbit

    actions = (action_direct, action_increment)
    values = np.full((len(actions), len(inp["action_E"])), math.nan)
    err = {name: [] for name in ("contractible_orbit", *(f.__name__ for f in actions))}
    for i, (E, strip, phase) in enumerate(zip(inp["action_E"].tolist(),
                                              inp["action_strip"].tolist(),
                                              inp["action_phase"].tolist())):
        try:
            sol = contractible_orbit(E, strip, phase)
        except Exception as exc:
            err["contractible_orbit"].append(type(exc).__name__)
            continue
        err["contractible_orbit"].append("")
        for j, action in enumerate(actions):
            try:
                values[j, i] = action(sol)
            except Exception as exc:
                err[action.__name__].append(type(exc).__name__)
            else:
                err[action.__name__].append("")
    for j, action in enumerate(actions):
        out[action.__name__] = values[j]
    errors.update(err)


def run_action_formula(inp: dict, out: dict, errors: dict) -> None:
    """action_contractible_formula on the formula energy set."""
    from magflow import action_contractible_formula

    values, err = np.full(len(inp["formula_E"]), math.nan), []
    for i, E in enumerate(inp["formula_E"].tolist()):
        try:
            values[i] = action_contractible_formula(E)
        except Exception as exc:
            err.append(type(exc).__name__)
            continue
        err.append("")
    out["action_formula"], errors["action_formula"] = values, err


def run_elliptic(inp: dict, out: dict, errors: dict) -> None:
    """elliptic.sn on the (k, u) set, incomplete_F on the (k, phi) set and
    complete_K on its k, one call each, with the LossOfPrecisionWarning of
    incomplete_F and complete_K silenced."""
    from magflow.elliptic import complete_K, incomplete_F, sn
    from magflow.errors import LossOfPrecisionWarning

    for name, fn, key_k, key_arg in (("elliptic.sn", sn, "sn_k", "sn_u"),
                                     ("elliptic.F", incomplete_F, "F_k", "F_phi"),
                                     ("elliptic.K", lambda _, k: complete_K(k), "F_k", "F_phi")):
        values, err = np.full(len(inp[key_k]), math.nan), []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LossOfPrecisionWarning)
            for i, (k, arg) in enumerate(zip(inp[key_k].tolist(), inp[key_arg].tolist())):
                try:
                    values[i] = fn(arg, k)
                except Exception as exc:
                    err.append(type(exc).__name__)
                    continue
                err.append("")
        out[name], errors[name] = values, err


def run_cli(inp: dict, out: dict, errors: dict) -> None:
    """cli.main in process on the cli set: the exit code and stdout of each line."""
    from magflow import cli

    codes, texts, err = [], [], []
    with tempfile.TemporaryDirectory(prefix="magflow-parity-cli-") as tmp:
        for i, (argv, cfg) in enumerate(zip(inp["cli_argv"].tolist(),
                                            inp["cli_config"].tolist())):
            argv = json.loads(argv)
            if cfg:
                path = Path(tmp) / f"{i}.json"
                path.write_text(cfg)
                argv += ["--config", str(path)]
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
            except (Exception, SystemExit) as exc:
                codes.append(-1)
                err.append(type(exc).__name__)
            else:
                err.append("")
            texts.append(stdout.getvalue())
    out["cli.exit"], out["cli.stdout"] = np.array(codes), np.array(texts)
    errors["cli"] = err


def run_integrate(inp: dict, tol: float, prefix: str, out: dict, errors: dict) -> None:
    """integrate at tol on the integrate set: step and call counts, the final
    state, the interpolant rows of the first and the last step and eval at
    50 times; on its first N_EVENTS levels, the turning and return times
    of x that tests/oracles.py finds on the trajectory (NaN past the last)
    and their count."""
    from magflow import integrate, state_from_integrals

    sys.path.insert(0, str(ROOT))
    from tests.oracles import event_times

    n, n_times = inp["integrate_t"].shape
    counts = np.full((n, 2), -1)
    final = np.full((n, 4), math.nan)
    F_ends = np.full((n, 2, 7, 4), math.nan)
    evals = np.full((n, 4, n_times), math.nan)
    ev_count = np.full(N_EVENTS, -1)
    ev_times = np.full((N_EVENTS, MAX_EVENTS), math.nan)
    err, ev_err = [], []
    for i in range(n):
        args = (float(inp["integrate_x0"][i]), 0.0, float(inp["integrate_E"][i]),
                float(inp["integrate_p"][i]), int(inp["integrate_sign"][i]))
        t_end = float(inp["integrate_t_end"][i])
        try:
            traj = integrate(state_from_integrals(*args), t_end, tol)
            counts[i] = traj.n_steps, traj.nfev
            final[i] = traj.states[-1]
            F_ends[i] = traj.F[0], traj.F[-1]
            evals[i] = traj.eval(inp["integrate_t"][i])
        except Exception as exc:
            err.append(type(exc).__name__)
        else:
            err.append("")
        if i >= N_EVENTS:
            continue
        if err[-1]:  # no trajectory to look for events on
            ev_err.append(err[-1])
            continue
        try:
            turning, returns = event_times(traj)
        except Exception as exc:
            ev_err.append(type(exc).__name__)
            continue
        ev_err.append("")
        times = sorted(turning + returns)
        ev_count[i] = len(times)
        times = times[:MAX_EVENTS]
        ev_times[i, :len(times)] = times
    name, ev_name = f"{prefix}integrate", f"{prefix}integrate_events"
    out[f"{name}.n_steps"], out[f"{name}.nfev"] = counts[:, 0], counts[:, 1]
    for j, f in enumerate(("x", "y", "xdot", "ydot")):
        out[f"{name}.final_{f}"] = final[:, j]
        out[f"{name}.eval_{f}"] = evals[:, j]
    out[f"{name}.F_first"], out[f"{name}.F_last"] = F_ends[:, 0], F_ends[:, 1]
    out[f"{ev_name}.count"], out[f"{ev_name}.t"] = ev_count, ev_times
    errors[name], errors[ev_name] = err, ev_err


def run_integrate_extreme(out: dict, errors: dict) -> None:
    """integrate on EXTREME_STARTS: step and call counts, the final state and
    the interpolant rows of the first and the last step, or the exception's
    class and message."""
    from magflow import PhaseState, integrate

    n = len(EXTREME_STARTS)
    counts = np.full((n, 2), -1)
    final = np.full((n, 4), math.nan)
    F_ends = np.full((n, 2, 7, 4), math.nan)
    raised, err = [], []
    for i, (state, t_end) in enumerate(EXTREME_STARTS):
        try:
            traj = integrate(PhaseState(*state), t_end)
        except Exception as exc:
            raised.append(f"{type(exc).__name__}: {exc}")
            err.append(type(exc).__name__)
            continue
        raised.append("")
        err.append("")
        counts[i] = traj.n_steps, traj.nfev
        final[i] = traj.states[-1]
        F_ends[i] = traj.F[0], traj.F[-1]
    name = "integrate_extreme"
    out[f"{name}.n_steps"], out[f"{name}.nfev"] = counts[:, 0], counts[:, 1]
    out[f"{name}.final"] = final
    out[f"{name}.F_first"], out[f"{name}.F_last"] = F_ends[:, 0], F_ends[:, 1]
    out[f"{name}.raised"] = np.array(raised)
    errors[name] = err


def run_side(src: Path, in_path: Path, out_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--worker", str(in_path), str(out_path)],
                   env=env, check=True)
    with np.load(out_path) as f:
        res = dict(f)
    if not res.pop("magflow_file").item().startswith(str(src)):
        raise SystemExit(f"parity: the worker did not import magflow from {src}")
    return res


def differ(a: np.ndarray, b: np.ndarray) -> tuple[int, float]:
    """(values that differ in any bit, largest absolute difference among them)."""
    if a.dtype.kind != "f":
        return int(np.count_nonzero(a != b)), None
    a, b = a.astype(float).ravel(), b.astype(float).ravel()
    both_nan = np.isnan(a) & np.isnan(b)
    bad = (a.view(np.uint64) != b.view(np.uint64)) & ~both_nan
    if not bad.any():
        return 0, 0.0
    with np.errstate(invalid="ignore"):
        d = np.abs(a[bad] - b[bad])
    return int(bad.sum()), float(np.max(np.where(np.isnan(d), math.inf, d)))


def checkout_src(commit: str, dest: Path) -> str:
    """Extract src/ of the commit into dest; return the commit's short id and subject."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return subprocess.run(["git", "-C", str(ROOT), "log", "-1", "--format=%h %s", commit],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="commit to compare the working tree with")
    ap.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if not args.against:
        ap.error("--against is required")
    with tempfile.TemporaryDirectory(prefix="magflow-parity-") as tmp:
        tmp = Path(tmp)
        title = checkout_src(args.against, tmp / "against")
        in_path = tmp / "inputs.npz"
        np.savez(in_path, **inputs())
        old = run_side(tmp / "against" / "src", in_path, tmp / "against.npz")
        new = run_side(ROOT / "src", in_path, tmp / "working.npz")
    print(f"parity: working tree against {title}")
    print(f"{'output':38s} {'n':>9s} {'differ':>8s} {'max |diff|':>11s}")
    n_bad = 0
    for name in sorted(k for k in old if k != "errors"):
        if name not in new:
            print(f"{name:38s} missing in the working tree")
            n_bad += 1
            continue
        count, worst = differ(old[name], new[name])
        n_bad += count
        worst = "-" if worst is None else f"{worst:.3g}"
        print(f"{name:38s} {old[name].size:9d} {count:8d} {worst:>11s}")
    print(f"\n{'exceptions':52s} {'against':>8s} {'working':>8s}")
    errs_old, errs_new = (json.loads(r["errors"].item()) for r in (old, new))
    for step in errs_old:
        a, b = (collections.Counter(e for e in errs[step] if e) for errs in (errs_old, errs_new))
        for kind in sorted(set(a) | set(b)):
            n_bad += a[kind] != b[kind]
            print(f"{step + ' ' + kind:52s} {a[kind]:8d} {b[kind]:8d}")
        if not a and not b:
            print(f"{step + ' (none)':52s} {0:8d} {0:8d}")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
