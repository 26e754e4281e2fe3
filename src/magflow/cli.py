"""Command-line front end with bit-stable CSV/JSON/TSV export.

Numbers are serialized with 17 significant digits ('.' decimal separator,
no locale), which round-trips binary64 exactly, so identical configurations
produce byte-identical files.  Exit codes: 0 success, 2 domain or regime
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .closedform import build_solution, eval_solution
from .dynamics import energy, momentum, state_from_integrals
from .errors import (
    DegenerateCurve,
    DomainError,
    OpenCurve,
    ReductionInconsistency,
    StepFailure,
    UnsupportedRegime,
    WrongRegime,
)
from .integrate import TOL_MAX, TOL_MIN, integrate
from .orbits import (
    CylinderStrip,
    OrbitKind,
    action_contractible_formula,
    action_direct,
    action_increment,
    classify,
    contractible_orbit,
    cycle_data,
    film_action,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

_DOMAIN_ERRORS = (DomainError, DegenerateCurve, UnsupportedRegime, WrongRegime, OpenCurve)
_NUMERIC_ERRORS = (StepFailure, ReductionInconsistency)


def fmt(v) -> str:
    """17-significant-digit decimal form; empty string for missing values."""
    if v is None:
        return ""
    return f"{float(v):.17g}"


def _output(out: str | None):
    """The stream of --out for a with statement: the named file, or stdout without one."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", newline="\n")
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _json_dump(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, allow_nan=True) + "\n", out)


_DEFAULTS = dict(
    e=0.125, p=0.0, x0=0.0, y0=0.0, sign=1, t_end=50.0, tol=1e-11,
    e_min=0.05, e_max=0.45, p_min=-0.5, p_max=0.5, grid_n=1001,
    xa=0.5 * math.pi, xb=1.5 * math.pi, strip=1, phase=0.0,
    out=None,
)

#: the values a flag or config key may take, where its type allows more
_CHOICES = {"sign": (-1, 1), "strip": (1, 2)}
_HELP = {"e": "energy level E", "p": "momentum p", "sign": "sign of xdot(0)"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.
    Each key of _DEFAULTS is a flag --key ('-' for '_') of its default's type."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON file of defaults; explicit flags override it")
    for key, default in _DEFAULTS.items():
        common.add_argument("--" + key.replace("_", "-"),
                            type=str if default is None else type(default),
                            choices=_CHOICES.get(key), default=None, help=_HELP.get(key))

    parser = argparse.ArgumentParser(
        prog="magflow",
        description="Magnetic geodesic flow on the flat two-torus "
                    "(field cos x dx^dy): simulation, closed forms, "
                    "classification, actions and films.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _check_config_type(key: str, value) -> None:
    """A config value must have the JSON type of its default and, as its flag, lie in _CHOICES."""
    default = _DEFAULTS[key]
    if isinstance(default, float):
        want, ok = "a number", isinstance(value, (int, float))
    elif isinstance(default, int):
        want, ok = "an integer", isinstance(value, int)
    else:
        want, ok = "a string or null", value is None or isinstance(value, str)
    if isinstance(value, bool) or not ok:
        raise DomainError(f"config key '{key}' must be {want}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise DomainError(f"config key '{key}' must be one of {_CHOICES[key]}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Layer: built-in defaults < JSON config file < explicit flags."""
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DomainError(f"config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_type(key, value)
        cfg.update(file_cfg)
    for key in _DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    ns = argparse.Namespace(**cfg)
    _validate(ns)
    return ns


def _validate(cfg: argparse.Namespace) -> None:
    for key, default in _DEFAULTS.items():
        value = getattr(cfg, key)
        if isinstance(default, float) and not math.isfinite(value):
            raise DomainError(f"{key} must be finite, got {value}")
    if not TOL_MIN <= cfg.tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if cfg.t_end <= 0.0:
        raise DomainError("t-end must be positive")
    if cfg.grid_n < 2:
        raise DomainError("grid-n must be at least 2")


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n); DomainError where n values do not fit in memory."""
    try:
        return np.linspace(lo, hi, n)
    except MemoryError as exc:
        raise DomainError(f"grid-n {n} is too large: {exc}") from exc


def cmd_simulate(cfg) -> None:
    header = "t,x,y,xdot,ydot,E_inst,p_inst"
    state = state_from_integrals(cfg.x0, cfg.y0, cfg.e, cfg.p, cfg.sign)
    if cfg.e == 0.0:
        # an admissible start at E = 0 is a fixed point, at rest
        rows = [_csv_row(0.0, (cfg.x0, cfg.y0, 0.0, 0.0))]
    else:
        grid = _grid(0.0, cfg.t_end, cfg.grid_n)
        traj = integrate(state, cfg.t_end, cfg.tol)
        x, y, xd, yd = traj.eval(grid)
        rows = [_csv_row(t, (xi, yi, xdi, ydi))
                for t, xi, yi, xdi, ydi in zip(grid, x, y, xd, yd)]
    _write("\n".join([header] + rows) + "\n", cfg.out)


def _csv_row(t, s) -> str:
    return ",".join(fmt(v) for v in (t, *s, energy(s), momentum(s)))


def cmd_compare(cfg) -> None:
    state = state_from_integrals(cfg.x0, cfg.y0, cfg.e, cfg.p, cfg.sign)
    sol = build_solution(cfg.x0, cfg.y0, cfg.e, cfg.p, cfg.sign)
    grid = _grid(0.0, cfg.t_end, cfg.grid_n)
    traj = integrate(state, cfg.t_end, cfg.tol)
    xn, yn, _, _ = traj.eval(grid)
    xc, yc, _, _ = eval_solution(sol, grid)
    payload = {
        "E": cfg.e,
        "p": cfg.p,
        "k2": sol.k2,
        "C": sol.C,
        "D": sol.D,
        "x_period": sol.x_period,
        "sup_err_sinx": float(np.abs(np.sin(xc) - np.sin(xn)).max()),
        "sup_err_y": float(np.abs(yc - yn).max()),
        "samples": int(cfg.grid_n),
        "nfev": traj.nfev,
    }
    _json_dump(payload, cfg.out)


def cmd_classify(cfg) -> None:
    _json_dump(classify(cfg.e, cfg.p).to_dict(), cfg.out)


def cmd_orbit(cfg) -> None:
    sol = contractible_orbit(cfg.e, cfg.strip, cfg.phase)
    payload = {
        "E": cfg.e,
        "strip": cfg.strip,
        "phase_x0": cfg.phase,
        "amplitude": math.asin(math.sqrt(2.0 * cfg.e)),
        "k2": sol.k2,
        "C": sol.C,
        "D": sol.D,
        "period": sol.x_period,
        "delta_y": sol.delta_y_per_cycle,
        "action": sol.reduction.cycle_values()[2],
    }
    _json_dump(payload, cfg.out)


def cmd_action(cfg) -> None:
    sol = contractible_orbit(cfg.e, cfg.strip, cfg.phase)
    direct = action_direct(sol)
    increment = action_increment(sol)
    formula = action_contractible_formula(cfg.e)
    payload = {
        "E": cfg.e,
        "action_direct": direct,
        "action_increment": increment,
        "action_formula": formula,
        "max_discrepancy": max(abs(direct - increment), abs(direct - formula)),
    }
    _json_dump(payload, cfg.out)


def cmd_film(cfg) -> None:
    strip = CylinderStrip(cfg.xa, cfg.xb, cfg.e)
    value = film_action(strip)
    best = 4.0 * math.pi * (math.sqrt(2.0 * cfg.e) - 1.0)
    is_min = (
        abs(math.remainder(cfg.xa - 0.5 * math.pi, 2.0 * math.pi)) < 1e-6
        and abs(math.remainder(cfg.xb - 1.5 * math.pi, 2.0 * math.pi)) < 1e-6
    )
    payload = {
        "E": cfg.e,
        "x_a": cfg.xa,
        "x_b": cfg.xb,
        "action": value,
        "minimizer_action": best,
        "is_minimizer": is_min,
    }
    _json_dump(payload, cfg.out)


#: cells of the sweep grid per cycle_data call and per write, so memory
#: stays flat however fine the grid is
_SWEEP_BLOCK = 1 << 14


def _sweep_row_format(kind: OrbitKind | None) -> str:
    """One %-format for a whole row: E, p, kind, then delta_y, period, action.

    E and p come already written by fmt, once per grid value.  %.17g writes
    a value as fmt does; %.0s takes a value the kind does not carry and
    writes nothing, so every row takes the same five values.  kind None is
    a cell whose reduction failed (classify raises there): its row keeps
    only E and p.
    """
    cycle = kind in (OrbitKind.TRAPPED_OVAL, OrbitKind.CROSSING_LIBRATOR, OrbitKind.WINDING)
    line = cycle or kind is OrbitKind.VERTICAL_LINE
    fields = ["%.17g" if has else "%.0s" for has in (cycle, line, line)]
    return "\t".join(["%s", "%s", kind.value if kind else "", *fields]) + "\n"


# indexed by the kind index of cycle_data, the failed cells' format last
_SWEEP_ROW_FORMATS = tuple(_sweep_row_format(kind) for kind in (*OrbitKind, None))


def _sweep_rows(es: np.ndarray, ps: np.ndarray, cell: np.ndarray,
                es_text: list[str], ps_text: list[str]) -> str:
    """TSV rows of the grid cells `cell` with the data of cycle_data.

    Cell i is the level (es[i // n], ps[i % n]); es_text and ps_text are
    the grid values written by fmt.
    """
    i, j = np.divmod(cell, len(ps))
    d = cycle_data(es[i], ps[j])
    fmt_index = np.where(d.failed, len(_SWEEP_ROW_FORMATS) - 1, d.kind).tolist()
    values = zip(i.tolist(), j.tolist(), d.delta_y.tolist(), d.period.tolist(),
                 d.action.tolist())
    return "".join([_SWEEP_ROW_FORMATS[f] % (es_text[a], ps_text[b], dy, per, act)
                    for f, (a, b, dy, per, act) in zip(fmt_index, values)])


def cmd_sweep(cfg) -> None:
    if cfg.e_min <= 0.0 or cfg.e_max < cfg.e_min or cfg.p_max < cfg.p_min:
        raise DomainError("sweep ranges require 0 < e-min <= e-max, p-min <= p-max")
    n = cfg.grid_n
    es, ps = _grid(cfg.e_min, cfg.e_max, n), _grid(cfg.p_min, cfg.p_max, n)
    es_text, ps_text = [fmt(v) for v in es.tolist()], [fmt(v) for v in ps.tolist()]
    with _output(cfg.out) as fh:
        fh.write("E\tp\tkind\tdelta_y\tperiod\taction\n")
        # cells in row-major order, E outer and p inner
        for lo in range(0, n * n, _SWEEP_BLOCK):
            cell = np.arange(lo, min(lo + _SWEEP_BLOCK, n * n))
            fh.write(_sweep_rows(es, ps, cell, es_text, ps_text))


#: each subcommand: its function and its help line
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate one orbit and export CSV samples"),
    "compare": (cmd_compare, "closed form vs direct integration report"),
    "classify": (cmd_classify, "orbit type of the level set (E, p)"),
    "orbit": (cmd_orbit, "construct a simple contractible orbit"),
    "action": (cmd_action, "action of the contractible orbit, three ways"),
    "film": (cmd_film, "action of a cylinder-strip film"),
    "sweep": (cmd_sweep, "classification sweep over an (E, p) grid"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _COMMANDS[args.command][0](cfg)
    except _DOMAIN_ERRORS as exc:
        print(f"magflow: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _NUMERIC_ERRORS as exc:
        print(f"magflow: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
