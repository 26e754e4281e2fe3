"""Command-line front end with bit-stable CSV/JSON/TSV export.

One parser reads the command and its flags, which may come before or after
it; every command takes every flag and ignores those it does not read.  A
negative number after a flag as a word of its own is that flag's value, in
any form float() reads ('--p -1e-05' is '--p=-1e-05').
Numbers are serialized with 17 significant digits ('.' decimal separator,
no locale), which round-trips binary64 exactly, so identical configurations
produce byte-identical files.  Every command hands its text to one writer,
_write, in blocks: without --out they go to sys.stdout as text, with it
their UTF-8 bytes go to the file by os.write, so the file holds exactly the
bytes stdout would carry ('\n' newlines; all output is ASCII).  Exit codes:
0 success, 1 stdout closed by its reader (a broken pipe: the rest of the
output is dropped silently, as the note on SIGPIPE of Python's signal
documentation does), 2 domain or regime error, a file or stdout that cannot
be written or a command line argparse rejects, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .closedform import build_solution, eval_solution
from .dynamics import energy, momentum, speed, state_from_integrals
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
EXIT_CLOSED_PIPE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

_DOMAIN_ERRORS = (DomainError, DegenerateCurve, UnsupportedRegime, WrongRegime, OpenCurve)
_NUMERIC_ERRORS = (StepFailure, ReductionInconsistency)


def fmt(v) -> str:
    """17-significant-digit decimal form; empty string for missing values."""
    return "" if v is None else f"{float(v):.17g}"


#: os.open flags of --out: created or truncated; O_BINARY (Windows) keeps '\n' as is
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write(blocks, out: str | None) -> None:
    """Write the text blocks in order to the file out, or to stdout without one.

    The file is opened, as open(out, "w") would, before the first block is
    taken from blocks, so a lazy sequence forms its blocks one at a time;
    each block's UTF-8 bytes go to it by os.write.  A failed write raises
    DomainError, a broken pipe on stdout BrokenPipeError.
    """
    try:
        if out is None:
            for block in blocks:
                sys.stdout.write(block)
            sys.stdout.flush()  # a failure raises here, not at exit
            return
        fd = os.open(out, _OUT_FLAGS, 0o666)
        try:
            for block in blocks:
                data = block.encode()
                while data:  # os.write may take only a part
                    data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        if out is None:
            # what stdout still holds goes nowhere at exit, as in the note
            # on SIGPIPE of Python's signal documentation
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                raise
        raise DomainError(f"cannot write {'stdout' if out is None else out}: {exc}") from exc


def _json(payload: dict) -> str:
    """The text of a JSON report."""
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


_DEFAULTS = dict(
    e=0.125, p=0.0, x0=0.0, y0=0.0, sign=1, t_end=50.0, tol=1e-11,
    e_min=0.05, e_max=0.45, p_min=-0.5, p_max=0.5, grid_n=1001,
    xa=0.5 * math.pi, xb=1.5 * math.pi, strip=1, phase=0.0,
    out=None,
)

#: the values a flag or config key may take, where its type allows more
_CHOICES = {"sign": (-1, 1), "strip": (1, 2)}
_HELP = dict(
    e="energy level E", p="momentum p", x0="start x(0)", y0="start y(0)", sign="sign of xdot(0)",
    t_end="time span (simulate, compare)", tol="RK tolerance (simulate, compare)",
    e_min="least E of the sweep", e_max="greatest E of the sweep", p_min="least p of the sweep",
    p_max="greatest p of the sweep", grid_n="samples in t (simulate, compare), a side (sweep)",
    xa="left edge of the film's strip", xb="right edge of the film's strip",
    strip="strip of the contractible orbit: cos x > 0 (1) or < 0 (2)",
    phase="x(0) of the contractible orbit", out="output file (default stdout)",
)


#: the words argparse reads as a flag that takes a value: each such flag and
#: each prefix of one that is no prefix of --help or --version
_VALUE_FLAG_WORDS = frozenset(
    flag[:i] for flag in ("--config", *("--" + key.replace("_", "-") for key in _DEFAULTS))
    for i in range(3, len(flag) + 1)
) - frozenset(flag[:i] for flag in ("--help", "--version") for i in range(3, len(flag) + 1))


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative number after a value flag as
    its value, '--p -1e-05' as '--p=-1e-05': argparse reads a word that
    starts with '-' as an option unless it looks like -1 or -.5."""

    def parse_known_args(self, args=None, namespace=None):
        words = sys.argv[1:] if args is None else list(args)
        if not _VALUE_FLAG_WORDS.isdisjoint(words):  # some flag word waits for its value
            args, words = words, []
            for word in args:
                if (word[:1] == "-" and words and words[-1] in _VALUE_FLAG_WORDS
                        and _is_number(word)):
                    words[-1] += "=" + word
                else:
                    words.append(word)
        return super().parse_known_args(words, namespace)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser, built once per process; parsing leaves it unchanged.
    Each key of _DEFAULTS is a flag --key ('-' for '_') of its default's type."""
    parser = _Parser(
        prog="magflow", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Magnetic geodesic flow on the flat two-torus (field cos x dx^dy).",
        epilog="commands:\n" + "".join(f"  {c:10s}{h}\n" for c, (_, h) in _COMMANDS.items()))
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON file of defaults; explicit flags override it")
    for key, default in _DEFAULTS.items():
        parser.add_argument("--" + key.replace("_", "-"), choices=_CHOICES.get(key),
                            type=str if default is None else type(default), help=_HELP[key])
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


#: the keys of float values, each of which must be finite
_FLOAT_KEYS = tuple(key for key, default in _DEFAULTS.items() if isinstance(default, float))


def _validate(cfg: argparse.Namespace) -> None:
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if not math.isfinite(value):
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
    _write(["\n".join([header] + rows) + "\n"], cfg.out)


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
    _write([_json(payload)], cfg.out)


def cmd_classify(cfg) -> None:
    _write([_json(classify(cfg.e, cfg.p).to_dict())], cfg.out)


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
    _write([_json(payload)], cfg.out)


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
    _write([_json(payload)], cfg.out)


def cmd_film(cfg) -> None:
    strip = CylinderStrip(cfg.xa, cfg.xb, cfg.e)
    value = film_action(strip)
    best = 4.0 * math.pi * (speed(cfg.e) - 1.0)
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
    _write([_json(payload)], cfg.out)


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


def _sweep_blocks(es: np.ndarray, ps: np.ndarray):
    """The sweep TSV: its header, then the rows of _SWEEP_BLOCK cells at a
    time, in row-major order, E outer and p inner."""
    es_text, ps_text = [fmt(v) for v in es.tolist()], [fmt(v) for v in ps.tolist()]
    yield "E\tp\tkind\tdelta_y\tperiod\taction\n"
    cells = len(es) * len(ps)
    for lo in range(0, cells, _SWEEP_BLOCK):
        yield _sweep_rows(es, ps, np.arange(lo, min(lo + _SWEEP_BLOCK, cells)), es_text, ps_text)


def cmd_sweep(cfg) -> None:
    if cfg.e_min <= 0.0 or cfg.e_max < cfg.e_min or cfg.p_max < cfg.p_min:
        raise DomainError("sweep ranges require 0 < e-min <= e-max, p-min <= p-max")
    n = cfg.grid_n
    es, ps = _grid(cfg.e_min, cfg.e_max, n), _grid(cfg.p_min, cfg.p_max, n)
    _write(_sweep_blocks(es, ps), cfg.out)


#: each command: its function and its help line
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
    except BrokenPipeError:
        return EXIT_CLOSED_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
