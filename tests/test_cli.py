import argparse
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from magflow import MagflowError, OrbitKind, classify
from magflow import __version__
from magflow.cli import _COMMANDS, _DEFAULTS, _build_parser, _resolve_config, fmt, main

GAMMA_P = repr(1.0 + math.sqrt(0.5))  # vertical-line momentum at E = 0.25


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def test_simulate_header_and_columns(capsys):
    code, out, _ = run(capsys, "simulate", "--e", "0.125", "--p", "0",
                       "--t-end", "5", "--grid-n", "41")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "y", "xdot", "ydot", "E_inst", "p_inst"]
    assert rows.shape == (41, 7)
    # recompute the integral columns offline from the exported samples
    e_re = 0.5 * (rows[:, 3] ** 2 + rows[:, 4] ** 2)
    p_re = rows[:, 4] + np.sin(rows[:, 1])
    assert np.max(np.abs(e_re - rows[:, 5])) < 1e-12
    assert np.max(np.abs(p_re - rows[:, 6])) < 1e-12


def test_simulate_vertical_line(capsys):
    code, out, _ = run(capsys, "simulate", "--e", "0.25", "--p", GAMMA_P,
                       "--x0", repr(math.pi / 2), "--t-end", "10",
                       "--grid-n", "21")
    assert code == 0
    _, rows = parse_csv(out)
    # rounding of p = 1 + sqrt(1/2) leaves a ~1e-8 residual oscillation
    assert np.max(np.abs(rows[:, 1] - math.pi / 2)) < 1e-6
    assert np.max(np.abs(rows[:, 3])) < 1e-6


def test_simulate_zero_energy_single_row(capsys):
    # at E = 0 only p = sin x0 is admissible, here p = 0 at x0 = 0
    code, out, _ = run(capsys, "simulate", "--e", "0", "--x0", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape[0] == 1
    assert rows[0, 3] == 0.0 and rows[0, 4] == 0.0


def test_simulate_zero_energy_forbidden_momentum_exits_2(capsys):
    code, out, err = run(capsys, "simulate", "--e", "0", "--p", "5")
    assert code == 2
    assert out == "" and "forbidden region" in err


@pytest.mark.parametrize("argv", [["--e", "1e-20", "--p", "9e-8", "--x0", "0"],
                                  ["--e", "0", "--p", "9e-8"]])
def test_simulate_tiny_energy_off_level_start_exits_2(capsys, argv):
    # (p - sin x0)^2 = 8.1e-15 is 4e5 times 2E or more: far past the
    # rounding of the operands, so no turning point within rounding
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 2
    assert out == "" and "forbidden region" in err


def test_simulate_round_trips_binary64(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code = main(["simulate", "--e", "0.3", "--p", "0.2", "--t-end", "3",
                 "--grid-n", "11", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    _, rows = parse_csv(text)

    from magflow import integrate, state_from_integrals

    s0 = state_from_integrals(0.0, 0.0, 0.3, 0.2, 1)
    traj = integrate(s0, 3.0, 1e-11)
    grid = np.linspace(0.0, 3.0, 11)
    x, y, xd, yd = traj.eval(grid)
    assert np.array_equal(rows[:, 1], x)   # 17 digits reparse exactly
    assert np.array_equal(rows[:, 4], yd)


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["sweep", "--e-min", "0.05", "--e-max", "0.45", "--p-min", "-0.6",
            "--p-max", "0.6", "--grid-n", "6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SWEEP_HEADER = "E\tp\tkind\tdelta_y\tperiod\taction"


def scalar_sweep_rows(es, ps):
    """The sweep rows built cell by cell from classify and fmt, E outer and
    p inner; a cell where classify raises keeps only E and p."""
    rows = []
    for E in es.tolist():
        for p in ps.tolist():
            try:
                c = classify(E, p)
            except MagflowError:
                rows.append(f"{fmt(E)}\t{fmt(p)}\t\t\t\t")
                continue
            rows.append("\t".join([fmt(E), fmt(p), c.kind.value, fmt(c.delta_y),
                                    fmt(c.period), fmt(c.action)]))
    return rows


def sweep_rows(tmp_path, e_min, e_max, p_min, p_max, n):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", f"--e-min={e_min!r}", f"--e-max={e_max!r}", f"--p-min={p_min!r}",
                 f"--p-max={p_max!r}", f"--grid-n={n}", f"--out={out}"]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == SWEEP_HEADER and lines[-1] == ""
    return lines[1:-1]


def mismatched_rows(got, want):
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def test_sweep_readme_grid_matches_classify(tmp_path):
    # the README example: every row as the per-cell classify loop writes it
    got = sweep_rows(tmp_path, 0.05, 1.2, -2.0, 2.0, 161)
    want = scalar_sweep_rows(np.linspace(0.05, 1.2, 161), np.linspace(-2.0, 2.0, 161))
    assert mismatched_rows(got, want) == []


# (e_min, e_max, p_min, p_max) of 2 x 2 grids whose corners are the levels named
EVERY_KIND_GRIDS = [
    # vertical lines (0.5, 0) and (2, 1), crossing at E = 1/2, winding at p = 0
    (0.5, 2.0, 0.0, 1.0),
    # tiny ovals at E = 1e-6, and the root gap 1e-7 at (0.18, 0.4 - 1e-7)
    (1e-6, 0.18, 0.0, 0.4 - 1e-7),
    # the separatrix band at (0.5, 1e-10) and the forbidden level (0.5, 3)
    (0.5, 0.5, 1e-10, 3.0),
    # turning roots 2 sqrt(2E) = 1e-9 apart, whose rounded gap falls below the
    # separatrix threshold: the kind is decided on that same gap, so the row
    # is a separatrix (test_failed_lanes_are_the_levels_classify_rejects
    # covers the blank row of a failed reduction)
    (1.25e-19, 1.25e-19, 0.3, 0.3),
]


def test_sweep_rows_match_classify_on_every_kind(tmp_path):
    kinds = set()
    for e_min, e_max, p_min, p_max in EVERY_KIND_GRIDS:
        got = sweep_rows(tmp_path, e_min, e_max, p_min, p_max, 2)
        want = scalar_sweep_rows(np.linspace(e_min, e_max, 2), np.linspace(p_min, p_max, 2))
        assert mismatched_rows(got, want) == []
        kinds |= {row.split("\t")[2] for row in got}
    assert kinds == {kind.value for kind in OrbitKind}


def fresh_run(*argv):
    proc = subprocess.run([sys.executable, "-m", "magflow.cli", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_sweep_at_overflowing_energies_is_silent():
    # 2E overflows to inf near E = 1e308: every cell fails and its row keeps
    # only E and p, with no numpy warning on stderr
    code, out, err = fresh_run("sweep", "--e-min", "1e300", "--e-max", "1e308",
                               "--grid-n", "3")
    assert code == 0 and err == b""
    es = ("1.0000000000000001e+300", "5.0000000500000001e+307", "1e+308")
    assert out.decode().splitlines() == ["E\tp\tkind\tdelta_y\tperiod\taction"] + [
        f"{e}\t{p}\t\t\t\t" for e in es for p in ("-0.5", "0", "0.5")]


def test_unbounded_orbit_exits_3_on_the_step_budget():
    # xdot = 1.4e150 sweeps x through about 1e150 rad before t = 1: the run
    # stops at integrate.MAX_STEPS, a couple of seconds, not ~1e150 steps
    proc = subprocess.run([sys.executable, "-m", "magflow.cli", "simulate", "--e", "1e300",
                           "--t-end", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("magflow: numeric failure: step budget exhausted: ")
    assert "Traceback" not in proc.stderr


def test_parser_built_once_and_reused(capsys):
    sweep = ("sweep", "--e-min", "0.2", "--e-max", "0.9", "--p-min", "-1.2", "--p-max", "1.2",
             "--grid-n", "5")
    bad = ("sweep", "--grid-n", "five")
    classify_argv = ("classify", "--e", "0.125", "--p", "0.3")
    for argv in (sweep, bad, classify_argv, sweep):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out.encode(), out.err.encode()) == fresh_run(*argv), argv
    assert code == 0
    assert _build_parser() is _build_parser()


def test_one_parser_without_subparsers():
    assert not any(isinstance(a, argparse._SubParsersAction) for a in _build_parser()._actions)


# command lines of every command, each with the values it resolves to where
# they differ from _DEFAULTS; "CFG" names a config file of {"e": 0.3, "p": 0.1}
PARSE_TABLE = [
    (["simulate", "--e", "0.125", "--p", "0", "--t-end", "5", "--grid-n", "41"],
     dict(e=0.125, t_end=5.0, grid_n=41)),
    (["simulate", "--x0=-1.5", "--y0", "0.25", "--sign", "-1", "--tol=1e-9"],
     dict(x0=-1.5, y0=0.25, sign=-1, tol=1e-9)),
    (["compare", "--e=0.125", "--p=-1e-05", "--t-end=20", "--grid-n=1001", "--out=r.json"],
     dict(e=0.125, p=-1e-05, t_end=20.0, grid_n=1001, out="r.json")),
    (["classify", "--e", "1", "--p", "-0.5"], dict(e=1.0, p=-0.5)),
    (["classify", "--e", "1", "--p", "-1e-05"], dict(e=1.0, p=-1e-05)),
    (["classify", "--config", "CFG"], dict(e=0.3, p=0.1)),
    (["classify", "--config=CFG", "--p", "-2"], dict(e=0.3, p=-2.0)),
    (["orbit", "--e", "0.2", "--strip", "2", "--phase", "-0.1"], dict(e=0.2, strip=2, phase=-0.1)),
    (["action", "--e=0.45", "--strip=1"], dict(e=0.45)),
    (["film", "--e", "0.125", "--xa", "-3", "--xb=2.5"], dict(e=0.125, xa=-3.0, xb=2.5)),
    (["sweep", "--e-min", "0.05", "--e-max", "1.2", "--p-min", "-2", "--p-max=2",
      "--grid-n", "161", "--out", "s.tsv"],
     dict(e_min=0.05, e_max=1.2, p_min=-2.0, p_max=2.0, grid_n=161, out="s.tsv")),
    (["sweep", "--grid", "5"], dict(grid_n=5)),  # an unambiguous prefix of --grid-n
    (["sweep", "--p-mi", "-2.5e-1", "--e-max", "-1e+300"], dict(p_min=-0.25, e_max=-1e300)),
]


def resolved(argv, cfg_path):
    argv = [a.replace("CFG", str(cfg_path)) for a in argv]
    args = _build_parser().parse_args(argv)
    return args.command, vars(_resolve_config(args))


@pytest.mark.parametrize("argv, want", PARSE_TABLE, ids=[" ".join(a) for a, _ in PARSE_TABLE])
def test_command_lines_parse_to_pinned_config(tmp_path, argv, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"e": 0.3, "p": 0.1}))
    assert resolved(argv, cfg) == (argv[0], dict(_DEFAULTS, **want))
    # the options before the command read the same
    assert resolved(argv[1:] + argv[:1], cfg) == (argv[0], dict(_DEFAULTS, **want))


FLOAT_KEYS = [key for key, default in _DEFAULTS.items() if isinstance(default, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_negative_exponent_values_parse_after_a_flag_word(key):
    # argparse alone reads "-1e-05" after a bare flag as an option; each
    # float flag takes it, and the other forms float() reads, as its value,
    # as a separate word or after "=", after the command or before it
    flag = "--" + key.replace("_", "-")
    for value in ("-1e-05", "-2.5E+3", "-7e0", "-.5e-3", "-0.5", "-3"):
        for argv in (["classify", flag, value], ["classify", f"{flag}={value}"],
                     [flag, value, "classify"], [flag, value, "--e", value, "classify"]):
            assert getattr(_build_parser().parse_args(argv), key) == float(value), argv


@pytest.mark.parametrize("argv", [
    ["classify", "--e", "1", "--p", "-0.5"],
    ["classify", "--e", "1", "--p", "-1e-05"],
    ["film", "--e", "0.125", "--xa", "1.5707963", "--xb", "4.7123890"],
    ["sweep", "--e-min=0.1", "--e-max=0.9", "--p-min=-1.5", "--p-max=1.5", "--grid-n=4"],
    ["compare", "--e", "0.125", "--p", "0.3", "--t-end", "2", "--grid-n", "11"],
])
def test_options_before_the_command_give_the_same_output(capsys, argv):
    after = run(capsys, *argv)
    assert after[0] == 0 and after[1]
    assert run(capsys, *argv[1:], argv[0]) == after
    assert run(capsys, *argv[1:3], argv[0], *argv[3:]) == after


@pytest.mark.parametrize("argv", [["--version"], ["--version", "classify"],
                                  ["classify", "--version"], ["--e", "1", "sweep", "--version"]])
def test_version_exits_0_before_or_after_the_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == __version__ + "\n"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--e", "1"], "the following arguments are required: command"),
    (["integrate", "--e", "1"], "argument command: invalid choice: 'integrate'"),
    (["sweep", "--p-m", "1"], "ambiguous option: --p-m could match --p-min, --p-max"),
    # a word after a flag that is no number is still read as an option
    (["classify", "--p", "-x"], "argument --p: expected one argument"),
])
def test_rejected_command_lines_exit_2_with_one_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: magflow ") and out.err.count("usage:") == 1
    assert out.err.count("error:") == 1 and f"\nmagflow: error: {message}" in out.err


def test_help_names_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_text) in _COMMANDS.items():
        assert f"  {name:10s}{help_text}\n" in out
    for key in ("config", *_DEFAULTS):
        assert "--" + key.replace("_", "-") in out


def test_compare_report(capsys):
    code, out, _ = run(capsys, "compare", "--e", "0.125", "--p", "0.3",
                       "--t-end", "20", "--grid-n", "201")
    assert code == 0
    rep = json.loads(out)
    assert 0.0 < rep["k2"] < 1.0
    assert rep["sup_err_sinx"] < 1e-6
    assert rep["samples"] == 201
    assert isinstance(rep["nfev"], int) and rep["nfev"] > 0
    assert set(rep) >= {"k2", "C", "D", "x_period", "sup_err_sinx", "sup_err_y"}


def test_compare_separatrix_exits_2(capsys):
    code, _, err = run(capsys, "compare", "--e", "0.5", "--p", "0")
    assert code == 2
    assert err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--e", "1", "--p", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "Winding"
    assert rep["action"] == classify(1.0, 0.0).action


def test_film_matches_quoted_value(capsys):
    code, out, _ = run(capsys, "film", "--e", "0.125",
                       "--xa", "1.5707963", "--xb", "4.7123890")
    assert code == 0
    rep = json.loads(out)
    assert rep["action"] == pytest.approx(-6.2831853, abs=1e-6)
    assert rep["is_minimizer"] is True


@pytest.mark.parametrize("e", ["1e308", repr(sys.float_info.max)])
def test_film_where_2e_overflows_is_finite(capsys, e):
    # 2E overflows above DBL_MAX/2, but sqrt(2E) and both actions are finite
    mp = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "film", "--e", e)
    assert code == 0
    rep = json.loads(out)
    with mp.workdps(40):
        E, xa, xb = (mp.mpf(float(v)) for v in (e, rep["x_a"], rep["x_b"]))
        action = 4 * mp.pi * mp.sqrt(2 * E) + 2 * mp.pi * (mp.sin(xb) - mp.sin(xa))
        best = 4 * mp.pi * (mp.sqrt(2 * E) - 1)
        for key, want in (("action", float(action)), ("minimizer_action", float(best))):
            assert math.isfinite(rep[key]) and abs(rep[key] - want) <= 4 * math.ulp(want)
    assert rep["is_minimizer"] is True


def test_orbit_above_critical_energy_exits_2(capsys):
    for e in ("0.5", "0.7"):
        code, _, err = run(capsys, "orbit", "--e", e)
        assert code == 2
        assert "contractible" in err


def test_orbit_payload(capsys):
    code, out, _ = run(capsys, "orbit", "--e", "0.125")
    assert code == 0
    rep = json.loads(out)
    assert rep["k2"] == pytest.approx(0.25, abs=1e-15)
    assert rep["delta_y"] == pytest.approx(0.0, abs=1e-10)
    assert rep["action"] > 0.0


def test_action_report_consistency(capsys):
    code, out, _ = run(capsys, "action", "--e", "0.2")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_discrepancy"] < 1e-6


def test_sweep_grid_sorted_and_typed(capsys):
    code, out, _ = run(capsys, "sweep", "--e-min", "0.1", "--e-max", "0.9",
                       "--p-min", "-1.5", "--p-max", "1.5", "--grid-n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "E\tp\tkind\tdelta_y\tperiod\taction"
    rows = [ln.split("\t") for ln in lines[1:]]
    assert len(rows) == 49
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)
    kinds = {r[2] for r in rows}
    assert "TrappedOval" in kinds and "Winding" in kinds


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"e": 1.0, "p": 0.0}))
    code, out, _ = run(capsys, "classify", "--config", str(cfg))
    assert json.loads(out)["kind"] == "Winding"
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--e", "0.125")
    assert json.loads(out)["kind"] == "TrappedOval"   # flag wins


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"energy": 1.0}))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("name, content", [
    ("missing.json", None),
    ("a_directory", "dir"),
    ("broken.json", "{"),
    ("binary.json", b"\xff\xfe"),
    ("string.json", '"e"'),
    ("list.json", "[1, 2]"),
    # values of the wrong JSON type, each under a command that reads the key
    pytest.param("e_string.json", ("classify", {"e": "abc"}), id="e_string"),
    pytest.param("grid_n_float.json", ("sweep", {"grid_n": 2.5}), id="grid_n_float"),
    pytest.param("e_null.json", ("classify", {"e": None}), id="e_null"),
    pytest.param("out_int.json", ("classify", {"out": 7}), id="out_int"),
    pytest.param("sign_bool.json", ("simulate", {"sign": True}), id="sign_bool"),
    # a value of the right type that its flag's choices refuse
    pytest.param("strip_3.json", ("classify", {"strip": 3}), id="strip_3"),
    pytest.param("sign_5.json", ("simulate", {"sign": 5}), id="sign_5"),
])
def test_bad_config_exits_2(tmp_path, capsys, name, content):
    command = "classify"
    cfg = tmp_path / name
    if content == "dir":
        cfg.mkdir()
    elif isinstance(content, bytes):
        cfg.write_bytes(content)
    elif isinstance(content, tuple):
        command, values = content
        cfg.write_text(json.dumps(values))
    elif content is not None:
        cfg.write_text(content)
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == "" and err.startswith("magflow: ")


# a short valid command line of each command
QUICK_LINES = {
    "simulate": ["--e", "0.125", "--p", "0.2", "--t-end", "1", "--grid-n", "5"],
    "compare": ["--e", "0.125", "--p", "0.3", "--t-end", "1", "--grid-n", "5"],
    "classify": ["--e", "1", "--p", "0"],
    "orbit": ["--e", "0.125"],
    "action": ["--e", "0.2"],
    "film": ["--e", "0.125"],
    "sweep": ["--grid-n", "3"],
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, command):
    code, text, _ = run(capsys, command, *QUICK_LINES[command])
    assert code == 0 and text
    # an existing longer file is replaced whole, and a new file gets the
    # mode open(path, "w") gives it under the umask
    longer, new, ref = tmp_path / "longer", tmp_path / "new", tmp_path / "ref"
    longer.write_bytes(b"x" * (3 * len(text) + 4096))
    umask = os.umask(0o027)
    try:
        for path in (longer, new):
            assert run(capsys, command, *QUICK_LINES[command], "--out", str(path)) == (0, "", "")
        open(ref, "w").close()
    finally:
        os.umask(umask)
    assert longer.read_bytes() == new.read_bytes() == text.encode()
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640


@pytest.mark.parametrize("command, target", [(command, target) for command in _COMMANDS
                                             for target in ("missing/x.json", ".")])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    # a file in a directory that does not exist, and a directory
    code, out, err = run(capsys, command, *QUICK_LINES[command], "--out", str(tmp_path / target))
    assert code == 2
    assert out == "" and err.startswith("magflow: cannot write ")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


@needs_dev_full
@pytest.mark.parametrize("command", _COMMANDS)
def test_full_device_exits_2_with_one_line(capsys, command):
    # every write to /dev/full fails with ENOSPC: on --out in process, and
    # on stdout in a fresh interpreter, whose exit flushes nothing further
    code, out, err = run(capsys, command, *QUICK_LINES[command], "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "magflow: cannot write /dev/full: [Errno 28] No space left on device\n"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "magflow.cli", command,
                               *QUICK_LINES[command]], stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "magflow: cannot write stdout: [Errno 28] No space left on device\n"


def test_stdout_closed_by_its_reader_exits_1_silently():
    # a sweep far larger than a pipe buffer into a reader that takes one
    # line and closes: no traceback, and no "Exception ignored" at exit
    proc = subprocess.Popen([sys.executable, "-m", "magflow.cli", "sweep", "--grid-n", "400"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"E\tp\tkind\tdelta_y\tperiod\taction\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("simulate", "--e", "nan", "--t-end", "1"),
    ("classify", "--e", "inf"),
    ("compare", "--p", "nan", "--t-end", "1"),
    ("simulate", "--e", "1e308", "--t-end", "1"),  # xdot = sqrt(2E) = inf
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("magflow: ")


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
def test_grid_too_large_for_memory_exits_2(capsys, command):
    # 8e11 bytes a grid: numpy refuses the allocation at once
    code, out, err = run(capsys, command, "--grid-n", "100000000000")
    assert code == 2
    assert out == "" and err.startswith("magflow: grid-n 100000000000 is too large")
    assert len(err.splitlines()) == 1


def test_invalid_tolerance_exits_2(capsys):
    code, _, _ = run(capsys, "simulate", "--e", "0.125", "--tol", "1")
    assert code == 2


def test_format_mismatch_exits_2(capsys, tmp_path):
    # every command writes one format: --format is no flag and "format" no
    # config key
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--e", "0.125", "--format", "json"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "json"}')
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == "" and "unknown config keys: ['format']" in err


def test_console_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "magflow.cli", "classify", "--e", "0.125", "--p", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["contractible"] is True
