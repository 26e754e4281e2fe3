import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import magflow

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_without_duplicates():
    assert len(magflow.__all__) == len(set(magflow.__all__))
    for name in magflow.__all__:
        assert hasattr(magflow, name), name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (a name listed in __all__ is read)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _defined_names(path: Path) -> dict[str, int]:
    """Module-level functions and classes of a file, and the methods of its classes."""
    defs = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs.update((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef))
    return defs


def _decorator_or_base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _defined_fields(path: Path) -> dict[str, int]:
    """Annotated fields of the dataclasses and NamedTuples of a file."""
    fields = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and (
            "dataclass" in map(_decorator_or_base_name, node.decorator_list)
            or "NamedTuple" in map(_decorator_or_base_name, node.bases)
        ):
            fields.update((item.target.id, item.lineno) for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name))
    return fields


def _read_attributes(path: Path) -> set[str]:
    """Attribute names a file reads (loads)."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _read_names(path: Path) -> set[str]:
    """Names a file reads: loaded names, attributes, imported names and __all__."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_unread_definitions():
    # a function, class or method of the package or of the tests' oracles
    # that no code or test reads is dead, and so is a field of a dataclass or
    # NamedTuple that none reads as an attribute; dunder methods are read by
    # the interpreter
    read, attributes = set(), set()
    for top in ("src", "tests", "bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= _read_names(path)
            attributes |= _read_attributes(path)
    package = sorted((ROOT / "src" / "magflow").rglob("*.py")) + [ROOT / "tests" / "oracles.py"]
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in package
              for name, line in _defined_names(path).items()
              if name not in read and not (name.startswith("__") and name.endswith("__"))]
    unread += [f"{path.relative_to(ROOT)}:{line} field {name}"
               for path in package
               for name, line in _defined_fields(path).items()
               if name not in attributes]
    assert unread == []


def _magflow_imports(path: Path,
                     package: str | None = None) -> list[tuple[str, str | None, str]]:
    """(module, name, local name) of each magflow import in a file; name None
    for `import module`.  A relative import counts when the file's package
    is given."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            module = None
        elif node.level and package:
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
        else:
            module = node.module or ""
        if module is not None and module.split(".")[0] == "magflow":
            found += [(module, alias.name, alias.asname or alias.name)
                      for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None, alias.asname or alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "magflow"]
    return found


def _resolve(node: ast.expr, names: dict):
    """The object a name or attribute chain over the imported names refers
    to; None where it starts from any other name."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        return None if base is None else getattr(base, node.attr)
    return None


def test_bench_imports_resolve():
    # the benchmark harness imports names from the package and passes them
    # keywords: a trimmed API must not silently break it
    unresolved, names = [], {}
    paths = sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        for module, name, local in _magflow_imports(path):
            mod = importlib.import_module(module)
            if name is None:
                names[path, local] = mod
            elif hasattr(mod, name):
                names[path, local] = getattr(mod, name)
            else:
                try:
                    names[path, local] = importlib.import_module(f"{module}.{name}")
                except ModuleNotFoundError:
                    unresolved.append(f"{path.relative_to(ROOT)}: from {module} import {name}")
    assert names
    n_keywords = 0
    for path in paths:
        local = {name: obj for (p, name), obj in names.items() if p == path}
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = _resolve(node.func, local)
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            if func is None or not keywords:
                continue
            params = inspect.signature(func).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            n_keywords += len(keywords)
            unresolved += [f"{path.relative_to(ROOT)}:{node.lineno} {kw}=" for kw in keywords
                           if kw not in params]
    assert n_keywords > 0
    assert unresolved == []


def _import_target(module: str, name: str | None):
    """The object that `from module import name` binds, or the module for
    `import module` (name None)."""
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name of magflow.__all__ that only the tests import is API kept for
    # them alone: a package module, the benchmark, a demo or a tool must
    # import it, or read it as magflow.<name>.  Names resolve to objects, as
    # in test_bench_imports_resolve, so a local variable or an attribute of
    # the same name (cycle_data's delta_y, OrbitClassification.delta_y)
    # does not count
    files = [path for path in sorted((ROOT / "src" / "magflow").glob("*.py"))
             if path.name != "__init__.py"]
    for top in ("bench", "demos", "tools"):
        files += sorted((ROOT / top).glob("*.py"))
    called = set()
    for path in files:
        package_names = set()
        for module, name, local in _magflow_imports(path, "magflow"):
            target = _import_target(module, name)
            called.add(id(target))
            if target is magflow:
                package_names.add(local)
        called |= {id(getattr(magflow, node.attr))
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in package_names}
    uncalled = [name for name in magflow.__all__ if id(getattr(magflow, name)) not in called]
    assert uncalled == []


def test_import_leaves_scipy_integrate_unloaded():
    # the package never imports scipy.integrate: only the tests (solve_ivp,
    # quad) and magflow.quadrature, which one test and the bench trace use
    code = "import sys, magflow; print('scipy.integrate' in sys.modules)"
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.strip() == "False"


CLI_INTEGRATE_PROBE = """
import sys
from magflow import cli
out = sys.argv[1]
assert cli.main(["compare", "--t-end=5", "--grid-n=11", "--out=" + out]) == 0
assert cli.main(["simulate", "--t-end=5", "--grid-n=11", "--out=" + out]) == 0
print('scipy.integrate' in sys.modules)
"""


def test_compare_and_simulate_leave_scipy_integrate_unloaded(tmp_path):
    # the RK oracle carries its own tableau; only the tests run solve_ivp
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", CLI_INTEGRATE_PROBE, str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.strip() == "False"


def _package_lines_naming(module: str) -> list[str]:
    """file:line of each line of src/magflow that names the module."""
    return [f"{path.relative_to(ROOT)}:{i}"
            for path in sorted((ROOT / "src" / "magflow").rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if module in line]


def test_package_never_imports_scipy_optimize():
    # root finding is the tests' oracle (tests/oracles.py), not the package's
    assert _package_lines_naming("scipy.optimize") == []


def test_package_never_imports_scipy_special():
    # R_F and R_D are Carlson's on Python floats (elliptic._rf, _rd), and
    # y(t)'s third-kind term reads theta functions from the Landen descent
    assert _package_lines_naming("scipy.special") == []


QUICK_START_PROBE = """
import sys
import numpy as np
from magflow import integrate, state_from_integrals
traj = integrate(state_from_integrals(0.1, 0.0, 0.125, 0.3, +1), 50.0, tol=1e-11)
traj.eval(np.linspace(0.0, 50.0, 1000))
print('scipy.optimize' in sys.modules)
"""


def test_default_integrate_leaves_scipy_optimize_unloaded():
    # the README's quick-start run passes turning points and returns and
    # only steps
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", QUICK_START_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    assert res.stdout.strip() == "False"


SCIPY_SPECIAL_PROBE = """
import sys
import magflow
from magflow import cli
magflow.classify(0.125, 0.3)
magflow.cycle_data([0.125, 0.7, 0.5], [0.3, 0.0, 1.5])
assert cli.main(["sweep", "--grid-n=5", "--out=" + sys.argv[1]]) == 0
print('scipy.special' in sys.modules)
sol = magflow.build_solution(0.1, 0.0, 0.125, 0.3, 1)
magflow.eval_solution(sol, 3.0)
print('scipy.special' in sys.modules)
"""


def test_cycle_data_and_sweep_leave_scipy_special_unloaded(tmp_path):
    # the complete integrals come from the AGM ladder of K, and a build and
    # an evaluation at p != 0 take F's R_F on floats and y(t)'s third-kind
    # term from the Landen descent
    out = tmp_path / "sweep.tsv"
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", SCIPY_SPECIAL_PROBE, str(out)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.split() == ["False", "False"]
    assert len(out.read_text().splitlines()) == 1 + 5 * 5


CLI_SPECIAL_PROBE = """
import contextlib, io, os, sys
import numpy as np
import magflow
from magflow import cli
out = sys.argv[1]
for argv in (["simulate", "--t-end=5", "--grid-n=11"],
             ["compare", "--p=0.3", "--t-end=5", "--grid-n=11"],
             ["classify", "--p=0.3"], ["orbit"], ["action"], ["film"],
             ["sweep", "--grid-n=4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out=" + os.path.join(out, argv[0])]) == 0, argv
    print(argv[0], 'scipy.special' in sys.modules)
sol = magflow.build_solution(-2.0, 0.0, 0.3, -0.5, -1)
magflow.eval_solution(sol, np.linspace(0.0, 20.0, 101))
magflow.eval_solution(sol, 7.0)
print('build_eval', 'scipy.special' in sys.modules)
orbit = magflow.contractible_orbit(0.3, 1, 0.2)
magflow.action_direct(orbit)
magflow.action_increment(orbit)
magflow.action_contractible_formula(0.3)
print('actions', 'scipy.special' in sys.modules)
"""


def test_cli_orbits_and_actions_leave_scipy_special_unloaded(tmp_path):
    # every CLI subcommand, compare at p != 0, a crossing orbit built and
    # evaluated as a batch and at a scalar t, and all three actions
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", CLI_SPECIAL_PROBE, str(tmp_path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    steps = dict(line.split() for line in res.stdout.splitlines())
    assert list(steps) == ["simulate", "compare", "classify", "orbit", "action", "film",
                           "sweep", "build_eval", "actions"]
    assert set(steps.values()) == {"False"}, steps
