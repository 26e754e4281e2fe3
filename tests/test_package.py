import ast
import importlib
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
    # a function, class or method of the package that no code or test reads
    # is dead, and so is a field of a dataclass or NamedTuple that none reads
    # as an attribute; dunder methods are read by the interpreter
    read, attributes = set(), set()
    for top in ("src", "tests", "bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= _read_names(path)
            attributes |= _read_attributes(path)
    package = sorted((ROOT / "src" / "magflow").rglob("*.py"))
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in package
              for name, line in _defined_names(path).items()
              if name not in read and not (name.startswith("__") and name.endswith("__"))]
    unread += [f"{path.relative_to(ROOT)}:{line} field {name}"
               for path in package
               for name, line in _defined_fields(path).items()
               if name not in attributes]
    assert unread == []


def _magflow_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of each magflow import in a file; name None for `import module`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magflow":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "magflow"]
    return found


def test_bench_imports_resolve():
    # the benchmark harness imports names from the package: a trimmed API
    # must not silently break it
    unresolved = []
    imports = [(path, module, name) for path in sorted((ROOT / "bench").glob("*.py"))
               for module, name in _magflow_imports(path)]
    assert imports
    for path, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                unresolved.append(f"{path.relative_to(ROOT)}: from {module} import {name}")
    assert unresolved == []


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
    # the complete integrals come from the AGM ladder of K; F, the R_J of y(t)
    # and the contractible-orbit formula import scipy.special on first use
    out = tmp_path / "sweep.tsv"
    src = str(ROOT / "src")
    res = subprocess.run([sys.executable, "-c", SCIPY_SPECIAL_PROBE, str(out)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.split() == ["False", "True"]
    assert len(out.read_text().splitlines()) == 1 + 5 * 5
