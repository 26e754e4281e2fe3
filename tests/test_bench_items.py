"""The benchmark's own item path on a few items of each workload.

bench/workloads.py is imported as bench/worker.py imports it, from the
bench directory, and the items go through its run_item, output and check
functions, so that a change that breaks a benchmark item fails here and
not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
N_ITEMS = 8
# the panel's max_err of each workload when this test was written, rounded
# up in the 4th digit: a change may lower it, not raise it
PANEL_MAX_ERR = {"sweep": 6.669e-11, "orbits": 1.909e-12, "compare": 9.961e-8}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module executes
    sys.modules["workloads"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["workloads"]


@pytest.mark.parametrize("name", ["sweep", "orbits", "compare"])
def test_first_items_run_and_pass_the_benchmark_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    scratch = str(tmp_path / f"{name}.out")
    keep = workloads.check_selector(name)
    kept, reasons = [], []
    for i, item in enumerate(wl.make(SEED, wl.n_inputs)[:N_ITEMS]):
        _wall, _cpu, reason, result = workloads.run_item(wl, item, scratch)
        reasons.append(reason)
        if reason is None and keep(i):
            kept.append((i, item, wl.output(result, scratch)))
    assert reasons == [None] * N_ITEMS
    summary = workloads.summarize_checks(workloads.run_checks(name, SEED, kept),
                                         workloads.panel_checks(name, scratch))
    assert summary["correct"], summary["failed_checks"]
    assert summary["failed_items"] == {}
    assert summary["max_err"] <= PANEL_MAX_ERR[name]
