"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 bench/smoke.py

Checks that each run exits 0, that its last stdout line is the result
object, and that every metric BENCHMARK.json names (end-to-end with
--trace 0, per-layer with --trace 1) is present with a finite value and
its declared unit.  Also checks that a directory holding only
BENCHMARK.json and bench/ makes the benchmark fail without a result.
Not part of the tier-1 test suite: it takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        problems.append(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        problems.append(f"{where}: metrics differ: {sorted(set(result['metrics']) ^ names)}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} = {got['value']}")
        if got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
    return problems


def check_bare_directory() -> list[str]:
    """Without src/magflow the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "orbits", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    problems = check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
