"""magflow benchmark: one run of one workload.

    python3 bench/run.py --workload {sweep,orbits,compare} --seed N \
        --seconds T --trace {0,1}

Run from the root of a checkout; magflow is imported from its ``src``.
With ``--trace 0`` the run measures the end-to-end metrics: set-up is timed
in fresh interpreters (``SETUP_REPS`` set-up-only workers plus the measured
worker), then one worker runs the workload in a closed loop for T seconds
and checks its outputs.  With ``--trace 1`` one worker runs the traced
replay of ``tracing.py`` and the per-layer metrics are printed, together
with the import breakdown read from ``python -X importtime``.

Every metric is printed as ``name = value unit``; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
run record, with every item's time, goes to ``bench/out/``.  Without
``src/magflow`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "orbits", "compare")
#: set-up-only workers per run; with the measured worker, setup_s is the
#: median of SETUP_REPS + 1 fresh interpreters
SETUP_REPS = 4
#: a worker that outlives its run time by this much is killed
WORKER_GRACE_S = 120.0
IMPORTTIME_REPS = 3

# Item times are process CPU times (all threads of the worker), scaled by
# the speed of the host at the time.  After each item the worker runs a
# fixed reference kernel for a tenth of the item's CPU time (worker.py);
# each item's time is multiplied by the kernel's rate over the second of
# items around it, over REF_RATE, which gives the item time on a host where
# the kernel runs REF_RATE times a second.  On the shared 2-vCPU host the
# benchmark was built on, the host's speed moved by 10-16 % (coefficient of variation)
# from one 5 s stretch to the next, in CPU time as on the wall clock; the
# scaled times moved by 3 %.  The raw CPU and wall-clock figures are printed
# and recorded too (UNBOUNDED), without a bound.  setup_s stays on the wall
# clock: the CPU time of a fresh interpreter also counts OpenBLAS threads
# spinning while numpy and scipy load (0.3 s of 1.1 s), which users do not
# wait for.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ref", "items/s"),
    ("latency_p50_ref_ms", "ms"),
    ("latency_p90_ref_ms", "ms"),
    ("ok_frac", "1"),
    ("max_err", "1"),
    ("peak_rss_mb", "MiB"),
)
UNBOUNDED = (
    ("throughput_cpu", "items/s"),
    ("latency_p50_cpu_ms", "ms"),
    ("latency_p90_cpu_ms", "ms"),
    ("throughput_wall", "items/s"),
    ("latency_p50_wall_ms", "ms"),
    ("latency_p90_wall_ms", "ms"),
    ("ref_rate", "1/s"),
)
#: reference-kernel calls per CPU second of the nominal host
REF_RATE = 4000.0
#: an item's time is scaled by the reference rate over about this much
#: item CPU time before and after it
SCALE_HALF_WINDOW_S = 0.5
# columns of a per-item record
# [wall s, CPU s, reason, stratum, round, reference calls, reference CPU s]
_WALL, _CPU, _REASON, _STRATUM, _ROUND, _REF_CALLS, _REF_CPU = range(7)


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # the sweep runs its default thread pool (os.cpu_count() threads)
    env.pop("MAGFLOW_THREADS", None)
    return env


def start_worker(role: str, args, scratch: Path):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--scratch", str(scratch)]
    err = open(scratch / f"{role}.stderr", "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                            cwd=ROOT, env=_worker_env())
    err.close()
    line = proc.stdout.readline().split()
    wall_s = time.perf_counter() - t0
    if len(line) != 2 or line[0] != "ready":
        finish_worker(proc, scratch, role, 30.0)
        raise WorkerError(f"{role} worker did not get ready")
    return proc, (float(line[1]), wall_s)


def finish_worker(proc, scratch: Path, role: str, timeout: float) -> str:
    """Wait for the worker, return its remaining stdout; raise on failure."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{role} worker timed out") from None
    if proc.returncode != 0:
        tail = (scratch / f"{role}.stderr").read_text()[-2000:]
        raise WorkerError(f"{role} worker exited {proc.returncode}\n{tail}")
    return out


def import_breakdown() -> dict:
    """Median cumulative import times (ms) of magflow and scipy.integrate."""
    env = _worker_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = collections.defaultdict(list)
    for _ in range(IMPORTTIME_REPS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import magflow"],
                             capture_output=True, text=True, cwd=ROOT, env=env,
                             timeout=60, check=True)
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("magflow", "scipy.integrate"):
                samples[parts[2].strip()].append(int(parts[1]) / 1000.0)
    # a package that no longer imports scipy.integrate at start-up pays 0
    return {
        "magflow.import_ms": statistics.median(samples["magflow"]),
        "magflow.import_scipy_integrate_ms": statistics.median(samples["scipy.integrate"] or [0.0]),
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
    }


def rounds(rec: dict) -> list[list[int]]:
    """Indices of the items of each round of the run (see worker.closed_loop)."""
    out = collections.defaultdict(list)
    for j, item in enumerate(rec["items"]):
        out[item[_ROUND]].append(j)
    return list(out.values())


def ref_rate(items: list[list]) -> float:
    """Reference-kernel calls per CPU second over `items`."""
    return sum(it[_REF_CALLS] for it in items) / sum(it[_REF_CPU] for it in items)


def scaled_cpu(items: list[list]) -> list[float]:
    """Each item's CPU time times the reference rate over the items around
    it, about SCALE_HALF_WINDOW_S of item CPU time each side, over REF_RATE."""
    k = max(1, math.ceil(SCALE_HALF_WINDOW_S * len(items) / sum(it[_CPU] for it in items)))
    calls = list(itertools.accumulate((it[_REF_CALLS] for it in items), initial=0))
    cpu = list(itertools.accumulate((it[_REF_CPU] for it in items), initial=0.0))
    out = []
    for j, it in enumerate(items):
        lo, hi = max(0, j - k), min(len(items), j + k + 1)
        out.append(it[_CPU] * (calls[hi] - calls[lo]) / (cpu[hi] - cpu[lo]) / REF_RATE)
    return out


def round_times(rec: dict, clock: str) -> list[list[float]]:
    """Item times (s) of each round on one clock: "wall", "cpu", or "ref",
    the CPU times scaled to the reference speed (scaled_cpu)."""
    if clock == "ref":
        times = scaled_cpu(rec["items"])
    else:
        times = [it[_WALL if clock == "wall" else _CPU] for it in rec["items"]]
    return [[times[j] for j in r] for r in rounds(rec)]


def _timing(rec: dict, clock: str) -> tuple[float, float, float]:
    """(throughput, p50 ms, p90 ms) on one clock.

    Throughput (cells/s for sweep) is the median of the round rates, p50
    the mean of the round medians, p90 taken over all items.
    """
    by_round = round_times(rec, clock)
    rates = [rec["cells_per_item"] * len(r) / sum(r) for r in by_round if sum(r) > 0.0]
    times = [t for r in by_round for t in r]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return (statistics.median(rates),
            statistics.fmean(statistics.median(r) for r in by_round) * 1e3, p90 * 1e3)


def stratum_shares(rec: dict) -> dict:
    """Items and share of the timed CPU time in each stratum of the mix."""
    cpu, n = collections.Counter(), collections.Counter()
    for item in rec["items"]:
        cpu[item[_STRATUM]] += item[_CPU]
        n[item[_STRATUM]] += 1
    total = sum(cpu.values()) or 1.0
    return {s: {"items": n[s], "cpu_share": cpu[s] / total} for s in sorted(n)}


def end_to_end_metrics(rec: dict, setup_samples: list[float]) -> tuple[dict, dict, dict]:
    """Bounded metrics, unbounded figures and the failure taxonomy of a run.

    An operation is one distinct input: a run cycles through its inputs
    (orbits and compare many times), so an input counts once however often
    it ran, and it fails when any of its runs raised or it failed a check.
    On orbits and compare the counts then depend only on the inputs, not
    on how fast the run went.
    """
    reason_of: dict[int, str] = {}
    for pos, item in enumerate(rec["items"]):
        if item[_REASON] is not None:
            reason_of.setdefault(pos % rec["n_inputs"], item[_REASON])
    # an item that raised never reaches the checks, so the two sets are disjoint
    for k, what in rec["checks"]["failed_items"].items():
        reason_of.setdefault(int(k), "check." + what)
    n = min(len(rec["items"]), rec["n_inputs"])
    failed = len(reason_of)
    reasons = collections.Counter(reason_of.values())
    thr, p50, p90 = _timing(rec, "ref")
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ref": thr,
        "latency_p50_ref_ms": p50,
        "latency_p90_ref_ms": p90,
        "ok_frac": (n - failed) / n,
        "max_err": rec["checks"]["max_err"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    unbounded = dict(zip([name for name, _ in UNBOUNDED],
                         _timing(rec, "cpu") + _timing(rec, "wall") + (ref_rate(rec["items"]),)))
    taxonomy = {"attempted": n, "failed": failed, "failed_frac": failed / n,
                "items_run": len(rec["items"]),
                "by_reason": {k: v for k, v in sorted(reasons.items()) if v}}
    return values, unbounded, taxonomy


def run_untraced(args, scratch: Path) -> dict:
    setup = []  # (CPU s, wall s) of each fresh interpreter up to "ready"
    for _ in range(SETUP_REPS):
        proc, ready = start_worker("setup", args, scratch)
        finish_worker(proc, scratch, "setup", 60.0)
        setup.append(ready)
    proc, ready = start_worker("run", args, scratch)
    setup.append(ready)
    rec = json.loads(finish_worker(proc, scratch, "run", args.seconds + WORKER_GRACE_S))
    values, unbounded, taxonomy = end_to_end_metrics(rec, [w for _, w in setup])
    units = dict(END_TO_END + UNBOUNDED)
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "unbounded": {k: {"value": v, "unit": units[k]} for k, v in unbounded.items()},
        "attempted": taxonomy["attempted"],
        "failed": taxonomy["failed"],
        "correct": rec["checks"]["correct"],
        "failures": taxonomy,
        "stratum_shares": stratum_shares(rec),
        "setup_samples_cpu_wall_s": setup,
        "round_ref_rates": [ref_rate([rec["items"][j] for j in r]) for r in rounds(rec)],
        "n_inputs": rec["n_inputs"],
        "checks": rec["checks"],
        "elapsed_s": rec["elapsed_s"],
        "items": rec["items"],
    }


def run_traced(args, scratch: Path) -> dict:
    proc, _ = start_worker("trace", args, scratch)
    rec = json.loads(finish_worker(proc, scratch, "trace", 2 * args.seconds + WORKER_GRACE_S))
    metrics = dict(rec.pop("metrics"))
    for name, value in import_breakdown().items():
        metrics[name] = {"value": value, "unit": "ms"}
    return {"metrics": metrics, **rec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "magflow" / "__init__.py").is_file():
        print(f"bench: no magflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = run_traced(args, scratch) if args.trace else run_untraced(args, scratch)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, m in {**result["metrics"], **result.get("unbounded", {})}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        tax = result["failures"]
        print(f"failed_frac = {tax['failed_frac']:.6g} 1 "
              f"({tax['failed']}/{tax['attempted']} inputs, {tax['items_run']} items run; "
              f"by reason: {tax['by_reason']})")
        print("CPU time share by stratum: " + ", ".join(
            f"{s} {v['cpu_share']:.1%} ({v['items']} items)"
            for s, v in result["stratum_shares"].items()))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
