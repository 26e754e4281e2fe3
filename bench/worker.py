"""One benchmark worker: a fresh interpreter that imports magflow from ``src``.

    python3 bench/worker.py --role {setup,run,trace} --workload NAME \
        --seed N --seconds T --scratch DIR

Every role first imports magflow, makes the workload's inputs from the
seed and runs one warm-up item, the same for every seed (the workload's
first panel entry), then prints ``ready <CPU seconds so far>``
(the parent also times set-up up to that line on the wall clock).

* ``setup`` exits after ``ready``.
* ``run`` then runs items in a closed loop for T seconds with tracing off,
  reads its peak RSS, runs the output checks and prints one JSON record.
* ``trace`` runs the traced protocol of ``tracing.py`` and prints its record.

Exit code 2 means magflow could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _import_magflow() -> None:
    sys.path.insert(0, str(SRC_DIR))
    try:
        import magflow
    except ImportError as exc:
        print(f"worker: cannot import magflow from {SRC_DIR}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(magflow.__file__).resolve().parent.parent != SRC_DIR:
        print(f"worker: magflow came from {magflow.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        sys.exit(2)


#: reference CPU time run after the items, as a share of their CPU time
REF_SHARE = 0.1
_REF_X = np.linspace(0.1, 1.0, 8)


def reference_kernel() -> float:
    """A fixed mix of small numpy operations and float arithmetic, about
    0.25 ms, that never touches magflow.

    Its rate, measured between the items, tracks the speed the host gives
    this process at that moment; run.py scales item times by it.
    """
    s, v = 0.0, _REF_X
    for _ in range(60):
        v = np.sin(v) * 0.5 + _REF_X * 0.25
        s += math.sqrt(abs(float(v[3]))) + math.exp(-s * 1e-3)
    return s


def closed_loop(wl, items, seconds: float, scratch: str, keep):
    """Items one after another, cycling through `items`, for `seconds`.

    The run ends at the first end of a round (``wl.round_items`` items)
    after `seconds`, so every run makes at least one round and each round
    does the same amount of work.  After each item the reference kernel
    runs until its CPU time catches up with REF_SHARE of the items' (not
    counted in the item's time).
    Returns (per-item [wall s, CPU s, reason, stratum, round, reference
    calls, reference CPU s] list, wall time, kept outputs); an output is
    kept, untimed, from the first time through `items` for items that
    succeeded and `keep(i)` selects.
    """
    from workloads import run_item

    times, kept = [], []
    t_start = time.perf_counter()
    i = 0
    ref_debt = 0.0
    while True:
        k = i % len(items)
        item = items[k]
        wall, cpu, reason, result = run_item(wl, item, scratch)
        if reason is None and i == k and keep(k):
            kept.append((k, item, wl.output(result, scratch)))
        ref_debt += REF_SHARE * cpu
        calls, ref_cpu = 0, 0.0
        while ref_debt > 0.0:
            c0 = time.process_time()
            reference_kernel()
            dt = time.process_time() - c0
            calls, ref_cpu, ref_debt = calls + 1, ref_cpu + dt, ref_debt - dt
        times.append([wall, cpu, reason, item.stratum, i // wl.round_items, calls, ref_cpu])
        i += 1
        if time.perf_counter() - t_start >= seconds and i % wl.round_items == 0:
            break
    return times, time.perf_counter() - t_start, kept


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args(argv)

    _import_magflow()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    items = wl.make(args.seed, wl.n_inputs)
    scratch = str(Path(args.scratch) / f"{args.workload}.out")
    workloads.run_item(wl, workloads.panel_items(args.workload)[0], scratch)  # warm-up
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {usage.ru_utime + usage.ru_stime!r}", flush=True)
    if args.role == "setup":
        return 0

    if args.role == "trace":
        import tracing

        record = tracing.trace_protocol(args.workload, args.seed, args.seconds, scratch)
        print(json.dumps(record), flush=True)
        return 0

    keep = workloads.check_selector(args.workload)
    times, elapsed, kept = closed_loop(wl, items, args.seconds, scratch, keep)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seeded = workloads.run_checks(args.workload, args.seed, kept)
    panel = workloads.panel_checks(args.workload, scratch)
    record = {
        "items": times,
        "elapsed_s": elapsed,
        "cells_per_item": wl.cells_per_item,
        "n_inputs": len(items),
        "peak_rss_mb": rss_mb,
        "checks": workloads.summarize_checks(seeded, panel),
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
