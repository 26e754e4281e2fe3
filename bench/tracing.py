"""Traced replay: spans around each layer call give the per-layer metrics.

The traced run replays a workload's generated inputs by calling the public
functions of each layer that the workload's path calls, in the same order,
each inside a span (name, start, end, parent span, item id).  Spans stay in
memory and go into the run record once, at the end.  A span's self time is
its duration minus the part its child spans cover.  Nothing inside magflow
is patched: the spans sit in the benchmark, around the calls into magflow.

For each workload the protocol takes its first N items and runs each one
untraced, through the same path as the timed run, then replays it traced.
N depends only on --seconds, so counts repeat exactly for a seed.  Every
traced run reports every per-layer metric: the named workload is replayed
at full size and the other two at a small size, and each metric is taken
from the workload that owns it (PER_LAYER).
"""

from __future__ import annotations

import collections
import math
import random
import statistics
import time

import numpy as np

# layer functions come from their modules, which outlive re-exports
from magflow.closedform import build_solution, eval_solution
from magflow.dynamics import state_from_integrals
from magflow.elliptic import complete_K, incomplete_F, sn
from magflow.errors import MagflowError
from magflow.integrate import conservation_report, integrate
from magflow.legendre import map_z_to_xi, quartic_from_params, reduce_to_legendre
from magflow.orbits import (
    action_contractible_formula,
    action_direct,
    action_increment,
    classify,
    cycle_action,
    vertical_line_action,
)
from magflow.quadrature import oval_quad

import workloads as W

# (name, unit, better, owning workload): the owner's replay measures it;
# the two without an owner are measured once per traced run
PER_LAYER = (
    ("orbits.classify_us", "us", "lower", "sweep"),
    ("orbits.cycle_action_us", "us", "lower", "sweep"),
    ("quadrature.oval_quad_us", "us", "lower", "sweep"),
    ("cli.sweep_self_frac", "1", "lower", "sweep"),
    ("orbits.kind_count.TrappedOval", "count", "higher", "sweep"),
    ("orbits.kind_count.CrossingLibrator", "count", "higher", "sweep"),
    ("orbits.kind_count.Winding", "count", "higher", "sweep"),
    ("orbits.kind_count.Forbidden", "count", "higher", "sweep"),
    ("legendre.quartic_us", "us", "lower", "orbits"),
    ("legendre.reduce_us", "us", "lower", "orbits"),
    ("legendre.reduce_fail_frac", "1", "lower", "orbits"),
    ("elliptic.sn_ns_per_elem", "ns", "lower", "orbits"),
    ("elliptic.sn_scalar_us", "us", "lower", "orbits"),
    ("elliptic.F_us", "us", "lower", "orbits"),
    ("elliptic.K_us", "us", "lower", "orbits"),
    ("elliptic.sn_max_err", "1", "lower", None),
    ("closedform.build_ms", "ms", "lower", "orbits"),
    ("closedform.eval_ns_per_sample", "ns", "lower", "orbits"),
    ("closedform.eval_small_call_us", "us", "lower", "orbits"),
    ("orbits.action_direct_ms", "ms", "lower", "orbits"),
    ("orbits.action_increment_ms", "ms", "lower", "orbits"),
    ("orbits.action_formula_ms", "ms", "lower", "orbits"),
    ("integrate.ms_per_time_unit", "ms", "lower", "compare"),
    ("integrate.us_per_step", "us", "lower", "compare"),
    ("integrate.steps_per_time_unit", "count", "lower", "compare"),
    ("integrate.dense_ns_per_sample", "ns", "lower", "compare"),
    ("cli.compare_self_ms", "ms", "lower", "compare"),
    ("integrate.drift_E", "1", "lower", "compare"),
    ("integrate.drift_p", "1", "lower", "compare"),
    ("trace.overhead_frac", "1", "lower", None),
)
# magflow.import_ms and magflow.import_scipy_integrate_ms come from run.py

# items replayed per second of --seconds for the named workload, and the
# fixed count replayed for the other two (whole cycles of strata for the levels)
_MAIN_ITEMS_PER_S = {"sweep": 1.5, "orbits": 40.0, "compare": 2.0}
_SIDE_ITEMS = {"sweep": 8, "orbits": 8 * len(W.LEVEL_STRATA), "compare": len(W.LEVEL_STRATA)}


class Tracer:
    """In-memory spans: [id, parent id or None, name, item, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, item: int) -> "_Span":
        return _Span(self, name, item)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, item: int):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.rec = [len(tracer.spans), parent, name, item, 0.0, 0.0]

    def __enter__(self):
        tr = self.tracer
        tr.spans.append(self.rec)
        tr._open.append(self.rec[0])
        self.rec[4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[5] = time.perf_counter()
        self.tracer._open.pop()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for sid, parent, _n, _i, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[5] - s[4] - child[s[0]] for s in spans]


def _durations(spans, name: str) -> list[float]:
    return [s[5] - s[4] for s in spans if s[2] == name]


def _median(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else math.nan


def _covered_by_item(spans, names: tuple[str, ...]) -> dict[int, float]:
    out: dict[int, float] = collections.defaultdict(float)
    for s in spans:
        if s[2] in names:
            out[s[3]] += s[5] - s[4]
    return out


# ---------------------------------------------------------------------------
# replays: the layer calls of each workload's path, item by item


def _ones(z):
    return np.ones_like(z)


def replay_sweep(tr: Tracer, idx: int, w, counts: collections.Counter) -> None:
    """Each cell: classify, then cycle_action or vertical_line_action.

    quartic_from_params and one oval_quad (the period integral classify
    computes) are replayed after them for the per-call leaf times.
    """
    for E, p in w.cells():
        try:
            with tr.span("orbits.classify", idx):
                c = classify(E, p)
        except MagflowError:
            counts["kind.error"] += 1
            continue
        counts["kind." + c.kind.value] += 1
        if c.kind.value in ("TrappedOval", "CrossingLibrator", "Winding"):
            try:
                with tr.span("orbits.cycle_action", idx):
                    cycle_action(E, p)
            except MagflowError:
                pass
            with tr.span("legendre.quartic", idx):
                curve = quartic_from_params(E, p)
            with tr.span("quadrature.oval_quad", idx):
                oval_quad(_ones, curve.a1, curve.a2, curve.a3, curve.a4)
        elif c.kind.value == "VerticalLine":
            try:
                with tr.span("orbits.vertical_line_action", idx):
                    vertical_line_action(E, p)
            except MagflowError:
                pass


def replay_orbits(tr: Tracer, idx: int, lv, counts: collections.Counter) -> None:
    """quartic, reduction, K, F, sn; build; eval (dense and 2-point); actions."""
    with tr.span("legendre.quartic", idx):
        curve = quartic_from_params(lv.E, lv.p)
    counts["reduce_attempts"] += 1
    try:
        with tr.span("legendre.reduce", idx):
            red = reduce_to_legendre(curve)
    except MagflowError:
        counts["reduce_fails"] += 1
        red = None
    if red is not None:
        with tr.span("elliptic.K", idx):
            complete_K(red.k)
        xi0 = map_z_to_xi(red, min(max(math.sin(lv.x0), curve.a1), curve.a2))
        with tr.span("elliptic.F", idx):
            F0 = incomplete_F(math.asin(xi0), red.k)
        with tr.span("elliptic.sn_scalar", idx):
            sn(F0, red.k)
    try:
        with tr.span("closedform.build", idx):
            sol = build_solution(lv.x0, 0.0, lv.E, lv.p, lv.sign)
    except MagflowError:
        return
    ts = lv.times()
    with tr.span("closedform.eval", idx):
        eval_solution(sol, ts)
    counts["eval_samples"] += len(ts)
    u = (ts + sol.D) / sol.C
    with tr.span("elliptic.sn_array", idx):
        sn(u, sol.k)
    counts["sn_elems"] += len(u)
    with tr.span("closedform.eval_small", idx):
        eval_solution(sol, np.array([0.0, sol.recurrence_time]))
    if lv.contractible:
        with tr.span("orbits.action_direct", idx):
            action_direct(sol)
        with tr.span("orbits.action_increment", idx):
            action_increment(sol)
        with tr.span("orbits.action_formula", idx):
            action_contractible_formula(lv.E)


_COMPARE_GRID = np.linspace(0.0, W.COMPARE_T_END, W.COMPARE_GRID_N)


def replay_compare(tr: Tracer, idx: int, lv, counts: collections.Counter) -> None:
    """state, build, integrate (no grid), dense output, closed-form eval."""
    with tr.span("dynamics.state_from_integrals", idx):
        state = state_from_integrals(lv.x0, 0.0, lv.E, lv.p, lv.sign)
    try:
        with tr.span("closedform.build", idx):
            sol = build_solution(lv.x0, 0.0, lv.E, lv.p, lv.sign)
    except MagflowError:
        return
    with tr.span("integrate.integrate", idx):
        traj = integrate(state, W.COMPARE_T_END, W.COMPARE_TOL, with_events=False)
    with tr.span("integrate.dense", idx):
        traj.eval(_COMPARE_GRID)
    with tr.span("closedform.eval", idx):
        eval_solution(sol, _COMPARE_GRID)
    counts[f"steps.{idx}"] = len(traj.t) - 1
    dE, dp = conservation_report(traj)
    counts["drift_E"] = max(counts["drift_E"], dE)
    counts["drift_p"] = max(counts["drift_p"], dp)


_REPLAYS = {"sweep": replay_sweep, "orbits": replay_orbits, "compare": replay_compare}


# ---------------------------------------------------------------------------
# per-layer metrics of one workload


def _sweep_metrics(spans, untraced: dict[int, float], counts: dict) -> dict:
    covered = _covered_by_item(spans, ("orbits.classify", "orbits.cycle_action",
                                       "orbits.vertical_line_action"))
    return {
        "orbits.classify_us": _median(_durations(spans, "orbits.classify"), 1e6),
        "orbits.cycle_action_us": _median(_durations(spans, "orbits.cycle_action"), 1e6),
        "quadrature.oval_quad_us": _median(_durations(spans, "quadrature.oval_quad"), 1e6),
        "cli.sweep_self_frac": statistics.median(
            1.0 - covered[i] / t for i, t in untraced.items()),
        **{f"orbits.kind_count.{k}": counts["kind." + k]
           for k in ("TrappedOval", "CrossingLibrator", "Winding", "Forbidden")},
    }


def _orbits_metrics(spans, _untraced, counts: dict) -> dict:
    return {
        "legendre.quartic_us": _median(_durations(spans, "legendre.quartic"), 1e6),
        "legendre.reduce_us": _median(_durations(spans, "legendre.reduce"), 1e6),
        "legendre.reduce_fail_frac": counts["reduce_fails"] / counts["reduce_attempts"],
        "elliptic.sn_ns_per_elem":
            sum(_durations(spans, "elliptic.sn_array")) / counts["sn_elems"] * 1e9,
        "elliptic.sn_scalar_us": _median(_durations(spans, "elliptic.sn_scalar"), 1e6),
        "elliptic.F_us": _median(_durations(spans, "elliptic.F"), 1e6),
        "elliptic.K_us": _median(_durations(spans, "elliptic.K"), 1e6),
        "closedform.build_ms": _median(_durations(spans, "closedform.build"), 1e3),
        "closedform.eval_ns_per_sample":
            sum(_durations(spans, "closedform.eval")) / counts["eval_samples"] * 1e9,
        "closedform.eval_small_call_us":
            _median(_durations(spans, "closedform.eval_small"), 1e6),
        "orbits.action_direct_ms": _median(_durations(spans, "orbits.action_direct"), 1e3),
        "orbits.action_increment_ms":
            _median(_durations(spans, "orbits.action_increment"), 1e3),
        "orbits.action_formula_ms": _median(_durations(spans, "orbits.action_formula"), 1e3),
    }


def _compare_metrics(spans, untraced: dict[int, float], counts: dict) -> dict:
    T = W.COMPARE_T_END
    steps = {int(k[6:]): v for k, v in counts.items() if k.startswith("steps.")}
    integ = {s[3]: s[5] - s[4] for s in spans if s[2] == "integrate.integrate"}
    covered = _covered_by_item(spans, ("dynamics.state_from_integrals", "closedform.build",
                                       "integrate.integrate", "integrate.dense",
                                       "closedform.eval"))
    return {
        "integrate.ms_per_time_unit": _median([d / T for d in integ.values()], 1e3),
        "integrate.us_per_step": _median([integ[i] / steps[i] for i in integ], 1e6),
        "integrate.steps_per_time_unit": statistics.median(steps.values()) / T,
        "integrate.dense_ns_per_sample":
            _median(_durations(spans, "integrate.dense"), 1e9 / W.COMPARE_GRID_N),
        # CLI work outside the replayed calls: argparse, config, JSON, write
        "cli.compare_self_ms": _median([untraced[i] - covered[i] for i in steps], 1e3),
        "integrate.drift_E": counts["drift_E"],
        "integrate.drift_p": counts["drift_p"],
    }


_METRICS = {"sweep": _sweep_metrics, "orbits": _orbits_metrics, "compare": _compare_metrics}


# ---------------------------------------------------------------------------
# accuracy of sn against mpmath, and the cost of a span


def sn_max_err(seed: int, n: int = 64) -> float:
    """max |sn - mpmath.ellipfun| over seeded (u, k), half of them with k^2 -> 1."""
    import mpmath as mp

    rng = random.Random(f"sn-accuracy:{seed}")
    worst = 0.0
    with mp.workdps(30):
        for i in range(n):
            k2 = rng.uniform(0.0, 0.99) if i % 2 else 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
            k = math.sqrt(k2)
            K = float(mp.ellipk(mp.mpf(k) ** 2))
            u = rng.uniform(-3.0 * K, 3.0 * K)
            ref = mp.ellipfun("sn", mp.mpf(u), m=mp.mpf(k) ** 2)
            worst = max(worst, abs(sn(u, k) - float(ref)))
    return worst


def span_cost_s(n: int = 20000) -> float:
    """Seconds one empty span costs, measured in this process."""
    tr = Tracer()
    t0 = time.perf_counter()
    for i in range(n):
        with tr.span("calibrate", i):
            pass
    return (time.perf_counter() - t0) / n


# ---------------------------------------------------------------------------
# protocol


def trace_workload(name: str, seed: int, n: int, scratch: str, keep) -> dict:
    """The first n items of a workload, each run untraced then replayed traced.

    Running the two back to back per item keeps slow drifts of the machine
    out of the per-item differences (cli.*_self_*).  Outputs of items that
    `keep(i)` selects are kept for the output checks.
    """
    wl = W.WORKLOADS[name]
    replay = _REPLAYS[name]
    tr = Tracer()
    counts: collections.Counter = collections.Counter()
    untraced, reasons, kept = {}, collections.Counter(), []
    replay_s = 0.0
    for i, item in enumerate(wl.make(seed, n)):
        dt, _cpu, reason, result = W.run_item(wl, item, scratch)
        untraced[i] = dt
        if reason is not None:
            reasons[reason] += 1
        elif keep(i):
            kept.append((i, item, wl.output(result, scratch)))
        t0 = time.perf_counter()
        with tr.span("item", i):
            replay(tr, i, item, counts)
        replay_s += time.perf_counter() - t0
    metrics = _METRICS[name](tr.spans, untraced, counts)
    by_name: dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for s, self_s in zip(tr.spans, self_times(tr.spans)):
        agg = by_name[s[2]]
        agg[0] += 1
        agg[1] += s[5] - s[4]
        agg[2] += self_s
    return {
        "n_items": n,
        "untraced_s": sum(untraced.values()),
        "untraced_items_s": list(untraced.values()),
        "failures": dict(reasons),
        "replay_s": replay_s,
        "n_spans": len(tr.spans),
        "span_summary": {k: {"count": c, "total_s": t, "self_s": st}
                         for k, (c, t, st) in sorted(by_name.items())},
        "spans": tr.spans,
        "metrics": metrics,
        "kept": kept,
    }


def trace_protocol(main: str, seed: int, seconds: float, scratch: str) -> dict:
    """Traced run of `main` (full size) plus the side replays; one record."""
    runs = {}
    for name in W.WORKLOADS:
        n = _SIDE_ITEMS[name]
        if name == main:
            n = max(n, round(_MAIN_ITEMS_PER_S[name] * seconds))
        keep = W.check_selector(name) if name == main else (lambda i: False)
        runs[name] = trace_workload(name, seed, n, scratch, keep)

    m = runs[main]
    metrics = {}
    for metric, unit, _better, owner in PER_LAYER:
        if owner is not None:
            metrics[metric] = {"value": runs[owner]["metrics"][metric], "unit": unit}
    metrics["elliptic.sn_max_err"] = {"value": sn_max_err(seed), "unit": "1"}
    metrics["trace.overhead_frac"] = {
        "value": m["n_spans"] * span_cost_s() / m["untraced_s"], "unit": "1"}

    kept = {name: r.pop("kept") for name, r in runs.items()}
    checks = W.summarize_checks(W.run_checks(main, seed, kept[main]),
                                W.panel_checks(main, scratch))
    return {
        "correct": checks["correct"],
        "attempted": m["n_items"],
        "failed": sum(m["failures"].values()) + len(checks["failed_items"]),
        "metrics": metrics,
        "checks": checks,
        "workloads": runs,
    }
