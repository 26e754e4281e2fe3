"""Reference values of the orbits panel, by arbitrary-precision integration.

    python3 bench/panel_ref.py

Integrates the equations of motion xddot = cos(x) ydot, yddot = -cos(x) xdot
with mpmath's Taylor-series solver at 25 digits from each entry of
``workloads.PANEL_LEVELS`` and writes sin x and y at the panel's reference
times to ``bench/panel_ref.json``.  The reference shares no code with
magflow, and its error lies far below the closed form's, so the orbits
``max_err`` reports the closed form's own error.  It takes a few minutes;
run it again only when the panel changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as W  # noqa: E402

DPS = 25


def reference(x0: float, E: float, p: float, sign: int, times) -> list[list[float]]:
    """[sin x, y] at each time, from the level's start state at y0 = 0."""
    with mp.workdps(DPS):
        x0m, Em, pm = mp.mpf(x0), mp.mpf(E), mp.mpf(p)
        ydot0 = pm - mp.sin(x0m)
        xdot0 = sign * mp.sqrt(max(2 * Em - ydot0 ** 2, 0))
        sol = mp.odefun(lambda _t, s: [s[2], s[3], mp.cos(s[0]) * s[3], -mp.cos(s[0]) * s[2]],
                        0, [x0m, mp.mpf(0), xdot0, ydot0])
        out = []
        for t in times:
            x, y, _, _ = sol(mp.mpf(float(t)))
            out.append([float(mp.sin(x)), float(y)])
        return out


def main() -> int:
    entries = []
    for x0, E, p, sign, t_max in W.PANEL_LEVELS:
        times = np.linspace(0.0, t_max, W.PANEL_N_T)[list(W.PANEL_REF_INDEX)]
        entries.append({"level": [x0, E, p, sign, t_max],
                        "sinx_y": reference(x0, E, p, sign, times)})
        print(f"E={E!r} p={p!r}: done", flush=True)
    path = BENCH_DIR / "panel_ref.json"
    path.write_text(json.dumps({"dps": DPS, "n_t": W.PANEL_N_T,
                                "index": list(W.PANEL_REF_INDEX), "levels": entries},
                               indent=1) + "\n")
    print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
