"""Cross-validation of the elliptic-function solution.

Every non-degenerate orbit satisfies sin x(t) = Z(sn((t+D)/C, k)) where
(k, C) come from reducing the quartic w^2 = (1-z^2)(2E-(p-z)^2) to
Legendre normal form and Z is the accompanying coordinate map.  Here the
exact solution is evaluated against direct numerical integration in all
three regimes: a trapped oval, a librator crossing x = -pi/2, and a
winding orbit.
"""

import numpy as np

from magflow import build_solution, eval_solution, integrate, state_from_integrals

CASES = [
    ("trapped oval      (E=0.125, p=0.3)", 0.1, 0.125, 0.3),
    ("crossing librator (E=0.3,   p=-0.5)", -1.2, 0.3, -0.5),
    ("winding orbit     (E=1.0,   p=0.3)", 0.0, 1.0, 0.3),
]

ts = np.linspace(0.0, 50.0, 2000)
for label, x0, E, p in CASES:
    sol = build_solution(x0, 0.0, E, p, +1)
    xc, yc, _, _ = eval_solution(sol, ts)
    traj = integrate(state_from_integrals(x0, 0.0, E, p, +1), 50.0, 1e-11)
    xn, yn, _, _ = traj.eval(ts)
    print(f"{label}")
    print(f"    reduction: k^2={sol.k2:.6f}  C={sol.C:.6f}  sin-x period={sol.x_period:.6f}")
    print(f"    sup|sin x  (exact - numeric)| = {np.abs(np.sin(xc) - np.sin(xn)).max():.3e}")
    print(f"    sup|y      (exact - numeric)| = {np.abs(yc - yn).max():.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(3, 1, figsize=(8, 7), sharex=True)
    for ax, (label, x0, E, p) in zip(axes, CASES):
        sol = build_solution(x0, 0.0, E, p, +1)
        tt = np.linspace(0.0, 40.0, 1500)
        x, y, _, _ = eval_solution(sol, tt)
        ax.plot(tt, np.sin(x), lw=1.0)
        ax.set_ylabel("sin x(t)")
        ax.set_title(label, fontsize=9)
    axes[-1].set_xlabel("t")
    fig.tight_layout()
    fig.savefig("exact_solution_regimes.png", dpi=120)
    print("\nwrote exact_solution_regimes.png")
except ImportError:
    pass
