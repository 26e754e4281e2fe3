"""Films, their action, and the critical energy 1/2.

A film is an embedded surface with boundary; it carries the action
sqrt(2E) length(boundary) + flux of the field through it.  Below the
critical level E = 1/2 this functional goes negative, and within the
cylinder-strip family its minimum sits on the strip pi/2 <= x <= 3pi/2
(the closure of the region of negative field), bounded by the two
vertical-line orbits, with value 4 pi (sqrt(2E) - 1).  Discs bounded by
contractible orbits, by contrast, always carry positive action.  Each
closed form below is set beside a plain numpy scan.
"""

import math

import numpy as np

from magflow import (
    CylinderStrip,
    OrbitDisc,
    contractible_orbit,
    film_action,
    reduced_lagrangian,
)

TWO_PI = 2.0 * math.pi

print("strip actions at E = 1/8 (width pi, varying position):")
for xa in np.linspace(0.0, math.pi, 7):
    strip = CylinderStrip(xa, xa + math.pi, 0.125)
    mark = "   <- minimizer" if abs(xa - math.pi / 2) < 1e-12 else ""
    print(f"  x_a = {xa:8.5f}:  S = {film_action(strip):+.6f}{mark}")

# the flux 2 pi (sin x_b - sin x_a) of every strip on a 200 x 200 grid of
# (x_a, width); the length term does not depend on the strip
n = 200
xa = np.linspace(0.0, TWO_PI, n, endpoint=False)[:, None]
width = np.arange(1, n + 1) * (TWO_PI / (n + 1))
i, j = np.unravel_index(np.argmin(np.sin(xa + width) - np.sin(xa)), (n, n))
x_a, x_b = xa[i, 0], xa[i, 0] + width[j]
print(f"\nminimizing strip [pi/2, 3pi/2] = [{0.5 * math.pi:.4f}, {1.5 * math.pi:.4f}]; "
      f"grid minimum over {n} x {n} strips at [{x_a:.4f}, {x_b:.4f}]")
for E in (0.125, 0.3, 0.5):
    closed = 4.0 * math.pi * (math.sqrt(2.0 * E) - 1.0)
    grid = film_action(CylinderStrip(x_a, x_b, E))
    print(f"  E = {E}: 4 pi (sqrt(2E)-1) = {closed:+.6f}, grid minimum S = {grid:+.6f}")

print("\ndisc films over contractible orbits stay positive:")
for E in (0.125, 0.4):
    disc = OrbitDisc(contractible_orbit(E))
    print(f"  E = {E}: S(disc) = {film_action(disc):+.6f}")

xs = np.linspace(0.0, TWO_PI, 256)
print(f"\ncritical level sup_x sin^2(x)/2 = 1/2, attained at x = +-pi/2; "
      f"on a 256-point grid: {np.max(0.5 * np.sin(xs) ** 2):.6f}")
print("min L_E over level states is 2E - sqrt(2E), at sin x = -1, xdot = 0;")
print("sign census over 2000 random level states:")
rng = np.random.default_rng(0)
x, psi = rng.uniform(-math.pi, math.pi, 2000), rng.uniform(0.0, TWO_PI, 2000)
for E in (0.4, 0.5, 0.6):
    speed = math.sqrt(2.0 * E)
    states = np.array([x, np.zeros_like(x), speed * np.cos(psi), speed * np.sin(psi)]).T
    values = reduced_lagrangian(states, E)
    print(f"  E = {E}: 2E - sqrt(2E) = {2.0 * E - speed:+.6e}, "
          f"{np.sum(values < 0.0):4d} negative values, sampled min L_E = {values.min():+.6e}")
print("L_E dips negative precisely below E = 1/2, vanishing at the "
      "configuration sin x = -1, xdot = 0 when E = 1/2: that is the "
      "threshold where the film action stops being negative.")
