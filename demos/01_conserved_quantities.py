"""A charge on the flat torus in the field cos(x) dx^dy.

The equations of motion

    xddot =  cos(x) ydot,
    yddot = -cos(x) xdot,

conserve the energy E = (xdot^2 + ydot^2)/2 and the momentum
p = ydot + sin(x).  This script integrates a generic orbit with the
adaptive Dormand-Prince 8(5,3) pair and watches both integrals drift at the
level of the requested tolerance, far below any physical scale.
"""

import numpy as np

from magflow import conservation_report, integrate, state_from_integrals

E, p = 0.3, 0.2
state0 = state_from_integrals(x0=0.1, y0=0.0, E=E, p=p, xdot_sign=+1)
print(f"level set:      E = {E}, p = {p}")
print(f"initial state:  {state0}")

for tol in (1e-5, 1e-7, 1e-9, 1e-11):
    traj = integrate(state0, t_end=100.0, tol=tol)
    dE, dp = conservation_report(traj)
    print(f"tol = {tol:.0e}:  max|dE| = {dE:.3e}   max|dp| = {dp:.3e}   "
          f"steps = {traj.n_steps}   nfev = {traj.nfev}")

# the vertical lines x = +-pi/2 are exact orbits: both accelerations vanish
line = integrate(state_from_integrals(np.pi / 2, 0.0, 0.5, 2.0, +1), 20.0, 1e-11)
x = line.states[:, 0]
print(f"\nvertical-line orbit: max|x - pi/2| = {np.abs(x - np.pi / 2).max():.3e} "
      "(linear dynamics, exact to rounding)")
