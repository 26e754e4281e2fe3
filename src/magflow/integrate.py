"""Direct adaptive integration of the flow, the oracle for every closed form.

The integrator is scipy's DOP853 algorithm, the Dormand-Prince 8(5,3) pair
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
section II.10) with its 7th-order dense output, run step by step on Python
floats: scipy's initial-step rule, error norm, step controller and
interpolant, with scipy's tableau kept in ._dop853.  So it runs
solve_ivp(method="DOP853", dense_output=True) without numpy's per-call
cost, which on four components exceeds the arithmetic.  Only the rounding
of its sums differs from scipy's BLAS, and a step's error estimate, a sum
that cancels, carries that rounding into the step size: the step ends move
slightly, the step counts mostly stay.  The tests keep solve_ivp as the
reference that step counts, states and events are checked against.
Conservation of (E, p) is monitored, never enforced.  Events are found
after the step loop: a sign change between step ends, then root
bracketing on that step's dense-output polynomial, which is what makes
period and y-increment measurements good to ~1e-10 in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import A, A_EXTRA, B, C, C_EXTRA, D, E3, E5
from .dynamics import PhaseState, energy, momentum, rhs
from .errors import DomainError, NoReturnFound, StepFailure

TOL_MIN, TOL_MAX = 1e-13, 1e-3

_EVENT_KINDS = ("x-turning", "x-return")

# the step controller of scipy.integrate's RungeKutta solvers; the error
# exponent is -1/(7 + 1) for DOP853's 7th-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
_EPS = float(np.finfo(float).eps)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _interpolate(F, x, y_old):
    """The interpolant of rows F (along the second-to-last axis) at the step
    fraction x: Dop853DenseOutput's Horner form, which multiplies by x and
    by 1 - x in turn, from the last row to the first."""
    y = np.zeros_like(y_old)
    for j in range(6, -1, -1):
        y += F[..., j, :]
        y *= x if j % 2 == 0 else 1.0 - x
    return y + y_old


@dataclass
class Trajectory:
    """One integrated orbit: the solver's accepted steps, the 7th-order
    interpolant of each, as scipy's Dop853DenseOutput holds one step's, and
    the events found on them."""

    t: np.ndarray       # step ends, n + 1 of them, monotone in the direction of t_end
    states: np.ndarray  # shape (n + 1, 4): x, y, xdot, ydot at the step ends
    F: np.ndarray       # interpolant rows of each step, shape (n, 7, 4)
    nfev: int           # right-hand-side evaluations
    events: list[tuple[float, str]] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        """Accepted steps."""
        return len(self.t) - 1

    @property
    def initial_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[0])

    @property
    def final_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[-1])

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def eval(self, t):
        """The interpolant at t; scalar t gives a PhaseState, an array the
        rows x, y, xdot, ydot.

        A time takes the step that scipy's OdeSolution gives it: the one it
        lies in, the earlier one at a step end, the first or the last one
        outside the span.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        sign = 1.0 if self.t[1] > self.t[0] else -1.0
        i = np.searchsorted(sign * self.t, sign * t_arr, side="left") - 1
        np.clip(i, 0, self.n_steps - 1, out=i)
        x = (t_arr - self.t[i]) / (self.t[i + 1] - self.t[i])
        vals = _interpolate(self.F[i], x[:, None], self.states[i]).T
        if np.ndim(t) == 0:
            return PhaseState.from_array(vals[:, 0])
        return vals[0], vals[1], vals[2], vals[3]


def _check_tol(tol: float) -> float:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return float(tol)


def _div(a: float, b: float) -> float:
    """a / b as numpy's float64 divides: +-inf for a nonzero over zero and
    nan for 0/0, where a Python float raises.  On extreme levels scipy's
    steps carry on with these values, and so must the loop."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _rms(v) -> float:
    """Root mean square of four values, as scipy's norm computes it."""
    a, b, c, d = v
    return math.sqrt(a * a + b * b + c * c + d * d) / 2.0


def _combine(row, K) -> tuple[float, float, float, float]:
    """sum_j a_j K[j] over the (j, a_j) pairs of one tableau row, per component."""
    s0 = s1 = s2 = s3 = 0.0
    for j, a in row:
        k0, k1, k2, k3 = K[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return s0, s1, s2, s3


def _stage(row, K, t: float, y, h: float):
    """The right-hand side at t, at y plus h times one row's combination of K."""
    s0, s1, s2, s3 = _combine(row, K)
    return rhs(t, (y[0] + s0 * h, y[1] + s1 * h, y[2] + s2 * h, y[3] + s3 * h))


def _initial_step(y, f, t_bound: float, direction: float, rtol: float, atol: float) -> float:
    """scipy's select_initial_step from t = 0, for a 7th-order error estimate."""
    interval = abs(t_bound)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(h0 * direction, tuple(v + h0 * direction * fv for v, fv in zip(y, f)))
    d2 = _div(_rms([(b - a) / s for a, b, s in zip(f, f1, scale)]), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, interval)


def _error_norm(K, h: float, y, y_new, rtol: float, atol: float) -> float:
    """DOP853's error norm: the 5th-order estimate's, damped by the 3rd's."""
    ss5 = ss3 = 0.0
    for e5, e3, a, b in zip(_combine(E5, K), _combine(E3, K), y, y_new):
        a, b = abs(a), abs(b)
        big = a if a >= b else b if b > a else math.nan  # np.maximum: nan wins
        scale = atol + big * rtol
        e5, e3 = e5 / scale, e3 / scale
        ss5 += e5 * e5
        ss3 += e3 * e3
    # scipy squares np.linalg.norm, the square root of the sum; a product,
    # unlike a float's ** 2, overflows to inf and does not raise
    r5, r3 = math.sqrt(ss5), math.sqrt(ss3)
    n5, n3 = r5 * r5, r3 * r3
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return _div(abs(h) * n5, math.sqrt((n5 + 0.01 * n3) * 4))


def _dop853(y0: tuple, t_bound: float, rtol: float, atol: float):
    """solve_ivp(rhs, (0, t_bound), y0, method="DOP853", rtol=rtol, atol=atol,
    dense_output=True).

    Returns the step times, the states at them, the interpolant rows of
    each step (shape (n, 7, 4)) and the count of right-hand-side calls.
    """
    direction = 1.0 if t_bound > 0.0 else -1.0
    t, y = 0.0, y0
    f = rhs(t, y)
    h_abs = _initial_step(y, f, t_bound, direction, rtol, atol)
    nfev = 2
    ts, ys, Fs = [t], [y], []
    while direction * (t - t_bound) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(_TOO_SMALL_STEP, t=t)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for row, c in zip(A[1:], C[1:]):
                K.append(_stage(row, K, t + c * h, y, h))
            w = _combine(B, K)
            y_new = (y[0] + h * w[0], y[1] + h * w[1], y[2] + h * w[2], y[3] + h * w[3])
            f_new = rhs(t + h, y_new)
            K.append(f_new)
            nfev += 12
            error_norm = _error_norm(K, h, y, y_new, rtol, atol)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        # the dense output: 3 more stages, then Dop853DenseOutput's rows
        for row, c in zip(A_EXTRA, C_EXTRA):
            K.append(_stage(row, K, t + c * h, y, h))
        nfev += 3
        dy = [b - a for a, b in zip(y, y_new)]
        F = [*dy,
             *(h * fo - d for fo, d in zip(f, dy)),
             *(2.0 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f))]
        for row in D:
            F.extend(h * s for s in _combine(row, K))
        Fs.append(F)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys), np.array(Fs).reshape(-1, 7, 4), nfev


def _event_roots(events, ts, states, F) -> list[tuple[float, int]]:
    """(time, event index) of each root of events over the finished steps.

    An event has a root on a step where its values at the step ends change
    sign, as solve_ivp's find_active_events sees it for direction 0, and
    brentq finds it on that step's interpolant, as solve_event_equation does.
    """
    # imported here so that integrating without events never loads it
    from scipy.optimize import brentq

    t = ts.tolist()
    g = np.array([[ev(tj, yj) for ev in events] for tj, yj in zip(t, states.tolist())])
    a, b = g[:-1], g[1:]
    roots = []
    for i, k in zip(*np.nonzero(((a <= 0.0) & (b >= 0.0)) | ((a >= 0.0) & (b <= 0.0)))):
        t_old, h, event = t[i], t[i + 1] - t[i], events[k]
        root = brentq(lambda s: event(s, _interpolate(F[i], (s - t_old) / h, states[i])),
                      t_old, t[i + 1], xtol=4 * _EPS, rtol=4 * _EPS)
        roots.append((root, k))
    return roots


def integrate(
    state0: PhaseState,
    t_end: float,
    tol: float = 1e-11,
    with_events: bool = True,
) -> Trajectory:
    """Integrate the flow from state0 over [0, t_end].

    tol maps to (rtol=tol, atol=tol/100).  The samples are the solver's own
    values at its accepted steps; Trajectory.eval gives any other time.
    With with_events, the x-turning (xdot = 0) and x-return (sin x back to
    sin x0) events are found after the step loop, in one pass over the
    finished steps.  t_end < 0 integrates backwards.  A step that fails, in
    floating point or for a step size below the spacing of t, raises
    StepFailure.
    """
    tol = _check_tol(tol)
    if t_end == 0.0 or not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    y0 = (float(state0.x), float(state0.y), float(state0.xdot), float(state0.ydot))
    if not all(map(math.isfinite, y0)):
        raise DomainError(f"initial state must be finite, got {y0}")
    x0_sin = math.sin(state0.x)

    def ev_turning(t, y):
        return y[2]

    def ev_return(t, y):
        return math.sin(y[0]) - x0_sin

    # on vertical-line orbits and fixed points x is frozen and the event
    # functions are identically zero; registering them would fire on every step
    x_frozen = (abs(state0.xdot) < 1e-13
                and abs(math.cos(state0.x) * state0.ydot) < 1e-13)
    events = (ev_turning, ev_return) if with_events and not x_frozen else ()
    try:
        ts, states, F, nfev = _dop853(y0, float(t_end), tol, tol * 1e-2)
        roots = _event_roots(events, ts, states, F) if events else []
    except (ArithmeticError, ValueError) as exc:
        # math's domain and range errors where a state stops being finite,
        # and an event that brentq finds unbracketed on its step
        raise StepFailure(f"{type(exc).__name__}: {exc}") from exc

    # drop the trivial event at t = 0
    ev_list = sorted((float(te), _EVENT_KINDS[k]) for te, k in roots if abs(te) > 1e-9)
    return Trajectory(t=ts, states=states, F=F, nfev=nfev, events=ev_list)


def conservation_report(traj: Trajectory) -> tuple[float, float]:
    """Maximal drifts (max|dE|, max|dp|) from the first sample, over traj's samples.

    The samples of integrate are the solver's accepted steps, so this is
    the drift at the steps.  Trajectory.eval answers between them from the
    dense interpolant, which drifts up to about 7 times more: at tol 1e-11
    over t = 20 from x0 = 0.1 on (E, p) = (0.3, 0.2), the drift in E is
    2.5e-12 at the steps against 1.0e-11 on a 20001-point eval grid.
    """
    E = energy(traj.states)
    p = momentum(traj.states)
    return float(np.abs(E - E[0]).max()), float(np.abs(p - p[0]).max())


@dataclass(frozen=True)
class ReturnEvents:
    """Localized event times of one orbit."""

    turning_times: tuple[float, ...]   # xdot = 0 crossings
    return_times: tuple[float, ...]    # sin x back to sin x0 with matching xdot sign
    trajectory: Trajectory


def find_return(
    state0: PhaseState, t_end: float = 200.0, tol: float = 1e-11
) -> ReturnEvents:
    """Locate xdot = 0 crossings and same-direction returns of sin x."""
    traj = integrate(state0, t_end, tol)
    turning = tuple(t for t, kind in traj.events if kind == "x-turning")
    sign0 = np.sign(state0.xdot)
    returns = []
    for t, kind in traj.events:
        if kind != "x-return":
            continue
        st = traj.eval(t)
        if sign0 == 0.0 or np.sign(st.xdot) == sign0:
            returns.append(t)
    return ReturnEvents(tuple(turning), tuple(returns), traj)


def measure_period(
    state0: PhaseState, t_end: float = 200.0, tol: float = 1e-11
) -> float:
    """Time of the first same-direction return of sin x (the sin-x period)."""
    ev = find_return(state0, t_end, tol)
    if not ev.return_times:
        raise NoReturnFound(
            f"no matching return of sin x within t_end = {t_end}"
        )
    return ev.return_times[0]
