"""Direct adaptive integration of the flow, the oracle for every closed form.

The integrator is scipy's DOP853 algorithm, the Dormand-Prince 8(5,3) pair
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
section II.10) with its 7th-order dense output, run step by step on Python
floats: scipy's initial-step rule, error norm, step controller and
interpolant, with scipy's tableau kept in ._dop853.  A step is
straight-line code written out from that tableau on the first
integration, each sum in its row's order: the flow of dynamics.rhs in
each stage after the first, then the scaled sums of squares of the error
norm.  So it runs solve_ivp(method="DOP853", dense_output=True) without
numpy's per-call cost, which on four components exceeds the arithmetic,
and without a Python call per stage.  No later step reads a step's
interpolant, its 3 extra stages and 7 rows, so the loop only keeps each
accepted step's end, state and the 9 of its 13 stages that the
interpolant reads (KEPT_STAGES), and one numpy pass per block of
BLOCK_STEPS accepted steps converts them to arrays, once, and builds
their rows: the extra stages by dynamics.rhs on the block's argument
rows, each sum in its row's order again, so each row
rounds as it would on Python floats.  Only the rounding of its sums
differs from scipy's BLAS, and a step's error estimate, a sum that
cancels, carries that rounding into the step size: the step ends move
slightly, the step counts mostly stay.  The tests keep solve_ivp as the
reference that step counts and states are checked against.
A run takes at most MAX_STEPS accepted steps.
Conservation of (E, p) is monitored, never enforced.  A run only steps:
the turning points and returns of x, from which the tests measure the
period and y-increment (tests/oracles.py), are found there on a finished
Trajectory's steps and interpolant.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass

import numpy as np

from ._dop853 import A, A_EXTRA, B, D, E3, E5
from .dynamics import PhaseState, circuit_states, energy, momentum, rhs
from .errors import DomainError, StepFailure

TOL_MIN, TOL_MAX = 1e-13, 1e-3
# accepted steps a run may take: about 0.57 s of stepping on a 2-CPU Xeon
# host, 13 times the 3,858 of the longest test run and 67 times the 749 of
# the longest run of any demo, parity set or benchmark level
MAX_STEPS = 50_000
# accepted steps whose stages wait for one pass that builds their
# interpolant; a block bounds the stages held: a 46,271-step run peaks at
# 66 MiB with it and at 198 MiB holding every step's stages to the end
BLOCK_STEPS = 1024
# the stages of a step that its interpolant reads: f0, f_new and those
# below 13 of the rows of the extra stages and the dense output; the rest,
# 1 to 4, only the step's own sums read
KEPT_STAGES = tuple(sorted({0, 12, *(j for row in (*A_EXTRA, *D) for j, _ in row if j < 13)}))

# the step controller of scipy.integrate's RungeKutta solvers; the error
# exponent is -1/(7 + 1) for DOP853's 7th-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
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


@dataclass(frozen=True)
class Trajectory:
    """One integrated orbit: the solver's accepted steps and the 7th-order
    interpolant of each, as scipy's Dop853DenseOutput holds one step's.

    Like a closed-form solution, it keeps the first batch of the
    closed-circuit trapezoid rule of the actions, circuit: 257 x 4 float64
    (8 KiB), formed by the first action on the run and freed with it.
    """

    t: np.ndarray       # step ends, n + 1 of them, monotone in the direction of t_end
    states: np.ndarray  # shape (n + 1, 4): x, y, xdot, ydot at the step ends
    F: np.ndarray       # interpolant rows of each step, shape (n, 7, 4)
    nfev: int           # right-hand-side evaluations

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
    def circuit_span(self) -> tuple[float, float]:
        """The span of the run as (a, b), a < b, forward in time, also
        for a run integrated backwards."""
        return tuple(sorted((float(self.t[0]), float(self.t[-1]))))

    @functools.cached_property
    def circuit(self) -> np.ndarray:
        """The states at CIRCUIT_NODES equispaced times over circuit_span,
        one row (x, y, xdot, ydot) per time, read-only
        (dynamics.circuit_states).  Formed on first use and kept:
        action_direct and action_increment both read it."""
        return circuit_states(self)

    def eval(self, t):
        """The interpolant at t; scalar t gives a PhaseState, an array of any
        shape the rows x, y, xdot, ydot, each of the shape of t.

        A time takes the step that scipy's OdeSolution gives it: the one it
        lies in, the earlier one at a step end, the first or the last one
        outside the span.
        """
        t_arr = np.asarray(t, dtype=float).ravel()
        ends = self.t
        sign = 1.0 if ends[1] > ends[0] else -1.0
        i = np.searchsorted(sign * ends, sign * t_arr, side="left") - 1
        np.clip(i, 0, self.n_steps - 1, out=i)
        t0 = ends.take(i)
        x = (t_arr - t0) / (ends.take(i + 1) - t0)
        # gathered component-major, rows (4, 7, m) and states (4, m), so that
        # each operation of the interpolant runs along the m times, not
        # along the 4 components of each
        vals = _interpolate(self.F.transpose(2, 1, 0).take(i, axis=2), x,
                            self.states.T.take(i, axis=1))
        if np.ndim(t) == 0:
            return PhaseState.from_array(vals[:, 0])
        shape = np.shape(t)
        return tuple(v.reshape(shape) for v in vals)


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


def _row_sum(row, i: int) -> str:
    """Source of component i of sum_j a_j k_j over one tableau row's (j, a_j)
    pairs, added in the row's order from 0.0, as a loop of += adds them."""
    return " + ".join(["0.0", *(f"{a!r} * k{j}_{i}" for j, a in row)])


def _components(j: int) -> str:
    """Source of the names of stage j's four components."""
    return ", ".join(f"k{j}_{i}" for i in range(4))


def _flow_source(j: int, x: str, xd: str, yd: str) -> list[str]:
    """Source of stage j, the flow at the sources x, xd and yd of x, xdot
    and ydot, with dynamics.rhs's operations in its order."""
    return [f"    c = cos({x})", f"    k{j}_0 = {xd}", f"    k{j}_1 = {yd}",
            f"    k{j}_2 = c * k{j}_1", f"    k{j}_3 = -c * k{j}_0"]


def _sum_of_squares(name: str) -> str:
    """Source of the in-order sum from 0.0 of the squares of name0 ... name3."""
    return " + ".join(["0.0", *(f"{name}{i} * {name}{i}" for i in range(4))])


@functools.cache
def _kernel():
    """DOP853's step as a straight-line function, written out from the
    tableau of ._dop853 with the flow of dynamics.rhs in each stage, on the
    first integration.

    step(y, k0, h, rtol, atol), with k0 = rhs(t, y), returns y_new, f_new,
    the sums of squares of the E5 and E3 sums scaled as scipy's error norm
    scales them, and the stages of KEPT_STAGES, those the interpolant
    reads, as one flat tuple of 36 floats, stage by stage.  Each sum adds
    its terms in the row's order from 0.0, with each coefficient as its
    repr, so it rounds as the loop over the row would; each stage skips
    the y sum that the flow never reads.
    """
    lines = ["def step(y, k0, h, rtol, atol):",
             "    y0, y1, y2, y3 = y",
             f"    {_components(0)} = k0"]
    for j in range(1, 12):
        lines += _flow_source(j, *(f"y{i} + ({_row_sum(A[j], i)}) * h" for i in (0, 2, 3)))
    lines.append("    y_new = n0, n1, n2, n3 = "
                 f"({', '.join(f'y{i} + h * ({_row_sum(B, i)})' for i in range(4))})")
    lines += _flow_source(12, "n0", "n2", "n3")
    for i in range(4):
        # the larger of |y| and |y_new| as np.maximum takes it: nan wins
        lines += [f"    a, b = abs(y{i}), abs(n{i})",
                  "    s = atol + (a if a >= b else b if b > a else nan) * rtol",
                  f"    u{i} = ({_row_sum(E5, i)}) / s",
                  f"    v{i} = ({_row_sum(E3, i)}) / s"]
    lines += [f"    return (y_new, ({_components(12)}), {_sum_of_squares('u')}, "
              f"{_sum_of_squares('v')},",
              f"            ({', '.join(_components(j) for j in KEPT_STAGES)}))"]
    namespace = {"cos": math.cos, "nan": math.nan}
    exec(compile("\n".join(lines) + "\n", "<dop853 kernel>", "exec"), namespace)
    return namespace["step"]


# the slot of each stage in the stage-major record of _stages: the kept
# stages, then the interpolant's 3 extra stages 13, 14 and 15
_SLOT = {j: i for i, j in enumerate((*KEPT_STAGES, 13, 14, 15))}
# the A_EXTRA rows over those slots
_A_EXTRA_SLOTS = tuple(tuple((_SLOT[j], a) for j, a in row) for row in A_EXTRA)
# the 4 D rows share one support, stages 0 and 5-15 in the same order: per
# stage of it, its slot and the 4 rows' coefficients as a (4, 1) column
_D_COLUMNS = tuple((_SLOT[col[0][0]], np.array([[a] for _, a in col])) for col in zip(*D))


# dynamics.rhs on a code object of its own for array calls: CPython
# specializes a float product per code object, and its specialized and
# generic products of two NaNs of opposite sign differ in sign, so array
# calls of rhs's code would move its float calls' NaN bits off the kernel's
_rhs_on_arrays = types.FunctionType(rhs.__code__.replace(), rhs.__globals__)


def _array(rows, shape):
    """Sequences of floats, one after another, as an array of shape."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, math.prod(shape))
    return flat.reshape(shape)


def _in_order_sum(row, S):
    """sum_j a_j S[j] over one row's (j, a_j) pairs, elementwise and added in
    the row's order from 0.0: one IEEE operation per element and term, so
    each element rounds as the kernel's written-out sum does."""
    s = 0.0
    for j, a in row:
        s = s + a * S[j]
    return s


def _stages(hc, y0, K):
    """The stages of n steps that the interpolant reads, stage-major, shape
    (12, n, 4), stage j at slot _SLOT[j]: the 9 of KEPT_STAGES in K, shape
    (n, 9, 4), then the interpolant's 3 extra stages from the steps hc, a
    column (n, 1), and their start states y0.

    Each extra stage is dynamics.rhs (_rhs_on_arrays) on the rows of its
    in-order argument sums, each lane of which equals rhs on Python floats
    in every bit; x = +-inf raises math.cos's ValueError, as rhs on floats
    would.  Call it under np.errstate(all="ignore"), as inf and nan carry on.
    """
    # stage-major, so that each term of a sum is one contiguous array
    m = len(KEPT_STAGES)
    S = np.empty((m + 3, len(K), 4))
    S[:m] = K.transpose(1, 0, 2)
    for j, row in enumerate(_A_EXTRA_SLOTS, start=m):
        arg = (y0 + _in_order_sum(row, S) * hc).T
        if np.isinf(arg[0]).any():
            raise ValueError("math domain error")
        S[j].T[:] = _rhs_on_arrays(None, arg)
    return S


def _interpolant_rows(t, y, K):
    """The interpolant rows of n accepted steps in one numpy pass, shape
    (n, 7, 4): Dop853DenseOutput's rows, the last 4 from _stages.

    t and y are the n + 1 step ends and the states at them, K the stages of
    KEPT_STAGES of each step, shape (n, 9, 4): stages 1 to 4, which only
    the step's own sums read, are never kept.  Every sum is an in-order
    row sum, so the rows equal in every bit those of the same sums and rhs
    calls on Python floats, step by step; inf and nan carry on without a
    warning.
    """
    n = len(K)
    with np.errstate(all="ignore"):
        h = t[1:] - t[:-1]
        y0, hc = y[:-1], h[:, None]
        dy = y[1:] - y0
        f0, f_new = K[:, _SLOT[0]], K[:, _SLOT[12]]
        S = _stages(hc, y0, K)
        # all 4 D rows at once: a (4, 4n) sum, D row by (step, component)
        rows = hc * _in_order_sum(_D_COLUMNS, S.reshape(len(S), 1, 4 * n)).reshape(4, n, 4)
        F = np.empty((n, 7, 4))
        F[:, 0] = dy
        F[:, 1] = hc * f0 - dy
        F[:, 2] = 2.0 * dy - hc * (f_new + f0)
        F[:, 3:] = rows.transpose(1, 0, 2)
    return F


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


def _dop853(y0: tuple, t_bound: float, rtol: float, atol: float):
    """solve_ivp(rhs, (0, t_bound), y0, method="DOP853", rtol=rtol, atol=atol,
    dense_output=True).

    Each step runs the straight-line step of _kernel, built on the first
    call, and takes the error norm from its sums of squares.  The loop
    keeps the end, the state and the kept stages (KEPT_STAGES) of each
    accepted step; every BLOCK_STEPS accepted steps, and once at the end,
    the block's ends and states become arrays, the only conversion of
    them, which _interpolant_rows and the returns both read, and
    _interpolant_rows turns the kept stages into the steps' rows and they
    are dropped, so that a long run never holds more than one block of
    stages.  Returns the step times, the states at them, the interpolant
    rows of each step (shape (n, 7, 4)) and the count of right-hand-side
    calls.  Past MAX_STEPS accepted steps short
    of t_bound it raises StepFailure.
    """
    step = _kernel()
    sqrt, nextafter = math.sqrt, math.nextafter
    direction = 1.0 if t_bound > 0.0 else -1.0
    toward = direction * math.inf
    t, y = 0.0, y0
    f = rhs(t, y)
    h_abs = _initial_step(y, f, t_bound, direction, rtol, atol)
    nfev, n_steps = 2, 0
    # the step ends, states and stages of the open block, from its start
    ts, ys, stages = [t], [y], []
    add_t, add_y, add_stages = ts.append, ys.append, stages.append
    # per finished block: its step ends and states, from its start, and rows
    T, Y, Fs = [], [], []

    def block_pass():
        n = len(stages)
        T.append(np.fromiter(ts, float, n + 1))
        Y.append(_array(ys, (n + 1, 4)))
        Fs.append(_interpolant_rows(T[-1], Y[-1], _array(stages, (n, len(KEPT_STAGES), 4))))
        del ts[:-1], ys[:-1]
        stages.clear()

    while direction * (t - t_bound) < 0.0:
        if n_steps >= MAX_STEPS:
            raise StepFailure(f"step budget exhausted: {MAX_STEPS} accepted steps reached "
                              f"t = {t:.17g} of t_end = {t_bound:.17g}", t=t)
        min_step = 10.0 * abs(nextafter(t, toward) - t)
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
            y_new, f_new, ss5, ss3, K = step(y, f, h, rtol, atol)
            nfev += 12
            # DOP853's error norm, the 5th-order estimate's damped by the
            # 3rd's: scipy squares np.linalg.norm, the square root of the
            # sum; a product, unlike a float's ** 2, overflows to inf and
            # does not raise
            r5, r3 = sqrt(ss5), sqrt(ss3)
            n5, n3 = r5 * r5, r3 * r3
            error_norm = (0.0 if n5 == 0.0 and n3 == 0.0 else
                          _div(h_abs * n5, sqrt((n5 + 0.01 * n3) * 4)))
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        n_steps += 1
        add_t(t)
        add_y(y)
        add_stages(K)
        if len(stages) == BLOCK_STEPS:
            block_pass()
    if stages:
        block_pass()
    # each block's arrays start at the last row of the block before, and
    # each step takes 3 extra stages for its interpolant
    return (np.concatenate([T[0], *(a[1:] for a in T[1:])]),
            np.concatenate([Y[0], *(a[1:] for a in Y[1:])]),
            np.concatenate(Fs), nfev + 3 * n_steps)


def integrate(
    state0: PhaseState,
    t_end: float,
    tol: float = 1e-11,
    with_events: bool = False,
) -> Trajectory:
    """Integrate the flow from state0 over [0, t_end].

    tol maps to (rtol=tol, atol=tol/100).  The samples are the solver's own
    values at its accepted steps; Trajectory.eval gives any other time.
    The run only steps: with_events=False, the default, is the one value
    accepted, kept because the benchmark passes it, and True raises
    DomainError.  t_end < 0 integrates backwards.  A step that fails, in
    floating point or for a step size below the spacing of t, and a run
    that needs more than MAX_STEPS accepted steps raise StepFailure.
    """
    if with_events:
        raise DomainError("integrate only steps; the turning and return events of a "
                          "finished Trajectory are found in tests/oracles.py")
    tol = _check_tol(tol)
    if t_end == 0.0 or not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    y0 = (float(state0.x), float(state0.y), float(state0.xdot), float(state0.ydot))
    if not all(map(math.isfinite, y0)):
        raise DomainError(f"initial state must be finite, got {y0}")
    try:
        ts, states, F, nfev = _dop853(y0, float(t_end), tol, tol * 1e-2)
    except (ArithmeticError, ValueError) as exc:
        # math's domain and range errors where a state stops being finite
        raise StepFailure(f"{type(exc).__name__}: {exc}") from exc
    return Trajectory(t=ts, states=states, F=F, nfev=nfev)


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
