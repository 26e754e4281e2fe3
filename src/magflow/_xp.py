"""Operations for formulas written once over floats or float arrays.

The reduction and cycle-data formulas run on either kind of operand:
Python floats for one level (classify, reduce_to_legendre,
build_solution) and float arrays of one shape for a grid of levels
(orbits.cycle_data).  So does the closed-form phase (elliptic.sn_cn and
closedform._orbit_phase): floats for build_solution's start phase, a
scalar t of eval_solution and a scalar u of elliptic.sn, arrays for a
batch of samples.  A formula takes the operations from of(x), the math
namespace for a float and the numpy one for an array, once per call.
Both square roots are correctly rounded, math's sin and cos give numpy's
values, rint rounds half to even on either, and minimum, maximum, where
and copysign only pick or sign an operand, so one lane of an array call
equals the float call bit for bit (tests/test_phase_float.py checks
each).  remainder and multiply are % and *, on an array without numpy's
warning at inf % y and 0 * inf, whose NaN a float gives silently.  any and
all of an array count its nonzero elements (np.count_nonzero, a third of
the time of x.any()), which also takes the numpy bool of a comparison of
0-d arrays.  floor keeps the sign of a zero, NaN and inf as numpy's does,
where math.floor drops -0.0 and raises on NaN and inf; on a whole number j,
mod2(j) = j - 2 floor(j/2) equals numpy's j % 2.0 bit for bit at a fraction
of its cost (numpy's floor-mod is 21-28 ns an element, a floor about
1.5 ns).  arcsin, arctanh and log1p are numpy's ufuncs on a float too: numpy's
kernels differ from libm's asin and log1p in the last bit on several per
cent of arguments, and a ufunc runs the same kernel on a float as on an
array.  Otherwise a float is never wrapped in a 0-d array: numpy's per-call
overhead would cost a one-level call more than its arithmetic does.  The
constants an array formula reads are Python floats too, one record for
both operands (closedform.PhaseConstants, kept on the orbit): a
Python-float constant gives numpy the float64 operation a 0-d array of it
would, so the result is the same bit for bit.
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace

import numpy as np


def _select(cond, x, y):
    return x if cond else y


_quiet = np.errstate(invalid="ignore")  # as a decorator: 0.6 us a call, a with block 1 us

FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    # min and max pick as these do, and cost more than the comparison
    minimum=lambda x, y: y if y < x else x,
    maximum=lambda x, y: y if y > x else x,
    where=_select,
    remainder=operator.mod,
    multiply=operator.mul,
    copysign=math.copysign,
    any=bool,
    all=bool,
    real=float,  # a numpy scalar argument becomes a Python float
    sin=math.sin,
    cos=math.cos,
    arcsin=np.arcsin,  # numpy's kernels, see above
    arctanh=np.arctanh,
    log1p=np.log1p,
    # np.rint: half to even, keeping the sign of a zero, NaN and inf as they are
    rint=lambda x: math.copysign(round(x), x) if math.isfinite(x) else x,
    # np.floor: the same, where math.floor drops the sign of -0.0 and raises
    floor=lambda x: math.copysign(math.floor(x), x) if math.isfinite(x) else x,
)

ARRAY = SimpleNamespace(
    sqrt=np.sqrt,
    minimum=np.minimum,
    maximum=np.maximum,
    where=np.where,
    remainder=_quiet(np.remainder),
    multiply=_quiet(np.multiply),
    copysign=np.copysign,
    any=np.count_nonzero,
    all=lambda x: np.count_nonzero(x) == x.size,
    real=lambda x: x,
    sin=np.sin,
    cos=np.cos,
    arcsin=np.arcsin,
    arctanh=np.arctanh,
    log1p=np.log1p,
    rint=np.rint,
    floor=np.floor,
)


def of(x) -> SimpleNamespace:
    """The operations for x: ARRAY for a numpy array, FLOAT otherwise."""
    return ARRAY if isinstance(x, np.ndarray) else FLOAT


def mod2(j):
    """j mod 2 of a whole number j, a float or an array, as j - 2 floor(j/2):
    numpy's j % 2.0 bit for bit, the sign of a zero result (+0) and NaN for
    NaN and +-inf included, at a fraction of the cost of numpy's floor-mod."""
    r = of(j).floor(0.5 * j)
    r *= -2.0
    r += j
    return r


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)
