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
each).  arcsin, arctanh and log1p are numpy's ufuncs on a float too:
numpy's kernels differ from libm's asin and log1p in the last bit on
several per cent of arguments, and a ufunc runs the same kernel on a float
as on an array.  Otherwise a float is never wrapped in a 0-d array: numpy's
per-call overhead would cost a one-level call more than its arithmetic
does.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def _select(cond, x, y):
    return x if cond else y


def _select_each(cond, new: tuple, old: tuple) -> tuple:
    return tuple(np.where(cond, n, o) for n, o in zip(new, old))


FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    # min and max pick as these do, and cost more than the comparison
    minimum=lambda x, y: y if y < x else x,
    maximum=lambda x, y: y if y > x else x,
    where=_select,
    where_each=_select,
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
)

ARRAY = SimpleNamespace(
    sqrt=np.sqrt,
    minimum=np.minimum,
    maximum=np.maximum,
    where=np.where,
    where_each=_select_each,
    copysign=np.copysign,
    any=np.any,
    all=np.all,
    real=lambda x: x,
    sin=np.sin,
    cos=np.cos,
    arcsin=np.arcsin,
    arctanh=np.arctanh,
    log1p=np.log1p,
    rint=np.rint,
)


def of(x) -> SimpleNamespace:
    """The operations for x: ARRAY for a numpy array, FLOAT otherwise."""
    return ARRAY if isinstance(x, np.ndarray) else FLOAT


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)
