"""Property test of the Legendre reduction next to the separatrices."""

import pytest

from magflow import DegenerateCurve, quartic_from_params, reduce_to_legendre

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(1e-4, 2.5),
    log_gap=st.floats(-9.0, 0.0),
    root=st.sampled_from((-1.0, 1.0)),
    wall=st.sampled_from((-1.0, 1.0)),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_reduction_verifies_down_to_the_degeneracy_threshold(a, log_gap, root, wall, side):
    # the turning root p + root*a sits a gap 1e-9 .. 1 beside the wall:
    # near-separatrix levels, tiny ovals (small a) and, for gaps near 1,
    # generic levels; the reduction passes its own normalization checks
    # or the curve is degenerate
    p = wall + side * 10.0 ** log_gap - root * a
    c = quartic_from_params(0.5 * a * a, p)
    try:
        red = reduce_to_legendre(c)
    except DegenerateCurve:
        assert c.degenerate
    else:
        assert 0.0 < red.k2 < 1.0 and red.C_const > 0.0
