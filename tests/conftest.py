"""Shared sampling helpers for the test suite."""

import numpy as np
import pytest

from magflow import state_from_integrals


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def quartic(E, p, z):
    """The oval quartic (1 - z^2)(2E - (p - z)^2), monic in z, with roots
    +-1 and p -+ sqrt(2E); the radicand of the quadrature oracles."""
    return (1.0 - z * z) * (2.0 * E - (p - z) ** 2)


def sample_level(rng, e_lo=0.02, e_hi=0.48, margin=0.02):
    """Random non-degenerate (E, p) with E below the critical level.

    Keeps every turning root at least `margin` away from +-1 so the curve
    is safely away from separatrices; covers trapped and crossing regimes.
    """
    while True:
        E = rng.uniform(e_lo, e_hi)
        a = np.sqrt(2.0 * E)
        p = rng.uniform(-(1.0 + a) + margin, (1.0 + a) - margin)
        gaps = [abs(p - a - 1), abs(p - a + 1), abs(p + a - 1), abs(p + a + 1)]
        if min(gaps) > margin:
            return E, p


def sample_trapped(rng, margin=0.03):
    """Random trapped-oval pair with p bounded away from zero."""
    while True:
        a = rng.uniform(0.15, 0.8)
        p_max = 1.0 - a - margin
        if p_max < 0.02:
            continue
        p = rng.uniform(0.02, p_max) * rng.choice([-1.0, 1.0])
        return 0.5 * a * a, p


def sample_admissible_state(rng, E, p):
    """Random state on the level set (E, p), any strip, any xdot sign."""
    a = np.sqrt(2.0 * E)
    z_lo, z_hi = max(p - a, -1.0), min(p + a, 1.0)
    pad = 0.05 * (z_hi - z_lo)
    z0 = rng.uniform(z_lo + pad, z_hi - pad)
    x0 = float(np.arcsin(z0))
    if rng.random() < 0.5:
        x0 = np.pi - x0  # start in the cos x < 0 strip
    sign = int(rng.choice([-1, 1]))
    return state_from_integrals(x0, float(rng.uniform(-3, 3)), E, p, sign)
