"""Magnetic geodesic flow on the flat two-torus with field F = cos x dx^dy.

The flow is completely integrable: the energy E and the y-momentum
p = ydot + sin x are conserved, every non-degenerate orbit has an exact
elliptic-function solution, and the variational structure (actions of
closed orbits, films and their minimizer, the critical energy 1/2) is
explicit.  This package provides the closed forms, a direct adaptive
integrator to cross-validate them, orbit classification over (E, p), and
the action/film machinery, plus a CLI for reproducible exports.
"""

from .closedform import build_solution, eval_solution
from .dynamics import (
    PhaseState,
    energy,
    momentum,
    reduced_lagrangian,
    rhs,
    state_from_integrals,
)
from .elliptic import complete_K, incomplete_F, sn
from .errors import (
    DegenerateCurve,
    DomainError,
    LossOfPrecisionWarning,
    MagflowError,
    OpenCurve,
    ReductionInconsistency,
    StepFailure,
    UnsupportedRegime,
    WrongRegime,
)
from .integrate import conservation_report, integrate
from .legendre import map_z_to_xi, quartic_from_params, reduce_to_legendre
from .orbits import (
    CylinderStrip,
    OrbitDisc,
    OrbitKind,
    action_contractible_formula,
    action_direct,
    action_increment,
    classify,
    contractible_orbit,
    cycle_action,
    cycle_data,
    film_action,
    vertical_line_action,
)

__version__ = "0.1.0"

__all__ = [
    "CylinderStrip",
    "DegenerateCurve",
    "DomainError",
    "LossOfPrecisionWarning",
    "MagflowError",
    "OpenCurve",
    "OrbitDisc",
    "OrbitKind",
    "PhaseState",
    "ReductionInconsistency",
    "StepFailure",
    "UnsupportedRegime",
    "WrongRegime",
    "action_contractible_formula",
    "action_direct",
    "action_increment",
    "build_solution",
    "classify",
    "complete_K",
    "conservation_report",
    "contractible_orbit",
    "cycle_action",
    "cycle_data",
    "energy",
    "eval_solution",
    "film_action",
    "incomplete_F",
    "integrate",
    "map_z_to_xi",
    "momentum",
    "quartic_from_params",
    "reduce_to_legendre",
    "reduced_lagrangian",
    "rhs",
    "sn",
    "state_from_integrals",
    "vertical_line_action",
]
