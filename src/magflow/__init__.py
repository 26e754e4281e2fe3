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
    integrals,
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
    NoReturnFound,
    OpenCurve,
    ReductionInconsistency,
    StepFailure,
    UnsupportedRegime,
    WrongRegime,
)
from .integrate import conservation_report, find_return, integrate, measure_period
from .legendre import map_xi_to_z, map_z_to_xi, quartic_from_params, reduce_to_legendre
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
    delta_y,
    film_action,
    film_strip_grid_search,
    lagrangian_sign_scan,
    mane_level_scan,
    vertical_line_action,
)

__version__ = "0.1.0"

__all__ = [
    "CylinderStrip",
    "DegenerateCurve",
    "DomainError",
    "LossOfPrecisionWarning",
    "MagflowError",
    "NoReturnFound",
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
    "delta_y",
    "energy",
    "eval_solution",
    "film_action",
    "film_strip_grid_search",
    "find_return",
    "incomplete_F",
    "integrals",
    "integrate",
    "lagrangian_sign_scan",
    "mane_level_scan",
    "map_xi_to_z",
    "map_z_to_xi",
    "measure_period",
    "momentum",
    "quartic_from_params",
    "reduce_to_legendre",
    "reduced_lagrangian",
    "rhs",
    "sn",
    "state_from_integrals",
    "vertical_line_action",
]
