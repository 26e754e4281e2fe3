"""Exception hierarchy shared by all magflow modules."""


class MagflowError(Exception):
    """Base class for all library errors."""


class DomainError(MagflowError, ValueError):
    """Input lies outside the mathematically admissible domain."""


class DegenerateCurve(MagflowError):
    """The quartic has a (near-)double root; the orbit is a separatrix."""


class ReductionInconsistency(MagflowError):
    """Internal normalization checks of a Legendre reduction failed."""


class UnsupportedRegime(MagflowError):
    """Closed-form evaluation was requested for a regime it does not cover."""


class WrongRegime(MagflowError):
    """Quantity requested for an orbit class where it is undefined."""


class StepFailure(MagflowError, RuntimeError):
    """Adaptive integrator step size underflowed."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class OpenCurve(MagflowError):
    """A closed-trajectory functional was applied to a non-closed curve."""


class LossOfPrecisionWarning(RuntimeWarning):
    """Result is finite but computed near a logarithmic divergence."""
