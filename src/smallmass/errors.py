"""Exception hierarchy shared by all smallmass modules.

Two branches matter for the CLI exit-code mapping: ``ValidationFailure``
(bad input or configuration, detected before/without numerics) and
``NumericalFailure`` (a numerical routine could not deliver a trustworthy
result).
"""


class SmallmassError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(SmallmassError):
    """Input or configuration rejected up front."""


class NumericalFailure(SmallmassError):
    """A numerical routine failed or refused to proceed."""


# --- validation-side errors -------------------------------------------------

class NonFinite(ValidationFailure):
    """An input array contains NaN or Inf."""


class DimensionMismatch(ValidationFailure):
    """Operands live in different state dimensions."""


class CountMismatch(ValidationFailure):
    """Empirical measures with different sample counts."""


class SizeLimitExceeded(ValidationFailure):
    """Problem size beyond the supported limit."""


class UnknownFamily(ValidationFailure):
    """Requested model family is not in the registry."""


class ParameterViolation(ValidationFailure):
    """Model parameters violate a family constraint."""


class StepTooLarge(ValidationFailure):
    """Explicit step size exceeds the stiffness bound delta <= eps/kappa."""


class GridMismatch(ValidationFailure):
    """Coarse step is not an integer multiple of the fast step."""


class InsufficientReplicas(ValidationFailure):
    """Monte Carlo experiment needs at least two replicas."""


class ParseError(ValidationFailure):
    """Configuration document is not well-formed JSON."""


class ValidationError(ValidationFailure):
    """Configuration document violates the schema."""


class UsageError(SmallmassError):
    """Command line could not be parsed."""


# --- numerical-side errors --------------------------------------------------

class SingularSystem(NumericalFailure):
    """Linear system is numerically singular."""


class UnstableFriction(NumericalFailure):
    """Symmetric part of the friction matrix is not positive definite."""


class SpectrumOverlap(NumericalFailure):
    """Sylvester operands do not have half-plane separated spectra."""


class ToleranceNotMet(NumericalFailure):
    """Quadrature refinement stalled before reaching the tolerance."""


class NumericalBlowup(NumericalFailure):
    """Simulation state exceeded the blowup guard."""


class DegenerateFit(NumericalFailure):
    """Rate fit impossible: fewer than three points or non-positive errors."""


class AssumptionViolated(NumericalFailure):
    """Model violates an ellipticity/regularity assumption at a probe point.

    Carries the offending state in ``probe_point`` and, when available, the
    full probe report in ``report``.
    """

    def __init__(self, message, probe_point=None, report=None):
        super().__init__(message)
        self.probe_point = probe_point
        self.report = report


class IllConditionedWarning(UserWarning):
    """The Kronecker operator of a point Lyapunov/Sylvester solve has a
    condition number (largest over smallest singular value) above 1e12."""
