"""Exception hierarchy shared by all smallmass modules.

Two branches matter for the CLI exit-code mapping: ``ValidationFailure``
(bad input or configuration, detected before/without numerics) and
``NumericalFailure`` (a numerical routine could not deliver a trustworthy
result).  ``integer`` is the one check of the integers a caller passes:
seeds, replica ids and counts.
"""

import numbers


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


def integer(value, what: str, least=None) -> int:
    """``value`` as an int.  ValidationError unless it is an integer, Python's
    or numpy's but not a bool, and, when ``least`` is given, at least that."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return int(value)


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
    """A point Lyapunov/Sylvester solve is flagged as ill-conditioned: the bound
    (||G1||_2 + ||G2||_2) / 2c on the condition number of its Kronecker
    operator, c the smallest symmetric-part eigenvalue of G1 and G2, is above
    1e12."""
