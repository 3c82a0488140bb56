"""Exception hierarchy shared by all smallmass modules.

Two branches matter for the CLI exit-code mapping: ``ValidationFailure``
(bad input or configuration, detected before/without numerics) and
``NumericalFailure`` (a numerical routine could not deliver a trustworthy
result).

Three readers check the numbers a caller passes: ``integer`` for seeds,
replica ids and counts, ``real`` for masses, steps, constants and bounds, and
``array`` for the nested lists of numbers of family parameters, start states
and problem files.  Each refuses a bool, a non-number and a non-finite value
with ValidationError.  ``array`` reads every entry with ``real``, one by one,
and refuses a ragged list; so it is for configuration values, not for the
arrays a step makes, which are converted where they are used.  ``instance``
checks the objects a caller hands over: a model, a probe configuration, a
measure, a family spec, a report, a path record.
"""

import math
import numbers

import numpy as np


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


def real(value, what: str, positive=False) -> float:
    """``value`` as a float.  ValidationError unless it is a real number,
    Python's or numpy's but not a bool, within the float range and finite,
    and, with ``positive``, above zero."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):   # np.bool_ is no Real
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the float range
        raise ValidationError(f"{what} is beyond the float range") from None
    if not math.isfinite(number) or (positive and number <= 0.0):
        bound = "positive and finite" if positive else "finite"
        raise ValidationError(f"{what} must be {bound}, got {value!r}")
    return number


def array(value, what: str) -> np.ndarray:
    """``value``, a number or a nested list, tuple or ndarray of numbers, as a
    float ndarray of its shape, every entry read by ``real``.  ValidationError
    for an entry ``real`` refuses and for a ragged list."""

    def walk(v):
        v = v.tolist() if isinstance(v, np.ndarray) else v
        return [walk(u) for u in v] if isinstance(v, (list, tuple)) else real(v, what)

    try:
        return np.asarray(walk(value), dtype=float)
    except ValueError:   # ragged nesting; ``real`` raises no ValueError
        raise ValidationError(f"{what} is a ragged list") from None


def instance(value, cls: type, what: str):
    """``value`` itself.  ValidationError unless it is an instance of ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{what} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


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
