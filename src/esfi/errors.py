"""Exception and warning types shared by the esfi modules, and the way
every entry point reads a number it is given.

The hierarchy mirrors the CLI exit-code contract: validation failures
(bad inputs, violated preconditions) exit 2, regime failures (field too
high for the requested treatment) exit 3, numeric failures exit 4.
"""

import math
from fractions import Fraction


def _shown(x):
    """x as esfi reads a number it is given: an int or Fraction beyond the
    float range, which math.isfinite and float() refuse with
    OverflowError, as the float infinity of its sign; anything else
    unchanged, arrays and non-numbers included, for the caller's own
    check to accept or refuse. Only an int or Fraction can overflow, so
    nothing else is converted (Fraction by its type: an isinstance test
    against it goes through its ABC, which costs every float a few times
    the test itself)."""
    if isinstance(x, int) or type(x) is Fraction:
        try:
            math.isfinite(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return x


class EsfiError(Exception):
    """Base class for all esfi errors."""


class ValidationError(EsfiError, ValueError):
    """An input violates a documented precondition (CLI exit code 2)."""


class RegimeError(EsfiError):
    """The requested field lies outside the treatment's regime (exit 3)."""


class NumericError(EsfiError):
    """A numerical procedure failed to converge or bracket (exit 4)."""


class NonPositiveZ(ValidationError):
    pass


class NonPositiveIonizationEnergy(ValidationError):
    pass


class NonPositiveField(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    """A quantity is infinite or nan, as given or after unit conversion."""


class NegativeCoordinate(ValidationError):
    pass


class NonPositiveCoordinate(ValidationError):
    pass


class UnsupportedGaussianDimension(ValidationError):
    """Gaussian-system conversion requested for anything other than
    elementary charge or electric field."""


class TargetUnattainable(ValidationError):
    """Inversion target outside the attainable rate range on the bracket."""


class ShallowTunnellingRegime(RegimeError):
    """Field at or above the deep-tunnelling guard for a closed-form rate."""


class BarrierSuppressed(RegimeError):
    """The motive energy has no positive region: the barrier has vanished.

    Carries the computed suppression field (canonical V/nm) when known.
    """

    def __init__(self, message: str, suppression_field: float | None = None):
        super().__init__(message)
        self.suppression_field = suppression_field


class BracketingFailure(NumericError):
    """Turning points not resolvable in floating point, at fields so small
    that the barrier spans the float range (diagnostic)."""


class QuadratureNonConvergence(NumericError):
    pass


class NonMonotoneBracket(NumericError):
    """Rate was not monotone over the inversion bracket.  The default
    brackets end below each rate's maximum; a given bracket that reaches
    past it raises this, which for ionization energies far above Z^2 I_H
    happens even below the deep-tunnelling guard."""


class Eta0OutsideWindow(UserWarning):
    """Matching coordinate lies outside the soft window between the orbit
    radius and the outer turning point; results may lose accuracy."""


class ShallowBarrierWarning(UserWarning):
    """Escape probability formally exceeds 1; the barrier is too shallow
    for the quasi-classical treatment to be trustworthy."""
