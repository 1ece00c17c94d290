"""Exception types raised by the effectkit modules.

Everything derives from EffectKitError so callers can catch the whole
family at once, and every concrete error from exactly one of two bases:
InputError for unusable *inputs* (shape, hermiticity, spectrum, parameter
ranges) and CheckFailed for failed *mathematical checks* (order
violations, quotient breakdowns, fit rejections).  The CLI maps the former
to exit code 2 and the latter to exit code 1, and no other exception.
"""

__all__ = [
    "EffectKitError",
    "InputError",
    "CheckFailed",
    "DimensionError",
    "HermiticityViolation",
    "NotPositiveSemidefinite",
    "SpectrumOutOfRange",
    "RankError",
    "OrderViolation",
    "OrthogonalityError",
    "SpanError",
    "DegenerateRanges",
    "QuotientFailure",
    "DomainError",
    "ParamError",
    "FitError",
    "NotScalarAction",
    "NotInFamily",
    "UnitarityViolation",
]


class EffectKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EffectKitError):
    """An input is unusable: the CLI exits 2."""


class CheckFailed(EffectKitError):
    """A mathematical check failed: the CLI exits 1."""


class DimensionError(InputError):
    """Matrix or vector has the wrong shape, or dimensions disagree."""


class HermiticityViolation(InputError):
    """Matrix is not Hermitian within tolerance."""


class NotPositiveSemidefinite(InputError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class SpectrumOutOfRange(InputError):
    """Hermitian matrix has spectrum outside [0, 1] beyond tolerance."""


class RankError(InputError):
    """Operand does not have the rank required by the operation."""


class OrderViolation(CheckFailed):
    """Required Loewner ordering between operands does not hold."""


class OrthogonalityError(InputError):
    """Operands required to be orthogonal are not."""


class SpanError(InputError):
    """Vector lies outside the required subspace."""


class DegenerateRanges(InputError):
    """Rank-one operands have coinciding ranges where distinct ones are needed."""


class QuotientFailure(CheckFailed):
    """Sequential quotient could not be formed within tolerance."""


class DomainError(InputError):
    """Scalar argument lies outside the domain of the function."""


class ParamError(InputError):
    """Parameter outside its admissible range."""


class FitError(CheckFailed):
    """Regression input is unusable or the fitted parameters are invalid."""


class NotScalarAction(CheckFailed):
    """Map does not act as a scalar on the tested ray."""


class NotInFamily(CheckFailed):
    """Black-box map is inconsistent with the fractional order automorphism family."""


class UnitarityViolation(InputError):
    """Matrix expected to be unitary is not, within tolerance."""
