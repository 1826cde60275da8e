"""Exception types shared across the package.

Every error raised deliberately by this package derives from UttError,
so callers can catch one base class at the CLI boundary.
"""


class UttError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimeError(UttError):
    """The modulus base is not an odd prime."""


class NotPrimitiveError(UttError):
    """q does not have multiplicative order p*(p-1) modulo p**2."""


class BadPrecisionError(UttError):
    """The precision exponent N is not a positive integer."""


class ContextMismatchError(UttError):
    """Two values from different p-adic contexts were combined."""


class NotAUnitError(UttError):
    """Inversion was requested for a residue divisible by p."""


class PrecisionExhaustedError(UttError):
    """Cancellation left fewer than one significant p-adic digit."""


class SizeMismatchError(UttError):
    """Two matrix windows of different sizes were combined."""


class NotInvertibleError(UttError):
    """A windowed matrix has a non-unit diagonal entry."""


class BadIndexError(UttError):
    """An index fell outside the domain of the requested object."""


class DomainError(UttError, ValueError):
    """An argument lies outside the domain of the function it was passed to."""


class InvariantError(UttError):
    """A computed result broke a property that its construction guarantees."""
