"""Exception types shared across the package, and its one integer check.

Everything raised on bad mathematical input derives from KnotAlexError so
callers (and the command-line front end) can catch domain errors with one
except clause while genuine bugs still surface as ordinary exceptions.
Inputs of the wrong type raise a plain TypeError after ``_is_integer``, which
every module that takes integers shares; it lives here because every
command-line call already imports this module.
"""


def _is_integer(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class KnotAlexError(Exception):
    """Base class for all domain errors raised by this package."""


class WordParseError(KnotAlexError, ValueError):
    """Malformed word text: unknown generator, bad exponent, stray parenthesis."""


class PresentationError(KnotAlexError, ValueError):
    """A presentation violates its structural requirements."""


class DivisionByZero(KnotAlexError, ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(KnotAlexError):
    """Exact polynomial division left a nonzero remainder."""


class NotAKnotPolynomial(KnotAlexError):
    """Polynomial cannot be normalized: zero, or its value at t = 1 is not +-1."""


class NotPalindromic(KnotAlexError):
    """Coefficient sequence is not symmetric under reversal."""


class OddSpan(KnotAlexError):
    """Palindromic polynomial has odd span, so there is no integer center."""


class H1RankNotOne(KnotAlexError):
    """Nullspace of the exponent-sum matrix is not one-dimensional."""


class ZeroWeightColumn(KnotAlexError):
    """Requested column removal for a generator of abelianized weight zero."""


class NotCoprime(KnotAlexError):
    """Torus-knot parameters must be coprime."""


class CertificationFailed(KnotAlexError):
    """A numeric condition required by a root certificate did not hold."""


class ResidualTooLarge(KnotAlexError):
    """Polynomial value at a certified root exceeds the residual bound."""
