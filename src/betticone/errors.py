"""Exception types shared across the package, and the two checks on outside
input: require_int and require_rational.

Everything raised on purpose derives from BettiConeError so callers can
catch one type at the boundary (the CLI does exactly that).
"""

import re
import sys
from fractions import Fraction

# the exponent of Fraction's "1.5e-3" form, with the underscores Fraction allows
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def require_int(value, what: str, error: type) -> int:
    """value if it is an int; a bool, 1.0 or "1" raises error naming what."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def require_rational(value, what: str) -> Fraction:
    """value as a Fraction, the one reader of a rational given from outside.

    A Fraction is returned as it is, and an int (a JSON integer; not a
    bool) as Fraction(value), without a trip through str(), so the digit
    limit does not apply to them. A str is read by Fraction(str), in
    lowest terms. The exponent form is how a short text reaches a huge
    integer, so an exponent whose power of ten would have more digits than
    sys.get_int_max_str_digits() is refused before Fraction builds it.
    Every other type raises one ValueError naming what: a float (a JSON
    number with a point or an exponent) has already been rounded to a
    binary double, so 1.00000000000000001 would read as 1 and 0.1 is not
    1/10.

    >>> require_rational(Fraction(-5, 2), "v"), require_rational(7, "v"), require_rational("2/4", "v")
    (Fraction(-5, 2), Fraction(7, 1), Fraction(1, 2))
    >>> require_rational(0.1, "v")
    Traceback (most recent call last):
        ...
    ValueError: v must be a Fraction, an int or a str, got 0.1 (quote it: a float is already rounded to a binary double)
    """
    if not isinstance(value, str):
        if isinstance(value, Fraction):
            return value
        if type(value) is int:
            return Fraction(value)
        message = f"{what} must be a Fraction, an int or a str, got {value!r}"
        if isinstance(value, float):
            message += " (quote it: a float is already rounded to a binary double)"
        raise ValueError(message)
    limit = sys.get_int_max_str_digits()
    if limit and (exp := _EXPONENT.search(value)):
        n = exp[1].replace("_", "").lstrip("0")
        if len(n) > len(str(limit)) or int(n or 0) >= limit:
            raise ValueError(f"{what} {value!r}: |exponent| must be below the digit limit {limit}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} {value} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


class BettiConeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDegreeSequence(BettiConeError):
    """Degree sequence is not a strictly increasing integer tuple."""


class EmptyDiagram(BettiConeError):
    """Operation needs a nonempty diagram."""


class MissingColumn(BettiConeError):
    """A column between 0 and the projective dimension has no entries."""

    def __init__(self, p):
        super().__init__(f"column {p} has no entries")
        self.p = p


class NotStrictlyIncreasing(BettiConeError):
    """The top strand of a diagram is not a valid degree sequence."""


class NegativeEntry(BettiConeError):
    """An entry is below zero: in the input, or after a subtraction."""

    def __init__(self, p, q, value):
        super().__init__(f"negative entry at ({p},{q}): {value}")
        self.p = p
        self.q = q
        self.value = value


class NotCohenMacaulayShape(BettiConeError):
    """(1-t)^s does not divide the alternating-sum polynomial."""


class NotInCone(BettiConeError):
    """Greedy decomposition failed; diagram is outside the pure-diagram cone.

    Carries the partial decomposition and the residual at the point of
    failure for diagnostics.
    """

    def __init__(self, message, partial=None, residual=None):
        super().__init__(message)
        self.partial = partial
        self.residual = residual


class InvalidParams(BettiConeError):
    """Secant parameters violate g >= 1, k >= 0 or d >= 2g + 2k + 1."""


class InvalidTuple(BettiConeError):
    """Jump tuple is not weakly increasing inside [0, g]."""


class OutOfRange(BettiConeError):
    """Argument outside the operation's documented range."""


class TupleNotMaximalRegularity(BettiConeError):
    """Leading-coefficient formula needs every jump present (i_0 >= 1)."""


class InvalidRange(BettiConeError):
    """Sweep grid is malformed."""
