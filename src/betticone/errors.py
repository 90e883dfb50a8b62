"""Exception types shared across the package, and the checks on outside input.

Everything raised on purpose derives from BettiConeError so callers can
catch one type at the boundary (the CLI does exactly that).
"""

import re
import sys
from fractions import Fraction

# the exponent of Fraction's "1.5e-3" form, with the underscores Fraction allows
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
# the "n/d" that to_json_obj writes: ASCII digits, no sign but a leading "-"
_CANONICAL = re.compile(r"-?[0-9]+/[0-9]+")


def require_int(value, what: str, error: type) -> int:
    """value if it is an int; a bool, 1.0 or "1" raises error naming what."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def rational_pair(value, what: str) -> tuple:
    """(n, d) with d > 0 and n/d the rational that value gives, the one
    reader of rational input: require_rational is this pair as a Fraction,
    and the diagram readers sum the pairs as integers.

    A str is read as text. The canonical "n/d" that to_json_obj writes,
    with a nonzero d, is read by int() alone and comes back as written,
    not reduced. Every other spelling, and an int() that refuses (past
    the digit limit), takes Fraction(str) and comes back in lowest terms.
    The exponent form is how a short text reaches a huge integer, so an
    exponent whose power of ten would have more digits than
    sys.get_int_max_str_digits() is refused before Fraction builds it.

    An int (a JSON integer; not a bool) comes back as (n, 1) and a
    Fraction as its own pair, without a trip through str(), so the digit
    limit does not apply to them. Every other type raises one ValueError
    naming what: a float (a JSON number with a point or an exponent) has
    already been rounded to a binary double, so 1.00000000000000001 would
    read as 1 and 0.1 is not 1/10.

    >>> rational_pair(Fraction(-5, 2), "v"), rational_pair(7, "v"), rational_pair("2/4", "v")
    ((-5, 2), (7, 1), (2, 4))
    >>> rational_pair(0.1, "v")
    Traceback (most recent call last):
        ...
    ValueError: v must be a Fraction, an int or a str, got 0.1 (quote it: a float is already rounded to a binary double)
    """
    if not isinstance(value, str):
        if type(value) is int:
            return value, 1
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        message = f"{what} must be a Fraction, an int or a str, got {value!r}"
        if isinstance(value, float):
            message += " (quote it: a float is already rounded to a binary double)"
        raise ValueError(message)
    if _CANONICAL.fullmatch(value):
        n, _, d = value.partition("/")
        try:
            n, d = int(n), int(d)
        except ValueError:
            pass  # Fraction(value) below says the same, naming what
        else:
            if d:
                return n, d
    limit = sys.get_int_max_str_digits()
    if limit and (exp := _EXPONENT.search(value)):
        n = exp[1].replace("_", "").lstrip("0")
        if len(n) > len(str(limit)) or int(n or 0) >= limit:
            raise ValueError(f"{what} {value!r}: |exponent| must be below the digit limit {limit}")
    try:
        read = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} {value} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    return read.numerator, read.denominator


def require_rational(value, what: str) -> Fraction:
    """value as a Fraction: a Fraction as it is, anything else read by
    rational_pair, which refuses every type but an int and a str."""
    return value if isinstance(value, Fraction) else Fraction(*rational_pair(value, what))


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
