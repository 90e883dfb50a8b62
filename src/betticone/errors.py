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


def parse_rational(text, what: str) -> Fraction:
    """The Fraction that text (an int, or a str such as "-5/2", "0.25" or
    "1e-3") spells; anything else, a float included, raises ValueError
    naming what. It is the pair rational_pair reads, in lowest terms."""
    return Fraction(*rational_pair(text, what))


def rational_pair(text, what: str) -> tuple:
    """(n, d) with d > 0 and n/d the value text spells, the one reader of
    rational text: parse_rational is this pair as a Fraction, and the
    diagram reader sums the pairs as integers.

    An int (a JSON integer; not a bool) comes back as (n, 1) without a trip
    through str(), so the digit limit does not apply to it. The canonical
    "n/d" that to_json_obj writes, with a nonzero d, is read by int() alone
    and comes back as written, not reduced ("2/4" is (2, 4)).
    Every other spelling, and an int() that refuses (past the digit limit),
    takes Fraction(str) and comes back in lowest terms.

    The exponent form is how a short text reaches a huge integer, so an
    exponent whose power of ten would have more digits than
    sys.get_int_max_str_digits() is refused before Fraction builds it.

    A float (a JSON number with a point or an exponent) is refused: it has
    already been rounded to a binary double, so 1.00000000000000001 would
    read as 1.
    """
    if isinstance(text, float):
        raise ValueError(
            f"{what} must be an integer or a string, got the float {text!r}"
            " (quote it: a float is already rounded to a binary double)"
        )
    if type(text) is int:
        return text, 1
    literal = str(text)
    if _CANONICAL.fullmatch(literal):
        n, _, d = literal.partition("/")
        try:
            n, d = int(n), int(d)
        except ValueError:
            pass  # Fraction(literal) below says the same, naming what
        else:
            if d:
                return n, d
    limit = sys.get_int_max_str_digits()
    if limit and (exp := _EXPONENT.search(literal)):
        n = exp[1].replace("_", "").lstrip("0")
        if len(n) > len(str(limit)) or int(n or 0) >= limit:
            raise ValueError(f"{what} {text!r}: |exponent| must be below the digit limit {limit}")
    try:
        value = Fraction(literal)
    except ZeroDivisionError:
        raise ValueError(f"{what} {literal} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    return value.numerator, value.denominator


def require_rational(value, what: str) -> Fraction:
    """value as a Fraction: a Fraction as it is, an int (not a bool) made
    one, a str read by parse_rational; a float, a bool or anything else
    raises ValueError naming what (0.1 is not 1/10)."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value, what)
    raise ValueError(f"{what} must be a Fraction, an int or a str, got {value!r}")


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
