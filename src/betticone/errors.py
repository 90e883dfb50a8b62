"""Exception types shared across the package.

Everything raised on purpose derives from BettiConeError so callers can
catch one type at the boundary (the CLI does exactly that).
"""


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
    """An entry is below zero: in the input, or after a strict subtraction."""

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
