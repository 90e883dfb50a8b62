"""Greedy decomposition of a diagram into pure summands.

The algorithm is the standard top-strand peel: read off the columnwise
minimal degrees, subtract the largest multiple of that pure diagram that
keeps every entry nonnegative, repeat. Each step zeroes at least one entry,
so the loop runs at most as many times as the input has entries.

The loop is diagrams._greedy_peel, which keeps the residual as a private
dict of integer numerators, updated in place on each step, compares them
with the pure diagram's directly and builds one Fraction per step, the
coefficient; Decomposition.reconstruct is one linear combination
(diagrams._combination). So the table format is read in diagrams alone.
A failure hands out the residual it stopped at as a table of its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagrams import (
    BettiDiagram,
    DegreeSequence,
    _combination,
    _diagram_json,
    _greedy_peel,
    _nonnegative,
    pure_diagram,
)
from .errors import EmptyDiagram, MalformedDegreeSequence, NotInCone, require_rational


class PureSummand(NamedTuple):
    """One term c * pure_diagram(degrees) of a decomposition.

    tight_columns records every column whose entry ratio achieved the
    greedy minimum (the entries that hit zero on subtraction); purely
    diagnostic.
    """

    coefficient: Fraction
    degrees: DegreeSequence
    tight_columns: tuple = ()


class Decomposition(NamedTuple):
    summands: tuple = ()
    residual: BettiDiagram = BettiDiagram()

    def coefficient_sum(self) -> Fraction:
        return sum((s.coefficient for s in self.summands), Fraction(0))

    def reconstruct(self) -> BettiDiagram:
        """Sum of all summands plus the residual, as one combination; each
        coefficient is read by require_rational (0.1 is refused, not
        taken as 3602879701896397/36028797018963968).

        Every summand is checked in order first, so the first bad one is
        named; the pure diagrams are then asked for last-first, so the
        newest entries of pure_diagram's memo, which decompose filled
        first-to-last, are read before older ones evict them.
        """
        checked = [
            (require_rational(s.coefficient, "coefficient"), DegreeSequence(s.degrees))
            for s in self.summands
        ]
        terms = [(1, self.residual)]
        terms += ((c, pure_diagram(e)) for c, e in reversed(checked))
        return _combination(terms)

    def to_json_obj(self) -> dict:
        return {
            "summands": [
                {
                    "c": f"{s.coefficient.numerator}/{s.coefficient.denominator}",
                    "e": list(s.degrees),
                }
                for s in self.summands
            ],
            "residual": self.residual.to_json_obj() if self.residual else None,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Decomposition":
        if not isinstance(obj, dict) or not isinstance(obj.get("summands"), list):
            raise ValueError("decomposition JSON must have a 'summands' list")
        summands = []
        for item in obj["summands"]:
            if not isinstance(item, dict) or not {"c", "e"} <= set(item):
                raise ValueError(f"malformed summand: {item!r}")
            coefficient = require_rational(item["c"], "coefficient")
            try:  # a JSON number or null for e is not iterable: TypeError
                degrees = DegreeSequence(item["e"])
            except (MalformedDegreeSequence, TypeError) as exc:
                raise ValueError(f"malformed summand: {item!r}") from exc
            summands.append(PureSummand(coefficient=coefficient, degrees=degrees))
        residual = obj.get("residual")  # absent or null: no residual, as written
        return cls(
            summands=tuple(summands),
            residual=BettiDiagram() if residual is None else BettiDiagram.from_json_obj(residual),
        )


def _decomposition_json(dec: Decomposition) -> str:
    """json.dumps(dec.to_json_obj(), indent=2): the CLI's writer, formatted
    straight from the summands, whose degrees are never empty."""
    summands = []
    for s in dec.summands:
        c, degrees = s.coefficient, ",\n        ".join(map(str, s.degrees))
        summands.append(
            f'    {{\n      "c": "{c.numerator}/{c.denominator}",\n'
            f'      "e": [\n        {degrees}\n      ]\n    }}'
        )
    listed = "[\n" + ",\n".join(summands) + "\n  ]" if summands else "[]"
    residual = _diagram_json(dec.residual, "  ") if dec.residual else "null"
    return f'{{\n  "summands": {listed},\n  "residual": {residual}\n}}'


def decompose(b: BettiDiagram) -> Decomposition:
    """Decompose b into positive multiples of pure diagrams.

    Raises NotInCone when a step cannot continue (gap in the columns or top
    strand not strictly increasing); the exception carries the partial
    decomposition and the residual at the point of failure. b, like every
    diagram, is never modified.

    Each step peels the pure diagram of the residual's top strand
    (diagrams._greedy_peel), with the least entry ratio over its cells as
    the coefficient, so no entry goes negative. The steps' coefficients,
    strands and tight columns become the summands.
    """
    if not b:
        raise EmptyDiagram("cannot decompose an empty diagram")
    steps, failure = _greedy_peel(_nonnegative(b))
    summands = tuple(
        PureSummand(coefficient=c, degrees=e, tight_columns=tight) for c, e, tight in steps
    )
    if failure:
        exc, residual = failure
        raise NotInCone(
            f"top strand failed: {exc}",
            partial=Decomposition(summands, residual),
            residual=residual,
        ) from exc
    return Decomposition(summands, BettiDiagram())


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify(b: BettiDiagram, dec: Decomposition) -> VerifyResult:
    """Check that dec is an exact decomposition of b.

    True iff every coefficient is positive, the residual is empty, and the
    summands reconstruct b exactly; otherwise false with the first violated
    condition spelled out. A coefficient that is not a rational
    (require_rational) raises ValueError.
    """
    for idx, s in enumerate(dec.summands):
        c = require_rational(s.coefficient, "coefficient")
        if c <= 0:
            return VerifyResult(False, f"summand {idx} has coefficient {c} <= 0")
    if dec.residual:
        return VerifyResult(False, "residual is not empty")
    if dec.reconstruct() != b:
        return VerifyResult(False, "reconstruction does not match the input")
    return VerifyResult(True)
