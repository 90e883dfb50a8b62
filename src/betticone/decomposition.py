"""Greedy decomposition of a diagram into pure summands.

The algorithm is the standard top-strand peel: read off the columnwise
minimal degrees, subtract the largest multiple of that pure diagram that
keeps every entry nonnegative, repeat. Each step zeroes at least one entry,
so the loop runs at most as many times as the input has entries.

The residual is the peel's own copy of the input, peeled in place. A step
reads its top strand (one scan of its keys), then adds -c times one pure
diagram into it through the same summing loop as every other diagram sum,
touching only n+1 entries, n the projective dimension of the current
residual; it copies no residual.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagrams import BettiDiagram, DegreeSequence, _add_into, _nonnegative, pure_diagram, top_strand
from .errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NotInCone,
    NotStrictlyIncreasing,
    parse_rational,
)


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
        """Sum of all summands plus the residual."""
        out = _add_into(BettiDiagram(), self.residual.items())
        for s in self.summands:
            c = Fraction(s.coefficient)
            _add_into(out, ((key, c * v) for key, v in pure_diagram(s.degrees).items()))
        return out

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
            coefficient = parse_rational(item["c"], "coefficient")
            try:  # a JSON number or null for e is not iterable: TypeError
                degrees = DegreeSequence(item["e"])
            except (MalformedDegreeSequence, TypeError) as exc:
                raise ValueError(f"malformed summand: {item!r}") from exc
            summands.append(PureSummand(coefficient=coefficient, degrees=degrees))
        residual = obj.get("residual")
        return cls(
            summands=tuple(summands),
            residual=BettiDiagram.from_json_obj(residual) if residual else BettiDiagram(),
        )


def decompose(b: BettiDiagram) -> Decomposition:
    """Decompose b into positive multiples of pure diagrams.

    Raises NotInCone when a step cannot continue (gap in the columns or top
    strand not strictly increasing); the exception carries the partial
    decomposition and a snapshot of the residual at the point of failure.
    b itself is never modified.

    No step can go negative: c is the least residual/pure ratio over the
    top-strand cells, each of which is a positive entry of the residual, so
    every entry the step touches stays >= 0 and exactly the tight ones
    reach zero.
    """
    if not b:
        raise EmptyDiagram("cannot decompose an empty diagram")
    summands = []
    residual = _add_into(BettiDiagram(), _nonnegative(b).items())
    while residual:
        try:
            e = top_strand(residual)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            snapshot = _add_into(BettiDiagram(), residual.items())
            raise NotInCone(
                f"top strand failed: {exc}",
                partial=Decomposition(tuple(summands), snapshot),
                residual=snapshot,
            ) from exc
        pure = pure_diagram(e).items()
        ratios = [residual.get(p, q) / v for (p, q), v in pure]
        c = min(ratios)
        tight = tuple(p for p, r in enumerate(ratios) if r == c)
        minus_c = -c
        _add_into(residual, ((key, minus_c * v) for key, v in pure))
        summands.append(PureSummand(coefficient=c, degrees=e, tight_columns=tight))
    return Decomposition(tuple(summands), BettiDiagram())


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify(b: BettiDiagram, dec: Decomposition) -> VerifyResult:
    """Check that dec is an exact decomposition of b.

    True iff every coefficient is positive, the residual is empty, and the
    summands reconstruct b exactly; otherwise false with the first violated
    condition spelled out.
    """
    for idx, s in enumerate(dec.summands):
        if s.coefficient <= 0:
            return VerifyResult(False, f"summand {idx} has coefficient {s.coefficient} <= 0")
    if dec.residual:
        return VerifyResult(False, "residual is not empty")
    if dec.reconstruct() != b:
        return VerifyResult(False, "reconstruction does not match the input")
    return VerifyResult(True)
