"""Greedy decomposition of a diagram into pure summands.

The algorithm is the standard top-strand peel: read off the columnwise
minimal degrees, subtract the largest multiple of that pure diagram that
keeps every entry nonnegative, repeat. Each step zeroes at least one entry,
so the loop runs at most as many times as the input has entries.

The residual is one working dict, peeled in place. A step reads the top
strand through a view of that dict (one scan of its keys), then touches only
the n+1 entries of one pure diagram, n the projective dimension of the
current residual; it copies no residual.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagrams import BettiDiagram, DegreeSequence, pure_diagram, top_strand
from .errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotInCone,
    NotStrictlyIncreasing,
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
        out = dict(self.residual._e)
        for s in self.summands:
            c = Fraction(s.coefficient)
            for key, v in pure_diagram(s.degrees)._e.items():
                out[key] = out.get(key, 0) + c * v
        return BettiDiagram(out)

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
            if not isinstance(item["e"], list) or any(type(e) is not int for e in item["e"]):
                raise ValueError(f"degrees must be a list of JSON integers: {item!r}")
            try:
                coefficient = Fraction(str(item["c"]))
                degrees = DegreeSequence(item["e"])
            except (ValueError, ZeroDivisionError, MalformedDegreeSequence) as exc:
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
    for (p, q), v in b.items():
        if v < 0:
            raise NegativeEntry(p, q, v)
    summands = []
    work = dict(b._e)
    view = BettiDiagram._adopt(work)

    def not_in_cone(message):
        snapshot = BettiDiagram._adopt(dict(work))
        return NotInCone(
            message, partial=Decomposition(tuple(summands), snapshot), residual=snapshot
        )

    budget = len(b)
    while work:
        if len(summands) >= budget:
            raise not_in_cone("greedy loop exceeded its entry budget")
        try:
            e = top_strand(view)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            raise not_in_cone(f"top strand failed: {exc}") from exc
        pure = pure_diagram(e)._e
        keys = [(p, ep - p) for p, ep in enumerate(e)]
        ratios = [work[key] / pure[key] for key in keys]
        c = min(ratios)
        tight = tuple(p for p, r in enumerate(ratios) if r == c)
        for key in keys:
            v = work[key] - c * pure[key]
            if v:
                work[key] = v
            else:
                del work[key]
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
