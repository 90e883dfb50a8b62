"""Greedy decomposition of a diagram into pure summands.

The algorithm is the standard top-strand peel: read off the columnwise
minimal degrees, subtract the largest multiple of that pure diagram that
keeps every entry nonnegative, repeat. Each step zeroes at least one entry,
so the loop runs at most as many times as the input has entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagrams import BettiDiagram, DegreeSequence, add, pure_diagram, scale, subtract, top_strand
from .errors import (
    EmptyDiagram,
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
        out = self.residual
        for s in self.summands:
            out = add(out, scale(pure_diagram(s.degrees), s.coefficient))
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
        if not isinstance(obj, dict) or "summands" not in obj:
            raise ValueError("decomposition JSON must have a 'summands' list")
        summands = []
        for item in obj["summands"]:
            if not isinstance(item, dict) or not {"c", "e"} <= set(item):
                raise ValueError(f"malformed summand: {item!r}")
            if not isinstance(item["e"], list) or any(type(e) is not int for e in item["e"]):
                raise ValueError(f"degrees must be a list of JSON integers: {item!r}")
            summands.append(
                PureSummand(
                    coefficient=Fraction(str(item["c"])),
                    degrees=DegreeSequence(item["e"]),
                )
            )
        residual = obj.get("residual")
        return cls(
            summands=tuple(summands),
            residual=BettiDiagram.from_json_obj(residual) if residual else BettiDiagram(),
        )


def decompose(b: BettiDiagram) -> Decomposition:
    """Decompose b into positive multiples of pure diagrams.

    Raises NotInCone when a step cannot continue (gap in the columns, top
    strand not strictly increasing, or a subtraction that would go
    negative); the exception carries the partial decomposition and the
    residual at the point of failure.
    """
    if not b:
        raise EmptyDiagram("cannot decompose an empty diagram")
    for (p, q), v in b.items():
        if v < 0:
            raise NegativeEntry(p, q, v)
    summands = []
    residual = b
    budget = len(b)
    while residual:
        if len(summands) >= budget:
            raise NotInCone(
                "greedy loop exceeded its entry budget",
                partial=Decomposition(tuple(summands), residual),
                residual=residual,
            )
        try:
            e = top_strand(residual)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            raise NotInCone(
                f"top strand failed: {exc}",
                partial=Decomposition(tuple(summands), residual),
                residual=residual,
            ) from exc
        pure = pure_diagram(e)
        ratios = [
            (residual.get(p, ep - p) / pure.get(p, ep - p), p)
            for p, ep in enumerate(e)
        ]
        c = min(r for r, _ in ratios)
        tight = tuple(p for r, p in ratios if r == c)
        try:
            residual = subtract(residual, scale(pure, c), strict=True)
        except NegativeEntry as exc:
            raise NotInCone(
                f"subtraction went negative at ({exc.p},{exc.q})",
                partial=Decomposition(tuple(summands), residual),
                residual=residual,
            ) from exc
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
