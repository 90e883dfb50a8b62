"""Greedy decomposition of a diagram into pure summands.

The algorithm is the standard top-strand peel: read off the columnwise
minimal degrees, subtract the largest multiple of that pure diagram that
keeps every entry nonnegative, repeat. Each step zeroes at least one entry,
so the loop runs at most as many times as the input has entries.

The peel and Decomposition.reconstruct run on integers. A diagram is
written once as integer numerators over the lcm of its denominators
(diagrams._cleared), and each step compares, subtracts and rescales those
integers. A Fraction is built only where a value leaves: one per
coefficient, and one per cell of a reconstruction or of the residual that
NotInCone carries. Summing Fractions instead would pay a gcd on every
divide, compare, multiply and add of every cell.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .diagrams import (
    BettiDiagram,
    DegreeSequence,
    _add_into,
    _cleared,
    _nonnegative,
    _top_strand,
    pure_diagram,
)
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
        """Sum of all summands plus the residual.

        The cells are summed as integers over one common denominator, which
        grows to the lcm with each summand's c.denominator * lcm(pure); one
        Fraction per cell is built at the end.
        """
        total, den = _cleared(self.residual._e)
        for s in self.summands:
            c = Fraction(s.coefficient)
            pure, pure_den = _cleared(pure_diagram(s.degrees)._e)
            term_den = c.denominator * pure_den
            common = math.lcm(den, term_den)
            if common != den:
                grow = common // den
                for key in total:
                    total[key] *= grow
                den = common
            factor = c.numerator * (den // term_den)
            for key, u in pure.items():
                total[key] = total.get(key, 0) + factor * u
        return _add_into(BettiDiagram(), ((key, Fraction(n, den)) for key, n in total.items() if n))

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
        residual = obj.get("residual")  # absent or null: no residual, as written
        return cls(
            summands=tuple(summands),
            residual=BettiDiagram() if residual is None else BettiDiagram.from_json_obj(residual),
        )


def decompose(b: BettiDiagram) -> Decomposition:
    """Decompose b into positive multiples of pure diagrams.

    Raises NotInCone when a step cannot continue (gap in the columns or top
    strand not strictly increasing); the exception carries the partial
    decomposition and a snapshot of the residual at the point of failure.
    b itself is never modified.

    The residual is held as integer numerators N over one denominator L,
    the pure diagram of each step as numerators U over V. The step takes
    the first column p that minimises N_p/U_p, compared by
    cross-multiplication; for that column (N*, U*) the coefficient is
    c = N*·V / (L·U*). With g = gcd(N*, U*), the residual minus c times the
    pure diagram is (N·U*/g - U·N*/g) over L·U*/g: a strand cell becomes
    N_p·U*/g - U_p·N*/g, every other cell N_x·U*/g. Dividing all of them
    and the denominator by their gcd brings L back to the lcm of the
    residual's reduced denominators, where clearing it afresh would put it.

    No step can go negative: N*/U* is the least ratio over the top-strand
    cells, each of which is a positive entry of the residual, so every
    entry the step touches stays >= 0, and the tight columns are exactly
    the cells that reach zero.
    """
    if not b:
        raise EmptyDiagram("cannot decompose an empty diagram")
    summands = []
    residual, den = _cleared(_nonnegative(b)._e)
    while residual:
        try:
            e = _top_strand(residual)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            snapshot = _add_into(
                BettiDiagram(), ((key, Fraction(n, den)) for key, n in residual.items())
            )
            raise NotInCone(
                f"top strand failed: {exc}",
                partial=Decomposition(tuple(summands), snapshot),
                residual=snapshot,
            ) from exc
        pure, pure_den = _cleared(pure_diagram(e)._e)  # its cells in column order
        n_star, u_star = 1, 0  # the ratio 1/0 exceeds every N_p/U_p
        for key, u in pure.items():
            n = residual[key]
            if n * u_star < n_star * u:
                n_star, u_star = n, u
        g = math.gcd(n_star, u_star)
        grow, take = u_star // g, n_star // g
        c = Fraction(take * pure_den, den * grow)
        if grow != 1:
            for key in residual:
                residual[key] *= grow
            den *= grow
        tight = []
        for key, u in pure.items():
            n = residual[key] - take * u
            if n:
                residual[key] = n
            else:
                del residual[key]
                tight.append(key[0])
        g = math.gcd(den, *residual.values())
        if g != 1:
            for key in residual:
                residual[key] //= g
            den //= g
        summands.append(PureSummand(coefficient=c, degrees=e, tight_columns=tuple(tight)))
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
