"""Formal Betti diagrams over exact rationals.

A diagram is a finite sparse table of Fractions indexed by (p, q) where p is
the column (homological degree) and q the weight. Pure diagrams carry one
entry per column at weight e_p - p for a strictly increasing degree sequence
e, normalized so the multiplicity comes out to exactly 1.

Everything in this module is exact; no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import lt, sub
from typing import Iterable, Mapping

from .errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotCohenMacaulayShape,
    NotStrictlyIncreasing,
    parse_rational,
    require_int,
)


class DegreeSequence(tuple):
    """Strictly increasing tuple of integers (e_0, ..., e_n).

    >>> DegreeSequence((0, 3, 4))
    DegreeSequence(0, 3, 4)
    >>> DegreeSequence((0, 0, 1))
    Traceback (most recent call last):
        ...
    betticone.errors.MalformedDegreeSequence: not strictly increasing: (0, 0, 1)
    """

    def __new__(cls, degrees: Iterable[int]):
        if type(degrees) is cls:  # already checked, and a tuple is immutable
            return degrees
        seq = tuple(degrees)
        if not seq:
            raise MalformedDegreeSequence("degree sequence is empty")
        for e in seq:
            require_int(e, "degree", MalformedDegreeSequence)
        if not all(map(lt, seq, seq[1:])):
            raise MalformedDegreeSequence(f"not strictly increasing: {seq}")
        return super().__new__(cls, seq)

    def __repr__(self):
        return f"DegreeSequence({', '.join(str(e) for e in self)})"


class RationalPolynomial:
    """Sparse polynomial with Fraction coefficients keyed by exponent.

    Exponents may be any integers (diagrams with shifted weights produce
    Laurent-style numerators); zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: Mapping[int, Fraction] | None = None):
        self._c = {}
        if coefficients:
            for exp, val in coefficients.items():
                require_int(exp, "exponent", ValueError)
                val = Fraction(val)
                if val != 0:
                    self._c[exp] = val

    def coefficient(self, exp: int) -> Fraction:
        return self._c.get(exp, Fraction(0))

    @property
    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def leading_coefficient(self) -> Fraction:
        return self._c[self.degree]

    def items(self):
        return sorted(self._c.items())

    def __call__(self, x) -> Fraction:
        return sum((c * Fraction(x) ** e for e, c in self._c.items()), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "RationalPolynomial(0)"
        terms = " + ".join(f"({c})t^{e}" for e, c in self.items())
        return f"RationalPolynomial({terms})"


class BettiDiagram:
    """Sparse map (p, q) -> Fraction with zeros dropped.

    Entries are allowed to be negative so the type can hold intermediate
    formal differences; cone-facing operations check signs themselves.
    """

    __slots__ = ("_e",)

    def __init__(self, entries: Mapping[tuple, object] | None = None):
        self._e = {}
        if entries:
            _add_into(self, _checked((p, q, v) for (p, q), v in entries.items()))

    @classmethod
    def from_entries(cls, triples: Iterable[tuple]) -> "BettiDiagram":
        """Build from (p, q, value) triples, summing duplicates."""
        return _add_into(cls(), _checked(triples))

    def get(self, p: int, q: int) -> Fraction:
        return self._e.get((p, q), Fraction(0))

    def items(self):
        """Entries as ((p, q), value) pairs sorted by (p, q)."""
        return sorted(self._e.items())

    def support(self):
        return frozenset(self._e)

    def is_nonnegative(self) -> bool:
        return all(v > 0 for v in self._e.values())

    def __contains__(self, key):
        return key in self._e

    def __len__(self):
        return len(self._e)

    def __bool__(self):
        return bool(self._e)

    def __eq__(self, other):
        if isinstance(other, BettiDiagram):
            return self._e == other._e
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._e.items()))

    def __repr__(self):
        cells = ", ".join(f"({p},{q}): {v}" for (p, q), v in self.items())
        return f"BettiDiagram({{{cells}}})"

    def to_json_obj(self) -> dict:
        """Canonical JSON form: entries sorted by (p, q), fractions as "n/d"."""
        return {
            "entries": [
                {"p": p, "q": q, "v": f"{v.numerator}/{v.denominator}"}
                for (p, q), v in self.items()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "BettiDiagram":
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise ValueError("diagram JSON must be an object with an 'entries' list")
        triples = []
        for cell in obj["entries"]:
            if not isinstance(cell, dict) or not {"p", "q", "v"} <= set(cell):
                raise ValueError(f"malformed diagram cell: {cell!r}")
            triples.append((cell["p"], cell["q"], parse_rational(cell["v"], "diagram value")))
        return cls.from_entries(triples)


def _checked(triples):
    """((p, q), Fraction) pairs from (p, q, value) triples given from outside:
    each index is checked before any sum (1.0 would merge into the key 1), and
    each value that is not yet a Fraction becomes one here, once."""
    for p, q, val in triples:
        require_int(p, "column index p", ValueError)
        require_int(q, "weight q", ValueError)
        if p < 0:
            raise ValueError(f"negative column index {p}")
        yield (p, q), val if type(val) is Fraction else Fraction(val)


def _add_into(b: BettiDiagram, terms) -> BettiDiagram:
    """Add ((p, q), Fraction) terms on checked keys into b in place, dropping
    every key whose sum reaches zero, and return b: the one loop that sums
    into an entry dict. b is a diagram its caller has just made or owns."""
    entries = b._e
    for key, v in terms:
        if key in entries:
            v += entries[key]
        if v:
            entries[key] = v
        else:
            entries.pop(key, None)
    return b


def pure_diagram(e) -> BettiDiagram:
    """The multiplicity-1 pure diagram of a degree sequence.

    Column p holds n! * prod_{i != p} 1/|e_i - e_p| at weight e_p - p and
    nothing else (Herzog-Kuhl).

    The sequence is split into maximal runs of consecutive integers. The
    first column of a run is one product over all other entries. Moving
    e_p = x to x + 1 inside a run multiplies the denominator by a quotient
    that telescopes over each run [lo, hi]: (x+1-lo)/(x-hi) for a run below,
    (lo-x-1)/(hi-x) for a run above, (x+1-lo)/(hi-x) for its own run. Each
    later column is therefore the previous denominator times O(runs) small
    integers and one exact division. The cost is O(n * runs) products: O(n)
    for the secant family (a few runs), and the O(n^2) of the direct formula
    when no two entries are consecutive (every run a singleton).

    >>> pure_diagram((0, 1, 2)).items()
    [((0, 0), Fraction(1, 1)), ((1, 0), Fraction(2, 1)), ((2, 0), Fraction(1, 1))]
    """
    e = DegreeSequence(e)
    out = BettiDiagram()
    entries = out._e  # nonzero Fractions on int keys by construction
    n_fact = math.factorial(len(e) - 1)
    starts = [0] + [p for p in range(1, len(e)) if e[p] != e[p - 1] + 1]
    stops = starts[1:] + [len(e)]
    los = [e[p] for p in starts]
    his = [e[p - 1] for p in stops]
    for j, (start, stop, lo, hi) in enumerate(zip(starts, stops, los, his)):
        q = lo - start  # every column of a run sits at the same weight
        den = math.prod(map(sub, repeat(lo), e[:start])) * math.prod(
            map(sub, e[start + 1 :], repeat(lo))
        )
        entries[(start, q)] = Fraction(n_fact, den)
        if stop - start == 1:  # no later column: skip building O(runs) ranges
            continue
        # one range per run, stepping x over lo..hi-1; column p's ratio is the
        # product of the ranges' p-th terms
        rises = [range(lo + 1 - a, hi + 1 - a) for a in los[: j + 1]]
        rises += [range(a - lo - 1, a - hi - 1, -1) for a in los[j + 1 :]]
        falls = [range(lo - b, hi - b) for b in his[:j]]
        falls += [range(b - lo, b - hi, -1) for b in his[j:]]
        for p, num, div in zip(
            range(start + 1, stop),
            map(math.prod, zip(*rises)),
            map(math.prod, zip(*falls)),
        ):
            den = den * num // div
            entries[(p, q)] = Fraction(n_fact, den)
    return out


def scale(b: BettiDiagram, c) -> BettiDiagram:
    c = Fraction(c)
    return _add_into(BettiDiagram(), ((key, v * c) for key, v in b._e.items()))


def add(a: BettiDiagram, b: BettiDiagram) -> BettiDiagram:
    return _add_into(BettiDiagram(), chain(a._e.items(), b._e.items()))


def subtract(a: BettiDiagram, b: BettiDiagram, strict: bool = True) -> BettiDiagram:
    """Entrywise a - b.

    In strict (cone) mode the first negative entry in (p, q) order raises
    NegativeEntry naming its position; permissive mode returns the formal
    difference.
    """
    out = add(a, scale(b, -1))
    return _nonnegative(out) if strict else out


def _nonnegative(b: BettiDiagram) -> BettiDiagram:
    """b, once no entry is negative; else NegativeEntry at the first negative
    entry in (p, q) order."""
    for (p, q), v in b.items():
        if v < 0:
            raise NegativeEntry(p, q, v)
    return b


def projective_dimension(b: BettiDiagram) -> int:
    if not b:
        raise EmptyDiagram("projective dimension of an empty diagram")
    return max(p for (p, q) in b.support())


def regularity(b: BettiDiagram) -> int:
    if not b:
        raise EmptyDiagram("regularity of an empty diagram")
    return max(q for (p, q) in b.support())


def top_strand(b: BettiDiagram) -> DegreeSequence:
    """Columnwise minimal total degree (min p+q per column p).

    Needs every column 0..pd populated; the result must be strictly
    increasing to qualify as a degree sequence.
    """
    pd = projective_dimension(b)
    mins = {}
    for (p, q) in b.support():
        t = p + q
        if p not in mins or t < mins[p]:
            mins[p] = t
    strand = []
    for p in range(pd + 1):
        if p not in mins:
            raise MissingColumn(p)
        strand.append(mins[p])
    if any(a >= c for a, c in zip(strand, strand[1:])):
        raise NotStrictlyIncreasing(f"top strand {tuple(strand)} is not strictly increasing")
    return DegreeSequence(strand)


def _cleared_alternating(b: BettiDiagram):
    """Integer coefficient list of lcm * sum (-1)^p kappa_{p,q} t^{p+q}.

    Returns (coeffs, offset, lcm): coeffs[j] is the coefficient of
    t^(j + offset). Clearing denominators up front keeps the repeated
    division below in plain bigint arithmetic.
    """
    lcm = math.lcm(*(v.denominator for v in b._e.values()))
    degs = {}
    for (p, q), v in b._e.items():
        c = v.numerator * (lcm // v.denominator)
        degs[p + q] = degs.get(p + q, 0) + (-c if p & 1 else c)
    lo = min(degs)
    hi = max(degs)
    coeffs = [degs.get(t, 0) for t in range(lo, hi + 1)]
    return coeffs, lo, lcm


def _divided_numerator(b: BettiDiagram):
    """Integer coefficients of lcm * HN(t), as (coeffs, offset, lcm).

    coeffs[j] is the coefficient of t^(j + offset). Each division by (1-t)
    is a running prefix sum; it is exact iff the final accumulated value is
    zero, and any nonzero remainder means the diagram does not have the
    Cohen-Macaulay shape this quantity assumes. A quotient that cancels to
    the empty list stays empty through the remaining divisions.
    """
    s = projective_dimension(b)
    coeffs, offset, lcm = _cleared_alternating(b)
    for step in range(s):
        coeffs = list(accumulate(coeffs))
        if coeffs and coeffs.pop() != 0:
            raise NotCohenMacaulayShape(
                f"(1-t)^{s} does not divide the alternating polynomial "
                f"(remainder after {step + 1} division(s))"
            )
    return coeffs, offset, lcm


def hilbert_numerator(b: BettiDiagram) -> RationalPolynomial:
    """HN(t) = (sum of (-1)^p kappa_{p,q} t^{p+q}) / (1-t)^s, s = pd(b).

    >>> hilbert_numerator(pure_diagram((0, 1, 2))).items()
    [(0, Fraction(1, 1))]
    """
    if not b:
        raise EmptyDiagram("Hilbert numerator of an empty diagram")
    coeffs, offset, lcm = _divided_numerator(b)
    return RationalPolynomial(
        {offset + j: Fraction(c, lcm) for j, c in enumerate(coeffs) if c != 0}
    )


def multiplicity(b: BettiDiagram) -> Fraction:
    """HN(1); exactly 1 on every pure_diagram output.

    >>> multiplicity(pure_diagram((0, 3, 4, 6, 7, 9)))
    Fraction(1, 1)
    """
    if not b:
        raise EmptyDiagram("multiplicity of an empty diagram")
    coeffs, _, lcm = _divided_numerator(b)
    return Fraction(sum(coeffs), lcm)
