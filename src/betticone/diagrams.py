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
from operator import lt, mul, sub
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

    @classmethod
    def _trusted(cls, seq) -> "DegreeSequence":
        """A sequence its caller built strictly increasing from ints, taken
        without the checks __new__ would repeat."""
        return tuple.__new__(cls, seq)

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
    first column of a run is one product over all other entries, and one
    Fraction(n!, den) reduces it. Moving e_p = x to x + 1 inside a run
    multiplies the denominator by a quotient that telescopes over each run
    [lo, hi]: (x+1-lo)/(x-hi) for a run below, (lo-x-1)/(hi-x) for a run
    above, (x+1-lo)/(hi-x) for its own run. Each later column is therefore
    the previous entry, kept as a reduced fraction, times div/num, two
    products of O(runs) small integers. Its one gcd has the reduced
    denominator times num (tens of bits) as its smaller side, where a fresh
    Fraction(n!, den) would take the gcd of n! and a denominator of some 900
    bits. The cost is O(n * runs) products: O(n) for the secant family (a
    few runs), and the O(n^2) of the direct formula when no two entries are
    consecutive (every run a singleton, every column a first column).

    >>> pure_diagram((0, 1, 2)).items()
    [((0, 0), Fraction(1, 1)), ((1, 0), Fraction(2, 1)), ((2, 0), Fraction(1, 1))]
    """
    e = DegreeSequence(e)
    out = BettiDiagram()
    entries = out._e  # nonzero Fractions on int keys, filled in column order
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
        v = entries[(start, q)] = Fraction(n_fact, den)
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
            v = entries[(p, q)] = Fraction(v.numerator * div, v.denominator * num)
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
    if not b:
        raise EmptyDiagram("top strand of an empty diagram")
    return _top_strand(b._e)


def _top_strand(cells) -> DegreeSequence:
    """top_strand read off the (p, q) keys of a nonempty table of entries."""
    mins = {}
    for p, q in cells:
        t = p + q
        if p not in mins or t < mins[p]:
            mins[p] = t
    strand = []
    for p in range(max(mins) + 1):
        if p not in mins:
            raise MissingColumn(p)
        strand.append(mins[p])
    if any(a >= c for a, c in zip(strand, strand[1:])):
        raise NotStrictlyIncreasing(f"top strand {tuple(strand)} is not strictly increasing")
    return DegreeSequence._trusted(strand)


def _cleared(entries: Mapping[tuple, Fraction]):
    """(numerators, lcm): entries written as integers over the lcm of their
    denominators, in the entries' own order; ({}, 1) for no entries.

    The denominators go to math.lcm as a list: a generator there becomes a
    tuple guessed at 10 items and resized, so each call would take a
    10-item tuple from the interpreter's free lists and give back one of
    another size, and those lists filled up over a long run (about 0.9 MB
    more after 4,500 decompose_cli ops).
    """
    lcm = math.lcm(*[v.denominator for v in entries.values()])
    return {key: v.numerator * (lcm // v.denominator) for key, v in entries.items()}, lcm


def _cleared_alternating(b: BettiDiagram):
    """Integer coefficient list of lcm * sum (-1)^p kappa_{p,q} t^{p+q}.

    Returns (coeffs, offset, lcm): coeffs[j] is the coefficient of
    t^(j + offset). Clearing denominators up front keeps the repeated
    division below in plain bigint arithmetic.
    """
    numerators, lcm = _cleared(b._e)
    degs = {}
    for (p, q), c in numerators.items():
        degs[p + q] = degs.get(p + q, 0) + (-c if p & 1 else c)
    lo = min(degs)
    hi = max(degs)
    coeffs = [degs.get(t, 0) for t in range(lo, hi + 1)]
    return coeffs, lo, lcm


def _short_quotient_pays(m: int, s: int) -> bool:
    """Whether dividing a polynomial with m + s coefficients by (1-t)^s
    costs less as one long division (a quotient of m coefficients) than as
    s prefix sums.

    The prefix sums cost s * (m + s) additions. The long division costs
    m * s products by binomials of up to s bits, which grow dearer with s,
    and a fixed cost to build the row. The test is fitted to the crossover
    m* at which both take the same time, measured on pure diagrams (Python
    3.11.7, x86_64, best of 7 timings; the first five points are family
    shapes, m = 2k + 3):

        s       14   22   30   40   48   64   96  128  192  256  384  512
        m*       3    5    7    9   11   15   21   26   33   37   43   50
        test   2.5  4.8  6.9  9.4 11.2 14.6 20.3 25.0 32.2 37.5 44.7 49.5

    Away from m* the side taken wins by more: at m/s = 0.03 the long
    division is 3.6-6.4x faster for s >= 96, at m/s = 0.06 1.7-2.8x, and at
    m/s = 0.5 the prefix sums are 1.6-4.3x faster. No fixed ratio fits:
    m*/s falls from 0.25 near s = 50 to 0.1 at s = 512, and the test m < s
    would take the long division where the prefix sums are up to 8x faster
    (s = 512, m = s).
    """
    return m * (s + 225) + 400 < 72 * s


def _divided_numerator(b: BettiDiagram):
    """Integer coefficients of lcm * HN(t), as (coeffs, offset, lcm).

    coeffs[j] is the coefficient of t^(j + offset). The alternating
    polynomial has m + s coefficients (s = pd(b)) and is divided by (1-t)^s
    in whichever of two ways _short_quotient_pays picks for its shape:

    - s prefix sums (a C-level running sum each), each of which leaves
      one remainder value that must be zero;
    - one long division by the expanded (1-t)^s from the constant term up:
      m steps, each subtracting q times the binomial row from the next s
      coefficients, after which the top s coefficients must all be zero.

    Every secant-family diagram has m = 2k + 3 while s = r - 2k - 1 grows
    with d, so past s of about 50 it takes the long division; a gapped
    sequence has m about 2.5 * s and takes the prefix sums. A nonzero
    remainder on either path means the diagram does not have the
    Cohen-Macaulay shape this quantity assumes, and the error reads the
    same. A polynomial with at most s coefficients divides only if it is
    zero, and then the quotient is the empty list.
    """
    s = projective_dimension(b)
    coeffs, offset, lcm = _cleared_alternating(b)
    m = max(len(coeffs) - s, 0)
    if _short_quotient_pays(m, s):
        row = []  # t^1 .. t^s of (1-t)^s, built in 71 us at s = 250 (math.comb: 720 us)
        c = 1
        for i in range(1, s + 1):
            c = -c * (s + 1 - i) // i
            row.append(c)
        for i in range(m):
            if q := coeffs[i]:
                coeffs[i + 1 : i + s + 1] = map(
                    sub, coeffs[i + 1 : i + s + 1], map(mul, row, repeat(q))
                )
        exact = not any(coeffs[m:])
        del coeffs[m:]
    else:
        exact = True
        for _ in range(s):
            coeffs = list(accumulate(coeffs))
            if coeffs and coeffs.pop() != 0:
                exact = False
                break
    if not exact:
        raise NotCohenMacaulayShape(f"(1-t)^{s} does not divide the alternating polynomial")
    return coeffs, offset, lcm


def hilbert_numerator(b: BettiDiagram) -> RationalPolynomial:
    """HN(t) = (sum of (-1)^p kappa_{p,q} t^{p+q}) / (1-t)^s, s = pd(b).

    >>> hilbert_numerator(pure_diagram((0, 1, 2))).items()
    [(0, Fraction(1, 1))]

    An elliptic normal curve of degree 61 (the secant family at g = 1,
    k = 0, d = 61) has s = 59 and m = 3, so its numerator comes from the
    long division: its h-vector (1, 59, 1) over the degree.

    >>> hilbert_numerator(pure_diagram((0, *range(2, 60), 61))).items()
    [(0, Fraction(1, 61)), (1, Fraction(59, 61)), (2, Fraction(1, 61))]
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
