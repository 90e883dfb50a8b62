"""Formal Betti diagrams over exact rationals.

A diagram is a finite sparse table of rationals indexed by (p, q) where p is
the column (homological degree) and q the weight. It is held as nonzero
integer numerators over one positive denominator, in lowest terms.
A diagram's value never changes once built. It has two late-written
slots: _division caches its own quotient by (1-t)^s once a division of it
succeeds, and a pure table's cell dict is built from its columns on the
first read of a cell. So pure_diagram's memo hands one object to every
caller of a sequence, and multiplicity and hilbert_numerator of one
diagram divide it once. Every reader of cells goes through the one
accessor BettiDiagram._n, the one place after _table that sets the dict;
two threads may both build it, but each build gives an equal dict and
the assignment is atomic, so the value still never changes. Fractions
are made only where a value enters, one per value through
errors.require_rational, or leaves (get, items, the JSON form). One
loop, _total, sums integer numerators into a table over a common
denominator its caller picked as an lcm: the linear combinations of
diagrams (add, scale, subtract and Decomposition.reconstruct) and the
values given from outside, except a JSON list in the writers' own form,
which _canonical_entries keys in whole-list passes with no Fraction.
Both pure-diagram kernels return a sequence's numerators in column
order over one denominator, and _pure_checked keeps them so, in column
form, with the sequence: multiplicity and hilbert_numerator divide
such a table from its columns (_alternating) and never key its cells.
The greedy peel, _greedy_peel, keeps its residual as a private dict of
numerators that it updates in place and hands out as a table only where
it fails; each step reads its top strand by _strand, the one scan of the
column minima, which top_strand also uses. No other module reads the
numerators or the denominator. Pure diagrams carry one entry per column
at weight e_p - p for a strictly increasing degree sequence e,
normalized so the multiplicity comes out to exactly 1.

Everything in this module is exact; no floats.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import repeat
from operator import add as _add, floordiv, lt, mul, neg, sub
from typing import Iterable, Mapping

from .errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotCohenMacaulayShape,
    NotStrictlyIncreasing,
    require_int,
    require_rational,
)


class DegreeSequence(tuple):
    """Strictly increasing tuple of integers (e_0, ..., e_n).

    A sequence given from outside is checked in two whole-tuple passes:
    one set of its entries' types, which must be int alone, then their
    order. Only when the types fail does a per-entry loop run, to name the
    first entry that is not an int (a bool or 1.0 is not). A DegreeSequence
    is taken as it is, and the library builds its own sequences with
    _trusted, so neither pays the checks again.

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
        if not set(map(type, seq)) <= {int}:  # one scan; the loop names the first bad entry
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
                val = require_rational(val, "coefficient")
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

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self._c == other._c
        return NotImplemented

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "RationalPolynomial(0)"
        terms = " + ".join(f"({c})t^{e}" for e, c in self.items())
        return f"RationalPolynomial({terms})"


class BettiDiagram:
    """Sparse map (p, q) -> rational with zeros dropped.

    Held as nonzero integer numerators _n[(p, q)] over one denominator
    _den > 0 with gcd(_den, *_n.values()) == 1, so equal diagrams hold
    equal pairs; _division is None until a division of the diagram
    succeeds, then (lo, quotient) (see the module docstring and _divide).
    The dict itself is the slot _cells, read through _n. A table
    pure_diagram builds holds its columns too: _e, its DegreeSequence,
    and _columns, its numerators in column order; its _cells is None
    until the first read of _n keys the columns. Every other table has _e None. Equality reads _n and _den
    alone. Entries are allowed to be negative so the type can hold
    intermediate formal differences; cone-facing operations check signs
    themselves.
    """

    __slots__ = ("_cells", "_den", "_division", "_e", "_columns")

    def __init__(self, entries: Mapping[tuple, object] | None = None):
        triples = ((p, q, v) for (p, q), v in entries.items()) if entries else ()
        b = _summed(triples)
        self._cells, self._den, self._division = b._cells, b._den, None
        self._e = self._columns = None

    @property
    def _n(self) -> dict:
        """The numerators keyed by cell (p, q), read by every reader of
        cells: a pure table's column p is keyed at (p, e_p - p) on the first
        read, and the dict is kept."""
        n = self._cells
        if n is None:
            e = self._e
            keys = zip(range(len(e)), map(sub, e, range(len(e))))
            n = self._cells = dict(zip(keys, self._columns))
        return n

    @classmethod
    def from_entries(cls, triples: Iterable[tuple]) -> "BettiDiagram":
        """Build from (p, q, value) triples, summing duplicates."""
        return _summed(triples)

    def get(self, p: int, q: int) -> Fraction:
        return Fraction(self._n.get((p, q), 0), self._den)

    def items(self):
        """Entries as ((p, q), Fraction) pairs sorted by (p, q)."""
        den = self._den
        return [(key, Fraction(n, den)) for key, n in sorted(self._n.items())]

    def support(self):
        return frozenset(self._n)

    def __contains__(self, key):
        return key in self._n

    def __len__(self):
        return len(self._n)

    def __bool__(self):  # a pure table has at least one column
        return self._e is not None or bool(self._cells)

    def __eq__(self, other):
        if isinstance(other, BettiDiagram):
            return self._den == other._den and self._n == other._n
        return NotImplemented

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
        """The diagram of a JSON object {"entries": [{"p", "q", "v"}, ...]},
        duplicate cells summed.

        A list in the form to_json_obj writes, distinct cells with nonzero
        canonical "n/d" values, is read in whole-list passes
        (_canonical_entries), with no Fraction per cell. Every other list,
        and every list that fails, is read cell by cell (_entries_by_cell),
        one Fraction per value, so both give one diagram and a refusal is
        always that loop's: every cell's shape and value is checked, in
        file order, before any index.

        >>> b = BettiDiagram.from_json_obj({"entries": [
        ...     {"p": 0, "q": 0, "v": "1/2"}, {"p": 1, "q": 1, "v": "3/4"}]})
        >>> b.items()
        [((0, 0), Fraction(1, 2)), ((1, 1), Fraction(3, 4))]
        >>> BettiDiagram.from_json_obj({"entries": [
        ...     {"p": -1, "q": 0, "v": "1/2"}, {"p": 0, "q": 0, "v": "1/0"}]})
        Traceback (most recent call last):
            ...
        ValueError: diagram value 1/0 has a zero denominator
        """
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise ValueError("diagram JSON must be an object with an 'entries' list")
        entries = obj["entries"]
        b = _canonical_entries(entries)
        return _entries_by_cell(entries) if b is None else b


def _diagram_json(b: BettiDiagram, pad: str = "") -> str:
    """json.dumps(b.to_json_obj(), indent=2), with every line after the
    first indented by pad more: the CLI's writer, formatted straight from
    the numerators (each cell reduced by one gcd, as Fraction(n, _den) is).
    """
    den = b._den
    inner = pad + "    "
    cells = []
    for (p, q), n in sorted(b._n.items()):
        g = math.gcd(n, den)
        cells.append(
            f'{inner}{{\n{inner}  "p": {p},\n{inner}  "q": {q},\n'
            f'{inner}  "v": "{n // g}/{den // g}"\n{inner}}}'
        )
    entries = "[\n" + ",\n".join(cells) + f"\n{pad}  ]" if cells else "[]"
    return f'{{\n{pad}  "entries": {entries}\n{pad}}}'


# a run of canonical values joined by single spaces, each the "n/d" the
# writers spell (ASCII digits, no sign but a leading "-"); compiled by re's
# own cache on the first read, so an import that reads no JSON does not pay
_CANONICAL_RUN = "{0}(?: {0})*".format(r"-?[0-9]+/[0-9]+")


def _canonical_entries(entries: list):
    """The diagram of a nonempty entries list of exact dicts whose p and q
    are ints, p >= 0, and whose v are canonical "n/d" strs with n and d
    nonzero, on distinct cells; None for any other list, which
    _entries_by_cell then reads. Its checks are whole-list passes: one
    set of types per field, one min, one fullmatch over the values joined
    by spaces, map(int) over their digits and one lcm; no Fraction is
    built. The fullmatch alone would read "1/2 3/4" as two values, so the
    text must also hold exactly one "/" per cell. On these lists
    _entries_by_cell refuses nothing and gives the same diagram.
    """
    if not entries or not set(map(type, entries)) <= {dict}:
        return None
    try:
        ps = [cell["p"] for cell in entries]
        qs = [cell["q"] for cell in entries]
        vs = [cell["v"] for cell in entries]
    except KeyError:
        return None
    if not ({*map(type, ps), *map(type, qs)} <= {int} and set(map(type, vs)) <= {str}):
        return None
    text = " ".join(vs)
    if min(ps) < 0 or text.count("/") != len(vs) or not re.fullmatch(_CANONICAL_RUN, text):
        return None
    try:
        pairs = list(map(int, text.replace("/", " ").split()))
    except ValueError:  # past the int digit limit: the loop names the cell
        return None
    nums, dens = pairs[::2], pairs[1::2]
    if 0 in nums or 0 in dens:
        return None
    den = math.lcm(*dens)
    n = dict(zip(zip(ps, qs), map(mul, nums, map(floordiv, repeat(den), dens))))
    return _reduced(n, den) if len(n) == len(vs) else None


def _entries_by_cell(entries: list) -> BettiDiagram:
    """The diagram of any entries list, read cell by cell: each cell's
    shape, then its value through require_rational, in file order; then
    every index, in file order, by _summed. The one reader that names a
    bad cell."""
    cells = []
    for cell in entries:
        if not (isinstance(cell, dict) and "p" in cell and "q" in cell and "v" in cell):
            raise ValueError(f"malformed diagram cell: {cell!r}")
        cells.append((cell["p"], cell["q"], require_rational(cell["v"], "diagram value")))
    return _summed(cells)


def _key(p, q) -> tuple:
    """The key (p, q) of a cell given from outside, once p and q are ints
    and p >= 0: checked before any sum (1.0 would merge into the key 1)."""
    require_int(p, "column index p", ValueError)
    require_int(q, "weight q", ValueError)
    if p < 0:
        raise ValueError(f"negative column index {p}")
    return p, q


def _summed(triples) -> BettiDiagram:
    """The diagram of (p, q, value) triples given from outside: each index
    checked by _key, then its value read by require_rational (a Fraction
    as it is), triple by triple; each numerator cleared over the lcm of
    every denominator, and duplicates summed by _total."""
    terms = [(_key(p, q), require_rational(v, "diagram value")) for p, q, v in triples]
    den = math.lcm(*[v.denominator for _, v in terms])
    return _total(((1, [(key, v.numerator * (den // v.denominator)) for key, v in terms]),), den)


def _combination(terms) -> BettiDiagram:
    """The diagram sum c * b over a sequence of (c, b) pairs, c an int or a
    Fraction, summed by _total over the lcm of every c.denominator * b._den."""
    dens = [c.denominator * b._den for c, b in terms]
    den = math.lcm(*dens)
    return _total(
        ((c.numerator * (den // d), b._n.items()) for (c, b), d in zip(terms, dens)), den
    )


def _total(parts, den: int) -> BettiDiagram:
    """The diagram sum of factor * u / den over (factor, cells) parts, cells
    (key, u) pairs of integers on checked keys and den > 0: the one loop
    that sums cells into a table. Sums that reach 0 are dropped, and
    _reduced brings the rest to lowest terms, which do not depend on the
    common denominator the callers summed over.

    The callers give math.lcm their denominators as a list: a generator
    there becomes a tuple guessed at 10 items and resized, and the
    interpreter's tuple free lists fill up over a long run.
    """
    total = {}
    get = total.get
    for factor, cells in parts:
        for key, u in cells:
            total[key] = get(key, 0) + factor * u
    return _reduced({key: v for key, v in total.items() if v}, den)


def _reduced(n: dict, den: int) -> BettiDiagram:
    """The diagram n / den, for nonzero integer numerators n on checked keys
    and den > 0, both divided by their gcd; n becomes its own, and is kept
    as it is when the gcd is 1."""
    g = math.gcd(den, *n.values())
    if g != 1:
        n = {key: v // g for key, v in n.items()}
        den //= g
    return _table(n, den)


def _table(n: dict | None, den: int, e=None, columns=None) -> BettiDiagram:
    """The diagram n / den, for nonzero integer numerators n on checked keys
    already in lowest terms over den > 0; n becomes its own. A pure table
    passes n None, its DegreeSequence e and its numerators in column
    order, and its cells are keyed on the first read (BettiDiagram._n).
    """
    b = BettiDiagram.__new__(BettiDiagram)
    b._cells, b._den, b._division = n, den, None
    b._e, b._columns = e, columns
    return b


def pure_diagram(e) -> BettiDiagram:
    """The multiplicity-1 pure diagram of a degree sequence.

    Column p holds n! * prod_{i != p} 1/|e_i - e_p| at weight e_p - p and
    nothing else (Herzog-Kuhl).

    >>> pure_diagram((0, 1, 2)).items()
    [((0, 0), Fraction(1, 1)), ((1, 0), Fraction(2, 1)), ((2, 0), Fraction(1, 1))]

    The sequence spans S = e_n - e_0 and misses H = S - n holes, the
    integers h strictly between e_0 and e_n that are not in it. With
    x = e_p - e_0, the entries and the holes together are every integer of
    [e_0, e_n], so prod_{i != p} |e_i - e_p| * prod_h |h - e_p| is
    x! (S - x)!, and the entry is C(S, x) * prod_h |h - e_p| over S!/n!:

    >>> e, holes = (0, 2, 3, 4, 7), (1, 5, 6)
    >>> S, n = e[-1] - e[0], len(e) - 1
    >>> all(
    ...     math.prod(abs(y - x) for y in e + holes if y != x)
    ...     == math.factorial(x) * math.factorial(S - x)
    ...     for x in e
    ... )
    True
    >>> [math.comb(S, x) * math.prod(abs(h - x) for h in holes) for x in e]
    [30, 252, 420, 210, 12]
    >>> [v * math.perm(S, S - n) for _, v in pure_diagram(e).items()]
    [Fraction(30, 1), Fraction(252, 1), Fraction(420, 1), Fraction(210, 1), Fraction(12, 1)]

    The numerators come from one of two kernels, picked by _few_holes_pay
    from S and n alone: _pure_over_holes builds them over the one
    denominator S!/n!, and _pure_over_runs reduces each entry as it goes
    and clears them over one lcm. Both return the list in column order, and
    the table keeps it so (_pure_checked); column p is keyed at
    (p, e_p - p) on the first read of a cell. Secant-family sequences
    (H = 2k + 2, so H << n once d is past a few dozen) take the first;
    sequences with all gaps in [2, 5] (H of about 2.5 n) take the second,
    as does a short sequence over a long span such as (0, 10^8), whose
    S!/n! the first would never finish.

    The sequence is checked first; only then is the diagram looked up in a
    memo of the last _PURE_MEMO_SIZE sequences (_pure_checked), so an
    input the check refuses, such as (0, 1.0), never reaches it. A
    diagram's value never changes, so a hit hands out the one shared
    object, with any quotient it already holds.
    decompose builds each summand's diagram and verify, through
    Decomposition.reconstruct, asks for the same ones again, last first:
    that round trip builds the last _PURE_MEMO_SIZE summands once.
    """
    return _pure_checked(DegreeSequence(e))


# The memo's bound. A decompose -> verify round trip asks for each summand's
# sequence twice: decompose first to last, and verify, through
# Decomposition.reconstruct, last to first, so the second pass reads the
# newest entries before any is evicted. A decomposition with more summands
# than the bound hits on its last 8 and misses the rest, which costs only
# speed. On the 1,800 decompositions of the decompose_cli benchmark's seeds
# 1-2 (2-13 summands), 96% have at most 8, and 7,326 of verify's 7,447
# pure_diagram calls (98%) hit with 8 entries, against 6,782 if verify
# asked first to last. Callers that never repeat a sequence within 8
# calls, such as the family_oracle and gapped_degseq ops (0 hits in 1,800
# and 1,200 calls), only pay the lookup. Eight diagrams of those ops'
# median size hold 62-85 KB in column form and 99-121 KB once their
# cells are keyed, the eight largest 150-217 KB and 251-266 KB; a seed-1
# family_oracle pass, which keys only the tables it asks get of,
# retains 127 KB, its peak 239 KB (tracemalloc).
_PURE_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_PURE_MEMO_SIZE)
def _pure_checked(e: DegreeSequence) -> BettiDiagram:
    """pure_diagram of a DegreeSequence, from the kernel _few_holes_pay
    picks: a table in column form, e and its numerators in lowest terms
    over its den, in column order. Both kernels return lowest terms, so no
    gcd is taken here."""
    kernel = _pure_over_holes if _few_holes_pay(e[-1] - e[0], len(e) - 1) else _pure_over_runs
    numerators, den = kernel(e, *_runs(e))
    return _table(None, den, e, numerators)


def _runs(e):
    """The maximal runs of consecutive integers in e, as four lists: the
    first and one-past-last column of each run, and its first and last
    degree."""
    starts = [0] + [p for p in range(1, len(e)) if e[p] != e[p - 1] + 1]
    stops = starts[1:] + [len(e)]
    return starts, stops, [e[p] for p in starts], [e[p - 1] for p in stops]


def _few_holes_pay(span: int, n: int) -> bool:
    """Whether _pure_over_holes builds the pure diagram of n + 1 degrees
    over the given span faster than _pure_over_runs: 3H(n + 8) < n(n + 23)
    for H = span - n holes.

    The hole form does one multiply and one exact division per column where
    the run form does two multiplies, a gcd and two divisions, then an lcm
    and a rescale; but its numerators carry C(S, x) and the hole products,
    about H log2(S) bits more than the reduced entries, and it pays a fixed
    cost to list the holes. The test is fitted to the hole count H* at which
    both take the same time, measured on degrees placed at random in the
    span (Python 3.11.7, x86_64; median of 3 to 5 seeded sets, best of 5
    timings each):

        n       3    4    6    8   12   16   24   32   48   64   96  128  256  512
        H*      2    3    5    7  9.5   12   17   17   18   26   40   55   84  172
        test  2.4  3.0  4.1  5.2  7.0  8.7 11.8 14.7 20.3 25.8 36.6 47.4 90.2  176

    H*/n falls from about 0.8 near n = 10 to 1/3 past n = 250. For n of 1
    or 2 the run form wins at any H, and the test takes it. Random placement
    is the hole form's worst shape, many short runs of holes: below H* it
    wins there by 5-20%, and on secant-family sequences, whose 2k + 2 holes
    lie in at most k + 2 runs, by 1.5-1.7x at n = 60-300 and 2.2x and 4x at
    n = 2993 and 11998. Those sequences cross over near n = H + 2 for
    H = 2..10, and the test sends each one with n >= 2H to the hole form.
    Above H* the hole form loses by up to 1.5x at H = n (n = 512), and by
    1.4-4x at H = 3n with the holes in two runs (n = 64-256). The test holds
    only for H < n, so a sequence with every gap at least 2 (H >= n), such
    as one with gaps in [2, 5], always takes the run form.
    """
    holes = span - n
    return 3 * holes * (n + 8) < n * (n + 23)


def _pure_over_holes(e, starts, stops, los, his) -> tuple:
    """The pure diagram of e as (numerators in column order, den): the
    integers N_p = C(S, x_p) * prod_h |h - e_p| over the one denominator
    S!/n!, a product of the H integers n+1 .. S (see pure_diagram), in
    lowest terms.

    The first column of each run of consecutive degrees is C(S, x) times
    two products over the holes below and above it. Moving e_p = y to
    y + 1 inside a run multiplies C(S, x) by (S-x)/(x+1) and the hole
    product by a quotient that telescopes over each run of holes [a, b]:
    (y+1-a)/(y-b) for a run below, (a-y-1)/(b-y) for a run above. So each
    later column is the previous numerator times one product of O(hole
    runs) small integers, floor-divided exactly by another. No gcd is
    taken until the end, where one gcd g of S!/n! and the numerators
    divides the list before the table is made, so _pure_checked keys it
    without a second gcd. On family sequences g is not 1 about nine times
    in ten.
    """
    e0 = e[0]
    span = e[-1] - e0
    n = len(e) - 1
    firsts = [hi + 1 for hi in his[:-1]]  # the runs of holes, [a, b]
    lasts = [lo - 1 for lo in los[1:]]
    holes = [h for a, b in zip(firsts, lasts) for h in range(a, b + 1)]
    numerators = []
    for j, (start, stop, lo, hi) in enumerate(zip(starts, stops, los, his)):
        x = lo - e0
        below = x - start  # holes below lo: the x integers of [e_0, lo) less the entries
        u = math.comb(span, x)
        u *= math.prod(map(sub, repeat(lo), holes[:below]))
        u *= math.prod(map(sub, holes[below:], repeat(lo)))
        numerators.append(u)
        if stop - start == 1:
            continue
        # rise and fall yield each later column's two products, one map
        # per run of holes on top of the C(S, x) factors
        steps = hi - lo
        rise = range(span - x, span - x - steps, -1)
        fall = range(x + 1, x + 1 + steps)
        for a, b in zip(firsts[:j], lasts[:j]):
            rise = map(mul, rise, range(lo + 1 - a, hi + 1 - a))
            fall = map(mul, fall, range(lo - b, hi - b))
        for a, b in zip(firsts[j:], lasts[j:]):
            rise = map(mul, rise, range(a - lo - 1, a - hi - 1, -1))
            fall = map(mul, fall, range(b - lo, b - hi, -1))
        for num, div in zip(rise, fall):
            u = u * num // div
            numerators.append(u)
    den = math.perm(span, span - n)
    g = math.gcd(den, *numerators)
    if g != 1:
        numerators = [u // g for u in numerators]
        den //= g
    return numerators, den


def _pure_over_runs(e, starts, stops, los, his) -> tuple:
    """The pure diagram of e as (numerators in column order, den), each
    entry kept as a reduced pair of ints until the end.

    The first column of a run of consecutive degrees is one product over
    all other entries, and one gcd reduces n!/den. Moving e_p = x to x + 1
    inside a run multiplies the denominator by a quotient that telescopes
    over each run [lo, hi]: (x+1-lo)/(x-hi) for a run below, (lo-x-1)/(hi-x)
    for a run above, (x+1-lo)/(hi-x) for its own run. Each later column is
    therefore the previous entry times div/num, two products of O(runs)
    small integers, and one gcd reduces it. The cost is O(n * runs)
    products, and the O(n^2) of the direct formula when no two entries are
    consecutive (every run a singleton, every column a first column). One
    lcm L of the reduced denominators v_p then gives the diagram's
    denominator, and u_p * (L // v_p) its numerators. Their gcd with L is
    1: a prime power that divides L exactly divides some v_p exactly, so
    it leaves L // v_p, and it cannot divide u_p. Unlike _pure_over_holes,
    its integers do not grow with the span.
    """
    nums, dens = [], []  # the entries u/v in lowest terms, in column order
    n_fact = math.factorial(len(e) - 1)
    for j, (start, stop, lo, hi) in enumerate(zip(starts, stops, los, his)):
        den = math.prod(map(sub, repeat(lo), e[:start])) * math.prod(
            map(sub, e[start + 1 :], repeat(lo))
        )
        g = math.gcd(n_fact, den)
        u, v = n_fact // g, den // g
        nums.append(u)
        dens.append(v)
        if stop - start == 1:  # no later column: skip building O(runs) ranges
            continue
        # one range per run, stepping x over lo..hi-1; the i-th later column's
        # ratio is the product of the ranges' i-th terms
        rises = [range(lo + 1 - a, hi + 1 - a) for a in los[: j + 1]]
        rises += [range(a - lo - 1, a - hi - 1, -1) for a in los[j + 1 :]]
        falls = [range(lo - b, hi - b) for b in his[:j]]
        falls += [range(b - lo, b - hi, -1) for b in his[j:]]
        for num, div in zip(map(math.prod, zip(*rises)), map(math.prod, zip(*falls))):
            u, v = u * div, v * num
            g = math.gcd(u, v)
            u, v = u // g, v // g
            nums.append(u)
            dens.append(v)
    den = math.lcm(*dens)
    return [u * (den // v) for u, v in zip(nums, dens)], den


def scale(b: BettiDiagram, c) -> BettiDiagram:
    return _combination(((require_rational(c, "scale factor"), b),))


def add(a: BettiDiagram, b: BettiDiagram) -> BettiDiagram:
    return _combination(((1, a), (1, b)))


def subtract(a: BettiDiagram, b: BettiDiagram) -> BettiDiagram:
    """Entrywise a - b, inside the cone: the first negative entry in (p, q)
    order raises NegativeEntry naming its position. The formal difference
    is add(a, scale(b, -1)).
    """
    return _nonnegative(_combination(((1, a), (-1, b))))


def _nonnegative(b: BettiDiagram) -> BettiDiagram:
    """b, once no entry is negative; else NegativeEntry at the first negative
    entry in (p, q) order. The cells are sorted only when one is negative."""
    if min(b._n.values(), default=0) < 0:
        for (p, q), n in sorted(b._n.items()):
            if n < 0:
                raise NegativeEntry(p, q, Fraction(n, b._den))
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
    return _strand(b._n)


def _strand(cells) -> DegreeSequence:
    """The top strand of a nonempty table from its cell keys (p, q), in one
    pass that keeps each column's least p + q: MissingColumn at the first
    empty column below the last, NotStrictlyIncreasing unless the minima
    strictly increase. top_strand and each step of _greedy_peel read it
    here."""
    mins = {}
    for p, q in cells:
        t = p + q
        if mins.setdefault(p, t) > t:
            mins[p] = t
    top = len(mins)
    if max(mins) >= top:  # top columns, one of them past column top - 1
        raise MissingColumn(next(p for p in range(top) if p not in mins))
    strand = [mins[p] for p in range(top)]
    if not all(map(lt, strand, strand[1:])):
        try:
            message = f"top strand {tuple(strand)} is not strictly increasing"
        except ValueError:  # an entry past the int-to-str digit limit
            p = next(p for p in range(1, top) if strand[p - 1] >= strand[p])
            message = f"top strand is not strictly increasing at column {p}"
        raise NotStrictlyIncreasing(message)
    return DegreeSequence._trusted(strand)


def _greedy_peel(b: BettiDiagram):
    """The greedy peel of a nonnegative diagram b: (steps, failure), steps
    the (c, e, tight columns) of each step in order, failure None when the
    residual reached zero, else (the MissingColumn or NotStrictlyIncreasing
    of the top strand, the residual it was read from).

    Each step takes the pure diagram of the residual's top strand e, whose
    every cell is an entry of the residual. The residual is integer
    numerators N over one denominator L, pure numerators U over V. The step
    takes the least ratio N*/U* of N_p/U_p over pure's cells, compared by
    cross-multiplication, so c = N*·V / (L·U*), the one Fraction built
    here, and residual - c·pure is (N·U* - N*·U) / (L·U*), where N*/U* may
    be taken in lowest terms.

    The residual is b's numerators copied once into a private dict, which
    each step updates in place: pure's cells become N_p·U* - N*·U_p, every
    other cell N·U*, and L becomes L·U*. No entry the step touches goes
    negative, and the tight columns, in the column order pure's cells are
    built in, are exactly the cells that reach zero, which are deleted.
    The only gcd taken is that of N* and U*. On 82% of the steps of 300
    seeded decompose-like inputs (2-6 family diagrams, g <= 5, k <= 3,
    d <= 120) it leaves U* = 1, and then no other cell is touched; the
    largest numerator stays within a few bits of the reduced one (medians
    51-59 against 46-55 bits over steps 1-4). Only a failure hands out a
    table, brought to lowest terms by _reduced. Each step reads its strand
    from the residual's cells by _strand, the scan top_strand makes.
    """
    n, den = dict(b._n), b._den
    steps = []
    while n:
        try:
            e = _strand(n)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            # without its traceback, whose frames would hold the caller's
            # frame and, through it, exc again: a cycle only the GC frees
            return steps, (exc.with_traceback(None), _reduced(n, den))
        pure = pure_diagram(e)
        n_star, u_star = 1, 0  # the ratio 1/0 exceeds every N_p/U_p
        for key, u in pure._n.items():
            v = n[key]
            if v * u_star < n_star * u:
                n_star, u_star = v, u
        c = Fraction(n_star * pure._den, den * u_star)
        g = math.gcd(n_star, u_star)
        n_star //= g
        u_star //= g
        if u_star != 1:
            for key, v in n.items():
                n[key] = v * u_star
        tight = []
        for key, u in pure._n.items():
            if v := n[key] - n_star * u:
                n[key] = v
            else:
                del n[key]
                tight.append(key[0])
        den *= u_star
        steps.append((c, e, tuple(tight)))
    return steps, None


def _alternating(b: BettiDiagram):
    """The integer polynomial _den * sum (-1)^p kappa_{p,q} t^{p+q}, and
    s = pd(b), from one pass over the cells of a nonempty diagram.

    Returns (terms, lo, hi, s): terms maps each exponent whose coefficient
    is nonzero to that coefficient, and lo and hi are the least and greatest
    p + q over the cells, cancelled or not. No list over the span hi - lo
    is made here: only a caller of _quotient lists the span's coefficients.
    Integer numerators keep the division in plain bigint arithmetic.

    A pure table is read from its columns, not its cells: column p sits at
    exponent e_p, no two cancel, and terms is its numerators with every
    odd column's sign flipped by one slice, keyed by e.
    """
    e = b._e
    if e is not None:
        signed = b._columns.copy()
        signed[1::2] = map(neg, signed[1::2])
        return dict(zip(e, signed)), e[0], e[-1], len(e) - 1
    degs = {}
    s = 0
    for (p, q), c in b._n.items():
        if p > s:
            s = p
        t = p + q
        degs[t] = degs.get(t, 0) + (-c if p & 1 else c)
    return {t: c for t, c in degs.items() if c}, min(degs), max(degs), s


def _products_pay(m: int, s: int) -> bool:
    """Whether multiplicity takes the product check (_product_moment) in
    place of the long division (_quotient) on a polynomial of m + s
    coefficients with exactly s + 1 nonzero terms, divided by (1-t)^s:
    1600 (m - s - 25) > s^2, so it needs m > s + 25. The boundary lies
    above the product check's measured crossovers, and multiplicity's
    docstring has both and why it stays there."""
    return 1600 * (m - s - 25) > s * s


def _quotient(coeffs: list, s: int) -> list:
    """The quotient of sum coeffs[j] t^j by (1-t)^s, as a list of integer
    coefficients; coeffs is consumed.

    The polynomial has m + s coefficients and is divided by the expanded
    (1-t)^s from the constant term up: m steps, each subtracting q times
    the terms t^1 .. t^s of (1-t)^s from the next s coefficients, after
    which the top s coefficients must all be zero. The coefficient of
    t^(s-i) in (1-t)^s is (-1)^s times that of t^i, so a step multiplies
    q by the half row t^1 .. t^(s//2) alone (_binomial_row's, memoized per
    s) and applies each product at both mirror positions (once at the
    middle one of an even s); the t^s term takes (-1)^s q off. At s = 0
    there is nothing to divide, and coeffs is its own quotient.

    A nonzero remainder means the diagram does not have the Cohen-Macaulay
    shape this quantity assumes. A polynomial with at most s coefficients
    divides only if it is zero, and then the quotient is the empty list.
    The cost is m * s / 2 products by binomials of up to s bits and m * s
    subtractions, so a long quotient against s is dear. multiplicity
    leaves it to the product check where the polynomial has exactly s + 1
    nonzero terms (_products_pay) and pays it on every other shape, every
    sum of diagrams included; hilbert_numerator, which needs every
    coefficient, always pays it.
    """
    if not s:
        return coeffs
    m = max(len(coeffs) - s, 0)
    half = _binomial_row(s)  # t^1 .. t^h
    h = len(half)
    w = (s - 1) // 2  # t^(s-1) .. t^(s-w) mirror t^1 .. t^w
    mirror = _add if s & 1 else sub  # t^(s-j) is (-1)^s times t^j
    for i in range(m):
        if q := coeffs[i]:
            products = list(map(mul, half, repeat(q)))
            coeffs[i + 1 : i + h + 1] = map(sub, coeffs[i + 1 : i + h + 1], products)
            top = i + s
            coeffs[top - 1 : top - w - 1 : -1] = map(
                mirror, coeffs[top - 1 : top - w - 1 : -1], products
            )
            coeffs[top] = mirror(coeffs[top], q)
    if any(coeffs[m:]):
        raise _indivisible(s)
    del coeffs[m:]
    return coeffs


# The row memo's bound. The long division's traffic asks for one s many
# times in a row when it runs over every jump tuple of one (g, k, d), whose
# diagrams share s = r - 2k - 1: verify --suite multiplicity and hn-leading
# at g <= 4, k <= 3, d <= 120 hit it 24,576 and 11,392 times against 1,792
# misses each, one per (g, k, d), and one row already takes all of those
# hits. A second division of one diagram does not reach it (the diagram
# holds its quotient), so one seed-1 pass of the family_oracle benchmark
# (900 ops) gets 8 hits against 892 misses; one row would get 2 and eight
# 25. Four half rows near s = 300 hold 38 KB (tracemalloc).
_ROW_MEMO_SIZE = 4


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE)
def _binomial_row(s: int) -> tuple:
    """The coefficients of t^1 .. t^(s//2) of (1-t)^s, (-1)^i C(s, i), as a
    tuple: the half row _quotient multiplies, one product and one exact
    division per term. A miss takes 3.5 us at s = 30 and 50 us at s = 301,
    a hit 0.2 us (Python 3.11.7, x86_64, best of 7).
    """
    row = []
    c = 1
    for i in range(1, s // 2 + 1):
        c = -c * (s + 1 - i) // i
        row.append(c)
    return tuple(row)


def _indivisible(s: int) -> NotCohenMacaulayShape:
    return NotCohenMacaulayShape(f"(1-t)^{s} does not divide the alternating polynomial")


def _divide(b: BettiDiagram, terms: dict, lo: int, hi: int, s: int) -> tuple:
    """(lo, the quotient of b's alternating polynomial by (1-t)^s), from
    _alternating's terms, lo, hi and s, stored as b._division: the one
    place that sets it to a quotient. A division that raises stores
    nothing. No caller may change the list, which is held without a copy
    (hilbert_numerator reads it, multiplicity sums it).

    Its traffic is multiplicity and hilbert_numerator asked of one diagram,
    in either order: 498, 497 and 469 of the 900 ops of the family_oracle
    benchmark (seeds 1-3) ask for both, and each such op divides once.
    The m integers held are fewer than the m Fractions of a
    hilbert_numerator result. multiplicity leaves the long quotients of
    polynomials with exactly s + 1 nonzero terms to the product check
    (_products_pay), so only hilbert_numerator divides those; it divides
    every other shape, whatever its length.

    By Descartes' rule of signs a nonzero polynomial with N + 1 terms has
    at most N positive roots, counted with multiplicity, so (1-t)^s does
    not divide one of at most s terms: that raises _indivisible(s) before
    any coefficient of the span is listed, in microseconds whatever the
    span. The zero polynomial (no terms) still divides, with quotient 0.
    """
    if 0 < len(terms) <= s:
        raise _indivisible(s)
    b._division = lo, _quotient([terms.get(t, 0) for t in range(lo, hi + 1)], s)
    return b._division


def hilbert_numerator(b: BettiDiagram) -> RationalPolynomial:
    """HN(t) = (sum of (-1)^p kappa_{p,q} t^{p+q}) / (1-t)^s, s = pd(b).

    >>> hilbert_numerator(pure_diagram((0, 1, 2))).items()
    [(0, Fraction(1, 1))]

    An elliptic normal curve of degree 61 (the secant family at g = 1,
    k = 0, d = 61) has s = 59 and m = 3, so its numerator comes from the
    long division: its h-vector (1, 59, 1) over the degree.

    >>> hilbert_numerator(pure_diagram((0, *range(2, 60), 61))).items()
    [(0, Fraction(1, 61)), (1, Fraction(59, 61)), (2, Fraction(1, 61))]

    A diagram keeps its own quotient (_divide), so multiplicity and then
    hilbert_numerator of one diagram (or the reverse) divide it once:

    >>> b = pure_diagram((0, *range(2, 62), 63))
    >>> multiplicity(b)
    Fraction(1, 1)
    >>> hilbert_numerator(b).items()
    [(0, Fraction(1, 63)), (1, Fraction(61, 63)), (2, Fraction(1, 63))]
    """
    if not b:
        raise EmptyDiagram("Hilbert numerator of an empty diagram")
    lo, quotient = b._division or _divide(b, *_alternating(b))
    den = b._den
    # built as _table builds a table: these exponents and Fractions come
    # from integers here, so the constructor's checks of outside values
    # would only repeat
    hn = RationalPolynomial.__new__(RationalPolynomial)
    hn._c = {lo + j: Fraction(c, den) for j, c in enumerate(quotient) if c}
    return hn


def multiplicity(b: BettiDiagram) -> Fraction:
    """HN(1); exactly 1 on every pure_diagram output.

    >>> multiplicity(pure_diagram((0, 3, 4, 6, 7, 9)))
    Fraction(1, 1)

    Write den times the alternating polynomial as K(t) = sum_p a_p t^(x_p)
    over its N + 1 nonzero terms, x_0 < ... < x_N, exponents counted from
    the lowest (a power of t changes neither the division nor HN(1)).
    (1-t)^s divides K exactly when sum_p a_p Q(x_p) = 0 for every Q of
    degree below s (the derivatives of K at 1 are such sums, and the
    falling factorials span those Q). Once it does, K = (1-t)^s * den * HN
    and the s-th derivative at 1 gives (-1)^s s! den HN(1) =
    sum_p a_p s! C(x_p, s) = M_s, which is sum_p a_p P_s(x_p) for
    P_s(x) = prod_{j<s} (x - x_j), since s! C(x, s) - P_s(x) has degree
    below s. So HN(1) = (-1)^s M_s / (s! den).

    Two kernels find it, picked by shape, unless b already holds its
    quotient, which is then summed. With exactly s + 1 nonzero terms
    (N = s, the shape of every pure diagram, scaled or not) and a quotient
    long against s (_products_pay), _product_moment checks the
    Herzog-Kuhl equations in product form. Let w(x) = prod_j (x - x_j).
    The vectors (Q(x_p))_p with deg Q < s span s of the s + 1 dimensions,
    and by the Lagrange identity sum_p Q(x_p) / w'(x_p) = [x^s] Q for
    deg Q <= s, (1 / w'(x_p))_p is orthogonal to all of them. So (1-t)^s
    divides K exactly when a_p w'(x_p) is one constant c for every p, and
    then M_s = c sum_p P_s(x_p) / w'(x_p) = c, which is a_s w'(x_s) =
    a_s P_s(x_s). The sign of w'(x_p) is (-1)^(s-p): it is the product of
    the p positive differences x_p - x_j to its left and the s - p
    negative ones to its right. So the check takes, per column, two
    C-level products of small differences (about s^2 small products in
    all) and two bigint products. It stores nothing and reads the nonzero
    terms alone, so its memory does not grow with the span: (0, 10^8) has
    two terms and no list of 10^8 coefficients is made.

    Every other shape, a short quotient or any other N (every sum of
    diagrams), is divided by _divide: m s / 2 products and m s
    subtractions, where the polynomial has m + s coefficients. Neither
    kernel calls pure_diagram or a closed form, so
    multiplicity(pure_diagram(e)) == 1 checks the diagram kernels. A
    sequence with every gap 5 has m about 4s and s + 1 terms, so it takes
    the product check, scaled or not; a sum of two such diagrams is
    divided, and keeps its quotient:

    >>> b = pure_diagram(range(0, 50, 5))
    >>> terms, lo, hi, s = _alternating(b)
    >>> hi - lo + 1 - s, s, len(terms), _products_pay(hi - lo + 1 - s, s)
    (37, 9, 10, True)
    >>> _product_moment(terms, sorted(terms), s) == (-1) ** s * math.factorial(s) * b._den
    True
    >>> multiplicity(b), multiplicity(scale(b, Fraction(-2, 3)))
    (Fraction(1, 1), Fraction(-2, 3))
    >>> pair = add(b, pure_diagram((0, 6, *range(10, 50, 5))))
    >>> len(_alternating(pair)[0]), multiplicity(pair), pair._division is not None
    (11, Fraction(2, 1), True)

    The crossover m* at which the product check and the long division
    take the same time on pure diagrams, with the degrees placed at random
    in the span (Python 3.11.7, x86_64, 2-CPU host; two seeded sets of 6
    diagrams per m, median ratio of 9 interleaved timings, row memo warm),
    against _products_pay's boundary:

        s              4    8   16   30   60   90  150  250  400
        products     2.6  5.3   10   18   36   55   82  119  161
        test          29   33   41   56   87  120  189  314  525

    The boundary stays above the crossovers on purpose. A refit to them
    (3m > 2s) would move 56 of the 2,700 multiplicity calls of the
    family_oracle benchmark (seeds 1-3; s = 2-14, m = 3-11) to the product
    check, and 26 of those ops then ask for hilbert_numerator, which must
    divide anyway, since the product check leaves no quotient behind: per
    op, 28.0 us against 23.7 us with the boundary where it is (medians of
    15 interleaved rounds). Family shapes (m <= 11) never pass the test;
    at s = 112-298 the product check would take 9-86x the long division's
    time.

    The price of one kernel for every other shape is that a sum with a
    long quotient lists its span, as hilbert_numerator always has (min of
    5 rounds, against the Newton-basis moments this path once took):
    600 seeded sums of two pure diagrams of 9-41 degrees (m about 6.5 s)
    take 197 us -> 705 us each. A polynomial of at most s nonzero terms,
    such as {(0, 0): 1, (s, 10^5): 1}, cannot divide (Descartes' rule of
    signs), and _divide refuses it before listing its span, in
    microseconds; listed, it took 0.16-0.54 s at s = 3, 9 and 40.
    """
    if not b:
        raise EmptyDiagram("multiplicity of an empty diagram")
    if b._division:
        return Fraction(sum(b._division[1]), b._den)
    terms, lo, hi, s = _alternating(b)
    if len(terms) == s + 1 and _products_pay(hi - lo + 1 - s, s):
        moment = _product_moment(terms, sorted(terms), s)
        return Fraction((-1) ** s * moment, math.factorial(s) * b._den)
    return Fraction(sum(_divide(b, terms, lo, hi, s)[1]), b._den)


def _product_moment(terms: dict, xs: list, s: int) -> int:
    """M_s of K = sum_p a_p t^(x_p), a_p = terms[x_p], over exactly s + 1
    nonzero terms at the sorted exponents xs, by the Herzog-Kuhl products:
    _indivisible(s) unless a_p w'(x_p) is one constant c, which is M_s.
    Here w'(x_p) = (-1)^(s-p) L_p R_p, with L_p the product of the
    x_p - x_j over j < p and R_p that of the x_j - x_p over j > p, both
    positive."""
    x = xs[s]
    c = terms[x] * math.prod(map(sub, repeat(x), xs[:s]))
    for p, x in enumerate(xs[:s]):
        left = math.prod(map(sub, repeat(x), xs[:p]))
        right = math.prod(map(sub, xs[p + 1 :], repeat(x)))
        if terms[x] * left * right != (-c if (s - p) & 1 else c):
            raise _indivisible(s)
    return c
