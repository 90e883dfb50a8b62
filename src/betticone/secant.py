"""Degree sequences and pure diagrams for the secant family.

The family is indexed by (g, k, d) with d >= 2g + 2k + 1 and r = d - g,
plus a weakly increasing jump tuple i = (i_0, ..., i_k) with entries in
[0, g]. Each tuple selects k+1 positions to drop from {k+2, ..., r+1};
prepending 0 to what is left gives a strictly increasing sequence of length
r - 2k, so every diagram in the family has projective dimension r - 2k - 1.

The closed forms in this module (degree, bottom-right entry, the dominant
column entries, the leading numerator coefficient) are always validated
against the generic pure-diagram machinery in tests, never the other way
around.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

from .diagrams import BettiDiagram, DegreeSequence, pure_diagram
from .errors import InvalidParams, InvalidTuple, OutOfRange, TupleNotMaximalRegularity, require_int


# Parameter and row types are named tuples rather than dataclasses: importing
# dataclasses pulls in inspect, about a third of `import betticone` on Python 3.11.
class _SecantFields(NamedTuple):
    g: int
    k: int
    d: int


class SecantParams(_SecantFields):
    """Genus g >= 1, secant index k >= 0, embedding degree d >= 2g + 2k + 1."""

    __slots__ = ()

    def __new__(cls, g: int, k: int, d: int):
        if not type(g) is type(k) is type(d) is int:  # one test; the loop names the first bad field
            for name, v in (("g", g), ("k", k), ("d", d)):
                require_int(v, name, InvalidParams)
        if g < 1:
            raise InvalidParams(f"g must be at least 1, got {g}")
        if k < 0:
            raise InvalidParams(f"k must be nonnegative, got {k}")
        if d < 2 * g + 2 * k + 1:
            raise InvalidParams(f"d={d} violates d >= 2g + 2k + 1 = {2 * g + 2 * k + 1}")
        return tuple.__new__(cls, (g, k, d))

    @property
    def r(self) -> int:
        return self.d - self.g


def _checked_tuple(params: SecantParams, i) -> tuple:
    t = tuple(i)
    if len(t) != params.k + 1:
        raise InvalidTuple(f"need {params.k + 1} entries, got {len(t)}")
    for v in t:  # the type test inline; require_int words the refusal
        if type(v) is not int:
            require_int(v, "jump tuple entry", InvalidTuple)
    if t[0] < 0 or t[-1] > params.g:
        raise InvalidTuple(f"entries of {t} must lie in [0, {params.g}]")
    if any(a > b for a, b in zip(t, t[1:])):
        raise InvalidTuple(f"{t} is not weakly increasing")
    return t


def jump_tuples(g: int, k: int):
    """All weakly increasing (k+1)-tuples over [0, g], lexicographic.

    There are binomial(g+k+1, k+1) of them.
    """
    if require_int(g, "g", InvalidParams) < 1 or require_int(k, "k", InvalidParams) < 0:
        raise InvalidParams(f"need g >= 1 and k >= 0, got g={g}, k={k}")
    return list(combinations_with_replacement(range(g + 1), k + 1))


def dominant_tuple(params: SecantParams) -> tuple:
    return (params.g,) * (params.k + 1)


def degree_sequence(params: SecantParams, i) -> DegreeSequence:
    """(0) followed by {k+2, ..., r+1} minus the k+1 dropped positions.

    Entry j of the tuple drops position r + 1 - (i_j + j). The dropped
    positions are pairwise distinct because i_j + j strictly increases, and
    the standing hypothesis d >= 2g + 2k + 1 keeps them all at or above
    k + 2, so the result always has exactly r - 2k terms. It is strictly
    increasing by construction, so DegreeSequence does not check it again.
    The dropped positions fall as j rises, so the sequence is built from
    the ranges between them, taken in reverse order.
    """
    i = _checked_tuple(params, i)
    r = params.r
    seq = [0]
    start = params.k + 2
    for j in range(params.k, -1, -1):
        stop = r + 1 - (i[j] + j)
        seq += range(start, stop)
        start = stop + 1
    seq += range(start, r + 2)
    return DegreeSequence._trusted(seq)


def secant_pure_diagram(params: SecantParams, i) -> BettiDiagram:
    """The multiplicity-1 pure diagram attached to a jump tuple."""
    return pure_diagram(degree_sequence(params, i))


def secant_degree(params: SecantParams) -> int:
    """sum_{i=0}^{min(k+1,g)} binomial(d-g-k-i, k+1-i) * binomial(g, i).

    Collapses to d when k = 0.
    """
    g, k, d = params.g, params.k, params.d
    return sum(
        math.comb(d - g - k - i, k + 1 - i) * math.comb(g, i)
        for i in range(0, min(k + 1, g) + 1)
    )


def bottom_right_betti(params: SecantParams) -> int:
    """The entry at column r - 2k - 1, weight 2k + 2: binomial(g+k, k+1)."""
    return math.comb(params.g + params.k, params.k + 1)


def shape_mask(params: SecantParams) -> frozenset:
    """Positions allowed to be nonzero for any diagram in the family.

    (0,0), the full weight-(k+1) strand, and a g-wide block of weights
    k+2 .. 2k+2 in the trailing columns.
    """
    g, k, r = params.g, params.k, params.r
    allowed = {(0, 0)}
    for p in range(1, r - 2 * k):
        allowed.add((p, k + 1))
    for p in range(r - g - 2 * k, r - 2 * k):
        for q in range(k + 2, 2 * k + 3):
            allowed.add((p, q))
    return frozenset(allowed)


# The last binomial Factors.ratio took, (n, p, C(n, p)) with 0 <= p <= n.
# Only the speed of ratio depends on it; see ratio. It is replaced as one
# tuple, so a thread that reads it always sees a matching triple.
_last_binomial = (0, 0, 1)


def _binomial(n, p):
    """math.comb(n, p), stepped from _last_binomial by one multiply and one
    exact division when n is its n and p is within one of its p, all in
    0..n; from math.comb otherwise. Each result with ints 0 <= p <= n is
    kept."""
    global _last_binomial
    if not (type(n) is type(p) is int and 0 <= p <= n):
        return math.comb(n, p)
    m, q, c = _last_binomial
    if n != m or not -1 <= p - q <= 1:
        c = math.comb(n, p)
    elif p > q:
        c = c * (n - q) // p
    elif p < q:
        c = c * q // (n - p)
    _last_binomial = (n, p, c)
    return c


class Factors(NamedTuple):
    """The product prod(num) / prod(den) * prod binomial(n, p)**sign * 2**two, sign = +-1.

    A closed form written once as these lists is evaluated exactly (`ratio`)
    or as a sum of logs (asymptotics), so the two cannot drift apart.
    """

    num: tuple = ()
    den: tuple = ()
    binoms: tuple = ()
    two: int = 0

    def times(self, o: "Factors") -> "Factors":
        return tuple.__new__(
            Factors, (self.num + o.num, self.den + o.den, self.binoms + o.binoms, self.two + o.two)
        )

    def ratio(self) -> tuple:
        """(numerator, denominator) as integers, not reduced.

        Each binomial comes from _binomial, which keeps the last one it
        gave, (n, p, C(n, p)), and steps from it when the same n comes at
        p - 1, p or p + 1 with both p in 0..n: C(n, p + 1) = C(n, p)(n - p)
        / (p + 1), an exact division, and C(n, p - 1) likewise. Any other
        binomial is math.comb's, so no value depends on that one entry, and
        these lists stay the one definition the log path reads too. The
        traffic is the dominant strand asked column by column, as c03,
        `verify --suite dominant-kappa` and the benchmark's family_oracle
        op ask it: each column after the first is one step. A seed-1
        family_oracle pass (900 ops) makes 14,486 hits and 99 misses (one
        per dominant tuple), and `verify --suite dominant-kappa --d-max
        120` 56,976 hits and 1,017 misses (one per (g, k, d)). A list of
        two binomials of different n, as dominant_binomial_ratio builds,
        misses on both. A step pays once C(n, p) outgrows 64 bits (n > 67):
        math.comb(300, 150) takes 4.3 us against 0.14 us for the step, and
        math.comb(60, 30) 0.07 us against 0.09 us (Python 3.11.7, x86_64).
        """
        num, den, binoms, two = self
        num = math.prod(num)
        den = math.prod(den)
        for n, p, sign in binoms:
            if sign > 0:
                num *= _binomial(n, p)
            elif sign < 0:
                den *= _binomial(n, p)
        if two >= 0:
            num <<= two
        else:
            den <<= -two
        return num, den


def kappa_dominant_factors(params: SecantParams, p: int) -> Factors:
    """kappa_dominant(params, p) as factor lists:

    binomial(r-2k, p) * p/(p+k+1) * prod_{i=k}^{2k} (r-p-g-i)
    / ((r-2k) * prod_{i=k}^{2k-1} (r-p-i)), each product a run of
    consecutive integers.
    """
    g, k, d = params
    r = d - g
    if type(p) is not int:
        require_int(p, "p", OutOfRange)  # raises, naming p
    if p < 1 or p > r - g - 2 * k - 1:
        raise OutOfRange(f"p={p} outside [1, {r - g - 2 * k - 1}]")
    return tuple.__new__(Factors, (
        (p, *range(r - p - g - 2 * k, r - p - g - k + 1)),
        (p + k + 1, r - 2 * k, *range(r - p - 2 * k + 1, r - p - k + 1)),
        ((r - 2 * k, p, 1),),
        0,
    ))


def kappa_dominant(params: SecantParams, p: int) -> Fraction:
    """Closed form for the weight-(k+1) entries of the dominant diagram.

    Valid for 1 <= p <= r - g - 2k - 1; equals the column-p entry of
    secant_pure_diagram(params, (g, ..., g)) on that range.
    """
    return Fraction(*kappa_dominant_factors(params, p).ratio())


def hn_leading_coefficient(params: SecantParams, i) -> Fraction:
    """Leading (degree 2k+2) coefficient of the Hilbert numerator.

    prod_j (i_j + j) over (r+1) * prod_{i=k+1}^{2k} (r-i). Defined only for
    tuples with i_0 >= 1; with any i_j = 0 the numerator degree drops below
    2k+2 and there is no such coefficient.
    """
    i = _checked_tuple(params, i)
    if i[0] < 1:
        raise TupleNotMaximalRegularity(
            f"tuple {i} has i_0 = 0; the numerator has degree below {2 * params.k + 2}"
        )
    return _hn_leading(params, i)


def _hn_leading(params: SecantParams, i: tuple) -> Fraction:
    """hn_leading_coefficient of a tuple its caller built valid, i_0 >= 1
    (the dominant tuple of purity_lower_bound), without the checks."""
    r, k = params.r, params.k
    num = 1
    for j, ij in enumerate(i):
        num *= ij + j
    den = r + 1
    for t in range(k + 1, 2 * k + 1):
        den *= r - t
    return Fraction(num, den)


def normalized_hn_leading(params: SecantParams) -> Fraction:
    """Leading numerator coefficient of the degree-normalized family target.

    binomial(g+k, k+1) / secant_degree: the bottom-right entry divided by
    the degree. This is the exact value the decomposition coefficients must
    reproduce, which is what the purity lower bound leans on.
    """
    return Fraction(bottom_right_betti(params), secant_degree(params))


def nonvanishing_range(params: SecantParams) -> tuple:
    """Columns (r - 2k - g, r - 2k - 1) where weight 2k+2 persists for large d."""
    r, k, g = params.r, params.k, params.g
    return (r - 2 * k - g, r - 2 * k - 1)
