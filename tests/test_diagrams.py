"""Exact diagram arithmetic.

Claims pinned here:
    - pure_diagram matches hand-computed tables, including the fractional
      top-left entry 5/189 for (0,3,4,6,7,9), and the naive n!/prod|e_i - e_p|
      formula on family, gapped and mixed-gap sequences
    - multiplicity is exactly 1 on every pure_diagram output and is linear
    - hilbert_numerator divides out (1-t)^pd exactly and flags shapes where
      it cannot, and builds its polynomial without running the checks of
      outside values, to the value the public constructor builds
    - power sums sum((-1)^p kappa_p e_p^j) vanish for j < n on pure diagrams
    - subtract in strict mode names the first negative entry in (p, q) order,
      as does the cone check decompose runs, which hands a nonnegative
      diagram back as it is
    - sums that cancel leave no entry behind, and duplicate cells are summed
    - JSON round-trips preserve diagrams exactly
    - indices and exponents that are not ints are rejected, never truncated,
      even under a zero value
    - a DegreeSequence is checked once: passing one back returns it, and a
      sequence built valid (a top strand, a family sequence) is not checked
    - the (1-t)^s long division gives what s prefix sums (the test oracle,
      which the library no longer runs) give, or fails with their one
      message, on short and long quotients, on the shapes that once took
      the prefix sums, with no quotient coefficient, and at s = 0, where
      the alternating polynomial is its own quotient; its memoized row is
      (-1)^i C(s, i), and a cold memo and a warm one give the same
      quotient or message
    - multiplicity's two kernels, the Herzog-Kuhl product check (exactly
      s + 1 nonzero terms, the shape of every pure diagram, and a long
      quotient) and the long division (every other shape), give the
      prefix sums' HN(1), or their one message, on both sides of the
      shape test and at its exact boundary, with more than 20 seeded
      cases on each kernel; the product check, forced on every case with
      s + 1 nonzero terms whichever kernel multiplicity takes, gives the
      prefix sums' M_s = (-1)^s s! den HN(1) or their message; family
      shapes and (0,3,4,6,7,9) take the long division, gapped sequences
      of 30 or more degrees the product check, and sums of two, on any
      span, the long division; a numerator one too large in column 0, a
      middle column or column s, or one flipped sign, fails the product
      check with the one message
    - within a run, pure_diagram steps a reduced entry by a ratio whose
      small factors cancel against it
    - both pure_diagram kernels (integer numerators over S!/n!, and reduced
      pairs stepped along runs) give the Herzog-Kuhl table in lowest terms,
      on both sides of their shape test and at its exact boundary; gapped
      sequences and wide spans take the run kernel, secant sequences with
      n >= 2H the hole kernel
    - the JSON reader sums int pairs to the Fraction sums, reads 2/4 as
      1/2, drops duplicates that cancel, and checks every value before any
      index; a JSON float is refused, since it arrives rounded to a double
    - quantities of an empty diagram are refused with a message naming the
      quantity; reprs, len and comparison with another type are pinned
    - no module but diagrams.py reads a table's numerators or denominator,
      or a pure table's columns, and none changes a built table: its
      fields are set in BettiDiagram.__init__ and _table alone, but for the
      cell dict _cells, which the accessor _n also sets, and nothing writes
      a cell or a column in place
    - a pure table in column form and a table of the same cells held as a
      dict alone agree on _alternating, on multiplicity and
      hilbert_numerator in either order (value or exception, and the held
      quotient), on every cell reader, the JSON bytes, top_strand, scale
      and add, on family, gapped, herzog-kuhl-shaped and spread sequences
      and at n = 0; multiplicity of (0, 10^8) lists no span on either
    - multiplicity and hilbert_numerator of a new pure table leave its cell
      dict unbuilt; the first reader of a cell builds it, once, and the
      memo hands out that one object
    - pure_diagram checks its sequence before its memo: (0, 1.0),
      (0, True) and (0, 0, 1) are refused with (0, 1) in the memo, and a
      list, a tuple and a DegreeSequence of one sequence give one diagram
    - multiplicity's product check lists no coefficient of the degree
      span: two terms 10^7 apart take under 1 MB
    - multiplicity and hilbert_numerator of one diagram, in either order,
      build its alternating polynomial once and divide once; each diagram
      holds its own quotient, an equal diagram that is another object
      divides on its own, a division that fails stores nothing, and held
      and fresh results agree on both of multiplicity's paths
    - a nonzero polynomial of at most s terms is refused before any
      coefficient of its span is listed (Descartes' rule of signs), within
      a time budget, while the zero polynomial keeps multiplicity 0
"""

import ast
import json
import math
import pathlib
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from betticone import diagrams, secant
from betticone.errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotCohenMacaulayShape,
    NotStrictlyIncreasing,
    require_int,
    require_rational,
)

F = Fraction


def test_degree_sequence_rejects_bad_input():
    with pytest.raises(MalformedDegreeSequence):
        diagrams.DegreeSequence(())
    with pytest.raises(MalformedDegreeSequence):
        diagrams.DegreeSequence((0, 0, 1))
    with pytest.raises(MalformedDegreeSequence):
        diagrams.DegreeSequence((3, 1))
    with pytest.raises(MalformedDegreeSequence):
        diagrams.DegreeSequence((0, 1.5, 2))


def test_degree_sequence_is_checked_once():
    e = diagrams.DegreeSequence((0, 3, 4))
    assert diagrams.DegreeSequence(e) is e
    assert diagrams.DegreeSequence([0, 3, 4]) is not e


def test_sequences_valid_by_construction_are_not_rechecked(monkeypatch):
    # spies on the two checks of an outside sequence: the one type scan (a
    # set of the entries' types, diagrams' only set() on this path) and the
    # per-entry require_int that names a bad entry
    checked = []

    def counting_require_int(value, what, error):
        checked.append(what)
        return require_int(value, what, error)

    def counting_set(*args):
        checked.append("type scan")
        return set(*args)

    monkeypatch.setattr(diagrams, "require_int", counting_require_int)
    monkeypatch.setattr(diagrams, "set", counting_set, raising=False)
    e = secant.degree_sequence(secant.SecantParams(2, 1, 30), (1, 2))
    strand = diagrams.top_strand(diagrams.pure_diagram(e))
    assert type(e) is type(strand) is diagrams.DegreeSequence
    assert strand == e
    assert checked == []
    # an outside sequence of ints: one scan, no per-entry call
    assert diagrams.DegreeSequence(list(e)) == e
    assert checked == ["type scan"]
    # an outside sequence with a bad entry: the loop names the first one
    checked.clear()
    with pytest.raises(MalformedDegreeSequence, match=r"^degree must be an integer, got True$"):
        diagrams.DegreeSequence([0, True, 2.0])
    assert checked == ["type scan", "degree", "degree"]


def test_degree_sequence_is_a_tuple():
    e = diagrams.DegreeSequence((0, 3, 4))
    assert e == (0, 3, 4)
    assert e[1] == 3
    assert repr(e) == "DegreeSequence(0, 3, 4)"


def test_pure_twisted_koszul():
    # (0,1,2) is the Koszul complex of two variables
    b = diagrams.pure_diagram((0, 1, 2))
    assert dict(b.items()) == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_pure_diagram_frozen_example():
    b = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    expected = {
        (0, 0): F(5, 189),
        (1, 2): F(5, 9),
        (2, 2): F(1),
        (3, 3): F(10, 9),
        (4, 3): F(5, 7),
        (5, 4): F(2, 27),
    }
    assert dict(b.items()) == expected


def _naive_column(e, p):
    """The Herzog-Kuhl entry n! / prod_{i != p} |e_i - e_p|, term by term."""
    den = 1
    for i, ei in enumerate(e):
        if i != p:
            den *= abs(ei - e[p])
    return F(math.factorial(len(e) - 1), den)


def _naive_pure_entries(e):
    """The Herzog-Kuhl table of e, one column at a time."""
    return [((p, ep - p), _naive_column(e, p)) for p, ep in enumerate(e)]


def _random_sequence(rng, start, gaps, length):
    seq = [start]
    for _ in range(length - 1):
        seq.append(seq[-1] + rng.choice(gaps))
    return seq


def test_pure_diagram_matches_naive_formula():
    long_family = secant.degree_sequence(secant.SecantParams(3, 2, 300), (0, 1, 3))
    seqs = [(0,), (7,), (-6, -5, -4, -2, 1, 2, 3), (-3, -2, -1, 0, 1), long_family]
    for g in range(1, 7):
        for k in range(5):
            for d in (2 * g + 2 * k + 1, 2 * g + 2 * k + 4, 30):
                params = secant.SecantParams(g, k, d)
                seqs += [secant.degree_sequence(params, t) for t in secant.jump_tuples(g, k)]
    rng = random.Random(23)
    for gaps in ((2, 3, 4, 5), (1, 1, 2, 3)):
        for _ in range(40):
            seqs.append(_random_sequence(rng, rng.randint(-9, 4), gaps, rng.randint(1, 60)))
    for e in seqs:
        assert diagrams.pure_diagram(e).items() == _naive_pure_entries(e), e


def test_pure_diagram_multi_run_ratios_share_factors():
    # Runs of consecutive degrees whose stepping ratios div/num share factors
    # with each other and with the running entry: every entry must still be
    # the reduced Herzog-Kuhl value.
    seqs = [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 20, 21, 22, 23, 24),
        (-6, -5, -4, -3, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 16, 17, 30, 31),
        (0, *range(6, 36), *range(42, 72), 120, 121, 122, 123),
    ]
    for e in seqs:
        b = diagrams.pure_diagram(e)
        assert b.items() == _naive_pure_entries(e), e
        stepped = [p for p in range(1, len(e)) if e[p] == e[p - 1] + 1]
        # the step from column p - 1 to p cancels against the running entry
        unreduced = 0
        for p in stepped:
            prev, cur = b.get(p - 1, e[p - 1] - p + 1), b.get(p, e[p] - p)
            ratio = cur / prev
            unreduced += math.gcd(prev.numerator, ratio.denominator) > 1
            assert math.gcd(cur.numerator, cur.denominator) == 1
        assert unreduced > 0, e


def _spread(rng, start, n, holes):
    """n + 1 degrees from start to start + n + holes, the n - 1 inner ones
    placed at random: H = holes."""
    if n == 0:
        return (start,)
    inner = sorted(rng.sample(range(start + 1, start + n + holes), n - 1))
    return (start, *inner, start + n + holes)


def _takes_holes(e):
    return diagrams._few_holes_pay(e[-1] - e[0], len(e) - 1)


def _columns(b, e):
    """(b's numerators in column order, b's denominator): the pair a pure
    kernel returns for the sequence e."""
    return [b._n[p, x - p] for p, x in enumerate(e)], b._den


def _assert_kernels_match_naive(e):
    """pure_diagram(e) is the Herzog-Kuhl table in lowest terms, and both
    kernels return its very numerators and denominator, whichever side the
    shape test picks."""
    b = diagrams.pure_diagram(e)
    assert b.items() == _naive_pure_entries(e), e
    assert b._den > 0 and math.gcd(b._den, *b._n.values()) == 1, e
    seq = diagrams.DegreeSequence(e)
    runs = diagrams._runs(seq)
    for kernel in (diagrams._pure_over_holes, diagrams._pure_over_runs):
        assert kernel(seq, *runs) == _columns(b, e), (kernel.__name__, e)


def test_pure_kernels_match_naive_formula_on_both_sides():
    rng = random.Random(41)
    sides = {True: 0, False: 0}
    singles = [(0,), (7,), (-12,)]
    intervals = [(0, 1), (-5, -4, -3, -2), tuple(range(3, 43)), tuple(range(-60, 61))]
    spread = []
    for _ in range(400):
        n = rng.randint(1, 60)
        spread.append(_spread(rng, rng.randint(-30, 30), n, rng.randint(0, n + 2)))
    for e in singles + intervals + spread:
        sides[_takes_holes(e)] += 1
        _assert_kernels_match_naive(e)
    assert all(_takes_holes(e) for e in intervals)  # H = 0
    assert not any(_takes_holes(e) for e in singles)  # n = 0
    assert min(sides.values()) > 100, sides


def test_pure_kernels_return_lowest_terms():
    # _pure_checked keys a kernel's numerators over its denominator with no
    # gcd of its own, so each kernel must return lowest terms on its own,
    # on either side of the shape test
    rng = random.Random(59)
    seqs = []
    for g, k in ((1, 0), (2, 1), (4, 3), (6, 4)):
        for d in rng.sample(range(2 * g + 2 * k + 1, 160), 4):
            params = secant.SecantParams(g, k, d)
            tuples = secant.jump_tuples(g, k)
            chosen = rng.sample(tuples, min(3, len(tuples)))
            seqs += [secant.degree_sequence(params, t) for t in chosen]
    for length in (1, 2, 5, 30, 90):
        seqs += [_random_sequence(rng, rng.randint(-9, 4), (2, 3, 4, 5), length) for _ in range(6)]
    for _ in range(60):
        n = rng.randint(1, 60)
        seqs.append(_spread(rng, rng.randint(-30, 30), n, rng.randint(0, n + 2)))
    for e in seqs:
        seq = diagrams.DegreeSequence(e)
        runs = diagrams._runs(seq)
        for kernel in (diagrams._pure_over_holes, diagrams._pure_over_runs):
            numerators, den = kernel(seq, *runs)
            assert den > 0 and math.gcd(den, *numerators) == 1, (kernel.__name__, e)


def test_pure_kernels_at_the_shape_test_boundary():
    # 3H(n + 8) = n(n + 23) at (n, H) = (4, 3) and (112, 42): the boundary
    # takes the run kernel, one hole fewer the hole kernel
    rng = random.Random(43)
    for n, holes in ((4, 3), (112, 42)):
        assert 3 * holes * (n + 8) == n * (n + 23)
        assert not diagrams._few_holes_pay(n + holes, n)
        assert diagrams._few_holes_pay(n + holes - 1, n)
        for h in (holes - 1, holes):
            for _ in range(4):
                e = _spread(rng, rng.randint(-9, 9), n, h)
                assert _takes_holes(e) is (h < holes)
                _assert_kernels_match_naive(e)


def test_pure_kernel_sides_on_family_and_gapped_sequences():
    # every sequence with gaps in [2, 5] has H >= n and takes the run kernel
    rng = random.Random(47)
    for length in (1, 2, 3, 10, 30, 90, 150):
        for _ in range(20):
            e = _random_sequence(rng, rng.randint(-9, 4), (2, 3, 4, 5), length)
            assert not _takes_holes(e), e
    # a secant sequence has H = 2k + 2 and n = r - 2k - 1; with k <= 4 it
    # takes the hole kernel whenever n >= 2H, and the run kernel below that,
    # where the run kernel is the faster one
    for g in range(1, 7):
        for k in range(5):
            for d in range(2 * g + 2 * k + 1, 301):
                params = secant.SecantParams(g, k, d)
                e = secant.degree_sequence(params, secant.jump_tuples(g, k)[-1])
                holes, n = e[-1] - e[0] - (len(e) - 1), len(e) - 1
                assert holes == 2 * k + 2
                if n >= 2 * holes:
                    assert _takes_holes(e), (g, k, d)
                elif n < holes:
                    assert not _takes_holes(e), (g, k, d)


def test_pure_hole_kernel_on_long_family_sequences():
    # columns sampled against the formula, and the whole table against the
    # run kernel, up to d = 3000
    rng = random.Random(53)
    for g, k, d in ((1, 0, 1000), (3, 2, 3000), (6, 4, 2000)):
        params = secant.SecantParams(g, k, d)
        for t in (secant.jump_tuples(g, k)[0], secant.dominant_tuple(params)):
            e = secant.degree_sequence(params, t)
            assert _takes_holes(e)
            b = diagrams.pure_diagram(e)
            assert math.gcd(b._den, *b._n.values()) == 1
            n = len(e) - 1
            for p in {0, 1, n - 1, n, *rng.sample(range(n + 1), 12)}:
                assert b.get(p, e[p] - p) == _naive_column(e, p), (g, k, d, p)
            assert diagrams._pure_over_runs(e, *diagrams._runs(e)) == _columns(b, e)


def test_pure_diagram_over_a_wide_span_takes_the_run_kernel():
    # S!/n! for S = 10^8 would never finish; the run kernel builds each
    # entry from n = 1..3 differences
    for e in ((0, 10**8), (0, 1, 2, 10**8), (-(10**8), 0, 10**8)):
        assert not _takes_holes(e)
        assert diagrams.pure_diagram(e).items() == _naive_pure_entries(e)


def test_pure_diagram_checks_before_its_memo():
    # with (0, 1) in the memo, inputs that are == to it and hash alike, or
    # that are no degree sequence at all, still get the check's refusal
    warm = diagrams.pure_diagram((0, 1))
    assert (0, 1.0) == (0, True) == (0, 1) and hash((0, 1.0)) == hash((0, True)) == hash((0, 1))
    for e, message in (
        ((0, 1.0), "degree must be an integer, got 1.0"),
        ((0, True), "degree must be an integer, got True"),
        ([0, 0, 1], "not strictly increasing: (0, 0, 1)"),
    ):
        with pytest.raises(MalformedDegreeSequence, match=f"^{re.escape(message)}$"):
            diagrams.pure_diagram(e)
    assert diagrams.pure_diagram([0, 1]) is warm
    # a list, a tuple and a DegreeSequence of one sequence give one diagram
    same = [
        diagrams.pure_diagram(e)
        for e in ([0, 3, 4], (0, 3, 4), diagrams.DegreeSequence((0, 3, 4)))
    ]
    assert same[0] == same[1] == same[2]


def test_pure_diagram_one_entry_per_column():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 9)
        seq = [rng.randint(-4, 0)]
        for _ in range(n):
            seq.append(seq[-1] + rng.randint(1, 5))
        b = diagrams.pure_diagram(seq)
        cols = [p for (p, _) in b.support()]
        assert sorted(cols) == list(range(n + 1))
        assert diagrams.multiplicity(b) == 1


def test_multiplicity_is_linear():
    a = diagrams.pure_diagram((0, 1, 3))
    b = diagrams.pure_diagram((0, 2, 3))
    combo = diagrams.add(diagrams.scale(a, F(1, 3)), diagrams.scale(b, F(2, 3)))
    assert diagrams.multiplicity(combo) == 1
    assert diagrams.multiplicity(diagrams.scale(a, F(7, 2))) == F(7, 2)


def _fresh(b):
    """A new diagram equal to b that holds no quotient, built as the
    library builds its tables, with no check of outside values."""
    return diagrams._reduced(dict(b._n), b._den)


def _cold(quantity, b):
    """quantity of a fresh diagram equal to b, so that its own kernel
    computes it and no quotient b holds from an earlier call answers."""
    return quantity(_fresh(b))


def test_hilbert_numerator_frozen_coefficients():
    b = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    hn = diagrams.hilbert_numerator(b)
    assert hn.items() == [
        (0, F(5, 189)),
        (1, F(25, 189)),
        (2, F(25, 63)),
        (3, F(10, 27)),
        (4, F(2, 27)),
    ]
    assert sum(c for _, c in hn.items()) == _cold(diagrams.multiplicity, b) == 1
    assert hn.degree == 4
    assert hn.leading_coefficient() == F(2, 27)


def test_hilbert_numerator_rejects_non_cm_shape():
    b = diagrams.BettiDiagram({(0, 0): F(1), (1, 0): F(3)})
    with pytest.raises(NotCohenMacaulayShape):
        diagrams.hilbert_numerator(b)
    with pytest.raises(NotCohenMacaulayShape):
        diagrams.multiplicity(b)


def test_hilbert_numerator_zero_cancellation():
    # alternating polynomial cancels identically; the quotient is the
    # zero polynomial, not an error. With pd 2 the first division already
    # leaves an empty list, which the second must accept.
    for entries in (
        {(0, 2): F(1), (1, 1): F(1)},
        {(0, 2): F(1), (1, 1): F(2), (2, 0): F(1)},
    ):
        b = diagrams.BettiDiagram(entries)
        hn = diagrams.hilbert_numerator(b)
        assert not hn
        assert _cold(diagrams.multiplicity, b) == 0


def _prefix_sum_quotient(coeffs, s):
    """The reference division, which the library no longer runs: s prefix
    sums, each leaving a last value that must be zero. None if (1-t)^s does
    not divide."""
    for _ in range(s):
        coeffs = list(accumulate(coeffs))
        if coeffs and coeffs.pop() != 0:
            return None
    return coeffs


def _diagram_with_polynomial(coeffs, s):
    """A diagram of projective dimension s whose alternating polynomial is
    sum coeffs[j] t^j: each coefficient in column 0 or 1, plus an entry in
    column s and one in column 1 or 0 that cancel at t^(s+1)."""
    triples = [(0, j, F(c)) if c > 0 else (1, j - 1, F(-c)) for j, c in enumerate(coeffs) if c]
    partner = (1, s) if s % 2 == 0 else (0, s + 1)  # the opposite sign of (s, 1)
    triples += [(s, 1, F(1)), (*partner, F(1))]
    return diagrams.BettiDiagram.from_entries(triples)


def _dense_alternating(b):
    """(coeffs, offset, s): b's alternating polynomial as the list of every
    coefficient from t^offset up, from _alternating's nonzero terms."""
    terms, lo, hi, s = diagrams._alternating(b)
    return [terms.get(t, 0) for t in range(lo, hi + 1)], lo, s


def _shape(b):
    coeffs, _, s = _dense_alternating(b)
    assert s == diagrams.projective_dimension(b)
    return max(len(coeffs) - s, 0), s


def _kernel_outcome(kernel, terms, s):
    """kernel's M_s of the polynomial with the nonzero terms terms, or the
    message of the NotCohenMacaulayShape it raises."""
    try:
        return kernel(terms, sorted(terms), s)
    except NotCohenMacaulayShape as exc:
        return str(exc)


def _assert_product_check_matches(b, expected):
    """Where b's alternating polynomial has exactly s + 1 nonzero terms,
    the product check, run whichever kernel multiplicity would take, gives
    M_s = (-1)^s s! den HN(1) for the prefix-sum oracle's quotient
    expected of den times that polynomial, or, where expected is None,
    raises the oracle's one message."""
    terms, _, _, s = diagrams._alternating(b)
    if len(terms) == s + 1:
        if expected is None:
            moment = f"(1-t)^{s} does not divide the alternating polynomial"
        else:
            moment = (-1) ** s * math.factorial(s) * sum(expected)
        assert _kernel_outcome(diagrams._product_moment, terms, s) == moment


def _assert_division_matches_prefix_sums(b):
    """_quotient of b's alternating polynomial equals the prefix-sum oracle,
    and hilbert_numerator and multiplicity read it over b's denominator;
    where the oracle finds a remainder, all three raise the one message.
    The product check matches the oracle where it applies."""
    coeffs, offset, s = _dense_alternating(b)
    lcm = b._den
    expected = _prefix_sum_quotient(coeffs, s)
    _assert_product_check_matches(b, expected)
    if expected is None:
        message = rf"^\(1-t\)\^{s} does not divide the alternating polynomial$"
        with pytest.raises(NotCohenMacaulayShape, match=message):
            diagrams._quotient(list(coeffs), s)
        with pytest.raises(NotCohenMacaulayShape, match=message):
            diagrams.hilbert_numerator(b)
        with pytest.raises(NotCohenMacaulayShape, match=message):
            diagrams.multiplicity(b)
    else:
        assert diagrams._quotient(list(coeffs), s) == expected
        numerator = {offset + j: F(c, lcm) for j, c in enumerate(expected)}
        assert _cold(diagrams.hilbert_numerator, b) == diagrams.RationalPolynomial(numerator)
        assert _cold(diagrams.multiplicity, b) == F(sum(expected), lcm)
    return expected


def _run_sequence(n, extra):
    """0..n with the extra gap added between 3 and 4: pd n, m = extra + 1."""
    return tuple(range(4)) + tuple(range(4 + extra, n + 1 + extra))


_KERNELS = {
    "_quotient": "long division",
    "_product_moment": "product check",
}


def _multiplicity_path(b, monkeypatch):
    """The kernel multiplicity(b) runs, the long division or the product
    check, whether it divides or raises. It asks a fresh
    diagram equal to b, since b may hold its quotient from an earlier
    call, which would answer without a kernel."""
    taken = []
    with monkeypatch.context() as patch:
        for name, kernel in _KERNELS.items():
            def spy(*args, _kernel=kernel, _original=getattr(diagrams, name)):
                taken.append(_kernel)
                return _original(*args)
            patch.setattr(diagrams, name, spy)
        try:
            diagrams.multiplicity(_fresh(b))
        except NotCohenMacaulayShape:
            pass
    assert len(taken) == 1, taken
    return taken[0]


def test_division_shape_test_sides(monkeypatch):
    # multiplicity's shape test: family diagrams and (0,3,4,6,7,9) take
    # the long division, gapped sequences of 30 or more degrees the
    # product check; the family quotients match the prefix sums (the other
    # shapes are matched in test_one_division_where_the_prefix_sums_ran)
    family = [
        secant.degree_sequence(secant.SecantParams(g, k, d), t)
        for g, k, d in ((1, 0, 61), (3, 2, 120), (6, 4, 300), (2, 1, 60))
        for t in secant.jump_tuples(g, k)[:: 2 * g]
    ]
    for e in family + [_run_sequence(12, 0)]:
        b = diagrams.pure_diagram(e)
        assert _assert_division_matches_prefix_sums(b)
        assert _multiplicity_path(b, monkeypatch) == "long division", e
    rng = random.Random(9)
    gapped = [_random_sequence(rng, 0, (2, 3, 4, 5), n) for n in (3, 10, 40, 90)]
    for e in gapped + [(0, 3, 4, 6, 7, 9)]:
        path = "product check" if len(e) >= 30 else "long division"
        assert _multiplicity_path(diagrams.pure_diagram(e), monkeypatch) == path, e


def test_one_division_where_the_prefix_sums_ran():
    # shapes the division once took as s prefix sums: gapped sequences,
    # (0,1,2), (0,3,4,6,7,9), the two shapes either side of the former
    # boundary (m, s) = (36, 138) and (35, 138), and an s = 1 wide span
    rng = random.Random(9)
    sequences = [_random_sequence(rng, 0, (2, 3, 4, 5), n) for n in (3, 10, 40, 90)]
    sequences += [(0, 1, 2), (0, 3, 4, 6, 7, 9), (0, 2000)]
    sequences += [_run_sequence(138, 35), _run_sequence(138, 34)]
    for e in sequences:
        assert _assert_division_matches_prefix_sums(diagrams.pure_diagram(e)), e
    shapes = [_shape(diagrams.pure_diagram(e)) for e in sequences[-3:]]
    assert shapes == [(2000, 1), (36, 138), (35, 138)]
    # s = 0: the alternating polynomial is its own quotient
    for cells, numerator, total in (
        ({(0, 0): F(1), (0, 2): F(3)}, {0: F(1), 2: F(3)}, F(4)),
        ({(0, 5): F(2, 3), (0, 7): F(-1)}, {5: F(2, 3), 7: F(-1)}, F(-1, 3)),
    ):
        b = diagrams.BettiDiagram(cells)
        assert _shape(b) == (3, 0)
        assert _assert_division_matches_prefix_sums(b)
        assert _cold(diagrams.hilbert_numerator, b) == diagrams.RationalPolynomial(numerator)
        assert _cold(diagrams.multiplicity, b) == total


def test_division_with_no_quotient_coefficient():
    # m = 0: a polynomial with at most s coefficients divides only when it
    # cancels to nothing
    for s in (9, 40, 1, 5):
        cancels = diagrams.BettiDiagram({(p, s - p): F(math.comb(s, p)) for p in range(s + 1)})
        assert _shape(cancels) == (0, s)
        assert _assert_division_matches_prefix_sums(cancels) == []
        assert not _cold(diagrams.hilbert_numerator, cancels)
        assert _cold(diagrams.multiplicity, cancels) == 0
        single = diagrams.BettiDiagram({(0, s): F(1), (s, 0): F(1 + s % 2)})
        assert _shape(single) == (0, s)
        assert _assert_division_matches_prefix_sums(single) is None


def test_division_rejects_non_cm_on_both_paths():
    cases = []
    # a nonzero remainder only in the top coefficient: one more unit of
    # the last column of a pure diagram, a family one (short quotient)
    # and a gapped one (long quotient)
    for e in (
        secant.degree_sequence(secant.SecantParams(3, 2, 120), (1, 2, 3)),
        _random_sequence(random.Random(4), 0, (2, 3, 5), 30),
    ):
        n = len(e) - 1
        b = diagrams.add(diagrams.pure_diagram(e), diagrams.BettiDiagram({(n, e[n] - n): F(1)}))
        cases.append(b)
    # divisible by (1-t)^(s-1) but not by (1-t)^s: the prefix sums find it
    # only at the last division
    for s in (60, 5):
        row = [(-1) ** j * math.comb(s - 1, j) for j in range(s)]
        poly = list(map(sum, zip(row + [0], [0] + [2 * c for c in row])))  # (1-t)^(s-1) (1+2t)
        cases.append(_diagram_with_polynomial(poly, s))
    for b in cases:
        assert _assert_division_matches_prefix_sums(b) is None


def test_binomial_row_is_the_expanded_power():
    # the half row t^1 .. t^(s//2) of (1-t)^s, the part the long division reads
    for s in range(1, 401):
        expected = tuple((-1) ** i * math.comb(s, i) for i in range(1, s // 2 + 1))
        assert diagrams._binomial_row(s) == expected, s


def _times_power(q, s):
    """The coefficients of q(t) * (1-t)^s."""
    power = [(-1) ** j * math.comb(s, j) for j in range(s + 1)]
    out = [0] * (len(q) + s)
    for i, c in enumerate(q):
        for j, b in enumerate(power):
            out[i + j] += c * b
    return out


def test_long_division_same_with_cold_and_warm_row_memo():
    # divisible and indivisible polynomials at odd and even s: each is
    # divided once with its row just evicted and once with the row in the
    # memo, and both match the prefix sums. s = 3..6 are the least odd and
    # even s whose products are applied at mirror positions too (s = 1 has
    # no first half, s = 2 no mirror)
    rng = random.Random(22)
    cases = []
    for s in (1, 2, 3, 4, 5, 6, 7, 8, 59, 60, 251, 252):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((-1, 1))]
        product = _times_power(q, s)
        cases.append((product, s))
        for j in (len(q), len(product) - 1):  # the lowest and the top remainder coefficient
            off = list(product)
            off[j] += rng.choice((-2, 1))
            cases.append((off, s))
        cases.append((_times_power(q, s - 1) + [0], s))  # divisible by (1-t)^(s-1) only
    row = diagrams._binomial_row
    for coeffs, s in cases:
        outcomes = []
        for warm in (False, True):
            if not warm:
                row.cache_clear()
            before = row.cache_info()
            try:
                outcomes.append(diagrams._quotient(list(coeffs), s))
            except NotCohenMacaulayShape as exc:
                outcomes.append(str(exc))
            after = row.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (warm, not warm)
        expected = _prefix_sum_quotient(list(coeffs), s)
        if expected is None:
            expected = f"(1-t)^{s} does not divide the alternating polynomial"
        else:
            assert expected
        assert outcomes == [expected, expected], (s, coeffs)


def _takes_products(b):
    """Whether the shape test sends b to the product check: exactly s + 1
    nonzero terms, and _products_pay on its shape."""
    coeffs, _, s = _dense_alternating(b)
    terms = len(coeffs) - coeffs.count(0)
    return terms == s + 1 and diagrams._products_pay(len(coeffs) - s, s)


def _assert_multiplicity_matches_prefix_sums(b, products=None):
    """multiplicity(b) is the sum of the prefix-sum oracle's quotient over
    the denominator, or raises its one message; the shape test sends b to
    the product check exactly when products is True, when it is given.
    The product check matches the oracle where it applies."""
    assert products is None or _takes_products(b) is products
    coeffs, _, s = _dense_alternating(b)
    expected = _prefix_sum_quotient(coeffs, s)
    _assert_product_check_matches(b, expected)
    if expected is None:
        message = rf"^\(1-t\)\^{s} does not divide the alternating polynomial$"
        with pytest.raises(NotCohenMacaulayShape, match=message):
            diagrams.multiplicity(b)
    else:
        assert _cold(diagrams.multiplicity, b) == F(sum(expected), b._den)
    return expected


def test_moment_kernel_matches_prefix_sums(monkeypatch):
    # seeded pure diagrams (many starting at negative degrees), positive
    # combinations of two on one span, and one unit more in one cell; then
    # combinations of two on spans long enough for the product check, alone
    # and with one unit more in one cell, which the long division takes
    rng = random.Random(59)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 40)
        e = _spread(rng, rng.randint(-60, 20), n, rng.randint(0, 3 * n + 40))
        pure = diagrams.pure_diagram(e)
        other = diagrams.pure_diagram(_spread(rng, e[0], n, e[-1] - e[0] - n))
        p = rng.randint(0, n)
        bump = diagrams.BettiDiagram({(p, e[p] - p + rng.randint(0, 1)): F(1)})
        weight = F(rng.randint(1, 5), rng.randint(1, 5))
        cases += [pure, diagrams.add(diagrams.scale(pure, weight), other), diagrams.add(pure, bump)]
    for _ in range(12):
        n = rng.randint(8, 40)
        e = _spread(rng, rng.randint(-60, 20), n, rng.randint(5 * n + 30, 8 * n + 60))
        other = diagrams.pure_diagram(_spread(rng, e[0], n, e[-1] - e[0] - n))
        weight = F(rng.randint(1, 5), rng.randint(1, 5))
        pair = diagrams.add(diagrams.pure_diagram(e), diagrams.scale(other, weight))
        p = rng.randint(0, n)
        bump = diagrams.BettiDiagram({(p, e[p] - p + rng.randint(0, 1)): F(1)})
        cases += [pair, diagrams.add(pair, bump)]
    sides = {True: 0, False: 0}
    divides = {True: 0, False: 0}
    kernels = dict.fromkeys(_KERNELS.values(), 0)
    for b in cases:
        products = _takes_products(b)
        sides[products] += 1
        path = _multiplicity_path(b, monkeypatch)
        assert path == ("product check" if products else "long division")
        kernels[path] += 1
        divides[_assert_multiplicity_matches_prefix_sums(b) is not None] += 1
    assert min(sides.values()) > 20 and min(divides.values()) > 20, (sides, divides)
    assert min(kernels.values()) > 20, kernels


def test_moment_kernel_edge_shapes():
    # every shape here has other than s + 1 nonzero terms, or a short
    # quotient, so the long division takes it
    for s in (40, 5):
        # K = 0 (multiplicity 0), and a nonzero K of one term
        cancels = diagrams.BettiDiagram({(p, s - p): F(math.comb(s, p)) for p in range(s + 1)})
        assert _assert_multiplicity_matches_prefix_sums(cancels, False) == []
        assert diagrams.multiplicity(cancels) == 0
        single = diagrams.BettiDiagram({(0, s): F(1), (s, 0): F(1 + s % 2)})
        assert _assert_multiplicity_matches_prefix_sums(single, False) is None
    # s nonzero terms spread over 200 exponents: never divisible by (1-t)^s
    rng = random.Random(61)
    poly = [0] * 200
    for j in rng.sample(range(200), 40):
        poly[j] = rng.choice((-3, -1, 2))
    assert _assert_multiplicity_matches_prefix_sums(_diagram_with_polynomial(poly, 40), False) is None
    # s = 0: HN is the alternating polynomial itself, here at negative
    # degrees; a single cell is the one term the product check takes
    for cells in (
        {(0, -4): F(1, 3), (0, 3): F(2)},
        {(0, -9): F(1), (0, 40): F(5, 2)},
        {(0, 5): F(2, 3)},
    ):
        b = diagrams.BettiDiagram(cells)
        assert _assert_multiplicity_matches_prefix_sums(b, False)
        assert diagrams.multiplicity(b) == sum(cells.values())


def test_moment_shape_test_exact_boundary():
    # 1600 (m - s - 25) = s^2 at (m, s) = (66, 40), with s + 1 nonzero
    # terms: the boundary takes the long division, one coefficient more the
    # product check
    assert 1600 * (66 - 40 - 25) == 40 * 40
    on = diagrams.pure_diagram(_run_sequence(40, 65))
    above = diagrams.pure_diagram(_run_sequence(40, 66))
    assert (_shape(on), _shape(above)) == ((66, 40), (67, 40))
    assert _assert_multiplicity_matches_prefix_sums(on, False)
    assert _assert_multiplicity_matches_prefix_sums(above, True)


def test_moments_and_prefix_sums_agree_on_gapped_shapes(monkeypatch):
    # the gapped benchmark's shapes: multiplicity by the product check, as
    # the prefix-sum oracle gives it, and hilbert_numerator's coefficients
    # by the long division, all 1
    rng = random.Random(67)
    for n in (30, 90, 150):
        b = diagrams.pure_diagram(_random_sequence(rng, 0, (2, 3, 4, 5), n))
        assert _multiplicity_path(b, monkeypatch) == "product check"
        expected = _assert_multiplicity_matches_prefix_sums(b, True)
        assert F(sum(expected), b._den) == 1
        hn = diagrams.hilbert_numerator(b)
        assert sum(c for _, c in hn.items()) == _cold(diagrams.multiplicity, b) == 1


def test_product_check_rejects_planted_faults(monkeypatch):
    # a gapped pure diagram with one numerator one too large in column 0,
    # in a middle column or in column s, or with one entry's sign flipped:
    # each keeps s + 1 terms, takes the product check, and raises the
    # prefix sums' one message
    e = _random_sequence(random.Random(71), 0, (2, 3, 4, 5), 41)
    b = diagrams.pure_diagram(e)
    s = len(e) - 1
    assert _multiplicity_path(b, monkeypatch) == "product check"
    one = F(1, b._den)

    def planted(p, change):
        cells = dict(b.items())
        cells[p, e[p] - p] = change(cells[p, e[p] - p])
        return diagrams.BettiDiagram(cells)

    faults = [planted(p, lambda v: v + one) for p in (0, s // 2, s)]
    faults.append(planted(s // 2 + 1, lambda v: -v))
    for bad in faults:
        assert len(diagrams._alternating(bad)[0]) == s + 1
        assert _multiplicity_path(bad, monkeypatch) == "product check"
        assert _assert_multiplicity_matches_prefix_sums(bad, True) is None
        message = f"(1-t)^{s} does not divide the alternating polynomial"
        assert _outcome(diagrams.multiplicity, bad) == message


def _counting(patch, *names):
    """Spies on the named diagrams functions through patch; returns the
    dict of their call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _original=getattr(diagrams, name)):
            calls[_name] += 1
            return _original(*args)
        patch.setattr(diagrams, name, spy)
    return calls


def _outcome(quantity, b):
    """quantity(b), or the message of the NotCohenMacaulayShape it raises."""
    try:
        return quantity(b)
    except NotCohenMacaulayShape as exc:
        return str(exc)


_BOTH_ORDERS = (
    (diagrams.multiplicity, diagrams.hilbert_numerator),
    (diagrams.hilbert_numerator, diagrams.multiplicity),
)


def test_multiplicity_and_hilbert_numerator_divide_a_diagram_once(monkeypatch):
    # either order on one family diagram builds the alternating polynomial
    # once and divides once: the second call reads the quotient the
    # diagram holds
    b = secant.secant_pure_diagram(secant.SecantParams(3, 2, 120), (1, 2, 3))
    assert _multiplicity_path(b, monkeypatch) == "long division"
    expected = {f: _cold(f, b) for f in _BOTH_ORDERS[0]}
    for order in _BOTH_ORDERS:
        fresh = _fresh(b)
        assert fresh._division is None
        with monkeypatch.context() as patch:
            calls = _counting(patch, "_alternating", "_quotient")
            assert [f(fresh) for f in order] == [expected[f] for f in order]
            assert calls == {"_alternating": 1, "_quotient": 1}
        assert fresh._division is not None
    assert expected[diagrams.multiplicity] == 1


def test_division_memo_matches_by_identity(monkeypatch):
    # an equal diagram that is another object is divided on its own, and
    # each then answers from its own quotient
    b = _fresh(diagrams.pure_diagram(secant.degree_sequence(secant.SecantParams(2, 1, 90), (0, 2))))
    twin = diagrams.BettiDiagram(dict(b.items()))
    assert twin == b and twin is not b
    with monkeypatch.context() as patch:
        calls = _counting(patch, "_alternating", "_quotient")
        assert diagrams.multiplicity(b) == diagrams.multiplicity(twin) == 1
        assert calls == {"_alternating": 2, "_quotient": 2}
        assert twin._division == b._division and twin._division is not b._division
        assert diagrams.hilbert_numerator(b) == diagrams.hilbert_numerator(twin)
        assert calls == {"_alternating": 2, "_quotient": 2}


def test_division_memo_never_holds_a_failed_division(monkeypatch):
    # one unit more in the last column, on both of multiplicity's paths
    # (the long division with a short and with a longer quotient, and the
    # product check on a long one): four
    # calls in either order each raise the same message afresh, the
    # failing diagram stores nothing, and a diagram divided before keeps
    # its quotient
    rng = random.Random(24)
    sequences = [
        (secant.degree_sequence(secant.SecantParams(3, 2, 120), (1, 2, 3)), "long division"),
        (_random_sequence(rng, 0, (2, 3, 5), 8), "long division"),
        (_random_sequence(rng, 0, (2, 3, 5), 40), "product check"),
    ]
    held = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    diagrams.hilbert_numerator(held)
    quotient = held._division
    assert quotient is not None
    for e, path in sequences:
        n = len(e) - 1
        bad = diagrams.add(diagrams.pure_diagram(e), diagrams.BettiDiagram({(n, e[n] - n): F(1)}))
        assert _takes_products(bad) is (path == "product check")
        message = f"(1-t)^{n} does not divide the alternating polynomial"
        for order in _BOTH_ORDERS:
            with monkeypatch.context() as patch:
                calls = _counting(patch, "_alternating")
                for i, f in enumerate(order * 2):
                    assert _outcome(f, bad) == message, (path, f)
                    assert bad._division is None
                    assert held._division is quotient
                    assert calls["_alternating"] == i + 1


def test_division_refuses_too_few_terms_before_listing_the_span(monkeypatch):
    # Descartes' rule of signs: N + 1 nonzero terms give t = 1 a root of
    # multiplicity at most N, so (1-t)^s divides no polynomial of 1 to s
    # terms; both quantities refuse one in microseconds, whatever its span
    # (listing the 10^5 coefficients took 0.16-0.54 s), and store nothing
    cases = [{(0, 0): 1, (s, 10**5): 1} for s in (2, 3, 9, 40)]
    cases.append({(0, 0): 2, (4, 10**5): 1, (9, 2 * 10**5): -3})
    for cells in cases:
        s = max(p for p, _ in cells)
        message = f"(1-t)^{s} does not divide the alternating polynomial"
        for order in _BOTH_ORDERS:
            with monkeypatch.context() as patch:
                calls = _counting(patch, "_quotient")
                b = diagrams.BettiDiagram(cells)
                for f in order:
                    start = time.perf_counter()
                    with pytest.raises(NotCohenMacaulayShape) as exc:
                        f(b)
                    assert time.perf_counter() - start < 0.01, (cells, f)
                    assert str(exc.value) == message
                    assert b._division is None
                assert calls["_quotient"] == 0
    # the zero polynomial, which has no term, still divides: multiplicity 0
    zero = diagrams.BettiDiagram({(0, 0): 1, (1, -1): 1, (4, -4): 1, (5, -5): 1})
    assert diagrams.multiplicity(zero) == 0
    assert diagrams.hilbert_numerator(zero).items() == []


def test_division_memo_warm_equals_cold_on_every_path(monkeypatch):
    # seeded diagrams on each of multiplicity's kernels, pure and
    # combinations of two: HN(1) from hilbert_numerator is multiplicity,
    # and both read the same held or not, in either order
    rng = random.Random(2424)
    paths = dict.fromkeys(_KERNELS.values(), 0)
    cases = []
    for _ in range(6):
        g, k = rng.randint(1, 4), rng.randint(0, 3)
        params = secant.SecantParams(g, k, rng.randint(2 * g + 2 * k + 60, 200))
        tuples = rng.sample(secant.jump_tuples(g, k), min(2, len(secant.jump_tuples(g, k))))
        tables = [secant.secant_pure_diagram(params, t) for t in tuples]
        cases.append((tables[0], "long division"))
        cases.append((diagrams.add(tables[0], diagrams.scale(tables[-1], F(2, 3))), "long division"))
        short = diagrams.pure_diagram(_random_sequence(rng, rng.randint(-5, 5), (1, 2, 3), 6))
        cases.append((short, "long division"))
        cases.append((diagrams.scale(short, F(5, 7)), "long division"))
        gapped = _random_sequence(rng, 0, (2, 3, 4, 5), 40)
        cases.append((diagrams.pure_diagram(gapped), "product check"))
        # its second degree one up: a sum of s + 2 terms, which is divided
        moved = diagrams.pure_diagram((0, gapped[1] + 1, *gapped[2:]))
        cases.append((diagrams.add(diagrams.pure_diagram(gapped), moved), "long division"))
    for b, path in cases:
        assert _multiplicity_path(b, monkeypatch) == path
        paths[path] += 1
        cold = {f: _cold(f, b) for f in _BOTH_ORDERS[0]}
        hn = cold[diagrams.hilbert_numerator]
        assert sum(c for _, c in hn.items()) == cold[diagrams.multiplicity]
        for order in _BOTH_ORDERS:
            fresh = _fresh(b)
            assert [f(fresh) for f in order * 2] == [cold[f] for f in order * 2], path
    assert min(paths.values()) >= 6, paths


def test_each_diagram_keeps_its_own_quotient(monkeypatch):
    # after one pass over a run of distinct diagrams, each holds its own
    # quotient: a second pass, in either quantity, divides none of them
    params = secant.SecantParams(3, 2, 150)
    tables = [_fresh(secant.secant_pure_diagram(params, t)) for t in secant.jump_tuples(3, 2)]
    with monkeypatch.context() as patch:
        calls = _counting(patch, "_quotient")
        assert all(diagrams.multiplicity(b) == 1 for b in tables)
        assert calls["_quotient"] == len(tables)
        assert all(diagrams.multiplicity(b) == 1 for b in tables)
        assert all(diagrams.hilbert_numerator(b) for b in tables)
        assert calls["_quotient"] == len(tables)


def test_multiplicity_lists_no_coefficient_of_a_wide_span(monkeypatch):
    # two terms 10^7 apart take the product check, which reads the two
    # terms; a list of the span's coefficients would hold about 80 MB
    b = diagrams.pure_diagram((0, 10**7))
    assert _multiplicity_path(b, monkeypatch) == "product check"
    tracemalloc.start()
    try:
        assert diagrams.multiplicity(b) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _column_form(e):
    """A new pure table of e in column form, past pure_diagram's memo, its
    cells not yet keyed."""
    b = diagrams._pure_checked.__wrapped__(diagrams.DegreeSequence(e))
    assert b._cells is None
    return b


def _table_form_cases(rng):
    """Seeded sequences: n = 0, family sequences (g <= 6, k <= 4), gaps in
    [2, 5], the herzog-kuhl suite's shape (starts in [-3, 3], gaps in
    [1, 4]) and degrees spread at random, on both sides of the kernels'
    shape test."""
    seqs = [(0,), (7,), (-3,)]
    for g in range(1, 7):
        for k in range(5):
            params = secant.SecantParams(g, k, rng.randint(2 * g + 2 * k + 1, 160))
            seqs.append(secant.degree_sequence(params, rng.choice(secant.jump_tuples(g, k))))
    for _ in range(10):
        seqs.append(_random_sequence(rng, rng.randint(-3, 3), (2, 3, 4, 5), rng.randint(2, 60)))
        seqs.append(_random_sequence(rng, rng.randint(-3, 3), (1, 2, 3, 4), rng.randint(2, 12)))
    for _ in range(20):
        n = rng.randint(1, 40)
        seqs.append(_spread(rng, rng.randint(-3, 3), n, rng.randint(0, n + 2)))
    return seqs


def test_column_and_dict_forms_agree():
    # a pure table in column form against a table of the same cells held
    # as a dict alone, in a shuffled order, built through _table: every
    # quantity and reader gives the same value or exception, each reader
    # on a table whose cells it keys first
    rng = random.Random(3737)
    sides = {True: 0, False: 0}
    paths = set()
    for e in _table_form_cases(rng):
        sides[_takes_holes(e)] += 1
        cells = list(_column_form(e)._n.items())
        den = _column_form(e)._den

        def dict_form():
            rng.shuffle(cells)
            return diagrams._table(dict(cells), den)

        assert diagrams._alternating(_column_form(e)) == diagrams._alternating(dict_form()), e
        for order in _BOTH_ORDERS:
            col, dic = _column_form(e), dict_form()
            assert [_outcome(f, col) for f in order] == [_outcome(f, dic) for f in order]
            assert col._division == dic._division and col._cells is None, e
        paths.add(_takes_products(dict_form()))
        dic = dict_form()
        readers = (
            lambda b: [b.get(p, x - p) for p, x in enumerate(e)] + [b.get(0, e[0] + 1)],
            lambda b: b.items(),
            lambda b: b.support(),
            len,
            bool,
            lambda b: (b == dic, dic == b, b == _column_form(e), b == diagrams.scale(dic, 2)),
            lambda b: json.dumps(b.to_json_obj()),
            diagrams._diagram_json,
            diagrams.top_strand,
            lambda b: (diagrams.scale(b, F(-2, 3)), diagrams.add(b, dic), diagrams.add(dic, b)),
        )
        for reader in readers:
            assert reader(_column_form(e)) == reader(dict_form()), e
    assert min(sides.values()) >= 20 and paths == {True, False}, (sides, paths)
    # two terms 10^8 apart: the product check on both forms, no span listed
    wide = _column_form((0, 10**8))
    tracemalloc.start()
    try:
        assert diagrams.multiplicity(wide) == 1
        assert diagrams.multiplicity(diagrams._table(dict(_column_form((0, 10**8))._n), wide._den)) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_pure_table_divides_without_keying_its_cells(monkeypatch):
    # multiplicity, then hilbert_numerator, of a new pure table on each of
    # multiplicity's paths leave its cell dict unbuilt; the first reader
    # of a cell builds it, once, and pure_diagram's memo hands out that
    # one object with it
    built = []

    def counting_dict(*args):
        built.append(args)
        return dict(*args)

    rng = random.Random(77)
    family = secant.degree_sequence(secant.SecantParams(3, 2, 97), (1, 2, 3))
    for e in (family, _random_sequence(rng, 0, (2, 3, 4, 5), 40)):
        diagrams._pure_checked.cache_clear()
        b = diagrams.pure_diagram(e)
        assert b._cells is None
        assert diagrams.multiplicity(b) == 1 and diagrams.hilbert_numerator(b)
        assert b._cells is None and b._division is not None
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(diagrams, "dict", counting_dict, raising=False)
            assert b.get(0, e[0]) > 0
            cells = b._cells
            assert cells is not None and len(built) == 1
            b.items(), b.support(), len(b), b == b, b.to_json_obj(), diagrams.top_strand(b)
            diagrams.scale(b, 2), diagrams._diagram_json(b)
            assert b._cells is cells and len(built) == 1
        assert diagrams.pure_diagram(list(e)) is b and b._cells is cells


def test_only_diagrams_reads_the_column_form():
    # a pure table's cell dict and columns are read in diagrams.py alone
    for path in sorted(pathlib.Path(diagrams.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_cells", "_e", "_columns")
        }
        assert names == ({"_cells", "_e", "_columns"} if path.name == "diagrams.py" else set())


def test_power_sum_relations_random_pure():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 10)
        seq = [rng.randint(-3, 3)]
        for _ in range(n):
            seq.append(seq[-1] + rng.randint(1, 4))
        b = diagrams.pure_diagram(seq)
        for j in range(n):
            total = sum(
                (-1) ** p * b.get(p, e - p) * F(e) ** j for p, e in enumerate(seq)
            )
            assert total == 0, (seq, j)


def test_projective_dimension_and_regularity():
    b = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    assert diagrams.projective_dimension(b) == 5
    assert diagrams.regularity(b) == 4
    with pytest.raises(EmptyDiagram):
        diagrams.regularity(diagrams.BettiDiagram())


def test_top_strand_reads_degree_sequence_back():
    e = diagrams.DegreeSequence((0, 2, 5, 6))
    assert diagrams.top_strand(diagrams.pure_diagram(e)) == e


def test_top_strand_error_cases():
    gap = diagrams.BettiDiagram({(0, 0): F(1), (2, 1): F(1)})
    with pytest.raises(MissingColumn) as exc:
        diagrams.top_strand(gap)
    assert exc.value.p == 1

    flat = diagrams.BettiDiagram({(0, 1): F(1), (1, 0): F(1)})
    with pytest.raises(NotStrictlyIncreasing):
        diagrams.top_strand(flat)


def test_subtract_strict_names_the_entry():
    a = diagrams.pure_diagram((0, 1, 2))
    b = diagrams.scale(a, 2)
    with pytest.raises(NegativeEntry) as exc:
        diagrams.subtract(a, b)
    assert (exc.value.p, exc.value.q) == (0, 0)
    assert exc.value.value == -1

    formal = diagrams.add(a, diagrams.scale(b, -1))
    assert formal.get(1, 0) == -2


def test_add_subtract_round_trip():
    a = diagrams.pure_diagram((0, 2, 3))
    b = diagrams.pure_diagram((0, 1, 3))
    assert diagrams.subtract(diagrams.add(a, b), b) == a
    # exact cancellation leaves the empty diagram
    assert not diagrams.subtract(a, a)


def test_subtract_strict_names_first_negative_in_index_order():
    a = diagrams.BettiDiagram({(1, 0): F(1)})
    b = diagrams.BettiDiagram({(0, 0): F(1), (1, 0): F(2)})
    with pytest.raises(NegativeEntry) as exc:
        diagrams.subtract(a, b)
    assert (exc.value.p, exc.value.q, exc.value.value) == (0, 0, -1)


def test_nonnegative_names_the_first_negative_and_keeps_a_cone_input():
    # two negatives held out of (p, q) order: the (p, q)-first is named
    b = diagrams.BettiDiagram({(2, 0): F(-3), (0, 1): F(1), (1, 4): F(-1, 2), (0, 0): F(2)})
    assert [key for key, n in b._n.items() if n < 0] == [(2, 0), (1, 4)]
    with pytest.raises(NegativeEntry) as exc:
        diagrams._nonnegative(b)
    assert (exc.value.p, exc.value.q, exc.value.value) == (1, 4, F(-1, 2))
    with pytest.raises(NegativeEntry) as exc:  # the least numerator is -1
        diagrams._nonnegative(diagrams.BettiDiagram({(0, 0): F(2), (1, 1): F(-1, 3)}))
    assert (exc.value.p, exc.value.q, exc.value.value) == (1, 1, F(-1, 3))
    for cone in (diagrams.pure_diagram((0, 3, 4, 6, 7, 9)), diagrams.BettiDiagram()):
        assert diagrams._nonnegative(cone) is cone


def test_cancelling_sums_leave_the_empty_diagram():
    b = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    assert diagrams.scale(b, 0) == diagrams.BettiDiagram()
    assert diagrams.add(b, diagrams.scale(b, -1)) == diagrams.BettiDiagram()


def test_from_entries_sums_duplicates():
    b = diagrams.BettiDiagram.from_entries([(0, 0, F(1, 2)), (0, 0, F(1, 2)), (1, 0, 1)])
    assert dict(b.items()) == {(0, 0): F(1), (1, 0): F(1)}


def test_negative_column_rejected():
    with pytest.raises(ValueError):
        diagrams.BettiDiagram({(-1, 0): F(1)})


def test_non_integer_index_rejected():
    # an index is never truncated to an int: (0, 2.9) is not (0, 2)
    for key in ((0, 2.9), (1.0, 0), (True, 0), (0, "1")):
        with pytest.raises(ValueError):
            diagrams.BettiDiagram({key: F(1)})
        with pytest.raises(ValueError):
            diagrams.BettiDiagram.from_entries([(*key, F(1))])
    # checked before duplicates are summed, so a float cannot hide behind an int
    with pytest.raises(ValueError):
        diagrams.BettiDiagram.from_entries([(1, 0, F(1)), (1.0, 0, F(1))])


def test_zero_entry_under_non_integer_key_rejected():
    # the key is checked before the zero is dropped
    with pytest.raises(ValueError):
        diagrams.BettiDiagram({(1.5, 0): 0})
    with pytest.raises(ValueError):
        diagrams.BettiDiagram.from_entries([(1.5, 0, 0)])


def test_json_duplicate_cells_are_summed():
    obj = {
        "entries": [
            {"p": 0, "q": 0, "v": "1/2"},
            {"p": 1, "q": 0, "v": "1"},
            {"p": 0, "q": 0, "v": "1/2"},
            {"p": 1, "q": 0, "v": "-1"},
        ]
    }
    b = diagrams.BettiDiagram.from_json_obj(obj)
    assert dict(b.items()) == {(0, 0): F(1)}
    assert (1, 0) not in b


def test_json_reader_checks_every_value_before_any_index():
    # a bad index in an early cell, a bad value or shape in a later one: the
    # later cell is named, as when every value was read before the indices
    bad_index = {"p": 0.5, "q": 0, "v": "1/2"}
    with pytest.raises(ValueError, match=r"^diagram value: Invalid literal for Fraction: 'abc'$"):
        diagrams.BettiDiagram.from_json_obj({"entries": [bad_index, {"p": 0, "q": 0, "v": "abc"}]})
    with pytest.raises(ValueError, match=r"^diagram value 3/0 has a zero denominator$"):
        diagrams.BettiDiagram.from_json_obj({"entries": [bad_index, {"p": 0, "q": 0, "v": "3/0"}]})
    with pytest.raises(ValueError, match=r"^malformed diagram cell"):
        diagrams.BettiDiagram.from_json_obj({"entries": [bad_index, {"p": 0, "q": 0}]})
    # with every value good, the first bad index in file order
    with pytest.raises(ValueError, match=r"^column index p must be an integer, got 0\.5$"):
        diagrams.BettiDiagram.from_json_obj(
            {"entries": [{"p": 0, "q": 0, "v": "1"}, bad_index, {"p": -1, "q": 0, "v": "1"}]}
        )
    # the library's own entry points check each cell's index before its value
    with pytest.raises(ValueError, match=r"^column index p must be an integer"):
        diagrams.BettiDiagram.from_entries([(0.5, 0, "abc")])


def test_json_duplicates_summing_to_zero_leave_no_cell():
    obj = {
        "entries": [
            {"p": 1, "q": 1, "v": "1/3"},
            {"p": 0, "q": 0, "v": "1/4"},
            {"p": 1, "q": 1, "v": "-2/6"},
            {"p": 0, "q": 0, "v": "1/4"},
        ]
    }
    b = diagrams.BettiDiagram.from_json_obj(obj)
    assert (1, 1) not in b
    assert (b._n, b._den) == ({(0, 0): 1}, 2)
    empty = {"entries": [{"p": 0, "q": 0, "v": "5/7"}, {"p": 0, "q": 0, "v": "-10/14"}]}
    assert diagrams.BettiDiagram.from_json_obj(empty) == diagrams.BettiDiagram()


def test_json_unreduced_value_reads_as_reduced():
    half = diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0, "v": "1/2"}]})
    unreduced = diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0, "v": "2/4"}]})
    assert unreduced == half
    assert (unreduced._n, unreduced._den) == ({(0, 0): 1}, 2)
    assert require_rational("2/4", "v") == F(1, 2)


def _spelled(rng, v):
    """v as a diagram JSON value: canonical, unreduced, a JSON int, or a
    spelling only Fraction(str) reads."""
    form = rng.randrange(5)
    if form == 0:
        m = rng.randint(2, 6)
        return f"{v.numerator * m}/{v.denominator * m}"
    if form == 1 and v.denominator == 1:
        return v.numerator
    if form == 2:
        return f" {v.numerator}/{v.denominator}"
    return f"{v.numerator}/{v.denominator}"


def test_json_reader_matches_fraction_sums():
    # the integer reader against Fractions summed cell by cell
    rng = random.Random(31)
    for _ in range(300):
        cells, sums = [], {}
        for _ in range(rng.randint(0, 12)):
            key = (rng.randint(0, 3), rng.randint(-2, 2))
            v = F(rng.randint(-30, 30), rng.randint(1, 24))
            sums[key] = sums.get(key, 0) + v
            cells.append({"p": key[0], "q": key[1], "v": _spelled(rng, v)})
        b = diagrams.BettiDiagram.from_json_obj({"entries": cells})
        assert dict(b.items()) == {key: v for key, v in sums.items() if v}
        if b:
            assert b._den > 0 and math.gcd(b._den, *b._n.values()) == 1
        else:
            assert b._den == 1


@pytest.mark.parametrize(
    "v", [123456789012345678901234567890.0, 1.00000000000000001, 0.5, 2.0, float("inf")]
)
def test_json_reader_refuses_a_float_value(v):
    # a JSON float is already a binary double: 1.00000000000000001 is 1.0
    message = f"diagram value must be a Fraction, an int or a str, got {v!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0, "v": v}]})
    with pytest.raises(ValueError, match=re.escape(message)):
        require_rational(v, "diagram value")
    # the same digits as a string are read exactly
    cell = {"p": 0, "q": 0, "v": "1.00000000000000001"}
    b = diagrams.BettiDiagram.from_json_obj({"entries": [cell]})
    assert b.get(0, 0) == F(100000000000000001, 10**17)


def test_rational_pair_reads_an_int_without_str():
    # past the int-to-str digit limit, as require_rational already reads it
    huge = 10**5000
    assert require_rational(huge, "c") == F(huge)
    b = diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0, "v": huge}]})
    assert b.get(0, 0) == huge
    # a bool is not read as an int
    with pytest.raises(ValueError, match=re.escape("v must be a Fraction, an int or a str, got True")):
        require_rational(True, "v")


@pytest.mark.parametrize(
    "quantity, message",
    [
        (diagrams.projective_dimension, "projective dimension of an empty diagram"),
        (diagrams.top_strand, "top strand of an empty diagram"),
        (diagrams.hilbert_numerator, "Hilbert numerator of an empty diagram"),
        (diagrams.multiplicity, "multiplicity of an empty diagram"),
    ],
)
def test_quantities_of_the_empty_diagram_are_refused(quantity, message):
    with pytest.raises(EmptyDiagram) as exc:
        quantity(diagrams.BettiDiagram())
    assert str(exc.value) == message


def test_reprs_and_len():
    b = diagrams.pure_diagram((0, 1, 3))
    # n! / prod |e_i - e_p|: 2/(1*3), 2/(1*2), 2/(3*2)
    assert repr(b) == "BettiDiagram({(0,0): 2/3, (1,0): 1, (2,1): 1/3})"
    assert len(b) == 3
    assert repr(diagrams.BettiDiagram()) == "BettiDiagram({})"
    assert len(diagrams.BettiDiagram()) == 0
    assert repr(diagrams.RationalPolynomial()) == "RationalPolynomial(0)"
    poly = diagrams.RationalPolynomial({2: F(-1, 3), 0: 1})
    assert repr(poly) == "RationalPolynomial((1)t^0 + (-1/3)t^2)"


@pytest.mark.parametrize(
    "value", [diagrams.BettiDiagram({(0, 0): 1}), diagrams.RationalPolynomial({0: 1})]
)
def test_equality_with_another_type_is_not_implemented(value):
    assert value.__eq__(1) is NotImplemented
    assert value.__eq__({(0, 0): 1}) is NotImplemented
    assert value != 1


def test_json_round_trip():
    b = diagrams.pure_diagram((0, 3, 4, 6, 7, 9))
    obj = b.to_json_obj()
    assert obj["entries"][0] == {"p": 0, "q": 0, "v": "5/189"}
    assert diagrams.BettiDiagram.from_json_obj(obj) == b


def test_json_malformed_rejected():
    with pytest.raises(ValueError):
        diagrams.BettiDiagram.from_json_obj({"rows": []})
    with pytest.raises(ValueError):
        diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0}]})
    with pytest.raises(ValueError):
        diagrams.BettiDiagram.from_json_obj({"entries": [{"p": 0, "q": 0, "v": "1/0"}]})


def test_polynomial_evaluation_and_equality():
    hn = diagrams.hilbert_numerator(diagrams.pure_diagram((0, 1, 2)))
    assert hn == diagrams.RationalPolynomial({0: F(1)})
    zero = diagrams.RationalPolynomial({3: F(0)})
    assert not zero
    with pytest.raises(ValueError):
        zero.degree


def test_polynomial_rejects_non_integer_exponents():
    # an exponent is never truncated: t^1.5 is not t^1
    for exp in (1.5, 2.0, True, "1"):
        with pytest.raises(ValueError):
            diagrams.RationalPolynomial({exp: F(1)})
    with pytest.raises(ValueError):
        diagrams.RationalPolynomial({1.5: F(0)})


def test_hilbert_numerator_runs_no_outside_value_check(monkeypatch):
    # its exponents and Fractions are made here from integers, so neither
    # require_int nor require_rational runs; the polynomial equals the one
    # the public constructor builds from the same coefficients
    tables = [
        diagrams.pure_diagram((0, *range(2, 60), 61)),  # a short quotient
        diagrams.pure_diagram((0, 3, 4, 6, 7, 9)),  # a long one against s
        diagrams.add(diagrams.pure_diagram((0, 2, 3)), diagrams.pure_diagram((0, 1, 3))),
    ]
    expected = [diagrams.RationalPolynomial(dict(diagrams.hilbert_numerator(b).items()))
                for b in tables]
    calls = []

    def spy(check):
        def counted(*args):
            calls.append(check.__name__)
            return check(*args)
        return counted

    monkeypatch.setattr(diagrams, "require_int", spy(diagrams.require_int))
    monkeypatch.setattr(diagrams, "require_rational", spy(diagrams.require_rational))
    assert [_cold(diagrams.hilbert_numerator, b) for b in tables] == expected
    assert calls == []
    diagrams.RationalPolynomial({0: 1})  # the spies see the public constructor
    assert calls == ["require_int", "require_rational"]


def test_only_diagrams_reads_the_table_format():
    # the numerators _n, the denominator _den and the held quotient
    # _division are read in diagrams.py alone, so the representation can
    # change in one module
    readers = {}
    for path in sorted(pathlib.Path(diagrams.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_n", "_den", "_division")
        }
        if names:
            readers[path.name] = names
    assert readers == {"diagrams.py": {"_n", "_den", "_division"}}


# the calls that change a dict or a list in place
_DICT_MUTATORS = {
    "clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__", "__ior__"
}
_LIST_MUTATORS = {"append", "extend", "insert", "remove", "sort", "reverse", "__iadd__", "__imul__"}
# the only functions that may set a table's fields
_TABLE_BUILDERS = {"BettiDiagram.__init__", "_table"}
# the functions that may set each field: the cell dict _cells also in its
# accessor _n, which keys a pure table's columns on the first read; _n,
# that accessor, nowhere
_FIELD_SETTERS = {
    "_cells": _TABLE_BUILDERS | {"BettiDiagram._n"},
    **dict.fromkeys(("_den", "_e", "_columns"), _TABLE_BUILDERS),
}
_TABLE_FIELDS = ("_n", *_FIELD_SETTERS)
# the fields that hold a dict or a list
_MUTABLE_FIELDS = ("_n", "_cells", "_columns")
# the only functions that may set a table's _division, to None with the
# table and to a quotient by the one division
_DIVISION_SETTERS = {"none": _TABLE_BUILDERS, "quotient": {"_divide"}}


def _table_writes(source):
    """(enclosing function, line, kind) for every write to a table in
    source: kind the field's name for an assignment or del of one of
    _TABLE_FIELDS itself, "in place" for any other change
    (_changes_in_place)."""
    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if isinstance(node, ast.Attribute) and node.attr in _TABLE_FIELDS and stored:
            writes.append((scope, node.lineno, node.attr))
        elif _changes_in_place(node, stored):
            writes.append((scope, node.lineno, "in place"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return writes


def _changes_in_place(node, stored):
    """A store or del on *._n[...] or any other item of a dict or list
    field (nested too), a mutating dict or list call on one of them, or a
    setattr, delattr, __setattr__ or __delattr__ call naming a field."""
    if isinstance(node, ast.Subscript):
        return stored and _is_table_part(node.value)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _DICT_MUTATORS | _LIST_MUTATORS and _is_table_part(getattr(func, "value", None)):
        return True
    return name in ("setattr", "delattr", "__setattr__", "__delattr__") and any(
        isinstance(arg, ast.Constant) and arg.value in (*_TABLE_FIELDS, "_division")
        for arg in node.args
    )


def _is_table_part(node):
    """node is a dict or list field of a table, or an item of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in _MUTABLE_FIELDS


def _forbidden_writes(source):
    return [
        (scope, line)
        for scope, line, kind in _table_writes(source)
        if scope not in _FIELD_SETTERS.get(kind, ())
    ]


def _division_writes(source):
    """(enclosing function, line, kind) for every store or del of
    *._division in source: kind "none" for an assignment of None (paired
    element by element in a tuple assignment), "del" for a del, and
    "quotient" for any other value."""
    writes = []
    values = {}  # id of an assignment target -> the value it is given

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    values.update((id(t), v) for t, v in zip(target.elts, node.value.elts))
                else:
                    values[id(target)] = node.value
        if isinstance(node, ast.Attribute) and node.attr == "_division":
            if isinstance(node.ctx, ast.Del):
                writes.append((scope, node.lineno, "del"))
            elif isinstance(node.ctx, ast.Store):
                value = values.get(id(node))
                none = isinstance(value, ast.Constant) and value.value is None
                writes.append((scope, node.lineno, "none" if none else "quotient"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return writes


def _forbidden_division_writes(source):
    return [
        (scope, line, kind)
        for scope, line, kind in _division_writes(source)
        if scope not in _DIVISION_SETTERS.get(kind, ())
    ]


def test_no_diagram_changes_once_built():
    # pure_diagram's memo hands one object to every caller, so a change to
    # a built diagram would corrupt every later call for its sequence: no
    # module writes a table's numerators or a pure table's columns in
    # place, and its fields are set in BettiDiagram.__init__ and _table
    # alone, except the cell dict _cells, which the accessor _n also sets
    # once, from a pure table's columns. A table's _division is set to
    # None there too, and to a quotient in _divide alone
    setters = set()
    division_setters = set()
    for path in sorted(pathlib.Path(diagrams.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert _forbidden_writes(source) == [], path.name
        assert _forbidden_division_writes(source) == [], path.name
        setters |= {(path.name, scope, field) for scope, _, field in _table_writes(source)}
        division_setters |= {(path.name, scope, kind) for scope, _, kind in _division_writes(source)}
    assert setters == {
        ("diagrams.py", scope, field) for field, scopes in _FIELD_SETTERS.items() for scope in scopes
    }
    assert division_setters == {
        ("diagrams.py", scope, kind) for kind, scopes in _DIVISION_SETTERS.items() for scope in scopes
    }
    # and the guard finds each kind of change it is for
    for source in (
        "def f(b):\n    b._n[(0, 0)] = 1",
        "def f(b):\n    b._n[(0, 0)] += 1",
        "def f(b):\n    del b._n[(0, 0)]",
        "def f(b):\n    b._n.update({})",
        "def f(b):\n    b._n.pop((0, 0))",
        "def f(b):\n    b._n.__setitem__((0, 0), 1)",
        "def f(b):\n    b._n |= {}",
        "def f(b):\n    b._den = 2",
        "def f(b):\n    del b._den",
        "def f(b):\n    setattr(b, '_n', {})",
        "def _table(n, den):\n    n._n.clear()",
        "class BettiDiagram:\n    def scale(self):\n        self._den *= 2",
        "def _divide(b):\n    setattr(b, '_division', (0, []))",
        # the accessor _n, set nowhere, builders included
        "def _table(b, n, den):\n    b._n, b._den = n, den",
        # the cell dict outside the builders and its accessor, or in place
        "def f(b):\n    b._cells = {}",
        "def _n(b):\n    b._cells = {}",
        "def f(b):\n    b._cells[(0, 0)] = 1",
        "def _table(b):\n    b._cells.clear()",
        "class BettiDiagram:\n    @property\n    def _n(self):\n        self._cells.update({})",
        # a pure table's columns after _table, in the accessor too
        "def f(b):\n    b._e = (0,)",
        "def f(b):\n    b._columns = []",
        "def f(b):\n    b._columns += [1]",
        "def f(b):\n    b._columns[0] = 1",
        "def f(b):\n    b._columns[1::2] = []",
        "def f(b):\n    b._columns.append(1)",
        "def f(b):\n    b._columns.sort()",
        "def f(b):\n    del b._e",
        "def f(b):\n    b._columns.insert(0, 1)",
        "def f(b):\n    b._columns.extend([1])",
        "def f(b):\n    setattr(b, '_columns', [])",
        "def _table(b):\n    b._columns.reverse()",
        "class BettiDiagram:\n    @property\n    def _n(self):\n        self._columns = None",
    ):
        assert _forbidden_writes(source), source
    assert not _forbidden_writes(
        "def _table(b, n, den, e, columns):\n"
        "    b._cells, b._den = n, den\n"
        "    b._e, b._columns = e, columns\n"
        "class BettiDiagram:\n    @property\n    def _n(self):\n"
        "        n = self._cells = dict(zip(self._e, self._columns))\n        return n"
    )
    # and each kind of _division write out of its place
    for source in (
        "def _divide(b):\n    b._division = None",  # None outside the table builders
        "def _table(b, q):\n    b._n, b._division = {}, (0, q)",  # a quotient outside _divide
        "def _divide(b):\n    del b._division",  # a del anywhere
    ):
        assert _forbidden_division_writes(source), source
    assert not _forbidden_division_writes(
        "def _table(b, n, den):\n    b._n, b._den, b._division = n, den, None\n"
        "def _divide(b, lo, q):\n    b._division = lo, q"
    )
