"""Exact diagram arithmetic.

Claims pinned here:
    - pure_diagram matches hand-computed tables, including the fractional
      top-left entry 5/189 for (0,3,4,6,7,9), and the naive n!/prod|e_i - e_p|
      formula on family, gapped and mixed-gap sequences
    - multiplicity is exactly 1 on every pure_diagram output and is linear
    - hilbert_numerator divides out (1-t)^pd exactly and flags shapes where
      it cannot
    - power sums sum((-1)^p kappa_p e_p^j) vanish for j < n on pure diagrams
    - subtract in strict mode names the entry that went negative
    - JSON round-trips preserve diagrams exactly
    - indices that are not ints are rejected, never truncated
"""

import math
import random
from fractions import Fraction

import pytest

from betticone import diagrams, secant
from betticone.errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotCohenMacaulayShape,
    NotStrictlyIncreasing,
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


def _naive_pure_entries(e):
    """The Herzog-Kuhl formula n! / prod_{i != p} |e_i - e_p|, term by term."""
    n_fact = math.factorial(len(e) - 1)
    entries = []
    for p, ep in enumerate(e):
        den = 1
        for i, ei in enumerate(e):
            if i != p:
                den *= abs(ei - ep)
        entries.append(((p, ep - p), F(n_fact, den)))
    return entries


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
    assert hn(1) == diagrams.multiplicity(b) == 1
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
        assert diagrams.multiplicity(b) == 0


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

    formal = diagrams.subtract(a, b, strict=False)
    assert formal.get(1, 0) == -2
    assert not formal.is_nonnegative()


def test_add_subtract_round_trip():
    a = diagrams.pure_diagram((0, 2, 3))
    b = diagrams.pure_diagram((0, 1, 3))
    assert diagrams.subtract(diagrams.add(a, b), b) == a
    # exact cancellation leaves the empty diagram
    assert not diagrams.subtract(a, a)


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
    assert hn(7) == 1
    zero = diagrams.RationalPolynomial({3: F(0)})
    assert not zero
    with pytest.raises(ValueError):
        zero.degree
