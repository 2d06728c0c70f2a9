"""Weight matrices: construction rules, dominance, parity, vanishing."""

import random
from fractions import Fraction

import pytest

from sympl.embeddings import CharacterDatum, klingen_convergence, klingen_embedding_inverse
from sympl.errors import IndexOutOfRange, InvalidWeight, NonConstantBottomEntry, NonIntegral
from sympl.fourier import SymMatrix, rigidity_check
from sympl.orbitclassify import duality_check, hc_parameter, theorem_main_necessary
from sympl.weights import (
    VanishingVerdict,
    Weight,
    as_vector,
    check_index,
    format_weight,
    holomorphy_vanishing,
    is_bottom_uniform,
    is_dominant_row,
    is_integral,
    is_k_dominant,
    is_tail_constant,
    parity_class,
    parse_weight,
    rho,
)
from sympl.weyl import canonical_row


def test_rho_small_ranks():
    assert rho(1) == (-1,)
    assert rho(2) == (-1, -2)
    assert rho(3) == (-1, -2, -3)


def test_rho_rejects_nonpositive_rank():
    with pytest.raises(InvalidWeight):
        rho(0)


def test_rho_is_half_sum_of_positive_system():
    # positive system: e_k - e_l for k < l, and -(e_i + e_j) for i <= j
    for n in range(1, 9):
        total = [Fraction(0)] * n
        for k in range(n):
            for l in range(k + 1, n):
                total[k] += 1
                total[l] -= 1
        for i in range(n):
            for j in range(i, n):
                total[i] -= 1
                total[j] -= 1
        assert tuple(t / 2 for t in total) == rho(n)


def test_weight_accessors():
    w = Weight.of((5, 3), (5, 4))
    assert w.n == 2
    assert w.d == 2
    assert w.row(1) == (5, 4)
    assert w.bottom_entries() == (3, 4)
    assert not w.is_zero()
    assert Weight.single((0, 0, 0)).is_zero()


def test_construction_allows_half_integral_rows():
    w = Weight.single((Fraction(5, 2), Fraction(3, 2)))
    assert w.rows == ((Fraction(5, 2), Fraction(3, 2)),)


def test_construction_rejects_third_denominators():
    with pytest.raises(InvalidWeight):
        Weight.single((Fraction(1, 3), Fraction(1, 3)))


def test_construction_rejects_mixed_integrality():
    # 5 - 7/2 is not an integer
    with pytest.raises(InvalidWeight):
        Weight.single((5, Fraction(7, 2)))


def test_construction_rejects_ragged_places():
    with pytest.raises(InvalidWeight):
        Weight.of((5, 3), (5,))


def test_construction_rejects_empty():
    with pytest.raises(InvalidWeight):
        Weight(())
    with pytest.raises(InvalidWeight):
        Weight.single(())


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        Weight.single((1.5, 0.5))


def test_construction_random_matrices():
    rng = random.Random(20210)
    for _ in range(400):
        n = rng.randint(1, 4)
        d = rng.randint(1, 2)
        rows = tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n))
            for _ in range(d)
        )
        ok = all(x.denominator in (1, 2) for row in rows for x in row) and all(
            (a - b).denominator == 1 for row in rows for a, b in zip(row, row[1:])
        )
        if ok:
            assert Weight(rows).rows == rows
        else:
            with pytest.raises(InvalidWeight):
                Weight(rows)


def test_dominance_examples():
    assert is_k_dominant(Weight.single((5, 3)))
    assert not is_k_dominant(Weight.single((3, 5)))
    assert is_k_dominant(Weight.of((5, 3), (5, 4)))
    # one bad place poisons the whole weight
    assert not is_k_dominant(Weight.of((5, 3), (4, 5)))


def test_dominance_accepts_half_integral_rows():
    assert is_k_dominant(Weight.single((Fraction(5, 2), Fraction(3, 2))))


def test_integrality_examples():
    assert is_integral(Weight.single((5, 3)))
    assert not is_integral(Weight.single((Fraction(5, 2), Fraction(3, 2))))


def test_parity_class_examples():
    assert parity_class(Weight.single((13, 12))) == 1
    assert parity_class(Weight.single((11, 11))) == -1
    assert parity_class(Weight.of((5, 4), (7, 4))) == 1


def test_parity_class_rejections():
    with pytest.raises(NonConstantBottomEntry, match=r"places: \(4, 5\)$"):
        parity_class(Weight.of((5, 4), (6, 5)))
    with pytest.raises(NonIntegral):
        parity_class(Weight.single((Fraction(5, 2), Fraction(3, 2))))


def test_parity_stability_under_even_shift():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        row = sorted((rng.randint(-6, 12) for _ in range(n)), reverse=True)
        w = Weight.single(row)
        c = rng.randint(-5, 5)
        shifted = Weight.single(tuple(row[:-1]) + (row[-1] + 2 * c,))
        assert parity_class(w) == parity_class(shifted)


def test_vanishing_examples():
    assert (
        holomorphy_vanishing(Weight.single((3, 0)))
        is VanishingVerdict.NEARLY_HOLOMORPHIC_SPACE_VANISHES
    )
    assert (
        holomorphy_vanishing(Weight.single((3, -1)))
        is VanishingVerdict.HOLOMORPHIC_ZERO_OR_CONSTANT
    )
    assert holomorphy_vanishing(Weight.single((3, 1))) is VanishingVerdict.NO_CONCLUSION


def test_vanishing_zero_weight_paths():
    # rank one stays on the weaker branch, any rank with the zero weight too
    assert (
        holomorphy_vanishing(Weight.single((0,)))
        is VanishingVerdict.HOLOMORPHIC_ZERO_OR_CONSTANT
    )
    assert (
        holomorphy_vanishing(Weight.single((0, 0)))
        is VanishingVerdict.HOLOMORPHIC_ZERO_OR_CONSTANT
    )


def test_vanishing_scans_all_places():
    w = Weight.of((3, 1), (3, 0))
    assert holomorphy_vanishing(w) is VanishingVerdict.NEARLY_HOLOMORPHIC_SPACE_VANISHES


def test_parse_format_round_trip():
    for text in ("5,3;5,4", "7/2,5/2", "-1,-2,-3", "0", "12,12"):
        w = parse_weight(text)
        assert format_weight(w) == text
        assert parse_weight(format_weight(w)) == w
        assert str(w) == text


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_weight("5,3;;5,4")
    with pytest.raises(ValueError):
        parse_weight("5,x")
    with pytest.raises(InvalidWeight):
        parse_weight("1/3,1/3")


def test_shared_rules():
    assert as_vector([1, "1/2", Fraction(3, 4)]) == (1, Fraction(1, 2), Fraction(3, 4))
    assert as_vector(()) == ()
    with pytest.raises(TypeError):
        as_vector([0.5])
    check_index(1, 1)
    check_index(3, 3)
    with pytest.raises(IndexOutOfRange, match=r"^j must satisfy 1 <= j <= 3, got 0$"):
        check_index(0, 3, "j")
    assert is_dominant_row((5, 3, 3)) and is_dominant_row(()) and is_dominant_row((Fraction(1, 2),))
    assert not is_dominant_row(as_vector((3, 5)))
    assert not is_dominant_row(as_vector(("5/2", 2)))
    for row, longest in (((7, 5, 5), 2), ((4, 4, 4), 3), ((5, 3), 1), ((2,), 1)):
        for i in range(len(row) + 1):
            assert is_tail_constant(row, i) == (i <= longest), (row, i)
    assert is_bottom_uniform(Weight.of((5, 4), (7, 4)))
    assert not is_bottom_uniform(Weight.of((5, 4), (6, 5)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: klingen_convergence(1, 2, 3), IndexOutOfRange, "j must satisfy 1 <= j <= 2, got 3"),
        (lambda: hc_parameter((), 1, 2, 3), IndexOutOfRange, "i must satisfy 1 <= i <= 2, got 3"),
        (lambda: duality_check((5,), 2, 0, 1), IndexOutOfRange, "i must satisfy 1 <= i <= 2, got 0"),
        (
            lambda: theorem_main_necessary(Weight.single((5, 5)), 3),
            IndexOutOfRange,
            "i must satisfy 1 <= i <= 2, got 3",
        ),
        (
            lambda: klingen_embedding_inverse(2, 0, CharacterDatum(0, 0), (1, 1)),
            IndexOutOfRange,
            "i must satisfy 1 <= i <= 2, got 0",
        ),
        (
            lambda: parity_class(Weight.of((4,), (5,))),
            NonConstantBottomEntry,
            "bottom entries differ across places: (4, 5)",
        ),
    ],
)
def test_shared_rule_messages(call, error, message):
    # the library-only call sites keep the messages they had before sharing a rule
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_canonical_row_equivalence():
    # classify_levels and duality_check key levels on canonical_row(inner + (s,) * i)
    rng = random.Random(4)
    for n in range(1, 6):
        for i in range(1, n + 1):
            inner = tuple(sorted((rng.randint(0, 12) for _ in range(n - i)), reverse=True))
            for s in (Fraction(k, 2) for k in range(-13, 30)):
                key = tuple(sorted((abs(v) for v in hc_parameter(inner, s, n, i)), reverse=True))
                assert canonical_row(inner + (s,) * i) == key, (inner, s, n, i)
    # at j = 0 every support element qualifies and the tail rule is vacuous,
    # so only the bottom entries decide
    support = [SymMatrix.identity(2)]
    assert all(is_tail_constant(row, 0) for row in ((5, 3), (7, 4), (1,)))
    assert rigidity_check(Weight.of((5, 3), (7, 3)), support, 0)
    assert not rigidity_check(Weight.of((5, 3), (7, 4)), support, 0)
    assert rigidity_check(Weight.of((5, 3), (7, 4)), [], 0)
