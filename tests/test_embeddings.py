"""Induction data for highest weight vectors and convergence ranges."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sympl.embeddings import (
    RANK_BOUND,
    CharacterDatum,
    gl_degenerate_convergence,
    klingen_convergence,
    klingen_embedding_datum,
    klingen_embedding_inverse,
    principal_series_datum,
    siegel_degenerate_datum,
)
from sympl.errors import (
    IndexOutOfRange,
    LengthMismatch,
    NonIntegral,
    NotDominant,
    NotScalarWeight,
    RankTooLarge,
    TailNotConstant,
)
from sympl.weights import is_dominant_row


def chars(pairs):
    return [CharacterDatum(p, Fraction(e)) for p, e in pairs]


def test_character_datum_validation():
    with pytest.raises(ValueError):
        CharacterDatum(2, Fraction(1))
    c = CharacterDatum(1, "5/2")
    assert c.exponent == Fraction(5, 2)
    # a float or bool parity broke the no-floats invariant (a bool encoded as true)
    for parity in (1.0, True, False):
        with pytest.raises(TypeError):
            CharacterDatum(parity, 0)
    assert type(CharacterDatum(Fraction(1), 0).parity) is int


def test_principal_series_examples():
    assert principal_series_datum((5, 3)) == chars([(1, 1), (1, 4)])
    assert principal_series_datum((1,)) == chars([(1, 0)])
    assert principal_series_datum((3, 2, 1)) == chars([(1, -2), (0, 0), (1, 2)])


def test_principal_series_rejections():
    with pytest.raises(NotDominant):
        principal_series_datum((3, 5))
    with pytest.raises(NonIntegral):
        principal_series_datum((Fraction(5, 2), Fraction(3, 2)))


def test_principal_series_exponents_increase():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        lam = []
        v = rng.randint(-5, 5)
        for _ in range(n):
            lam.append(v)
            v -= rng.randint(1, 3)
        data = principal_series_datum(tuple(lam))
        exps = [c.exponent for c in data]
        assert all(a < b for a, b in zip(exps, exps[1:]))


def test_klingen_datum_examples():
    d = klingen_embedding_datum((7, 5, 5), 2)
    assert (d.n, d.i) == (3, 2)
    assert d.character == CharacterDatum(1, Fraction(5, 2))
    assert d.inner_weight == (7,)

    d = klingen_embedding_datum((12, 12), 1)
    assert d.character == CharacterDatum(0, Fraction(10))
    assert d.inner_weight == (12,)


def test_klingen_datum_rejections():
    with pytest.raises(TailNotConstant):
        klingen_embedding_datum((7, 6, 5), 2)
    with pytest.raises(IndexOutOfRange):
        klingen_embedding_datum((7, 5, 5), 0)
    with pytest.raises(IndexOutOfRange):
        klingen_embedding_datum((7, 5, 5), 4)
    with pytest.raises(NotDominant):
        klingen_embedding_datum((5, 7, 7), 2)


def test_klingen_inverse_examples():
    assert klingen_embedding_inverse(3, 2, CharacterDatum(1, Fraction(5, 2)), (7,)) == (
        7,
        5,
        5,
    )
    # wrong parity: t = 5 is odd but the character claims even
    assert klingen_embedding_inverse(3, 2, CharacterDatum(0, Fraction(5, 2)), (7,)) is None
    # dominance failure: inner 9 below the solved tail 12
    assert klingen_embedding_inverse(2, 1, CharacterDatum(0, Fraction(10)), (9,)) is None
    # non-integer tail
    assert klingen_embedding_inverse(2, 1, CharacterDatum(0, Fraction(1, 2)), (5,)) is None


def test_klingen_inverse_rejections():
    with pytest.raises(LengthMismatch):
        klingen_embedding_inverse(3, 2, CharacterDatum(1, Fraction(5, 2)), (7, 6))
    with pytest.raises(NotDominant):
        klingen_embedding_inverse(3, 1, CharacterDatum(1, Fraction(5, 2)), (5, 7))
    with pytest.raises(IndexOutOfRange):
        klingen_embedding_inverse(3, 0, CharacterDatum(1, Fraction(1)), (5, 5, 5))


def _reference_inverse(n, i, mu, omega):
    """The inverse as it read before the rank bound: the row is built, then tested."""
    omega = tuple(map(Fraction, omega))
    t = mu.exponent + n - Fraction(i - 1, 2)
    if t.denominator != 1 or int(t) % 2 != mu.parity:
        return None
    lam = omega + (t,) * i
    return lam if is_dominant_row(lam) else None


def test_klingen_inverse_matches_the_built_row():
    rng = random.Random(19)
    for _ in range(3000):
        n = rng.randint(1, 5)
        i = rng.randint(1, n)
        omega = sorted((Fraction(rng.randint(-6, 12), rng.choice((1, 2))) for _ in range(n - i)), reverse=True)
        if not is_dominant_row(omega):
            continue
        mu = CharacterDatum(rng.randint(0, 1), Fraction(rng.randint(-12, 12), 2))
        assert klingen_embedding_inverse(n, i, mu, omega) == _reference_inverse(n, i, mu, omega)


def test_klingen_inverse_rank_bound():
    # n = i = N solves t = (N + 1)/2 + exponent
    row = klingen_embedding_inverse(RANK_BOUND, RANK_BOUND, CharacterDatum(1, Fraction(1, 2)), ())
    assert row == (Fraction(RANK_BOUND // 2 + 1),) * RANK_BOUND
    for n in (RANK_BOUND + 1, 10 ** 9, 10 ** 20):
        with pytest.raises(RankTooLarge, match=f"^rank {n} exceeds the bound {RANK_BOUND}$"):
            klingen_embedding_inverse(n, n, CharacterDatum(1, Fraction((n + 1) % 2, 2)), ())
    # the candidates that are not weights are still None, at any rank
    assert klingen_embedding_inverse(10 ** 9, 10 ** 9, CharacterDatum(0, Fraction(1, 2)), ()) is None
    assert klingen_embedding_inverse(10 ** 9, 10 ** 9, CharacterDatum(1, Fraction(0)), ()) is None
    assert klingen_embedding_inverse(10 ** 9, 10 ** 9 - 1, CharacterDatum(0, Fraction(0)), (0,)) is None


def test_siegel_degenerate_examples():
    assert siegel_degenerate_datum((4, 4)) == CharacterDatum(0, Fraction(5, 2))
    assert siegel_degenerate_datum((1,)) == CharacterDatum(1, Fraction(0))
    # the scalar checks come first, then the i = n Klingen datum's own
    with pytest.raises(NotScalarWeight, match=r"entries differ: \(4, 3\)"):
        siegel_degenerate_datum((4, 3))
    with pytest.raises(IndexOutOfRange):
        siegel_degenerate_datum(())


def test_klingen_convergence_examples():
    assert klingen_convergence(10, 2, 1)
    assert not klingen_convergence(2, 2, 1)
    assert klingen_convergence(Fraction(5, 2), 2, 2)
    assert not klingen_convergence(Fraction(3, 2), 2, 2)
    with pytest.raises(IndexOutOfRange):
        klingen_convergence(1, 2, 0)


def test_gl_convergence_examples():
    assert gl_degenerate_convergence(3, 0, 4)
    assert not gl_degenerate_convergence(2, 2, 4)
    assert not gl_degenerate_convergence(2, 0, 4)


def test_round_trip_small():
    # datum then inverse recovers the weight row whenever the tail is constant
    for n in range(1, 4):
        for top in combinations_with_replacement(range(7), n):
            lam = tuple(sorted(top, reverse=True))
            for i in range(1, n + 1):
                tail = lam[n - i:]
                if any(t != tail[-1] for t in tail):
                    continue
                d = klingen_embedding_datum(lam, i)
                back = klingen_embedding_inverse(n, i, d.character, d.inner_weight)
                assert back == lam


def test_siegel_case_matches_degenerate_series():
    for n in range(1, 5):
        for t in range(-6, 7):
            lam = (t,) * n
            d = klingen_embedding_datum(lam, n)
            assert d.inner_weight == ()
            assert d.character == siegel_degenerate_datum(lam)


def test_convergence_of_large_weight_exponent():
    # the exponent produced for (12,12), i=1 sits inside the convergence range
    d = klingen_embedding_datum((12, 12), 1)
    assert klingen_convergence(d.character.exponent, 2, 1)
