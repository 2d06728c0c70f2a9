"""Reduction points and the unitarity region of highest weight modules."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sympl.ehw import ehw_normalize, first_reduction_point, is_unitary_highest_weight
from sympl.errors import BottomEntryNotRank, InvalidWeight, NotDominant, NotHalfIntegral


def test_normalize_examples():
    p = ehw_normalize((4, 3, 3))
    assert p.base == (4, 3, 3)
    assert (p.p, p.q, p.r) == (2, 1, 0)

    p = ehw_normalize((0, 0))
    assert p.base == (2, 2)
    assert (p.p, p.q, p.r) == (2, 0, 2)

    p = ehw_normalize((2, 2))
    assert p.base == (2, 2)
    assert (p.p, p.q, p.r) == (2, 0, 0)


def test_normalize_rejections():
    with pytest.raises(NotDominant):
        ehw_normalize((1, 2))
    with pytest.raises(NotHalfIntegral):
        ehw_normalize((Fraction(1, 3),))
    with pytest.raises(NotHalfIntegral, match=r"\(1/3, 0\)$"):
        ehw_normalize((Fraction(1, 3), 0))


def test_empty_vector_is_refused_by_name():
    # each read the bottom entry of an empty vector: a raw IndexError
    for call in (ehw_normalize, first_reduction_point, is_unitary_highest_weight):
        with pytest.raises(InvalidWeight, match="^a weight needs at least one entry$"):
            call(())


def test_first_reduction_point_examples():
    assert first_reduction_point((4, 3, 3)) == 2
    assert first_reduction_point((2, 2)) == Fraction(3, 2)
    assert first_reduction_point((1,)) == 1


def test_first_reduction_point_requires_normalized_bottom():
    with pytest.raises(BottomEntryNotRank):
        first_reduction_point((3, 2, 2))


def test_first_reduction_point_ignores_large_top_entries():
    # embed a base of rank n into rank n+1 by shifting up and prepending a
    # large entry; entries matching the rank or rank+1 are preserved, so the
    # reduction point is too
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        base = [n]
        for _ in range(n - 1):
            base.append(base[-1] + rng.randint(0, 2))
        base = tuple(sorted(base, reverse=True))
        lifted = (max(base) + rng.randint(7, 12),) + tuple(x + 1 for x in base)
        assert first_reduction_point(lifted) == first_reduction_point(base)


def test_unitary_examples():
    assert is_unitary_highest_weight((2, 2))
    assert is_unitary_highest_weight((0, 0))
    assert not is_unitary_highest_weight((-1, -1))


def test_unitary_half_integral():
    assert is_unitary_highest_weight((Fraction(5, 2), Fraction(3, 2)))


def test_unitary_region_above_rank():
    # bottom entry at least the rank puts r <= 0, inside the first bound
    for n in range(1, 5):
        for top in combinations_with_replacement(range(n, n + 5), n):
            lam = tuple(sorted(top, reverse=True))
            assert is_unitary_highest_weight(lam)


def test_unitary_consistency_sweep():
    # Survey the k-dominant weights with integral and with half-integral
    # entries. The bound does not cover all of them; the excluded ones are
    # reported, not asserted away.
    excluded = []
    total = 0
    for n in range(1, 5):
        for half in (0, Fraction(1, 2)):
            for top in combinations_with_replacement(range(-2, 9), n):
                lam = tuple(sorted((x + half for x in top), reverse=True))
                total += 1
                # re-derive the profile: the base ends in n, so p >= 1 and the
                # first reduction point (p + q + 1)/2 never exceeds p + q/2
                r = n - lam[-1]
                base = tuple(x + r for x in lam)
                p = sum(1 for x in base if x == n)
                q = sum(1 for x in base if x == n + 1)
                assert p >= 1 and Fraction(p + q + 1, 2) <= p + Fraction(q, 2)
                assert is_unitary_highest_weight(lam) == (r <= p + Fraction(q, 2))
                if r > p + Fraction(q, 2):
                    excluded.append(lam)
    assert total > 0 and excluded
    print(f"unitarity criterion excludes {len(excluded)} of {total} k-dominant weights, e.g. {excluded[:3]}")
