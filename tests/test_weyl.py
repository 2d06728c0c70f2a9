"""Signed permutations, the dot action, and orbit classification helpers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from sympl.errors import (
    HypothesisViolated,
    IndexOutOfRange,
    InvalidWeight,
    NonIntegral,
    NotDominant,
    RankMismatch,
    RankTooLarge,
    ShapeMismatch,
)
from sympl import weyl
from sympl.orbitclassify import classify_levels, duality_check
from sympl.weights import Weight, check_index, is_k_dominant
from sympl.weyl import (
    WeylElement,
    _row_layout,
    act,
    canonical_row,
    compose,
    dominant_orbit_elements,
    dot_act,
    identity,
    infchar_canonical,
    infchar_equal,
    inverse,
    is_regular,
    is_sufficiently_regular,
    orbit_dichotomy_check,
)
from weyl_oracle import enumerate_weyl


def test_element_validation():
    with pytest.raises(InvalidWeight):
        WeylElement((1, 3), (1, 1))
    with pytest.raises(InvalidWeight):
        WeylElement((1, 2), (1, 0))
    with pytest.raises(InvalidWeight):
        WeylElement((1, 2), (1,))


def test_act_examples():
    assert act(identity(2), (2, 1)) == (2, 1)
    flip_last = WeylElement((1, 2), (1, -1))
    assert act(flip_last, (2, 1)) == (2, -1)
    # transpose the coordinates, then negate the first one
    swap_flip = WeylElement((2, 1), (-1, 1))
    assert act(swap_flip, (2, 1)) == (-1, 2)
    with pytest.raises(RankMismatch):
        act(flip_last, (1, 2, 3))
    with pytest.raises(RankMismatch):
        compose(flip_last, identity(3))


def test_dot_act_examples():
    assert dot_act(identity(2), (3, 3), 2) == (3, 3)
    flip_last = WeylElement((1, 2), (1, -1))
    assert dot_act(flip_last, (3, 3), 2) == (3, 1)
    assert dot_act(WeylElement((1,), (-1,)), (3,), 1) == (-1,)
    with pytest.raises(RankMismatch):
        dot_act(flip_last, (3, 3, 3), 3)
    with pytest.raises(RankMismatch):
        dot_act(flip_last, (3,), 2)


def test_enumerate_counts():
    assert len(enumerate_weyl(1)) == 2
    assert len(enumerate_weyl(2)) == 8
    assert len(enumerate_weyl(3)) == 48
    seen = {(w.perm, w.signs) for w in enumerate_weyl(3)}
    assert len(seen) == 48


def test_group_axioms():
    rng = random.Random(11)
    for n in range(1, 6):
        pool = enumerate_weyl(n)
        e = identity(n)
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, inverse(a)) == e
            assert compose(inverse(a), a) == e
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            assert act(e, x) == x
            assert act(compose(a, b), x) == act(a, act(b, x))
            assert act(inverse(a), act(a, x)) == x


def test_dot_action_is_group_action():
    rng = random.Random(12)
    for n in range(1, 5):
        pool = enumerate_weyl(n)
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            lam = tuple(rng.randint(-6, 6) for _ in range(n))
            assert dot_act(compose(a, b), lam, n) == dot_act(a, dot_act(b, lam, n), n)
            assert dot_act(identity(n), lam, n) == lam


def test_infchar_examples():
    assert infchar_canonical(Weight.single((3, 3))).canonical == ((2, 1),)
    assert infchar_canonical(Weight.single((3, 1))).canonical == ((2, 1),)
    assert infchar_canonical(Weight.single((0,))).canonical == ((1,),)
    ic = infchar_canonical(Weight.of((5, 3), (5, 4)))
    assert ic.n == 2 and ic.d == 2


def test_infchar_equal_examples():
    assert infchar_equal(Weight.single((3, 3)), Weight.single((3, 1)))
    assert not infchar_equal(Weight.single((3, 3)), Weight.single((4, 3)))
    with pytest.raises(ShapeMismatch):
        infchar_equal(Weight.single((3, 3)), Weight.of((3, 3), (3, 1)))


def test_infchar_equal_matches_orbit_membership():
    # canonical-form equality against exhaustive dot-orbit search
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 3)
        group = enumerate_weyl(n)
        a = tuple(rng.randint(-5, 5) for _ in range(n))
        if rng.random() < 0.5:
            b = dot_act(rng.choice(group), a, n)
        else:
            b = tuple(rng.randint(-5, 5) for _ in range(n))
        in_orbit = any(dot_act(w, a, n) == b for w in group)
        assert infchar_equal(Weight.single(a), Weight.single(b)) == in_orbit


def test_is_regular_examples():
    assert is_regular(Weight.single((3, 1)))
    assert not is_regular(Weight.single((2, 2)))
    assert not is_regular(Weight.single((4, 2)))
    assert is_regular(Weight.single((Fraction(5, 2), Fraction(3, 2))))


def test_is_regular_matches_orbit_size():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 3)
        lam = tuple(rng.randint(-4, 4) for _ in range(n))
        group = enumerate_weyl(n)
        orbit = {dot_act(w, lam, n) for w in group}
        assert is_regular(Weight.single(lam)) == (len(orbit) == len(group))


def test_dominant_orbit_examples():
    got = dominant_orbit_elements(Weight.single((3, 3)))
    assert got == [Weight.single(r) for r in ((3, 3), (3, 1), (2, 0), (0, 0))]
    assert dominant_orbit_elements(Weight.single((3,))) == [
        Weight.single((3,)),
        Weight.single((-1,)),
    ]
    assert dominant_orbit_elements(Weight.single((2, 2))) == [
        Weight.single((2, 2)),
        Weight.single((1, 1)),
    ]


def test_dominant_orbit_two_places():
    got = dominant_orbit_elements(Weight.of((5, 3), (5, 4)))
    assert len(got) == 16
    firsts = {w.rows[0] for w in got}
    seconds = {w.rows[1] for w in got}
    assert firsts == {(5, 3), (5, 1), (2, -2), (0, -2)}
    assert seconds == {(5, 4), (5, 0), (3, -2), (-1, -2)}


def test_dominant_orbit_matches_brute_force():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 3)
        lam = tuple(rng.randint(-4, 4) for _ in range(n))
        w = Weight.single(lam)
        expected = {
            im
            for im in (dot_act(g, lam, n) for g in enumerate_weyl(n))
            if is_k_dominant(Weight.single(im))
        }
        got = {el.rows[0] for el in dominant_orbit_elements(w)}
        assert got == expected


def test_dominant_orbit_invariants():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(-4, 6) for _ in range(n)), reverse=True))
        w = Weight.single(lam)
        members = dominant_orbit_elements(w)
        assert w in members
        for el in members:
            assert is_k_dominant(el)
            assert infchar_equal(el, w)


def test_dominant_orbit_elements_are_valid_weights():
    # elements skip Weight validation; rebuilding them through it changes nothing
    rng = random.Random(17)
    for _ in range(60):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        half = Fraction(1, 2) if rng.random() < 0.3 else 0
        w = Weight(tuple(tuple(rng.randint(-4, 6) + half for _ in range(n)) for _ in range(d)))
        for el in dominant_orbit_elements(w):
            rebuilt = Weight(el.rows)
            assert rebuilt == el and hash(rebuilt) == hash(el)
            assert all(type(x) is Fraction for row in el.rows for x in row)
            assert type(el.rows) is tuple and all(type(row) is tuple for row in el.rows)


def test_sufficiently_regular_examples():
    assert is_sufficiently_regular(Weight.single((5, 5)), 1)
    assert not is_sufficiently_regular(Weight.single((3, 3)), 1)
    assert is_sufficiently_regular(Weight.single((5, 4)), 2)
    with pytest.raises(IndexOutOfRange):
        is_sufficiently_regular(Weight.single((5, 5)), 0)
    with pytest.raises(IndexOutOfRange):
        is_sufficiently_regular(Weight.single((5, 5)), 3)


def enumerated_sufficiently_regular(w, i):
    threshold = 2 * w.n - i + 1
    return any(
        all(row[-1] > threshold for row in rep.rows)
        for rep in dominant_orbit_elements(w)
    )


def test_sufficiently_regular_matches_enumeration():
    halves = [Fraction(k, 2) for k in range(-9, 10, 2)]
    rows = [(a,) for a in range(-8, 9)] + [(a,) for a in halves]
    rows += [(a, b) for a in range(-5, 10) for b in range(-5, 10)]
    rows += [(a, b) for a in halves for b in halves]
    rows += [(a, b, c) for a in range(-3, 8) for b in range(-3, 5) for c in range(-3, 5)]
    rng = random.Random(81)
    for _ in range(150):
        n = rng.randint(4, 5)
        row = sorted((rng.randint(-3, 2 * n + 6) for _ in range(n)), reverse=True)
        rows.append(tuple(Fraction(2 * x + 1, 2) for x in row) if rng.random() < 0.5 else tuple(row))
    for row in rows:
        w = Weight.single(row)
        for i in range(1, w.n + 1):
            assert is_sufficiently_regular(w, i) == enumerated_sufficiently_regular(w, i), (row, i)
    for _ in range(100):
        n = rng.randint(1, 3)
        w = Weight(tuple(tuple(rng.randint(-2, 2 * n + 5) for _ in range(n)) for _ in range(2)))
        i = rng.randint(1, n)
        assert is_sufficiently_regular(w, i) == enumerated_sufficiently_regular(w, i)


def test_sufficiently_regular_has_no_rank_cap():
    assert not is_sufficiently_regular(Weight.single((5, 4, 3)), 1)
    assert is_sufficiently_regular(Weight.single(tuple(range(30, 20, -1))), 1)
    assert not is_sufficiently_regular(Weight.single(tuple(range(9, 0, -1))), 1)


def test_dichotomy_examples():
    assert orbit_dichotomy_check(Weight.single((3,)))
    assert orbit_dichotomy_check(Weight.single((6, 5)))
    with pytest.raises(HypothesisViolated):
        orbit_dichotomy_check(Weight.single((3, 3)))
    with pytest.raises(NotDominant):
        orbit_dichotomy_check(Weight.single((3, 5)))
    with pytest.raises(NonIntegral):
        orbit_dichotomy_check(Weight.single((Fraction(13, 2), Fraction(11, 2))))


def test_dichotomy_builds_no_weight(monkeypatch):
    # the dichotomy compares doubled rows; only dominant_orbit_elements wraps them in weights
    built = []
    trusted = Weight._trusted.__func__

    def counted(cls, rows):
        built.append(rows)
        return trusted(cls, rows)

    monkeypatch.setattr(Weight, "_trusted", classmethod(counted))
    for w in (Weight.single((10, 9, 8)), Weight.of((12, 10), (11, 9)), Weight(((20,),) * 9)):
        assert orbit_dichotomy_check(w)
    assert built == []
    assert len(dominant_orbit_elements(Weight.of((12, 10), (11, 9)))) == len(built) == 16


def test_dichotomy_answers_false_on_a_planted_element(monkeypatch):
    # no input the hypothesis admits reaches False, so one extra element is planted among the real ones
    w = Weight.of((12, 10), (11, 9))
    real = list(weyl._orbit_rows(w))
    for planted, expected in ((((4, 2), (6, 0)), False), (((4, 2), (6, -2)), True), (((4, -2), (6, 0)), True)):
        for at in (0, len(real) // 2, len(real)):
            monkeypatch.setattr(weyl, "_orbit_rows", lambda w: real[:at] + [planted] + real[at:])
            assert orbit_dichotomy_check(w) is expected, (planted, at)


def dominant_by_search(lam):
    """The k-dominant members of the dot orbit, descending, by listing the group."""
    n = len(lam)
    orbit = {dot_act(g, lam, n) for g in enumerate_weyl(n)}
    return sorted((mu for mu in orbit if is_k_dominant(Weight.single(mu))), reverse=True)


def test_closed_form_branches_match_search():
    h = Fraction(1, 2)
    for row, count in (
        ((2, 1, 4), 0),  # lambda + rho = (1, -1, 1): a value seen three times
        ((1, 2), 0),  # (0, 0): a zero seen twice
        ((3, 2, 2), 4),  # (2, 0, -1): a single zero stays, 2 and 1 take either sign
        ((2, 1, 6), 2),  # (1, -1, 3): the pair is +1 and -1, 3 takes either sign
        ((2, 2, 2), 1),  # (1, 0, -1): a pair and a single zero leave one arrangement
        ((5 * h, 3 * h, -3 * h), 8),  # (3/2, -1/2, -9/2): half-integral
    ):
        got = [w.rows[0] for w in dominant_orbit_elements(Weight.single(row))]
        assert len(got) == count and got == dominant_by_search(row), row


def test_closed_form_matches_search_in_order():
    rng = random.Random(18)
    for _ in range(120):
        n = rng.randint(1, 5 if rng.random() < 0.1 else 4)
        half = Fraction(1, 2) if rng.random() < 0.3 else 0
        row = tuple(rng.randint(-4, 6) + half for _ in range(n))
        got = [w.rows[0] for w in dominant_orbit_elements(Weight.single(row))]
        assert got == dominant_by_search(row), row


def test_count_bound_replaces_rank_cap(monkeypatch):
    # rank 9 answers: lambda + rho = (17, 15, ..., 1), nine free values, 2^9 elements
    regular = Weight.single(tuple(range(18, 9, -1)))
    members = dominant_orbit_elements(regular)
    assert len(members) == 512
    assert members[0] == regular and members[-1] == Weight.single(tuple(range(0, -9, -1)))
    # lambda + rho = (8, 6, ..., -8): pairs around one zero, the weight alone
    low = Weight.single(tuple(range(9, 0, -1)))
    assert dominant_orbit_elements(low) == [low]

    # a regular row of rank 17 is refused by its count, before any element is built
    def built(rows):
        raise AssertionError("an element was built")

    monkeypatch.setattr(Weight, "_trusted", built)
    with pytest.raises(RankTooLarge, match=r"^131072 dominant orbit elements exceed the bound 65536$"):
        dominant_orbit_elements(Weight.single(tuple(range(34, 17, -1))))


def test_count_bound_has_no_setting(monkeypatch):
    import sympl.weyl

    monkeypatch.setenv("SYMPL_ORBIT_CAP", "2")
    assert dominant_orbit_elements(Weight.single((3, 2, 1))) == [Weight.single((3, 2, 1))]
    assert not hasattr(sympl.weyl, "orbit_cap")
    assert not hasattr(sympl.weyl, "enumerate_weyl")
    # lambda + rho = (19, ..., 1, 0, -1, ..., -19): pairs around one zero, one element
    assert dominant_orbit_elements(Weight.single((20,) * 39)) == [Weight.single((20,) * 39)]
    # lambda + rho starts (0, 0): no element, at rank 40 as at rank 2
    assert dominant_orbit_elements(Weight.single((1, 2) + (0,) * 38)) == []


def test_orbit_size_bound():
    # two dominant representatives per place, so 2^d elements at d places
    assert len(dominant_orbit_elements(Weight(((2,),) * 10))) == 2 ** 10
    for w, count in ((Weight(((2,),) * 17), 2 ** 17), (Weight(((5, 4),) * 9), 4 ** 9)):
        with pytest.raises(RankTooLarge, match=rf"^{count} dominant orbit elements exceed the bound 65536$"):
            dominant_orbit_elements(w)
    with pytest.raises(RankTooLarge):
        orbit_dichotomy_check(Weight(((20,),) * 17))


# The bodies before the layout, regularity and sufficient regularity read
# canonical_row, and canonical_row stopped building rho, kept as references.


def parent_canonical_row(row):
    rho = tuple(Fraction(-i) for i in range(1, len(row) + 1))
    return tuple(sorted((abs(a + r) for a, r in zip(row, rho)), reverse=True))


def parent_row_layout(row):
    seen = Counter(abs(a.numerator * (2 // a.denominator) - 2 * k) for k, a in enumerate(row, 1))
    if seen[0] > 1 or max(seen.values()) > 2:
        return None
    values = sorted(seen, reverse=True)
    return values, [v for v in values if v and seen[v] == 1]


def parent_is_regular(w):
    for row in w.rows:
        vals = parent_canonical_row(row)
        if any(v == 0 for v in vals) or len(set(vals)) != len(vals):
            return False
    return True


def parent_is_sufficiently_regular(w, i):
    n = w.n
    check_index(i, n)
    for row in w.rows:
        vals = parent_canonical_row(row)
        if len(set(vals)) < n or vals[-1] + n <= 2 * n - i + 1:
            return False
    return True


def drawn_row(rng, n, half):
    """A row whose lambda + rho takes few values, so zeros, pairs and triples occur."""
    spread = rng.randint(0, n + 2) if rng.random() < 0.7 else 4 * n
    shift = Fraction(1, 2) if half else 0
    return tuple(rng.randint(-spread, spread) + shift + k for k in range(1, n + 1))


def test_one_reading_matches_the_parent_bodies():
    rng = random.Random(19)
    seen = Counter()
    for _ in range(600):
        n = 30 if rng.random() < 0.05 else rng.randint(1, 8)
        half = rng.random() < 0.4
        w = Weight(tuple(drawn_row(rng, n, half) for _ in range(rng.randint(1, 3))))
        # _row_layout reads the doubled rows 2 lambda
        for row, doubled in zip(w.rows, w.doubled):
            assert canonical_row(row) == parent_canonical_row(row), row
            layout = _row_layout(doubled)
            assert layout == parent_row_layout(row), row
            counts = Counter(canonical_row(row))
            seen["triple" if max(counts.values()) > 2 else "pair" if max(counts.values()) == 2 else "distinct"] += 1
            seen["zero"] += 0 in counts
            seen["no layout"] += layout is None
        regular = is_regular(w)
        assert regular == parent_is_regular(w), w
        seen[f"regular {regular}"] += 1
        if n == 30:
            seen[f"rank 30 half {half}"] += 1
        for i in range(1, n + 1):
            verdict = is_sufficiently_regular(w, i)
            assert verdict == parent_is_sufficiently_regular(w, i), (w, i)
            seen[f"sufficiently regular {verdict}"] += 1
    assert min(seen.values()) >= 10, seen


def test_canonical_row_on_ints_and_other_rationals():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 8)
        ints = tuple(rng.randint(-9, 9) for _ in range(n))
        got = canonical_row(ints)
        assert got == parent_canonical_row(ints) and all(type(v) is int for v in got), ints
        rationals = tuple(Fraction(rng.randint(-30, 30), rng.choice((1, 3, 5, 7))) for _ in range(n))
        for row in (rationals, ints[:-1] + rationals[-1:]):
            got = canonical_row(row)
            assert got == parent_canonical_row(row), row
            assert all(type(v) is Fraction for v in got if v.denominator != 1)


def test_infinitesimal_character_builds_no_rho(monkeypatch):
    import sympl.orbitclassify
    import sympl.weights
    import sympl.weyl

    def no_rho(n):
        raise AssertionError("rho was built")

    for module in (sympl.weights, sympl.weyl, sympl.orbitclassify):
        monkeypatch.setattr(module, "rho", no_rho)
    assert classify_levels((5,), 2, 1).classes == ((0, 4), (1, 3), (2,), (5,))
    assert duality_check((9, 6), 4, 2, Fraction(1, 3))
    assert infchar_canonical(Weight.single((3, 3))).canonical == ((2, 1),)
    # lambda + rho = (6, 3, 2) and (2, 0, -1): 8 and 4 representatives, a zero
    w = Weight.of((7, 5, 5), (3, 2, 2))
    assert not is_regular(w) and not is_sufficiently_regular(w, 1)
    assert len(dominant_orbit_elements(w)) == 8 * 4
    half = Weight.single((Fraction(5, 2), Fraction(3, 2), Fraction(-3, 2)))
    assert is_regular(half) and not is_sufficiently_regular(half, 3)
    row = canonical_row((5, 5, 3))
    assert row == (4, 3, 0) and all(type(v) is int for v in row)
