"""Level classification, decomposition reports, and the surjectivity check."""

import random
from fractions import Fraction
from math import prod

import pytest

from sympl.errors import (
    IndexOutOfRange,
    LengthMismatch,
    LevelTooLarge,
    NonIntegral,
    NotDominant,
    RankOne,
    ValueTooLarge,
)
from sympl.orbitclassify import (
    HYPOTHESIS_NAMES,
    LEVEL_ENTRY_BOUND,
    PRIMALITY_BOUND,
    _is_prime,
    classify_levels,
    decomposition_report,
    duality_check,
    hc_parameter,
    is_squarefree,
    level_from_primes,
    siegel_surjectivity_check,
    theorem_main_necessary,
)
from sympl.embeddings import klingen_embedding_datum
from sympl.weights import Weight, is_k_dominant
from sympl.weyl import act, canonical_row, infchar_equal
from weyl_oracle import enumerate_weyl


def test_hc_parameter_examples():
    assert hc_parameter((5,), 0, 2, 1) == (4, -2)
    assert hc_parameter((5,), 2, 2, 1) == (4, 0)
    assert hc_parameter((), 3, 1, 1) == (2,)


def test_hc_parameter_rejections():
    with pytest.raises(LengthMismatch):
        hc_parameter((5, 4), 0, 2, 1)
    with pytest.raises(IndexOutOfRange):
        hc_parameter((5,), 0, 2, 0)


def test_classify_example_rank_two():
    c = classify_levels((5,), 2, 1)
    assert c.x_max == 5
    assert c.x == (0, 1, 2, 3, 4, 5)
    assert c.classes == ((0, 4), (1, 3), (2,), (5,))
    assert c.y == (0, 1, 2, 5)
    assert c.bijective


def test_classify_singleton():
    c = classify_levels((0,), 2, 1)
    assert c.classes == ((0,),)
    assert c.y == (0,)
    assert c.bijective


def test_classify_rank_three():
    # the bijectivity statement at rank three, both parabolic indices
    assert classify_levels((7, 7), 3, 1).bijective
    assert classify_levels((7,), 3, 2).bijective


def test_classify_rejections():
    with pytest.raises(LengthMismatch):
        classify_levels((7,), 3, 1)
    with pytest.raises(NotDominant):
        classify_levels((3, 5), 3, 1)
    with pytest.raises(NotDominant):
        classify_levels((-1,), 2, 1)
    with pytest.raises(NonIntegral):
        classify_levels((Fraction(5, 2),), 2, 1)
    with pytest.raises(ValueError):
        classify_levels((5,), 2, 1, x_max=9)


def test_classify_top_index_needs_explicit_bound():
    with pytest.raises(ValueError):
        classify_levels((), 2, 2)
    c = classify_levels((), 2, 2, x_max=5)
    assert c.classes == ((0, 3), (1, 2), (4,), (5,))
    assert c.y == (0, 1, 4, 5)
    assert c.bijective


def test_classify_level_entry_bound(monkeypatch):
    import sympl.orbitclassify

    # x_max + 1 levels of n entries each: 16 * 65,536 entries is the bound itself
    assert 16 * 65_536 == LEVEL_ENTRY_BOUND
    # levels x and 17 - x share a class for x = 0..8, every other level is alone
    assert len(classify_levels((), 16, 16, 65_535).classes) == 65_536 - 9
    read = []
    monkeypatch.setattr(sympl.orbitclassify, "canonical_row", lambda row: read.append(row))
    for args, entries, levels in ((((), 16, 16, 65_536), 1_048_592, 65_537),
                                  (((10 ** 11,), 2, 1), 2 * (10 ** 11 + 1), 10 ** 11 + 1),
                                  (((), 2, 2, 10 ** 11), 2 * (10 ** 11 + 1), 10 ** 11 + 1)):
        message = f"^{entries} entries over {levels} levels exceed the bound 1048576$"
        with pytest.raises(LevelTooLarge, match=message):
            classify_levels(*args)
    assert read == []


def _classify_reference(inner, n, i, x_max):
    """classes, y and bijective as classify_levels read them with Fraction bounds."""
    seen = {}
    classes = []
    for x in range(x_max + 1):
        key = canonical_row(inner + (x,) * i)
        if key in seen:
            classes[seen[key]].append(x)
        else:
            seen[key] = len(classes)
            classes.append([x])

    low = Fraction(2 * n - i + 1, 2)
    y = tuple(x for x in range(x_max + 1) if x <= low or x >= 2 * n - i + 2)
    yset = set(y)
    bijective = all(sum(1 for x in cls if x in yset) == 1 for cls in classes)
    return tuple(tuple(cls) for cls in classes), y, bijective


def test_classify_matches_fraction_reference():
    rng = random.Random(1616)
    cases = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        i = rng.randint(1, n)
        inner = tuple(sorted((rng.randint(0, 14) for _ in range(n - i)), reverse=True))
        c = classify_levels(inner, n, i, rng.randint(0, 16) if i == n else None)
        assert (c.classes, c.y, c.bijective) == _classify_reference(inner, n, i, c.x_max)
        cases.add((i == n, (2 * n - i + 1) % 2))
    # i < n and i = n, each with 2n - i + 1 odd and even
    assert cases == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_classes_match_signed_permutation_orbits():
    # oracle: two levels are equivalent iff some signed permutation maps
    # one parameter vector onto the other
    for inner, n, i in (((5,), 2, 1), ((3,), 2, 1), ((6,), 3, 2), ((4, 2), 3, 1)):
        c = classify_levels(inner, n, i)
        group = enumerate_weyl(n)
        index = {}
        for pos, cls in enumerate(c.classes):
            for x in cls:
                index[x] = pos
        for x1 in c.x:
            v1 = hc_parameter(inner, x1, n, i)
            for x2 in c.x:
                v2 = hc_parameter(inner, x2, n, i)
                equivalent = any(act(w, v1) == v2 for w in group)
                assert equivalent == (index[x1] == index[x2])


def test_duality_examples():
    assert duality_check((5,), 2, 1, 0)
    assert duality_check((5,), 2, 1, 2)
    for s in range(7):
        assert duality_check((6,), 3, 2, s)


def test_theorem_main_examples():
    got = theorem_main_necessary(Weight.single((3, 3)), 2)
    assert got == [Weight.single((3, 3)), Weight.single((0, 0))]

    got = theorem_main_necessary(Weight.single((3, 1)), 1)
    assert {w.rows[0] for w in got} == {(3, 3), (3, 1), (2, 0), (0, 0)}
    with pytest.raises(NonIntegral):
        theorem_main_necessary(Weight.single((Fraction(7, 2), Fraction(5, 2))), 1)


def test_theorem_main_two_places():
    got = theorem_main_necessary(Weight.of((5, 3), (5, 4)), 1)
    assert len(got) == 4
    for w in got:
        assert len({row[-1] for row in w.rows}) == 1
    assert {tuple(w.rows) for w in got} == {
        ((2, -2), (3, -2)),
        ((2, -2), (-1, -2)),
        ((0, -2), (3, -2)),
        ((0, -2), (-1, -2)),
    }


def test_theorem_main_keeps_a_planted_survivor_and_drops_planted_failures(monkeypatch):
    # one element passes both filters, and each of the others fails one of them at one place
    import sympl.orbitclassify

    w = Weight.of((5, 5, 5), (6, 5, 5))
    real = sympl.orbitclassify.dominant_orbit_elements(w)
    kept = theorem_main_necessary(w, 2)
    assert kept == [w, Weight.of((5, 0, 0), (6, 0, 0))]
    survivor = Weight.of((9, 1, 1), (4, 1, 1))
    failures = [Weight.of((9, 2, 1), (4, 1, 1)), Weight.of((9, 1, 1), (4, 2, 1)), Weight.of((9, 2, 2), (4, 1, 1))]
    for planted in failures:
        monkeypatch.setattr(sympl.orbitclassify, "dominant_orbit_elements", lambda w: [planted, *real])
        assert theorem_main_necessary(w, 2) == kept, planted
    monkeypatch.setattr(sympl.orbitclassify, "dominant_orbit_elements", lambda w: [*real, survivor])
    assert theorem_main_necessary(w, 2) == kept + [survivor]


def test_theorem_main_members_keep_the_character():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(-3, 7) for _ in range(n)), reverse=True))
        w = Weight.single(lam)
        i = rng.randint(1, n)
        for omega in theorem_main_necessary(w, i):
            assert is_k_dominant(omega)
            assert infchar_equal(omega, w)


def test_report_passing_example():
    r = decomposition_report(Weight.single((12, 12)), 1)
    assert [name for name, _ in r.hypotheses] == list(HYPOTHESIS_NAMES)
    assert all(ok for _, ok in r.hypotheses)
    assert r.conclusion == "IsotypicDescription"
    assert r.parity_class == 1
    assert r.exponent == 10
    assert r.inner_weight == ((12,),)
    assert "not verified" in r.assumption
    assert r.passed("sufficiently_regular")
    with pytest.raises(KeyError):
        r.passed("no_such_hypothesis")


def test_report_tail_failure():
    r = decomposition_report(Weight.single((12, 11)), 2)
    assert r.conclusion == "HypothesesFail"
    assert not r.passed("tail_constant_per_place")
    assert r.parity_class is None
    assert r.exponent is None
    assert r.inner_weight is None


def test_report_regularity_failure():
    r = decomposition_report(Weight.single((3, 3)), 1)
    assert r.conclusion == "HypothesesFail"
    assert r.passed("k_dominant_integral")
    assert r.passed("tail_constant_per_place")
    assert not r.passed("sufficiently_regular")
    assert not r.passed("inner_weight_bound")


def test_report_character_parity():
    assert decomposition_report(Weight.single((12, 12)), 1, 1).conclusion == "IsotypicDescription"
    assert (
        decomposition_report(Weight.single((12, 12)), 1, -1).conclusion
        == "VanishesWrongParity"
    )
    assert decomposition_report(Weight.single((11, 11)), 2, -1).conclusion == "IsotypicDescription"
    with pytest.raises(ValueError):
        decomposition_report(Weight.single((12, 12)), 1, 0)


def test_report_exponent_matches_embedding_datum():
    # a passing report promises the embedding with exactly that exponent
    cases = [
        Weight.single((12, 12)),
        Weight.single((13, 12)),
        Weight.of((12, 11, 11), (13, 11, 11)),
        Weight.single((14, 13, 12)),
    ]
    for w in cases:
        for i in range(1, w.n + 1):
            r = decomposition_report(w, i)
            if r.conclusion != "IsotypicDescription":
                continue
            for row in w.rows:
                d = klingen_embedding_datum(row, i)
                assert d.character.exponent == r.exponent
                assert d.character.parity == (0 if r.parity_class == 1 else 1)


def test_surjectivity_examples():
    ok = siegel_surjectivity_check(Weight.single((11, 11)), 6)
    assert ok.tag == "SurjectiveByTheorem"
    assert ok.failed_conditions == ()
    assert bool(ok)

    bad = siegel_surjectivity_check(Weight.single((11, 11)), 12)
    assert bad.tag == "NotCovered"
    assert bad.failed_conditions == ("level_squarefree",)
    assert not bool(bad)

    two_places = siegel_surjectivity_check(Weight.of((11, 11), (12, 11)), 6)
    assert two_places.tag == "SurjectiveByTheorem"


def test_surjectivity_weight_conditions():
    small = siegel_surjectivity_check(Weight.single((4, 4)), 6)
    assert "bottom_entry_bound" in small.failed_conditions

    uneven = siegel_surjectivity_check(Weight.of((11, 11), (12, 12)), 6)
    assert "bottom_entry_uniform" in uneven.failed_conditions

    # tail differs within the only place, and there is no second place to vary
    stuck = siegel_surjectivity_check(Weight.single((12, 11)), 6)
    assert stuck.failed_conditions == ("weight_alternative",)


def test_surjectivity_rejections():
    with pytest.raises(RankOne):
        siegel_surjectivity_check(Weight.single((11,)), 6)
    with pytest.raises(NotDominant):
        siegel_surjectivity_check(Weight.single((11, 12)), 6)
    with pytest.raises(NonIntegral):
        siegel_surjectivity_check(
            Weight.single((Fraction(23, 2), Fraction(23, 2))), 6
        )
    with pytest.raises(ValueError):
        siegel_surjectivity_check(Weight.single((11, 11)), 0)


def test_surjectivity_level_monotonicity():
    # with the weight conditions satisfied, any square-free level passes
    w = Weight.single((11, 11))
    for level in range(1, 120):
        verdict = siegel_surjectivity_check(w, level)
        if is_squarefree(level):
            assert verdict.tag == "SurjectiveByTheorem"
        else:
            assert verdict.failed_conditions == ("level_squarefree",)


def test_is_squarefree_examples():
    assert is_squarefree(6)
    assert not is_squarefree(12)
    assert is_squarefree(1)
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_is_squarefree_against_naive_oracle():
    for n in range(1, 2000):
        naive = all(n % (d * d) != 0 for d in range(2, n + 1))
        assert is_squarefree(n) == naive


def test_level_from_primes():
    assert level_from_primes([2, 3]) == 6
    assert level_from_primes([]) == 1
    with pytest.raises(ValueError):
        level_from_primes([2, 2])
    with pytest.raises(ValueError):
        level_from_primes([4])


def _sieve(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return flags


SIEVE = _sieve(10 ** 6)
SIEVE_PRIMES = [p for p in range(10 ** 6) if SIEVE[p]]


def _trial_prime(n):
    """Trial division by the sieved primes; exact for n < 10**12."""
    assert n < 10 ** 12
    for q in SIEVE_PRIMES:
        if q * q > n:
            return n > 1
        if n % q == 0:
            return n == q
    return True


def _factors(rng, digits, pattern):
    """Primes filling `pattern` (such as "ppq") whose product has exactly `digits` digits.

    Each prime lies in [10**((digits - 0.8) / k), 10**((digits - 0.2) / k)) for a
    pattern of length k, so the product lies in [10**(digits - 0.8), 10**(digits - 0.2)).
    """
    k = len(pattern)
    low, high = int(10 ** ((digits - 0.8) / k)) + 1, int(10 ** ((digits - 0.2) / k))
    primes = {}
    for name in pattern:
        while name not in primes:
            p = rng.randrange(low, high)
            if p not in primes.values() and _trial_prime(p):
                primes[name] = p
    return tuple(primes[name] for name in pattern)


def test_is_prime_matches_sieve():
    assert [n for n in range(10 ** 6) if _is_prime(n)] == SIEVE_PRIMES


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5, 7;
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes bases 2..23;
    # 318665857834031151167461 = 399165290221 * 798330580441 passes bases 2..37
    for n, factors in (
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ):
        assert n == prod(factors)
        assert all(_trial_prime(p) for p in factors)
        assert not _is_prime(n)
        assert is_squarefree(n)
    assert _is_prime(2 ** 61 - 1)
    assert level_from_primes([2 ** 61 - 1, 2 ** 31 - 1]) == (2 ** 61 - 1) * (2 ** 31 - 1)


def test_is_squarefree_known_factorizations():
    rng = random.Random(2017)
    for digits in range(12, 25, 3):
        for pattern in ("pq", "ppq", "ppp", "pqr"):
            factors = _factors(rng, digits, pattern)
            level = prod(factors)
            assert len(str(level)) == digits
            assert is_squarefree(level) == (pattern in ("pq", "pqr")), factors
            # a square below 1000 is found by trial division before the cofactor is tested
            assert not is_squarefree(4 * level)


def test_level_too_large():
    big_prime = 2 ** 89 - 1
    with pytest.raises(LevelTooLarge):
        is_squarefree(PRIMALITY_BOUND)
    with pytest.raises(LevelTooLarge):
        is_squarefree(big_prime)
    with pytest.raises(LevelTooLarge):
        is_squarefree(6 * big_prime)
    with pytest.raises(LevelTooLarge):
        siegel_surjectivity_check(Weight.single((11, 11)), big_prime)
    # trial division still decides a square factor below 1000, at any size
    assert not is_squarefree(9 * big_prime)
    with pytest.raises(LevelTooLarge):
        level_from_primes([big_prime])
    with pytest.raises(LevelTooLarge):
        level_from_primes([2, PRIMALITY_BOUND])
    with pytest.raises(ValueError, match="is not prime"):
        level_from_primes([2 * big_prime])


def test_unprintable_prime_entry_is_refused_by_name():
    # 10^4400 + 1 has a factor below 1000, and 10^4400 + 7 has none, so only
    # Miller-Rabin could decide it; naming either in a message wrote it with
    # str(), a raw ValueError past the int-to-text limit, where is_squarefree
    # already raised ValueTooLarge
    for p in (10 ** 4400 + 1, 10 ** 4400 + 7):
        with pytest.raises(ValueTooLarge, match="^exact value has more than [0-9]+ digits to print$"):
            level_from_primes([p])
        with pytest.raises(ValueTooLarge):
            is_squarefree(p)
