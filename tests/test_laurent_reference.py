"""The packed Laurent kernel and the packed binomial builder against the
tuple-keyed reference in laurent_reference.py."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import laurent_reference as ref
from sympl.cli import main
from sympl.errors import DomainError, ExponentTooLarge, NotHalfIntegral
from sympl.fourier import build_pd_grid, pit_vanishes
from sympl.laurent import EXPONENT_BOUND, LaurentPoly
from sympl.lfactors import RationalFunction, SatakeDatum, abelian_L, gk_value, standard_L, xi

_GENS = ("Q", "T", "X", "b1", "x", "y")
_EXPONENTS = (-3, -2, -1, 0, 0, 0, 1, 2, 3)
_EDGES = (EXPONENT_BOUND, -EXPONENT_BOUND, EXPONENT_BOUND // 2, -EXPONENT_BOUND // 2, EXPONENT_BOUND // 2 + 1)
_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7))


def raw_case(rng):
    """Generators and a {exponents: coefficient} dict; a tenth reach the bound's edge."""
    gens = rng.sample(_GENS, rng.randint(0, 4))
    edge = rng.random() < 0.1
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.choice(_EDGES) if edge and rng.random() < 0.4 else rng.choice(_EXPONENTS) for _ in gens)
        num = rng.randint(-6, 6)
        terms[exps] = num if rng.random() < 0.4 else Fraction(num, rng.choice((1, 2, 3, 4, 6, 9)))
    return gens, terms


def both(rng):
    """The same polynomial in both kernels, built by the constructor or by parse."""
    gens, terms = raw_case(rng)
    new, old = LaurentPoly(gens, terms), ref.LaurentPoly(gens, terms)
    if rng.random() < 0.3:
        text = str(old)
        new, old = LaurentPoly.parse(text), ref.LaurentPoly.parse(text)
    return new, old


def partner(rng, new, old):
    """Another pair, the negation, or one that cancels some of the terms."""
    roll = rng.random()
    if roll < 0.25:
        cancel = {e: -c for e, c in old.terms.items() if rng.random() < 0.5}
        c = rng.choice((0, 1, Fraction(1, 3)))
        return LaurentPoly(old.gens, cancel) + c, ref.LaurentPoly(old.gens, cancel) + c
    if roll < 0.35:
        return -new, -old
    return both(rng)


def outcome(thunk):
    """Everything public about a polynomial, or the exception raised."""
    try:
        p = thunk()
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)
    if isinstance(p, Fraction):
        return p
    return p.gens, p.den, list(p.numerators.items()), list(p.terms.items()), p.key(), str(p)


def small(rng):
    """A polynomial whose products and sums stay far within the bound."""
    while True:
        p, _ = both(rng)
        if all(abs(e) < 100 for exps in p.numerators for e in exps):
            return p


def point(rng, gens):
    at = {g: rng.choice(_VALUES) for g in gens}
    if gens and rng.random() < 0.1:
        del at[rng.choice(gens)]
    return at


def test_packed_kernel_matches_tuple_reference():
    rng = random.Random(180)
    seen = Counter()
    for _ in range(1500):
        a, ra = both(rng)
        b, rb = partner(rng, a, ra)
        assert outcome(lambda: a) == outcome(lambda: ra)
        k = rng.randint(0, 3)
        at = point(rng, sorted(set(a.gens) | set(b.gens)))
        pairs = [
            (lambda: a * b, lambda: ra * rb),
            (lambda: a + b, lambda: ra + rb),
            (lambda: a - b, lambda: ra - rb),
            (lambda: -a, lambda: -ra),
            (lambda: a ** k, lambda: ra ** k),
            (lambda: a * Fraction(-2, 3), lambda: ra * Fraction(-2, 3)),
            (lambda: a.evaluate(at), lambda: ra.evaluate(at)),
        ]
        for got, want in pairs:
            result = outcome(got)
            assert result == outcome(want), (ra, rb)
            if isinstance(result, tuple) and isinstance(result[0], type):
                seen[result[0].__name__] += 1
            elif isinstance(result, tuple):
                seen["dropped"] += len(result[0]) < len(set(a.gens) | set(b.gens))
                seen["at bound"] += any(abs(e) >= EXPONENT_BOUND // 2 for exps, _ in result[2] for e in exps)
        for name in _GENS:
            assert a.degree(name) == ra.degree(name)
    assert {"ExponentTooLarge", "PoleAtPoint", "MissingAssignment", "dropped", "at bound"} <= set(seen), seen
    assert min(seen.values()) >= 20, seen


def test_equal_polynomials_share_key_hash_and_str():
    rng = random.Random(181)
    for _ in range(400):
        a, b = small(rng), small(rng)
        routes = [a, a + 0, a * 1, (a + b) - b, -(-a), LaurentPoly(a.gens, a.terms), LaurentPoly.parse(str(a))]
        if not b.is_zero():
            routes.append(b * a - a * b + a)
        for p in routes:
            assert p == a and p.key() == a.key() and hash(p) == hash(a) and str(p) == str(a)
        if not b.is_zero() and not a.is_zero():
            assert (a * b).key() == (b * a).key() and hash(a * b) == hash(b * a)


def test_generator_dropping_and_differing_generator_sets():
    x, y = LaurentPoly.generator("x"), LaurentPoly.generator("y")
    x_inv = LaurentPoly.monomial(1, {"x": -1})
    assert (x * x_inv).gens == () and (x * x_inv).is_one()
    assert outcome(lambda: x * x_inv) == outcome(lambda: ref.LaurentPoly.one())
    for text_a, text_b in (("x*y^2 + T", "x^-1*Q"), ("Q + 1", "b1*T - X"), ("x*y", "x^-1*y^-1 + x^-1"),
                           ("3/2", "T^-2*X"), ("x - y", "y - x")):
        for op in ("__mul__", "__add__", "__sub__"):
            got = outcome(lambda: getattr(LaurentPoly.parse(text_a), op)(LaurentPoly.parse(text_b)))
            want = outcome(lambda: getattr(ref.LaurentPoly.parse(text_a), op)(ref.LaurentPoly.parse(text_b)))
            assert got == want, (text_a, op, text_b)
    assert (x * y).gens == ("x", "y") and (x - y + y).gens == ("x",)


def test_exponents_at_the_bound():
    half = EXPONENT_BOUND // 2
    P, R = LaurentPoly.parse, ref.LaurentPoly.parse
    assert (P(f"x^{half}") * P(f"x^{half}")).degree("x") == EXPONENT_BOUND
    assert (P(f"x^-{half}") * P(f"x^-{half}")).terms == {(-EXPONENT_BOUND,): 1}
    cases = [
        (f"x^{half}", f"x^{half + 1}", "exponent 10001"),
        (f"x^-{half}", f"x^-{half + 1}", "exponent -10001"),
        # the first column decides the message, as in the tuple kernel
        (f"x^{half + 1}*y^-{half + 1}", f"x^{half}*y^-{half}", "exponent 10001"),
        (f"Q^-{half + 1} + T^{half + 1}", f"Q^-{half} + T^{half}", "exponent -10001"),
        (f"x^{EXPONENT_BOUND} + 1", "x^-1 + x", "exponent 10001"),
    ]
    for a, b, message in cases:
        want = (ExponentTooLarge, f"{message} exceeds the bound {EXPONENT_BOUND}")
        assert outcome(lambda: P(a) * P(b)) == outcome(lambda: R(a) * R(b)) == want
    # bounds that sum past the limit, on a polynomial whose exponents do not
    loose = P(f"x^{EXPONENT_BOUND} + y") - P(f"x^{EXPONENT_BOUND}")
    assert (loose * P(f"x^{half}*y^{half}")).terms == {(half, half + 1): 1}
    assert (loose * P(f"y^{EXPONENT_BOUND - 1}")).terms == {(EXPONENT_BOUND,): 1}
    assert loose ** 3 == P("y^3")
    for a, k in ((f"x^{half} - 1", 2), (f"x^{half} - 1", 3), (f"x^-{half}*y", 2), (f"x^-{half}*y", 3)):
        assert outcome(lambda: P(a) ** k) == outcome(lambda: R(a) ** k)


def test_pit_vanishes_matches_reference():
    rng = random.Random(182)
    names = ("x_1_1_1", "x_1_2_1", "x_2_1_1", "x_2_2_1", "x_1_2_2", "y")
    seen = Counter()
    for _ in range(600):
        t = rng.randint(1, 3)
        grid = build_pd_grid(2, 2, t)
        gens = rng.sample(names, rng.randint(0, 4))
        terms = {tuple(rng.randint(-1 if rng.random() < 0.05 else 0, t + (rng.random() < 0.1)) for _ in gens):
                 rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.4 and "x_1_2_1" in gens and "x_2_1_1" in gens:
            # the alias pair: swap their exponents and subtract, which vanishes on the grid
            i, j = gens.index("x_1_2_1"), gens.index("x_2_1_1")
            swapped = {}
            for e, c in terms.items():
                e = list(e)
                e[i], e[j] = e[j], e[i]
                swapped[tuple(e)] = swapped.get(tuple(e), 0) - c
            terms = {e: terms.get(e, 0) + swapped.get(e, 0) for e in set(terms) | set(swapped)}
        p, r = LaurentPoly(gens, terms), ref.LaurentPoly(gens, terms)
        got = outcome(lambda: Fraction(pit_vanishes(p, grid)))
        assert got == outcome(lambda: Fraction(ref.pit_vanishes(r, grid))), (r, t)
        seen[got[0].__name__ if isinstance(got, tuple) else bool(got)] += 1
    assert set(seen) == {True, False, "DegreeExceedsGrid", "ValueError"}, seen
    assert min(seen.values()) >= 20, seen


_SATAKES = [SatakeDatum.symbolic(m) for m in range(3)] + [
    SatakeDatum((Fraction(2),), Fraction(-1, 5)),
    SatakeDatum((Fraction(5, 7), "b2"), Fraction(3)),
    SatakeDatum(("A", "b1", Fraction(-1, 5)), "X"),
]


def factors_outcome(thunk):
    try:
        factors = thunk()
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)
    return [(f.gens, f.den, list(f.numerators.items()), f.key(), str(f)) for f in factors]


@pytest.mark.parametrize("satake", _SATAKES, ids=repr)
def test_binomial_builder_matches_reference(satake):
    shifts = [Fraction(k, 2) for k in range(-5, 6)] + [Fraction(1, 3), Fraction(-2, 5)]
    for shift in shifts:
        assert factors_outcome(lambda: standard_L(shift, satake).den_factors) == factors_outcome(
            lambda: ref.standard_L_factors(shift, satake))
        for twist in (1, 2, 3):
            assert factors_outcome(lambda: abelian_L(shift, twist, satake.character).den_factors) == factors_outcome(
                lambda: ref.abelian_L_factors(shift, twist, satake.character))
        for i in range(6):
            assert factors_outcome(lambda: xi(i, satake, shift).den_factors) == factors_outcome(
                lambda: ref.xi_factors(i, satake, shift))


def test_xi_errors_match_reference(capsys):
    s = SatakeDatum.symbolic(1)
    # the message names the level-1 shift, shift + (1 - i)/2
    for i, shift, message in ((1, Fraction(1, 3), "1/3"), (3, Fraction(1, 3), "-2/3"), (2, Fraction(1, 4), "-1/4")):
        want = (NotHalfIntegral, f"shift {message} is not half-integral")
        assert factors_outcome(lambda: xi(i, s, shift).den_factors) == factors_outcome(
            lambda: ref.xi_factors(i, s, shift)) == want
    # xi(0) is the empty product, whatever the shift
    assert xi(0, s, Fraction(1, 3)) == RationalFunction.one()
    assert xi(0, s, Fraction(1, 3)).den_factors == ()
    for i, shift in ((1, 10_000), (2, 5_000), (3, -4_999), (4, 2_500), (2, Fraction(9_999, 2))):
        got = factors_outcome(lambda: xi(i, s, shift).den_factors)
        assert got == factors_outcome(lambda: ref.xi_factors(i, s, shift)), (i, shift)
    assert factors_outcome(lambda: xi(1, s, 10_000).den_factors) == (
        ExponentTooLarge, f"exponent -20000 exceeds the bound {EXPONENT_BOUND}")
    assert main(["xi", "--i", "1", "--shift", "10000"]) == 1
    assert capsys.readouterr().err == f"error: ExponentTooLarge: exponent -20000 exceeds the bound {EXPONENT_BOUND}\n"
    assert factors_outcome(lambda: abelian_L(0, EXPONENT_BOUND + 1).den_factors) == factors_outcome(
        lambda: ref.abelian_L_factors(0, EXPONENT_BOUND + 1))


def test_gk_factors_match_reference():
    for satake in _SATAKES:
        for i in range(5):
            for j in range(i + 1):
                half_gap = Fraction(i - j, 2)
                got = gk_value(i, j, satake)
                assert factors_outcome(lambda: got.num_factors) == factors_outcome(
                    lambda: ref.xi_factors(j, satake, half_gap + 1))
                assert factors_outcome(lambda: got.den_factors) == factors_outcome(
                    lambda: ref.xi_factors(j, satake, half_gap))


def test_packed_state_is_integers_and_views_are_fractions():
    rng = random.Random(183)
    polys = [small(rng) for _ in range(200)]
    polys += list(xi(3, SatakeDatum((Fraction(2, 3), "b1"), Fraction(-1, 5))).den_factors)
    polys += [polys[k] * polys[k + 1] + polys[k + 2] for k in range(0, 150, 3)]
    polys += [LaurentPoly.parse("1/2*x^-2*y - 3/4"), LaurentPoly.monomial(Fraction(1, 3), {"T": 2})]
    for p in polys:
        assert type(p.den) is int and p.den > 0
        assert all(type(k) is int and type(c) is int and c for k, c in p._packed.items())
        assert all(type(c) is int for c in p.numerators.values())
        assert all(type(c) is Fraction for c in p.terms.values())
        assert all(type(e) is int for exps in p.numerators for e in exps)
        assert p.gens == tuple(sorted(p.gens))


def test_equality_with_a_bool_is_false():
    # a bool is not a scalar: the comparison is False instead of a TypeError
    one = LaurentPoly.one()
    assert not (one == True)  # noqa: E712
    assert one != True  # noqa: E712
    assert one not in [True]
    assert not (LaurentPoly.zero() == False)  # noqa: E712
    assert one == 1 and LaurentPoly.zero() == 0 and one == Fraction(1)
    assert RationalFunction.one() != 1


@pytest.mark.parametrize("text", ["0*x^5000*x^5001", "x^5000*x^5001*0", "x^5000*0*x^5001", "0*x^-5000*x^-5001"])
def test_parse_bounds_the_running_exponent_whatever_the_factor_order(text, capsys):
    with pytest.raises(ExponentTooLarge) as raised:
        LaurentPoly.parse(text)
    sign = "-" if "^-" in text else ""
    assert str(raised.value) == f"exponent {sign}10001 exceeds the bound {EXPONENT_BOUND}"
    assert main(["pit", "--poly", text, "--n", "1", "--bounds", "1"]) == 1
    assert "exceeds the bound" in capsys.readouterr().err
