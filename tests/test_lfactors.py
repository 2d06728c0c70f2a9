"""Tests for Laurent polynomials and local L-factor products."""

import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import laurent_reference as ref
from sympl.errors import (
    DomainError,
    ExpansionTooLarge,
    ExponentTooLarge,
    IndexOutOfRange,
    MissingAssignment,
    NotHalfIntegral,
    PoleAtPoint,
)
from sympl.laurent import EXPONENT_BOUND, LaurentPoly, _check_exponents
from sympl.lfactors import (
    EXPANSION_BOUND,
    FACTOR_BOUND,
    RationalFunction,
    SatakeDatum,
    _binomial,
    _binomials,
    abelian_L,
    check_factor_count,
    evaluate,
    gk_value,
    standard_L,
    xi,
)
from sympl.scalars import as_scalar
from sympl.serialize import rational_from_json, to_json

P = LaurentPoly.parse


def random_poly(rng, gens=("Q", "T", "X")):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(1, 4)):
        exps = {g: rng.randint(-3, 3) for g in gens if rng.random() < 0.7}
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + LaurentPoly.monomial(coeff, exps)
    return p


def test_poly_constructors():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one().is_one()
    assert LaurentPoly.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    with pytest.raises(ValueError, match="not a constant polynomial"):
        LaurentPoly.generator("Q").constant_value()
    q = LaurentPoly.generator("Q")
    assert q.terms == {(1,): Fraction(1)}
    m = LaurentPoly.monomial(Fraction(-1, 2), {"T": 2, "Q": -1})
    assert m.gens == ("Q", "T")
    assert m.terms == {(-1, 2): Fraction(-1, 2)}


def test_poly_canonical_representation():
    # generator order does not matter
    a = LaurentPoly(("T", "Q"), {(1, 2): 1})
    b = LaurentPoly(("Q", "T"), {(2, 1): 1})
    assert a == b
    assert hash(a) == hash(b)
    # unused generators are dropped
    c = LaurentPoly(("Q", "T"), {(0, 1): 1})
    assert c.gens == ("T",)
    # zero coefficients are dropped
    assert LaurentPoly(("Q",), {(1,): 0}) == LaurentPoly.zero()
    # mismatched exponent vector length is rejected
    with pytest.raises(ValueError):
        LaurentPoly(("Q",), {(1, 2): 1})
    # a repeated generator is rejected: x*x would compare unequal to x^2
    with pytest.raises(ValueError, match="repeated generator"):
        LaurentPoly(("x", "x"), {(1, 1): 1})


def test_poly_ring_axioms():
    rng = random.Random(71)
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    for _ in range(220):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + zero == a
        assert a * one == a
        assert a - a == zero


def test_poly_evaluate_is_multiplicative():
    rng = random.Random(72)
    values = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 2)]
    for _ in range(60):
        a = random_poly(rng)
        b = random_poly(rng)
        pt = {g: rng.choice(values) for g in ("Q", "T", "X")}
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_poly_difference_of_squares():
    x = LaurentPoly.generator("X")
    t = LaurentPoly.generator("T")
    assert (1 - x * t) * (1 + x * t) == 1 - x ** 2 * t ** 2


def test_poly_pow():
    p = P("1 + Q*T")
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_poly_degree():
    p = P("Q^3*T - Q*T^2 + 4")
    assert p.degree("Q") == 3
    assert p.degree("T") == 2
    assert p.degree("X") == 0
    assert LaurentPoly.zero().degree("Q") == 0
    # Laurent degree can be negative when only negative powers appear
    assert P("Q^-2").degree("Q") == -2


def test_poly_evaluate_errors():
    p = P("Q + T")
    with pytest.raises(MissingAssignment):
        p.evaluate({"Q": 1})
    with pytest.raises(PoleAtPoint):
        P("Q^-1").evaluate({"Q": 0})
    assert P("Q^-1").evaluate({"Q": Fraction(1, 2)}) == 2


def test_poly_str_exact():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(P("1 - Q^-2*T*X")) == "1 - Q^-2*T*X"
    assert str(P("T*X - 1")) == "-1 + T*X"
    assert str(P("3/2*Q^2 + 1")) == "1 + 3/2*Q^2"


def test_poly_parse_round_trip():
    rng = random.Random(73)
    for _ in range(150):
        p = random_poly(rng)
        assert LaurentPoly.parse(str(p)) == p


def test_poly_parse_errors():
    with pytest.raises(ValueError):
        LaurentPoly.parse("")
    with pytest.raises(ValueError):
        LaurentPoly.parse("x^1/2")
    with pytest.raises(ValueError):
        LaurentPoly.parse("x**2")
    with pytest.raises(ValueError):
        LaurentPoly.parse("2^3")
    with pytest.raises(ValueError):
        LaurentPoly.parse("1 ~ 2")


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+(?:/\d+)?)|(?P<op>[-+*^]))")


def reference_parse(text):
    """The former parser: every factor a LaurentPoly, every term a chain of
    products, the total a chain of sums. Number tokens are read with
    as_scalar, so a zero denominator is a ValueError here too. Each name's
    running exponent in a term is bounded whatever the coefficient, so a
    zero factor does not lift the bound from the factors after it."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read polynomial at: {text[pos:]!r}")
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    cursor = 0
    totals = Counter()

    def peek():
        return tokens[cursor] if cursor < len(tokens) else (None, None)

    def take():
        nonlocal cursor
        tok = peek()
        cursor += 1
        return tok

    def parse_factor():
        kind, value = take()
        if kind == "num":
            return LaurentPoly.constant(as_scalar(value))
        if kind == "name":
            exp = 1
            if peek() == ("op", "^"):
                take()
                sign = 1
                if peek() == ("op", "-"):
                    take()
                    sign = -1
                ekind, evalue = take()
                if ekind != "num" or "/" in evalue:
                    raise ValueError("exponent must be an integer")
                exp = sign * int(evalue)
            factor = LaurentPoly.monomial(1, {value: exp})
            totals[value] += exp
            _check_exponents(totals[value], totals[value])
            return factor
        raise ValueError(f"unexpected token {value!r} in polynomial")

    def parse_term():
        totals.clear()
        result = parse_factor()
        while peek() == ("op", "*"):
            take()
            result = result * parse_factor()
        return result

    total = LaurentPoly.zero()
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take()[1] == "-" else 1
    if peek() == (None, None):
        raise ValueError("empty polynomial")
    total = total + sign * parse_term()
    while peek() != (None, None):
        kind, value = take()
        if kind != "op" or value not in "+-":
            raise ValueError(f"expected + or - before {value!r}")
        sign = -1 if value == "-" else 1
        total = total + sign * parse_term()
    return total


def parse_outcome(parse, text):
    """gens, terms in order and coefficient types, or the exception raised."""
    try:
        p = parse(text)
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)
    return p.gens, list(p.terms.items()), [type(c) for c in p.terms.values()]


# grid names x_i_j_k next to their aliases x_j_i_k, and L-factor names
_PARSE_NAMES = ("x_1_2_1", "x_2_1_1", "x_1_1_1", "x_2_2_1", "Q", "T", "X", "b1")
_SPACES = ("", "", " ", "  ", "\t", "\n ", " \r\n")


def random_parse_text(rng):
    """A seeded sum of products; about one in six is mutated into noise."""

    def factor():
        if rng.random() < 0.3:
            num = str(rng.randint(0, 12))
            return num + f"/{rng.randint(1, 9)}" if rng.random() < 0.4 else num
        name = rng.choice(_PARSE_NAMES)
        roll = rng.random()
        if roll < 0.4:
            return name
        if roll < 0.9:
            return f"{name}^{rng.randint(-4, 4)}"
        # near the exponent bound, alone or as a running sum
        return f"{name}^{rng.choice((6000, -6000, EXPONENT_BOUND, EXPONENT_BOUND + 1))}"

    def term():
        return "*".join(factor() for _ in range(rng.randint(1, 5)))

    terms = [term() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        # the same terms subtracted in another order: the sum cancels
        again = terms[:]
        rng.shuffle(again)
        terms += [f"-{t}" for t in again]
    text = rng.choice(("", "-", "+")) + terms[0]
    for t in terms[1:]:
        op, t = ("-", t[1:]) if t.startswith("-") else (rng.choice("+-"), t)
        text += f"{rng.choice(_SPACES)}{op}{rng.choice(_SPACES)}{t}"
    tokens = re.split(r"(\*|\^|\+|-)", text)
    text = rng.choice(_SPACES).join(tokens) if rng.random() < 0.3 else text
    if rng.random() < 1 / 6:
        chars = list(text)
        at = rng.randrange(len(chars) + 1)
        if rng.random() < 0.5 and chars:
            del chars[min(at, len(chars) - 1)]
        else:
            chars.insert(at, rng.choice("*^+- /x0~"))
        text = "".join(chars)
    return rng.choice(_SPACES) + text + rng.choice(_SPACES)


def test_parse_matches_chained_products():
    rng = random.Random(76)
    outcomes = Counter()
    for _ in range(1500):
        text = random_parse_text(rng)
        got = parse_outcome(LaurentPoly.parse, text)
        assert got == parse_outcome(reference_parse, text), text
        if got[0] is ExponentTooLarge or got[0] is ValueError:
            outcomes[got[0].__name__] += 1
        else:
            outcomes["zero" if not got[1] else "poly"] += 1
            assert all(c is Fraction for c in got[2])
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x^1/2", "x**2", "2^3", "1 ~ 2", "x^", "*x", "x +", "2 x", "x^--1", "1/0*x",
     "x^6000*x^6000", "0*x^6000*x^6000", "x^6000*0*x^6000", f"0*x^{EXPONENT_BOUND + 1}",
     "x^6000*x^-6000*x^6000 - 1", "x*x^2*x^-3 + 2/4", "x_1_2_1*x_2_1_1 - x_2_1_1*x_1_2_1"],
)
def test_parse_edge_cases_match_chained_products(text):
    assert parse_outcome(LaurentPoly.parse, text) == parse_outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        # a stray character first, in the middle, last, and after a grammar error
        "~x", "x ~ 1", "x - x ~", "x~", " \t~", "x x ~", "2 x ~", "x^ ~", "x + ~", "* ~", "x^1/2 ~",
        "1/0 ~", "x^-~", "x.y", "x + 1 !", "é", "x\xa0+\xa0y\u2003~",
        # whitespace mixes
        "x\t-\r\nx\n", "\tx_1_2_1 *\nx_2_1_1\r\n- x_2_1_1*x_1_2_1 ", "\r\n", "\t \n", "x\r\n\t*\r\n\ty",
        "x\xa0+\u2003y\u3000", "\xa0-\xa0x",
        # p/q coefficients, a zero denominator and fractional exponents
        "1/2*x - 2/4*x", "3/2*x*y - 1/3", "x*2/3*y*3/2 - x*y", "1/0", "1/0*x", "x*1/0", "0/5*x",
        "x^1/2", "x^-1/2", "2/3^2", "4/6 + 1/3 - 1",
        # a dangling ^ or *
        "x^", "x*", "x *", "*", "^", "x^-", "x^+1", "x*^2", "x^*2", "x**", "+", "-", "- *",
        # Unicode digits
        "٣*x - 3*x", "x^٣", "x_١", "١/٢*x", "x^-٢*x^٢", "१२*y + ١",
    ],
)
def test_parse_tokenizer_edge_cases_match_chained_products(text):
    assert parse_outcome(LaurentPoly.parse, text) == parse_outcome(reference_parse, text)


def kernel_poly(rng):
    """Integral or rational coefficients, given as int or Fraction."""
    gens = ("Q", "T", "X", "b1")
    terms = {}
    integral = rng.random() < 0.5
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in gens)
        if integral or rng.random() < 0.4:
            terms[exps] = rng.randint(-4, 4)
        else:
            terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    return LaurentPoly(gens, terms)


def naive(p):
    """{frozenset of (generator, nonzero exponent): coefficient}."""
    return {
        frozenset((g, e) for g, e in zip(p.gens, exps) if e): c
        for exps, c in p.terms.items()
    }


def naive_add(x, y, sign=1):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def naive_mul(x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            exps = dict(ma)
            for g, e in mb:
                exps[g] = exps.get(g, 0) + e
            m = frozenset((g, e) for g, e in exps.items() if e)
            out[m] = out.get(m, 0) + Fraction(ca) * Fraction(cb)
    return {m: c for m, c in out.items() if c != 0}


def assert_canonical(p):
    assert list(p.gens) == sorted(p.gens)
    assert all(any(e[k] for e in p.terms) for k in range(len(p.gens)))
    for exps, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exps) == len(p.gens) and all(type(e) is int for e in exps)


def test_kernel_matches_naive_convolution():
    rng = random.Random(74)
    for _ in range(300):
        a, b = kernel_poly(rng), kernel_poly(rng)
        c = rng.choice((2, -3, Fraction(1, 2), Fraction(-5, 3)))
        k = rng.randint(0, 3)
        power = {frozenset(): Fraction(1)}
        for _ in range(k):
            power = naive_mul(power, naive(a))
        cases = [
            (a + b, naive_add(naive(a), naive(b))),
            (a - b, naive_add(naive(a), naive(b), -1)),
            (-a, naive_add({}, naive(a), -1)),
            (a * b, naive_mul(naive(a), naive(b))),
            (a ** k, power),
            (a * c, naive_mul(naive(a), {frozenset(): c})),
            (c * a, naive_mul(naive(a), {frozenset(): c})),
            (c + a, naive_add(naive(a), {frozenset(): c})),
            (c - a, naive_add({frozenset(): c}, naive(a), -1)),
        ]
        for got, want in cases:
            assert_canonical(got)
            assert naive(got) == want


def test_kernel_cancelling_generators():
    x = LaurentPoly.generator("x")
    x_inv = LaurentPoly.monomial(1, {"x": -1})
    for p in (x * x_inv, x_inv * x, P("1 + x*T") - P("x*T"), P("x*T") * P("x^-1*T^-1")):
        assert p.gens == ()
        assert p == LaurentPoly.one()
        assert_canonical(p)
    assert (x - x).gens == ()
    assert (x - x).is_zero()
    assert (P("x^2*T + T") - P("x^2*T")).gens == ("T",)
    assert (P("2*x*T^-1 + y") * P("x^-1*T")).gens == ("T", "x", "y")
    assert LaurentPoly(("y", "x"), {(0, 1): 2, (0, -1): Fraction(1, 2)}).gens == ("x",)
    for p in (LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.constant(0), P("3/2")):
        assert_canonical(p)


def test_key_equal_iff_equal():
    rng = random.Random(75)
    polys = [kernel_poly(rng) for _ in range(100)]
    polys += [p + 0 for p in polys[:30]] + [p * 1 for p in polys[30:60]]
    polys += [P("x"), P("y"), P("1/2*x"), P("2*x"), P("2/4*x"), LaurentPoly.constant(2)]
    keys = [p.key() for p in polys]
    for a, ka in zip(polys, keys):
        for b, kb in zip(polys, keys):
            assert (ka == kb) == (a == b)
            if a == b:
                assert hash(a) == hash(b)


def test_exponent_bound():
    bound = EXPONENT_BOUND
    assert P(f"Q^{bound}").degree("Q") == bound
    assert P(f"Q^-{bound}").degree("Q") == -bound
    assert (P(f"Q^{bound}") * P("Q^-1")).degree("Q") == bound - 1
    # the bound is per generator
    assert (P(f"Q^{bound}") * P(f"T^{bound}")).terms == {(bound, bound): 1}
    for text in (f"Q^{bound + 1}", f"Q^-{bound + 1}", "Q^99999999*T - 1", f"Q^{bound}*Q", "Q^6000*Q^6000"):
        with pytest.raises(ExponentTooLarge):
            P(text)
    # a running exponent sum is bounded whatever the coefficient (see
    # test_laurent_reference.py for the factor orders that exceed it)
    assert P("0*Q^5000*Q^5000") == P("Q^5000*Q^5000*0") == 0
    with pytest.raises(ExponentTooLarge):
        LaurentPoly(("Q",), {(bound + 1,): 1})
    with pytest.raises(ExponentTooLarge):
        LaurentPoly.monomial(1, {"T": -bound - 1})
    half = P(f"1 + Q^{bound // 2 + 1}")
    with pytest.raises(ExponentTooLarge):
        half * half
    with pytest.raises(ExponentTooLarge):
        half ** 2
    with pytest.raises(ExponentTooLarge):
        P("Q^-1 + 1") ** (bound + 1)
    assert P("Q") ** bound == P(f"Q^{bound}")
    # the power itself is bounded too, whatever the base
    assert LaurentPoly.constant(3) ** bound == LaurentPoly.constant(3 ** bound)
    for base in (LaurentPoly.constant(3), LaurentPoly.one(), LaurentPoly.zero(), P("Q^-1 + 1")):
        for k in (bound + 1, 10**8):
            with pytest.raises(ExponentTooLarge):
                base ** k
    with pytest.raises(ExponentTooLarge):
        xi(1, SatakeDatum(), shift=bound)
    with pytest.raises(ExponentTooLarge):
        abelian_L(0, twist_power=bound + 1)


def test_rational_function_basics():
    one = RationalFunction.one()
    assert str(one) == "1"
    f = P("1 - T*X")
    g = P("1 - Q*T")
    r = RationalFunction((f,), (g,))
    assert str(r) == "(1 - T*X) / (1 - Q*T)"
    assert str(RationalFunction((f, g), (f,))) == "(1 - T*X)*(1 - Q*T) / (1 - T*X)"
    assert r.reciprocal() == RationalFunction((g,), (f,))
    assert r * r.reciprocal() == one
    assert r / r == one
    assert RationalFunction.from_poly(f).numerator() == f
    assert (r * r).numerator() == f * f
    assert (r * r).denominator() == g * g


def test_rational_function_cancelled():
    f = P("1 - T*X")
    g = P("1 - Q*T")
    r = RationalFunction((f, g), (f,)).cancelled()
    assert r.num_factors == (g,)
    assert r.den_factors == ()


def test_rational_function_cancelled_multiset():
    f = P("1 - T*X")
    g = P("1 - Q*T")
    h = P("1 - T^2*X^2")
    same_f = P("-T*X + 1")
    r = RationalFunction((f, f, same_f, g, h), (g, f, f, g, h, h))
    c = r.cancelled()
    # two copies of f, one of g and one of h cancel; the first of the
    # remaining denominator copies are kept, in order
    assert c.num_factors == (f,)
    assert c.den_factors == (g, h)
    assert c == r
    point = {"Q": Fraction(2), "T": Fraction(1, 3), "X": Fraction(5)}
    assert c.evaluate(point) == r.evaluate(point)
    assert RationalFunction((f, g), (g, f)).cancelled() == RationalFunction.one()
    assert RationalFunction((f, f), (f,)).cancelled().num_factors == (f,)


def test_rational_function_equality_expansion_bound():
    # products of distinct binomials 1 - a_k*T and 1 - b_k*T share no factor,
    # so equality must expand them; 2**17 possible terms on a side are refused
    def side(name, count):
        return tuple(P(f"1 - {name}{k}*T") for k in range(count))

    assert EXPANSION_BOUND == 2 ** 16
    for count in (17, 40):
        lhs = RationalFunction(side("a", count))
        rhs = RationalFunction(side("b", count))
        with pytest.raises(ExpansionTooLarge, match=f"could give {2 ** count} terms"):
            lhs == rhs
        with pytest.raises(ExpansionTooLarge):
            RationalFunction((), side("a", count)) == RationalFunction.one()
    # each side is bounded on its own, and cancellation comes first
    small = RationalFunction(side("a", 12), side("c", 3))
    assert not small == RationalFunction(side("b", 12), side("c", 3))
    shared = side("a", 20)
    assert RationalFunction(shared) == RationalFunction(tuple(reversed(shared)))
    # three-term factors count as three
    trinomials = tuple(P(f"1 + a{k}*T + a{k}^2*T^2") for k in range(11))
    with pytest.raises(ExpansionTooLarge, match=f"could give {3 ** 11} terms"):
        RationalFunction(trinomials) == RationalFunction.one()


def test_rational_function_equality_expands():
    # equal after cross multiplication even when no factor keys match
    lhs = RationalFunction((P("1 - T^2*X^2"),), (P("1 - T*X"),))
    rhs = RationalFunction.from_poly(P("1 + T*X"))
    assert lhs == rhs
    assert not lhs == RationalFunction.from_poly(P("1 - T*X"))


def test_rational_function_guards():
    # the public constructor and the decoder check each factor; combining does not (test below)
    with pytest.raises(ZeroDivisionError, match="^zero factor in denominator$"):
        RationalFunction((), (P("1 - T"), LaurentPoly.zero()))
    with pytest.raises(TypeError, match="^factors must be Laurent polynomials$"):
        RationalFunction(("1 - T",), ())
    with pytest.raises(TypeError, match="^factors must be Laurent polynomials$"):
        RationalFunction((P("1 - T"),), ("1 - T",))
    payload = to_json(abelian_L(0))
    zero = {"generators": [], "terms": []}
    with pytest.raises(ValueError, match="^rational function: zero factor in denominator$"):
        rational_from_json(dict(payload, denominator_factors=payload["denominator_factors"] + [zero]))
    with pytest.raises(ValueError, match="^poly.generators: missing$"):
        rational_from_json(dict(payload, numerator_factors=["1 - T"]))
    with pytest.raises(TypeError):
        hash(RationalFunction.one())
    # a number is no factor list: * and / return NotImplemented, so Python raises
    for combine in (lambda f: f * 2, lambda f: f / 2, lambda f: 2 * f, lambda f: 2 / f):
        with pytest.raises(TypeError):
            combine(RationalFunction.one())


def test_satake_datum_validation():
    d = SatakeDatum.symbolic(2)
    assert d.params == ("b1", "b2")
    assert d.m == 2
    assert d.character == "X"
    assert SatakeDatum((Fraction(2), "a")).params == (Fraction(2), "a")
    with pytest.raises(ValueError):
        SatakeDatum(("Q",))
    with pytest.raises(ValueError):
        SatakeDatum(("b1", "b1"))
    with pytest.raises(ValueError):
        SatakeDatum((0,))
    with pytest.raises(ValueError):
        SatakeDatum((), character="Y")
    with pytest.raises(ValueError):
        SatakeDatum((), character=0)
    with pytest.raises(ValueError):
        SatakeDatum.symbolic(-1)
    # the symbols are named only up to the bound xi checks; 10^9 of them ran out of memory
    assert SatakeDatum.symbolic(FACTOR_BOUND).m == FACTOR_BOUND
    for m in (FACTOR_BOUND + 1, 10 ** 9):
        with pytest.raises(IndexOutOfRange, match=rf"^{m} Satake parameters exceed the bound 65536$"):
            SatakeDatum.symbolic(m)


def test_abelian_examples():
    assert abelian_L(0).den_factors == (P("1 - T*X"),)
    assert abelian_L(1).den_factors == (P("1 - Q^-2*T*X"),)
    assert abelian_L(Fraction(-1, 2)).den_factors == (P("1 - Q*T*X"),)
    assert abelian_L(0, twist_power=2).den_factors == (P("1 - T^2*X^2"),)
    assert abelian_L(0).num_factors == ()
    with pytest.raises(NotHalfIntegral):
        abelian_L(Fraction(1, 3))
    with pytest.raises(ValueError):
        abelian_L(0, twist_power=0)


def test_abelian_numeric_character():
    # a concrete character value folds into the coefficient
    assert abelian_L(0, character=Fraction(3)).den_factors == (P("1 - 3*T"),)
    assert abelian_L(1, character=Fraction(1, 2)).den_factors == (
        P("1 - 1/2*Q^-2*T"),
    )


@pytest.mark.parametrize("character, error, message", [
    (0, ValueError, "character value must be nonzero"),
    ("Y", ValueError, "symbolic character must be the symbol X"),
    (0.5, TypeError, "not an exact scalar: 0.5"),
    (True, TypeError, "booleans are not scalars"),
], ids=repr)
def test_abelian_reads_its_character_as_the_satake_datum_does(character, error, message):
    # 0 built the non-canonical 1 + 0*T, "Y" became X, 0.5 raised AttributeError and True was 1
    for build in (lambda: abelian_L(0, 1, character), lambda: SatakeDatum((), character)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_standard_factor_counts_and_order():
    assert len(standard_L(0, SatakeDatum()).den_factors) == 1
    assert len(standard_L(0, SatakeDatum.symbolic(1)).den_factors) == 3
    assert len(standard_L(0, SatakeDatum.symbolic(2)).den_factors) == 5
    fs = standard_L(0, SatakeDatum.symbolic(1)).den_factors
    assert fs[0] == P("1 - T*X")
    assert fs[1] == P("1 - T*X*b1")
    assert fs[2] == P("1 - T*X*b1^-1")
    with pytest.raises(NotHalfIntegral):
        standard_L(Fraction(1, 3), SatakeDatum())


def test_standard_numeric_params():
    fs = standard_L(0, SatakeDatum((Fraction(2),))).den_factors
    assert P("1 - 2*T*X") in fs
    assert P("1 - 1/2*T*X") in fs


def one_minus(exps):
    cleaned = {}
    for g, e in exps.items():
        assert e == int(e)
        if e != 0:
            cleaned[g] = int(e)
    return LaurentPoly.one() + LaurentPoly.monomial(-1, cleaned)


def oracle_xi_keys(i, m, shift):
    """Factor multiset of the normalizing product, built from scratch."""
    shift = Fraction(shift)
    keys = []
    for level in range(1, i + 1):
        c = shift + Fraction(2 * level - i - 1, 2)
        base = {"X": 1, "Q": -2 * c, "T": 1}
        keys.append(one_minus(base).key())
        for k in range(1, m + 1):
            keys.append(one_minus({**base, f"b{k}": 1}).key())
            keys.append(one_minus({**base, f"b{k}": -1}).key())
    for p in range(1, i + 1):
        for q in range(p + 1, i + 1):
            c = 2 * shift - i - 1 + p + q
            keys.append(one_minus({"X": 2, "Q": -2 * c, "T": 2}).key())
    return Counter(keys)


def test_xi_small_cases():
    s = SatakeDatum.symbolic(1)
    assert xi(0, s) == RationalFunction.one()
    assert xi(1, s, shift=Fraction(1, 2)).den_factors == standard_L(
        Fraction(1, 2), s
    ).den_factors
    assert len(xi(2, s).den_factors) == 7
    with pytest.raises(IndexOutOfRange):
        xi(-1, s)



def test_factor_count_bound():
    # xi(i) over m parameters has i(2m+1) + i(i-1)/2 factors
    for i, m in ((200, 2), (1, 32767), (361, 0), (0, FACTOR_BOUND), (-5, 1)):
        check_factor_count(i, m)
    for (i, m), message in (
        ((1, 32768), "65537 factors of xi(1)"),
        ((362, 0), "65703 factors of xi(362)"),
        ((0, FACTOR_BOUND + 1), "65537 Satake parameters"),
        ((-1, FACTOR_BOUND + 1), "65537 Satake parameters"),
    ):
        with pytest.raises(IndexOutOfRange, match=rf"^{re.escape(message)} exceed the bound 65536$"):
            check_factor_count(i, m)
    # a datum refuses more parameters than the bound, and xi checks the count of any datum it is given
    with pytest.raises(IndexOutOfRange, match="65537 Satake parameters"):
        SatakeDatum(tuple(range(1, FACTOR_BOUND + 2)))
    with pytest.raises(IndexOutOfRange, match="65537 Satake parameters"):
        xi(0, SatakeDatum._trusted(tuple(range(1, FACTOR_BOUND + 2)), "X"))
    with pytest.raises(IndexOutOfRange, match="65703 factors of xi"):
        gk_value(400, 362, SatakeDatum())
    # a negative i or m is left to the checks that name them
    check_factor_count(1000, -1)
    with pytest.raises(IndexOutOfRange, match="negative"):
        xi(-1000, SatakeDatum())

def test_xi_matches_independent_construction():
    for m in range(3):
        s = SatakeDatum.symbolic(m)
        for i in range(4):
            for shift in (0, Fraction(1, 2), -1):
                got = xi(i, s, shift=shift)
                assert got.num_factors == ()
                keys = Counter(f.key() for f in got.den_factors)
                assert keys == oracle_xi_keys(i, m, shift)


def test_parameter_inversion_symmetry():
    # the standard factor list is stable under b_k -> 1/b_k
    def flip(poly):
        flipped = {}
        for exps, coeff in poly.terms.items():
            new = tuple(
                -e if g.startswith("b") else e for g, e in zip(poly.gens, exps)
            )
            flipped[new] = coeff
        return LaurentPoly(poly.gens, flipped)

    for source in (standard_L(0, SatakeDatum.symbolic(2)), xi(2, SatakeDatum.symbolic(2))):
        keys = Counter(f.key() for f in source.den_factors)
        assert Counter(flip(f).key() for f in source.den_factors) == keys
    assert standard_L(0, SatakeDatum((Fraction(3),))) == standard_L(
        0, SatakeDatum((Fraction(1, 3),))
    )


def test_gk_small_values():
    s = SatakeDatum()
    assert gk_value(3, 0, s) == RationalFunction.one()
    g11 = gk_value(1, 1, s)
    assert g11 == RationalFunction((P("1 - Q^-2*T*X"),), (P("1 - T*X"),))
    assert str(g11) == "(1 - Q^-2*T*X) / (1 - T*X)"
    # xi_1 at shifts 1/2 and 3/2
    g21 = gk_value(2, 1, s)
    assert g21 == RationalFunction((P("1 - Q^-3*T*X"),), (P("1 - Q^-1*T*X"),))
    with pytest.raises(IndexOutOfRange):
        gk_value(1, 2, s)
    with pytest.raises(IndexOutOfRange):
        gk_value(2, -1, s)


def test_gk_ratio_identity_spot():
    s = SatakeDatum.symbolic(1)
    i, j = 3, 2
    half_gap = Fraction(i - j, 2)
    lhs = gk_value(i, j, s) * xi(j, s, shift=half_gap + 1)
    rhs = xi(j, s, shift=half_gap)
    assert lhs == rhs
    pt = {"Q": Fraction(2), "T": Fraction(1, 32), "X": Fraction(1), "b1": Fraction(3)}
    assert lhs.evaluate(pt) == rhs.evaluate(pt)


def test_evaluate_examples():
    assert evaluate(abelian_L(0), {"X": 1, "T": Fraction(1, 4)}) == Fraction(4, 3)
    point = {"X": 1, "Q": 2, "T": Fraction(1, 16)}
    assert evaluate(gk_value(1, 1, SatakeDatum()), point) == Fraction(21, 20)
    assert gk_value(1, 1, SatakeDatum()).evaluate(point) == Fraction(21, 20)
    assert evaluate(P("Q + 1"), {"Q": 1}) == 2
    with pytest.raises(PoleAtPoint):
        evaluate(gk_value(1, 1, SatakeDatum()), {"X": 1, "Q": 1, "T": 1})
    with pytest.raises(MissingAssignment):
        evaluate(gk_value(1, 1, SatakeDatum()), {"X": 1, "Q": 2})


# The Fraction kernel that the integer form replaced, kept as the reference:
# every coefficient a Fraction, both operands rescaled on every product.


def reference_aligned(a, b):
    if a.gens == b.gens:
        return a.gens, a.terms, b.terms
    gens = tuple(sorted(set(a.gens) | set(b.gens)))

    def remap(poly):
        if poly.gens == gens:
            return poly.terms
        idx = [poly.gens.index(g) if g in poly.gens else None for g in gens]
        return {tuple(0 if k is None else e[k] for k in idx): c for e, c in poly.terms.items()}

    return gens, remap(a), remap(b)


def reference_add(a, b):
    gens, x, y = reference_aligned(a, LaurentPoly._coerce(b))
    out = dict(x)
    for e, c in y.items():
        out[e] = out[e] + c if e in out else c
    return LaurentPoly(gens, {e: c for e, c in out.items() if c})


def reference_neg(a):
    return LaurentPoly(a.gens, {e: -c for e, c in a.terms.items()})


def reference_mul(a, b):
    gens, x, y = reference_aligned(a, LaurentPoly._coerce(b))
    for column_x, column_y in zip(zip(*x), zip(*y)):
        _check_exponents(min(column_x) + min(column_y), max(column_x) + max(column_y))
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            e = tuple(i + j for i, j in zip(ex, ey))
            out[e] = out.get(e, 0) + cx * cy
    return LaurentPoly(gens, {e: Fraction(c) for e, c in out.items() if c})


def reference_evaluate(p, assignment):
    values = []
    for g in p.gens:
        if g not in assignment:
            raise MissingAssignment(f"no value for {g}")
        values.append(as_scalar(assignment[g]))
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e:
                if e < 0 and v == 0:
                    raise PoleAtPoint(f"negative power of 0 in {p}")
                term *= v ** e
        total += term
    return total


_KERNEL_GENS = ("Q", "T", "X", "b1", "x")
_KERNEL_EXPONENTS = (-3, -2, -1, 0, 0, 0, 1, 2, 3)
_KERNEL_EDGES = (EXPONENT_BOUND, -EXPONENT_BOUND, EXPONENT_BOUND - 1, 1 - EXPONENT_BOUND, EXPONENT_BOUND // 2 + 1)
_KERNEL_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7))


def kernel_case(rng):
    """A seeded poly, built from Fractions or by arithmetic; a tenth reach the exponent bound."""
    gens = rng.sample(_KERNEL_GENS, rng.randint(0, 4))
    edge = rng.random() < 0.1
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.choice(_KERNEL_EDGES) if edge and rng.random() < 0.3 else rng.choice(_KERNEL_EXPONENTS)
                     for _ in gens)
        num = rng.randint(-6, 6)
        terms[exps] = num if rng.random() < 0.4 else Fraction(num, rng.choice((1, 2, 3, 4, 6, 9)))
    p = LaurentPoly(gens, terms)
    route = rng.randrange(4)
    if route == 1:
        p = LaurentPoly.parse(str(p))
    elif route == 2:
        # a sum of monomials: the integer form, built by additions
        total = LaurentPoly.zero()
        for exps, c in p.terms.items():
            total = total + LaurentPoly.monomial(c, dict(zip(p.gens, exps)))
        p = total
    elif route == 3:
        p = p * rng.choice((1, -1, Fraction(2, 3), Fraction(-7, 4)))
    return p


def kernel_partner(rng, a):
    """Another case, or one that cancels some or all of a's terms."""
    roll = rng.random()
    if roll < 0.25:
        # the sum drops generators that only a's cancelled terms used
        keep = {e: c for e, c in a.terms.items() if rng.random() < 0.5}
        b = LaurentPoly(a.gens, {e: -c for e, c in a.terms.items() if e not in keep})
        return b + LaurentPoly.constant(rng.choice((0, 1, Fraction(1, 3))))
    if roll < 0.35:
        return -a
    return kernel_case(rng)


def kernel_outcome(thunk):
    """gens, ordered terms with their types, or the exception raised."""
    try:
        p = thunk()
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)
    return p.gens, list(p.terms.items()), [type(c) for c in p.terms.values()]


def value_outcome(thunk):
    try:
        return thunk()
    except DomainError as exc:
        return type(exc), str(exc)


def kernel_point(rng, p):
    point = {g: rng.choice(_KERNEL_VALUES) for g in p.gens}
    if p.gens and rng.random() < 0.1:
        del point[rng.choice(p.gens)]
    return point


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(77)
    seen = Counter()
    results = []
    for _ in range(1200):
        a = kernel_case(rng)
        b = kernel_partner(rng, a)
        pairs = [
            (lambda: a * b, lambda: reference_mul(a, b)),
            (lambda: a + b, lambda: reference_add(a, b)),
            (lambda: a - b, lambda: reference_add(a, reference_neg(b))),
            (lambda: -a, lambda: reference_neg(a)),
        ]
        for got, want in pairs:
            outcome = kernel_outcome(got)
            assert outcome == kernel_outcome(want), (a, b)
            if outcome[0] is ExponentTooLarge:
                seen["ExponentTooLarge"] += 1
            else:
                p = got()
                results.append((p, want()))
                seen["zero" if p.is_zero() else "poly"] += 1
                seen["dropped"] += len(p.gens) < len(set(a.gens) | set(b.gens))
        for p in (a, b):
            point = kernel_point(rng, p)
            value = value_outcome(lambda: p.evaluate(point))
            assert value == value_outcome(lambda: reference_evaluate(p, point)), (p, point)
            seen[value[0].__name__ if isinstance(value, tuple) else "value"] += 1
            seen["at bound"] += any(abs(e) >= EXPONENT_BOUND - 1 for exps in p.terms for e in exps)
    assert min(seen.values()) >= 30, seen
    # key equality is equality of the Fraction terms, and equal polys hash alike
    sample = rng.sample(results, 150)
    for p, ref in sample:
        again = LaurentPoly(p.gens, p.terms)
        assert p == again and p.key() == again.key() and hash(p) == hash(again)
        for q, other in sample:
            same = (ref.gens, ref.terms) == (other.gens, other.terms)
            assert (p.key() == q.key()) == same == (p == q)
            if same:
                assert hash(p) == hash(q)


def test_integer_kernel_edge_cases():
    q = LaurentPoly.generator("Q")
    bound = P(f"1/2*Q^{EXPONENT_BOUND} + 3")
    low = P(f"2/3*Q^-{EXPONENT_BOUND} - 1/6")
    point = {"Q": Fraction(5, 7)}
    for p in (bound * low, bound + low, bound - bound * 1, low * q, q * low):
        assert kernel_outcome(lambda: p) == kernel_outcome(lambda: LaurentPoly(p.gens, p.terms))
        assert p.evaluate(point) == reference_evaluate(p, point)
    assert (bound * low).terms[(0,)] == Fraction(1, 3) - Fraction(1, 2)
    for x, y, bad in ((bound, q, EXPONENT_BOUND + 1), (low, P("Q^-1"), -EXPONENT_BOUND - 1),
                      (bound, bound, 2 * EXPONENT_BOUND)):
        message = f"exponent {bad} exceeds the bound {EXPONENT_BOUND}"
        assert kernel_outcome(lambda: x * y) == kernel_outcome(lambda: reference_mul(x, y)) == (ExponentTooLarge, message)
    # rational coefficients that cancel reduce to the integer form of 1
    half = P("1/2*T + 1/2")
    assert (half + half - P("T")).is_one()
    assert (half * 2 - P("T")).key() == LaurentPoly.one().key()
    # poles and missing values are reported in the same order as before
    pole = P("Q^-1*T + X")
    for at, error in (({"Q": 0, "T": 1}, MissingAssignment), ({"Q": 0, "T": 1, "X": 1}, PoleAtPoint)):
        with pytest.raises(error) as raised:
            pole.evaluate(at)
        assert value_outcome(lambda: reference_evaluate(pole, at)) == (error, str(raised.value))
    assert P("Q^2*T^-1").evaluate({"Q": 0, "T": 3}) == 0


# The L-factor builders before the integer form: binomials with Fraction
# coefficients, and xi as one RationalFunction product per factor.


def reference_binomial(character, char_power, q_power, t_power, param=None, param_power=0):
    coeff = Fraction(-1)
    exps = {"T": t_power}
    if isinstance(character, str):
        exps["X"] = char_power
    else:
        coeff *= character ** char_power
    if q_power:
        exps["Q"] = q_power
    if param is not None and param_power:
        if isinstance(param, str):
            exps[param] = param_power
        else:
            coeff *= param ** param_power
    _check_exponents(min(exps.values()), max(exps.values()))
    gens = tuple(sorted(exps))
    return LaurentPoly(gens, {(0,) * len(gens): Fraction(1), tuple(exps[g] for g in gens): coeff})


def reference_abelian_L(shift, twist_power=1, character="X"):
    return RationalFunction((), (reference_binomial(character, twist_power, int(-2 * shift), twist_power),))


def reference_standard_L(shift, satake):
    q_power = int(-2 * shift)
    chi = satake.character
    factors = [reference_binomial(chi, 1, q_power, 1)]
    for p in satake.params:
        factors.append(reference_binomial(chi, 1, q_power, 1, p, 1))
        factors.append(reference_binomial(chi, 1, q_power, 1, p, -1))
    return RationalFunction((), tuple(factors))


def reference_xi(i, satake, shift=0):
    result = RationalFunction.one()
    for level in range(1, i + 1):
        result = result * reference_standard_L(shift + Fraction(2 * level - i - 1, 2), satake)
    for p in range(1, i + 1):
        for q in range(p + 1, i + 1):
            result = result * reference_abelian_L(2 * shift - i - 1 + p + q, 2, satake.character)
    return result


def reference_gk_value(i, j, satake):
    half_gap = Fraction(i - j, 2)
    return reference_xi(j, satake, half_gap) / reference_xi(j, satake, half_gap + 1)


def factor_outcome(r):
    """Both factor tuples, in order, as gens, ordered Fraction terms and keys."""
    return [[(f.gens, list(f.terms.items()), f.key()) for f in side] for side in (r.num_factors, r.den_factors)]


_SATAKES = [SatakeDatum.symbolic(m) for m in range(4)] + [
    SatakeDatum((Fraction(2),), Fraction(-1, 5)),
    SatakeDatum((Fraction(5, 7), "b2"), Fraction(3)),
    SatakeDatum(("b1", Fraction(-1, 5), Fraction(7, 2)), "X"),
    SatakeDatum((Fraction(11), Fraction(1, 3), "b3"), Fraction(2, 9)),
]


@pytest.mark.parametrize("satake", _SATAKES, ids=repr)
def test_factor_builders_match_the_product_loop(satake):
    for shift in (Fraction(k, 2) for k in range(-4, 5)):
        assert factor_outcome(standard_L(shift, satake)) == factor_outcome(reference_standard_L(shift, satake))
        for twist in (1, 2, 3):
            assert factor_outcome(abelian_L(shift, twist, satake.character)) == factor_outcome(
                reference_abelian_L(shift, twist, satake.character)
            )
        for i in range(6):
            assert factor_outcome(xi(i, satake, shift)) == factor_outcome(reference_xi(i, satake, shift))
    for i in range(6):
        for j in range(i + 1):
            assert factor_outcome(gk_value(i, j, satake)) == factor_outcome(reference_gk_value(i, j, satake))


def reference_rational_evaluate(f, assignment):
    """RationalFunction.evaluate before it reduced once: one Fraction product per factor."""
    total = Fraction(1)
    for g in f.num_factors:
        total *= g.evaluate(assignment)
    for g in f.den_factors:
        v = g.evaluate(assignment)
        if v == 0:
            raise PoleAtPoint(f"denominator factor {g} vanishes")
        total /= v
    return total


def test_rational_evaluate_matches_per_factor_reference():
    rng = random.Random(78)
    seen = Counter()
    cases = [gk_value(i, j, SatakeDatum(params)) for i in range(4) for j in range(i + 1)
             for params in ((), ("b1",), (2, "b1"))]
    for _ in range(500):
        num = [kernel_case(rng) for _ in range(rng.randint(0, 4))]
        den = [p for p in (kernel_case(rng) for _ in range(rng.randint(0, 4))) if not p.is_zero()]
        cases.append(RationalFunction(num, den))
    for f in cases:
        gens = sorted({g for p in f.num_factors + f.den_factors for g in p.gens})
        point = {g: rng.choice(_KERNEL_VALUES) for g in gens}
        if gens and rng.random() < 0.15:
            del point[rng.choice(gens)]
        got = value_outcome(lambda: f.evaluate(point))
        assert got == value_outcome(lambda: reference_rational_evaluate(f, point)), (f, point)
        if isinstance(got, tuple):
            seen[got[0].__name__] += 1
        else:
            assert type(got) is Fraction
            seen["zero" if got == 0 else "value"] += 1
    assert set(seen) == {"MissingAssignment", "PoleAtPoint", "zero", "value"}, seen
    assert min(seen.values()) >= 20, seen


def test_combining_never_revalidates(monkeypatch):
    s = SatakeDatum.symbolic(1)
    a, b = gk_value(3, 1, s), xi(2, s)
    big, small = xi(200, s), xi(199, s)
    built = []
    init = RationalFunction.__init__

    def counted(self, num_factors=(), den_factors=()):
        built.append(1)
        init(self, num_factors, den_factors)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    products = a * b, a / b, a.reciprocal(), a.cancelled()
    assert not a == b
    assert a * b.reciprocal() == a / b
    assert built == []
    assert products[0].den_factors == a.den_factors + b.den_factors
    assert products[2].num_factors == a.den_factors
    # a one-factor side expands to that factor, not to a product with 1
    assert RationalFunction._trusted((a.den_factors[0],), ()).numerator() is a.den_factors[0]
    # 40,798 factors: re-checking each took 2.46 ms, the two tuple concatenations under 0.01 ms
    seconds = min(_timed(lambda: big / small) for _ in range(5))
    assert seconds < 0.001
    assert built == []


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_memoized_factors_give_the_reference_factors():
    _binomial.cache_clear()
    numbers = (Fraction(2), Fraction(-5, 7), Fraction(1, 3))
    satakes = [SatakeDatum(params[:m], chi) for m in range(4) for params in (("b1", "b2", "b3"), numbers)
               for chi in ("X", Fraction(2), Fraction(-1, 5))]
    for _ in range(2):  # the second pass reads every factor from the memo
        for satake in satakes:
            chi = satake.character
            for q in range(-3, 4):
                shift = Fraction(-q, 2)
                cases = [(_binomials(chi, 1, (q,), satake.params), ref.standard_L_factors(shift, satake))]
                cases += [(_binomials(chi, power, (q,)), ref.abelian_L_factors(shift, power, chi)) for power in (1, 2)]
                for got, reference in cases:
                    want = [LaurentPoly(f.gens, f.terms) for f in reference]
                    assert got == want
                    assert [str(f) for f in got] == [str(f) for f in reference]
                    assert [(f.gens, f.den) for f in got] == [(f.gens, f.den) for f in reference]
                    assert [f._packed for f in got] == [f._packed for f in want]
                    assert [f._reach for f in got] == [f._reach for f in want]
        assert _binomial.cache_info().hits > 0


def test_memo_is_bounded_in_factors():
    # xi(2) over 4,000 symbols has 16,003 factors, all distinct; the memo keeps at most its bound of them
    _binomial.cache_clear()
    assert len(xi(2, SatakeDatum.symbolic(4000)).den_factors) == 16003
    info = _binomial.cache_info()
    assert info.currsize == info.maxsize == 1024
    assert info.misses == 16003


def test_memo_builds_each_distinct_factor_of_xi_once():
    # a pair's factor depends only on p + q, so xi(200)'s 20,100 factors are 597 distinct ones
    _binomial.cache_clear()
    factors = xi(200, SatakeDatum.symbolic(0)).den_factors
    assert len(factors) == 20100
    assert len({id(f) for f in factors}) == len(set(factors)) == 597
    assert _binomial.cache_info().currsize == 597


def test_memo_hit_still_checks_the_exponent_bound():
    edge, past = Fraction(EXPONENT_BOUND, 2), Fraction(EXPONENT_BOUND + 1, 2)
    message = f"^exponent {-EXPONENT_BOUND - 1} exceeds the bound {EXPONENT_BOUND}$"
    _binomial.cache_clear()
    for _ in range(2):  # a refused call, first or repeated, builds no factor
        with pytest.raises(ExponentTooLarge, match=message):
            abelian_L(past)
    # nor does a refused twist power, whose coefficient 2^power would otherwise be kept
    with pytest.raises(ExponentTooLarge, match=f"^exponent {EXPONENT_BOUND + 1} exceeds the bound {EXPONENT_BOUND}$"):
        abelian_L(0, EXPONENT_BOUND + 1, 2)
    # and the power is refused before its coefficient 3^(10^9) is computed
    with pytest.raises(ExponentTooLarge, match=f"^exponent {10 ** 9} exceeds the bound {EXPONENT_BOUND}$"):
        abelian_L(0, 10 ** 9, 3)
    assert _binomial.cache_info().currsize == 0
    assert str(abelian_L(edge)) == f"1 / (1 - Q^{-EXPONENT_BOUND}*T*X)"
    assert _binomial.cache_info().currsize == 1
    # the factor is now in the memo, and the shift past the edge is still refused
    with pytest.raises(ExponentTooLarge, match=message):
        abelian_L(past)
    for build in (lambda: xi(1, SatakeDatum.symbolic(1), past), lambda: standard_L(past, SatakeDatum.symbolic(1))):
        for _ in range(2):
            with pytest.raises(ExponentTooLarge, match=message):
                build()
    assert _binomial.cache_info().currsize == 1
