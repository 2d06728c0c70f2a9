"""Unramified local L-factor products for the doubling construction.

Everything is expressed in the symbols

    Q = q^(1/2)   (square root of the residue cardinality)
    T = q^(-s)    (the complex variable, packaged multiplicatively)
    X = chi(pi)   (value of the twisting character at a uniformizer)
    b1, ..., bm   (Satake parameters of the inner form)

so a shift s -> s + c multiplies T by Q^(-2c). L-factors are reciprocals
of binomials 1 - (monomial); we keep the binomials as explicit factor
lists instead of expanding, which keeps ratios exact and printable.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from operator import mul

from .errors import EXPANSION_BOUND, FACTOR_BOUND, Frozen, IndexOutOfRange, NotHalfIntegral, PoleAtPoint
from .laurent import LaurentPoly, _check_exponents
from .scalars import as_int, as_scalar, format_scalar, is_integer

_RESERVED = ("Q", "T", "X")


def _character(character):
    """The character value at a uniformizer: the symbol X or a nonzero rational."""
    if isinstance(character, str):
        if character != "X":
            raise ValueError("symbolic character must be the symbol X")
        return character
    character = as_scalar(character)
    if character == 0:
        raise ValueError("character value must be nonzero")
    return character


class SatakeDatum(Frozen):
    """Satake parameters b_1..b_m plus the character value at a uniformizer.

    Entries may be symbol names (kept as generators) or exact nonzero
    rationals (folded into coefficients). character is the string "X"
    for a symbolic twist or a nonzero rational for a concrete one.
    """

    __slots__ = ("params", "character")

    def __init__(self, params=(), character="X"):
        params = tuple(params)
        FACTOR_BOUND.check(len(params), "Satake parameters")
        cleaned = []
        seen = set()
        for p in params:
            if isinstance(p, str):
                if not p or p in _RESERVED:
                    raise ValueError(f"bad Satake symbol {p!r}")
                if p in seen:
                    raise ValueError(f"repeated Satake symbol {p!r}")
                seen.add(p)
                cleaned.append(p)
            else:
                value = as_scalar(p)
                if value == 0:
                    raise ValueError("numeric Satake parameters must be nonzero")
                cleaned.append(value)
        self._set(tuple(cleaned), _character(character))

    @property
    def m(self):
        return len(self.params)

    @classmethod
    def symbolic(cls, m):
        m = as_int(m)
        if m < 0:
            raise ValueError("m must be nonnegative")
        check_factor_count(0, m)
        return cls(tuple(f"b{k}" for k in range(1, m + 1)), "X")


# Factors recur: a pair's factor in xi(i) depends only on p + q, so 20,100
# factors of xi(200) are 597 distinct ones. The bound is in factors, so that
# a datum of FACTOR_BOUND parameters cannot hold its more than 2^17 of them.
@lru_cache(maxsize=1024)
def _binomial(character, power, q, param, d):
    """The factor 1 - chi^power * Q^q * T^power * param^d, with Q left out when q = 0.

    A symbol is a generator and a number is folded into the coefficient.
    """
    exps, coeff = {"T": power, "Q": q}, 1
    if isinstance(character, str):
        exps["X"] = power
    else:
        coeff *= character ** power
    if isinstance(param, str):
        exps[param] = d
    elif param is not None:
        coeff *= param ** d
    return LaurentPoly._one_minus(coeff, exps)


def _binomials(character, power, q_powers, params=()):
    """The factors 1 - chi^a * Q^b * T^a * p^d: for each b in q_powers, the
    one with no p and then, for each p in params, d = 1 and -1.

    Every exponent is checked before any factor is built, so a refused call adds nothing to the memo.
    """
    q_powers = tuple(q_powers)
    for q in q_powers:
        _check_exponents(min(q, power), max(q, power))
    slots = (None, 0), *((p, d) for p in params for d in (1, -1))
    return [_binomial(character, power, q, param, d) for q in q_powers for param, d in slots]


def _expanded(factors):
    """The product of the factors, expanded one LaurentPoly product at a time from the first."""
    return reduce(mul, factors) if factors else LaurentPoly.one()


def _factor_key(f):
    """A hashable key, equal for equal factors."""
    return f.gens, f.den, frozenset(f._packed.items())


class RationalFunction(Frozen):
    """A ratio of products of polynomial factors, kept unexpanded; equality cancels factors."""

    __slots__ = ("num_factors", "den_factors")

    def __init__(self, num_factors=(), den_factors=()):
        num_factors, den_factors = tuple(num_factors), tuple(den_factors)
        for f in num_factors + den_factors:
            if not isinstance(f, LaurentPoly):
                raise TypeError("factors must be Laurent polynomials")
        if any(f.is_zero() for f in den_factors):
            raise ZeroDivisionError("zero factor in denominator")
        self._set(num_factors, den_factors)

    @classmethod
    def one(cls):
        return cls((), ())

    @classmethod
    def from_poly(cls, poly):
        return cls((poly,), ())

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction._trusted(self.num_factors + other.num_factors, self.den_factors + other.den_factors)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction._trusted(self.num_factors + other.den_factors, self.den_factors + other.num_factors)

    def reciprocal(self):
        return RationalFunction._trusted(self.den_factors, self.num_factors)

    def numerator(self):
        return _expanded(self.num_factors)

    def denominator(self):
        return _expanded(self.den_factors)

    def cancelled(self):
        """Drop factors that appear (with multiplicity) on both sides."""
        den_keys = [_factor_key(f) for f in self.den_factors]
        remaining = Counter(den_keys)
        num = []
        for f in self.num_factors:
            k = _factor_key(f)
            if remaining[k] > 0:
                remaining[k] -= 1
            else:
                num.append(f)
        den = []
        for f, k in zip(self.den_factors, den_keys):
            if remaining[k] > 0:
                remaining[k] -= 1
                den.append(f)
        return RationalFunction._trusted(tuple(num), tuple(den))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        diff = (self / other).cancelled()
        if not diff.num_factors and not diff.den_factors:
            return True
        for side in (diff.num_factors, diff.den_factors):
            EXPANSION_BOUND.check(prod(len(f._packed) for f in side), len(side))
        return diff.numerator() == diff.denominator()

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def evaluate(self, assignment):
        """Exact value; numerators and denominators are multiplied apart and reduced once."""
        num = den = 1
        for f in self.num_factors:
            v = f.evaluate(assignment)
            num *= v.numerator
            den *= v.denominator
        for f in self.den_factors:
            v = f.evaluate(assignment)
            if v == 0:
                raise PoleAtPoint(f"denominator factor {f} vanishes")
            num *= v.denominator
            den *= v.numerator
        return Fraction(num, den)

    def __str__(self):
        num = "*".join(f"({f})" for f in self.num_factors) or "1"
        if not self.den_factors:
            return num
        den = "*".join(f"({f})" for f in self.den_factors)
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalFunction({self})"


def _doubled(shift):
    """2 * shift as an int, for a half-integral shift."""
    shift = as_scalar(shift)
    if not is_integer(2 * shift):
        raise NotHalfIntegral(f"shift {format_scalar(shift)} is not half-integral")
    return int(2 * shift)


def abelian_L(shift, twist_power=1, character="X"):
    """L-factor of a twisted abelian character, 1/(1 - chi^a Q^(-2c) T^a)."""
    shift = _doubled(shift)
    twist_power = as_int(twist_power)
    if twist_power <= 0:
        raise ValueError("twist power must be positive")
    return RationalFunction((), _binomials(_character(character), twist_power, (-shift,)))


def standard_L(shift, satake):
    """Twisted standard L-factor, with 2m+1 binomials in the denominator, refused above FACTOR_BOUND as in xi(1)."""
    FACTOR_BOUND.check(2 * satake.m + 1, "factors of standard_L")
    return RationalFunction((), _binomials(satake.character, 1, (-_doubled(shift),), satake.params))


def check_factor_count(i, m):
    """Refuse more than FACTOR_BOUND Satake parameters or factors of xi(i).

    A negative i or m is left to the check that names it.
    """
    FACTOR_BOUND.check(m, "Satake parameters")
    factors = i * (2 * m + 1) + i * (i - 1) // 2 if i > 0 and m >= 0 else 0
    FACTOR_BOUND.check(factors, "factors of xi(", i, ")")


def xi(i, satake, shift=0):
    """The normalizing product of i standard factors and the abelian pairs."""
    i = as_int(i)
    if i < 0:
        raise IndexOutOfRange(f"xi index {format_scalar(i)} is negative")
    check_factor_count(i, satake.m)
    shift = as_scalar(shift)
    if not i:
        return RationalFunction((), ())
    # the level-1 shift is the first one checked for half-integrality
    doubled = _doubled(shift + Fraction(1 - i, 2)) + i - 1
    levels = (i + 1 - 2 * level - doubled for level in range(1, i + 1))
    pairs = (2 * (i + 1 - p - q - doubled) for p in range(1, i + 1) for q in range(p + 1, i + 1))
    chi = satake.character
    return RationalFunction((), _binomials(chi, 1, levels, satake.params) + _binomials(chi, 2, pairs))


def gk_value(i, j, satake):
    """Ratio of consecutive normalizing factors attached to a corank drop."""
    i, j = as_int(i), as_int(j)
    if not 0 <= j <= i:
        raise IndexOutOfRange(f"need 0 <= j <= i, got i={format_scalar(i)}, j={format_scalar(j)}")
    half_gap = Fraction(i - j, 2)
    return xi(j, satake, shift=half_gap) / xi(j, satake, shift=half_gap + 1)


def evaluate(f, assignment):
    """Evaluate a rational function or polynomial at exact rational values."""
    values = {name: as_scalar(v) for name, v in assignment.items()}
    return f.evaluate(values)
