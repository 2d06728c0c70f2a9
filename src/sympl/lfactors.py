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
from math import prod

from .errors import ExpansionTooLarge, IndexOutOfRange, NotHalfIntegral, PoleAtPoint
from .laurent import LaurentPoly, _check_exponents
from .scalars import as_int, as_scalar, is_integer

_RESERVED = ("Q", "T", "X")


class SatakeDatum:
    """Satake parameters b_1..b_m plus the character value at a uniformizer.

    Entries may be symbol names (kept as generators) or exact nonzero
    rationals (folded into coefficients). character is the string "X"
    for a symbolic twist or a nonzero rational for a concrete one.
    """

    __slots__ = ("params", "character")

    def __init__(self, params=(), character="X"):
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
        if isinstance(character, str):
            if character != "X":
                raise ValueError("symbolic character must be the symbol X")
        else:
            character = as_scalar(character)
            if character == 0:
                raise ValueError("character value must be nonzero")
        object.__setattr__(self, "params", tuple(cleaned))
        object.__setattr__(self, "character", character)

    def __setattr__(self, name, value):
        raise AttributeError("SatakeDatum is immutable")

    @property
    def m(self):
        return len(self.params)

    @classmethod
    def symbolic(cls, m):
        m = as_int(m)
        if m < 0:
            raise ValueError("m must be nonnegative")
        return cls(tuple(f"b{k}" for k in range(1, m + 1)), "X")

    def __repr__(self):
        return f"SatakeDatum(params={self.params!r}, character={self.character!r})"


def _binomial(character, char_power, q_power, t_power, param=None, param_power=0):
    """The factor 1 - chi^a * Q^b * T^c * (b_k)^d, c != 0, as a Laurent polynomial."""
    coeff = -1
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
    num = {(0,) * len(gens): coeff.denominator, tuple(exps[g] for g in gens): coeff.numerator}
    return LaurentPoly._integral(gens, num, coeff.denominator)


# An equality test that cancellation cannot settle expands both sides;
# the product of a side's term counts bounds its expanded size.
EXPANSION_BOUND = 2 ** 16


def _expanded(factors):
    """The product of the factors, expanded one LaurentPoly product at a time."""
    result = LaurentPoly.one()
    for f in factors:
        result = result * f
    return result


class RationalFunction:
    """A ratio of products of polynomial factors, kept unexpanded."""

    __slots__ = ("num_factors", "den_factors")

    def __init__(self, num_factors=(), den_factors=()):
        num = tuple(num_factors)
        den = tuple(den_factors)
        for f in num + den:
            if not isinstance(f, LaurentPoly):
                raise TypeError("factors must be Laurent polynomials")
        if any(f.is_zero() for f in den):
            raise ZeroDivisionError("zero factor in denominator")
        object.__setattr__(self, "num_factors", num)
        object.__setattr__(self, "den_factors", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def one(cls):
        return cls((), ())

    @classmethod
    def from_poly(cls, poly):
        return cls((poly,), ())

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num_factors + other.num_factors,
            self.den_factors + other.den_factors,
        )

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num_factors + other.den_factors,
            self.den_factors + other.num_factors,
        )

    def reciprocal(self):
        return RationalFunction(self.den_factors, self.num_factors)

    def numerator(self):
        return _expanded(self.num_factors)

    def denominator(self):
        return _expanded(self.den_factors)

    def cancelled(self):
        """Drop factors that appear (with multiplicity) on both sides."""
        den_keys = [f.key() for f in self.den_factors]
        remaining = Counter(den_keys)
        num = []
        for f in self.num_factors:
            k = f.key()
            if remaining[k] > 0:
                remaining[k] -= 1
            else:
                num.append(f)
        den = []
        for f, k in zip(self.den_factors, den_keys):
            if remaining[k] > 0:
                remaining[k] -= 1
                den.append(f)
        return RationalFunction(tuple(num), tuple(den))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        diff = (self / other).cancelled()
        if not diff.num_factors and not diff.den_factors:
            return True
        for side in (diff.num_factors, diff.den_factors):
            size = prod(len(f.numerators) for f in side)
            if size > EXPANSION_BOUND:
                raise ExpansionTooLarge(
                    f"expanding {len(side)} factors could give {size} terms, "
                    f"above the bound {EXPANSION_BOUND}"
                )
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


def abelian_L(shift, twist_power=1, character="X"):
    """L-factor of a twisted abelian character, 1/(1 - chi^a Q^(-2c) T^a)."""
    shift = as_scalar(shift)
    if not is_integer(2 * shift):
        raise NotHalfIntegral(f"shift {shift} is not half-integral")
    twist_power = as_int(twist_power)
    if twist_power <= 0:
        raise ValueError("twist power must be positive")
    factor = _binomial(character, twist_power, int(-2 * shift), twist_power)
    return RationalFunction((), (factor,))


def standard_L(shift, satake):
    """Twisted standard L-factor, with 2m+1 binomials in the denominator."""
    shift = as_scalar(shift)
    if not is_integer(2 * shift):
        raise NotHalfIntegral(f"shift {shift} is not half-integral")
    q_power = int(-2 * shift)
    chi = satake.character
    factors = [_binomial(chi, 1, q_power, 1)]
    for p in satake.params:
        factors.append(_binomial(chi, 1, q_power, 1, p, 1))
        factors.append(_binomial(chi, 1, q_power, 1, p, -1))
    return RationalFunction((), tuple(factors))


# xi(i) over m Satake parameters is a product of i(2m+1) + i(i-1)/2
# binomials, each one built; the bound keeps that product, and the m
# parameter symbols named before it, from growing without end.
FACTOR_BOUND = 2 ** 16


def check_factor_count(i, m):
    """Refuse more than FACTOR_BOUND Satake parameters or factors of xi(i).

    A negative i or m is left to the check that names it.
    """
    factors = i * (2 * m + 1) + i * (i - 1) // 2 if i > 0 and m >= 0 else 0
    for count, what in ((m, "Satake parameters"), (factors, f"factors of xi({i})")):
        if count > FACTOR_BOUND:
            raise IndexOutOfRange(f"{count} {what} exceed the bound {FACTOR_BOUND}")


def xi(i, satake, shift=0):
    """The normalizing product of i standard factors and the abelian pairs."""
    i = as_int(i)
    if i < 0:
        raise IndexOutOfRange(f"xi index {i} is negative")
    check_factor_count(i, satake.m)
    shift = as_scalar(shift)
    factors = []
    for level in range(1, i + 1):
        factors += standard_L(shift + Fraction(2 * level - i - 1, 2), satake).den_factors
    for p in range(1, i + 1):
        for q in range(p + 1, i + 1):
            factors += abelian_L(
                2 * shift - i - 1 + p + q, twist_power=2, character=satake.character
            ).den_factors
    return RationalFunction((), factors)


def gk_value(i, j, satake):
    """Ratio of consecutive normalizing factors attached to a corank drop."""
    i, j = as_int(i), as_int(j)
    if not 0 <= j <= i:
        raise IndexOutOfRange(f"need 0 <= j <= i, got i={i}, j={j}")
    half_gap = Fraction(i - j, 2)
    return xi(j, satake, shift=half_gap) / xi(j, satake, shift=half_gap + 1)


def evaluate(f, assignment):
    """Evaluate a rational function or polynomial at exact rational values."""
    values = {name: as_scalar(v) for name, v in assignment.items()}
    return f.evaluate(values)
