"""The tuple-keyed Laurent kernel and the per-factor L-factor builders,
kept as the reference for the packed kernel in `sympl.laurent` and the
one-pass binomial builder in `sympl.lfactors`.

`LaurentPoly` here stores each exponent vector as a tuple of ints; it is
the kernel `sympl.laurent` had before exponent vectors were packed into
one int per term. `standard_L_factors`, `abelian_L_factors` and
`xi_factors` build every binomial through the public constructor path,
one call per factor, as `xi` did before its binomials were built packed.
`pit_vanishes` merges exponent columns read from the tuple keys.
The tests compare the two kernels term by term and message by message.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter

from sympl.errors import DegreeExceedsGrid, ExponentTooLarge, MissingAssignment, NotHalfIntegral, PoleAtPoint
from sympl.fourier import _variable_position
from sympl.scalars import as_int, as_scalar, format_scalar, is_integer

# Far above every exponent the L-factor products reach; it keeps
# evaluation (v ** e) and expansion from running without end.
EXPONENT_BOUND = 10_000

_ZERO = Fraction(0)
# name, number, operator, or any other character (which the parser refuses)
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+(?:/\d+)?)|([-+*^])|(\S))")
_END = ("", "", None, "")


def _check_exponents(low, high):
    if low < -EXPONENT_BOUND or high > EXPONENT_BOUND:
        bad = low if low < -EXPONENT_BOUND else high
        raise ExponentTooLarge(f"exponent {bad} exceeds the bound {EXPONENT_BOUND}")


def _drop_unused(gens, terms):
    """Remove the generators whose exponent is zero in every term."""
    used = [k for k, column in enumerate(zip(*terms)) if any(column)]
    if len(used) == len(gens):
        return gens, terms
    return (
        tuple(gens[k] for k in used),
        {tuple(e[k] for k in used): c for e, c in terms.items()},
    )


def _scaled(terms):
    """Integer numerators over one common denominator of the coefficients."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _reduced(num, den):
    """Drop zero numerators and divide out their common factor with den."""
    num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    return num, den


class LaurentPoly:
    __slots__ = ("gens", "numerators", "den", "_terms")

    def __init__(self, gens=(), terms=None):
        gens = tuple(gens)
        if len(set(gens)) < len(gens):
            raise ValueError(f"repeated generator in {gens}")
        cleaned = {}
        for exps, coeff in ({} if terms is None else terms).items():
            coeff = as_scalar(coeff)
            if coeff == 0:
                continue
            exps = tuple(as_int(e) for e in exps)
            if len(exps) != len(gens):
                raise ValueError("exponent vector length does not match generators")
            if exps:
                _check_exponents(min(exps), max(exps))
            cleaned[exps] = cleaned.get(exps, _ZERO) + coeff
        order = sorted(range(len(gens)), key=gens.__getitem__)
        terms = {tuple(e[k] for k in order): c for e, c in cleaned.items() if c != 0}
        self._set(tuple(gens[k] for k in order), *_scaled(terms))

    def _set(self, gens, num, den):
        gens, num = _drop_unused(gens, num)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "numerators", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _integral(cls, gens, num, den):
        """Wrap sorted gens and a canonical integer form, dropping unused gens."""
        self = object.__new__(cls)
        self._set(gens, num, den)
        return self

    @property
    def terms(self):
        """The read-only {exponents: Fraction} view, built on first read."""
        if self._terms is None:
            den = self.den
            object.__setattr__(self, "_terms", {e: Fraction(c, den) for e, c in self.numerators.items()})
        return self._terms

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls._integral((), {}, 1)

    @classmethod
    def one(cls):
        return cls._integral((), {(): 1}, 1)

    @classmethod
    def constant(cls, c):
        c = as_scalar(c)
        return cls._integral((), {(): c.numerator} if c else {}, c.denominator)

    @classmethod
    def generator(cls, name):
        return cls._integral((name,), {(1,): 1}, 1)

    @classmethod
    def monomial(cls, coeff, exps=None):
        coeff = as_scalar(coeff)
        if not coeff:
            return cls.zero()
        exps = {g: as_int(e) for g, e in dict(exps or {}).items()}
        gens = tuple(sorted(g for g, e in exps.items() if e))
        mono = tuple(exps[g] for g in gens)
        if mono:
            _check_exponents(min(mono), max(mono))
        return cls._integral(gens, {mono: coeff.numerator}, coeff.denominator)

    def is_zero(self):
        return not self.numerators

    def is_one(self):
        return self.numerators == {(): 1} and self.den == 1

    def constant_value(self):
        if self.gens:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), _ZERO)

    def key(self):
        """Hashable canonical key, equal iff the polynomials are equal."""
        return self.gens, self.den, tuple(sorted(self.numerators.items()))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.gens == other.gens and self.den == other.den and self.numerators == other.numerators

    def __hash__(self):
        return hash(self.key())

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.constant(as_scalar(x))

    def _aligned(self, other):
        """Common gens and both numerator dicts written over them."""
        a, b = self.numerators, other.numerators
        if self.gens == other.gens:
            return self.gens, a, b
        gens = tuple(sorted(set(self.gens) | set(other.gens)))

        def remap(poly, num):
            if poly.gens == gens:
                return num
            idx = [poly.gens.index(g) if g in poly.gens else None for g in gens]
            return {tuple(0 if k is None else e[k] for k in idx): c for e, c in num.items()}

        return gens, remap(self, a), remap(other, b)

    def __add__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        den = lcm(self.den, other.den)
        scale_a, scale_b = den // self.den, den // other.den
        out = {e: c * scale_a for e, c in a.items()}
        for e, c in b.items():
            out[e] = out.get(e, 0) + c * scale_b
        return LaurentPoly._integral(gens, *_reduced(out, den))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._integral(self.gens, {e: -c for e, c in self.numerators.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        for column_a, column_b in zip(zip(*a), zip(*b)):
            _check_exponents(min(column_a) + min(column_b), max(column_a) + max(column_b))
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return LaurentPoly._integral(gens, *_reduced(out, self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, k):
        k = as_int(k)
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        for column in zip(*self.numerators):
            _check_exponents(k * min(column), k * max(column))
        if k > EXPONENT_BOUND:
            raise ExponentTooLarge(f"power {k} exceeds the bound {EXPONENT_BOUND}")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def degree(self, name) -> int:
        """Largest exponent of the named generator (0 if it never appears)."""
        if name not in self.gens:
            return 0
        k = self.gens.index(name)
        return max(e[k] for e in self.numerators)

    def evaluate(self, assignment) -> Fraction:
        """Exact value; each p/q is scaled by q^high * p^-low to stay integral."""
        values = []
        for g in self.gens:
            if g not in assignment:
                raise MissingAssignment(f"no value for {g}")
            values.append(as_scalar(assignment[g]))
        num, den = self.numerators, self.den
        scales = []
        for v, column in zip(values, zip(*num)):
            low, high = min(0, *column), max(0, *column)
            if low < 0 and v == 0:
                raise PoleAtPoint(f"negative power of 0 in {self}")
            p, q = v.numerator, v.denominator
            den *= p ** -low * q ** high
            scales.append((p, q, low, high))
        total = 0
        for exps, c in num.items():
            for (p, q, low, high), e in zip(scales, exps):
                c *= p ** (e - low) * q ** (high - e)
            total += c
        return Fraction(total, den)

    def _term_str(self, exps, coeff):
        parts = []
        for g, e in zip(self.gens, exps):
            if e == 0:
                continue
            parts.append(g if e == 1 else f"{g}^{e}")
        mono = "*".join(parts)
        if not mono:
            return format_scalar(coeff)
        if coeff == 1:
            return mono
        if coeff == -1:
            return f"-{mono}"
        return f"{format_scalar(coeff)}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        # constant first, then monomials lexicographically descending,
        # which renders the L-factor binomials as "1 - (monomial)"
        order = sorted(
            self.terms, key=lambda e: (any(x != 0 for x in e), tuple(-x for x in e))
        )
        for exps in order:
            rendered = self._term_str(exps, self.terms[exps])
            if not chunks:
                chunks.append(rendered)
            elif rendered.startswith("-"):
                chunks.append(f" - {rendered[1:]}")
            else:
                chunks.append(f" + {rendered}")
        return "".join(chunks)

    def __repr__(self):
        return f"LaurentPoly({self})"

    @classmethod
    def parse(cls, text):
        """Parse sums of products like "x_1_1^2*x_1_2 - 3/2*x_2_2 + 1".

        One scan splits the text into (name, number, operator, stray)
        tokens. Each term is one coefficient, an int until a p/q appears,
        and a name -> exponent dict; terms are summed in one dict keyed by
        their nonzero (name, exponent) pairs.
        """
        tokens = _TOKEN.findall(text, 0, len(text.rstrip()))
        if any(map(itemgetter(3), tokens)):
            pos = next(m.start() for m in _TOKEN.finditer(text) if m[4])
            raise ValueError(f"cannot read polynomial at: {text[pos:]!r}")
        tokens.append(_END)
        sums = {}
        op = tokens[0][2]
        at = int(op == "+" or op == "-")
        sign = -1 if op == "-" else 1
        if tokens[at] is _END:
            raise ValueError("empty polynomial")
        while True:
            coeff, exps = sign, {}
            while True:
                name, num, op, _ = tokens[at]
                at += 1
                if num:
                    coeff *= as_scalar(num) if "/" in num else int(num)
                elif name:
                    exp = 1
                    if tokens[at][2] == "^":
                        negative = tokens[at + 1][2] == "-"
                        at += 2 + negative
                        power = tokens[at - 1][1]
                        if not power or "/" in power:
                            raise ValueError("exponent must be an integer")
                        exp = -int(power) if negative else int(power)
                        _check_exponents(exp, exp)
                    if coeff:
                        total = exps.get(name, 0) + exp
                        _check_exponents(total, total)
                        exps[name] = total
                else:
                    raise ValueError(f"unexpected token {op!r} in polynomial")
                if tokens[at][2] != "*":
                    break
                at += 1
            if coeff:
                key = tuple(sorted(item for item in exps.items() if item[1]))
                total = sums.get(key, 0) + coeff
                if total:
                    sums[key] = total
                else:
                    del sums[key]
            name, num, op, _ = tokens[at]
            if op is None:
                break
            at += 1
            if op != "+" and op != "-":
                raise ValueError(f"expected + or - before {name or num or op!r}")
            sign = -1 if op == "-" else 1
        gens = tuple(sorted({name for key in sums for name, _ in key}))
        return cls._integral(gens, *_scaled({tuple(dict(key).get(g, 0) for g in gens): c for key, c in sums.items()}))


def pit_vanishes(p, grid):
    """sympl.fourier.pit_vanishes, merging the columns of the tuple keys."""
    names, merged = {}, {}
    for name, column in zip(p.gens, zip(*p.numerators)):
        pos = _variable_position(name, grid)
        if min(column) < 0:
            raise ValueError(f"negative exponent of {name}: not a polynomial")
        names[pos] = names.get(pos, ()) + (name,)
        merged[pos] = tuple(map(add, merged[pos], column)) if pos in merged else column
        degree = max(merged[pos])
        if degree > grid.bounds[pos]:
            raise DegreeExceedsGrid(f"degree {degree} of {' = '.join(names[pos])} exceeds bound {grid.bounds[pos]}")
    keys = zip(*merged.values()) if merged else [()] * len(p.numerators)
    sums = {}
    for key, c in zip(keys, p.numerators.values()):
        sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


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


def abelian_L_factors(shift, twist_power=1, character="X"):
    """The denominator factor of sympl.lfactors.abelian_L."""
    shift = as_scalar(shift)
    if not is_integer(2 * shift):
        raise NotHalfIntegral(f"shift {shift} is not half-integral")
    twist_power = as_int(twist_power)
    if twist_power <= 0:
        raise ValueError("twist power must be positive")
    return (_binomial(character, twist_power, int(-2 * shift), twist_power),)


def standard_L_factors(shift, satake):
    """The 2m+1 denominator factors of sympl.lfactors.standard_L."""
    shift = as_scalar(shift)
    if not is_integer(2 * shift):
        raise NotHalfIntegral(f"shift {shift} is not half-integral")
    q_power = int(-2 * shift)
    chi = satake.character
    factors = [_binomial(chi, 1, q_power, 1)]
    for p in satake.params:
        factors.append(_binomial(chi, 1, q_power, 1, p, 1))
        factors.append(_binomial(chi, 1, q_power, 1, p, -1))
    return tuple(factors)


def xi_factors(i, satake, shift=0):
    """The denominator factors of sympl.lfactors.xi, one builder call per level and pair."""
    shift = as_scalar(shift)
    factors = []
    for level in range(1, i + 1):
        factors += standard_L_factors(shift + Fraction(2 * level - i - 1, 2), satake)
    for p in range(1, i + 1):
        for q in range(p + 1, i + 1):
            factors += abelian_L_factors(2 * shift - i - 1 + p + q, twist_power=2, character=satake.character)
    return factors
