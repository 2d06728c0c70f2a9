"""Sparse multivariate Laurent polynomials over the rationals.

Coefficients are integer numerators over one denominator `den > 0`
sharing no factor with all of them (FLINT's fmpq_poly form). Each
exponent vector is one int key: a 16-bit field per generator, biased by
2^15, the first generator highest (the packed exponent vectors of
Monagan and Pearce and of FLINT's mpoly), so key order is lexicographic.
Every exponent, and every power a polynomial is raised to, lies in
[-EXPONENT_BOUND, EXPONENT_BOUND]: a sum of two exponents stays in its
field, and a product's key is ka + kb - origin. The form is canonical
(gens sorted, distinct and all used; no zero numerator stored), so
equality is structural. A polynomial is a Frozen value of four fields;
`numerators` ({exponents: int}) and `terms` ({exponents: Fraction}) are
views built on each read. Only the public constructor cleans its
input; every other path builds a canonical form with a bound on
|exponent|, which spares most products reading their exponent columns.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import EXPONENT_BOUND, Frozen, MissingAssignment, PoleAtPoint
from .scalars import as_int, as_scalar, format_scalar

_BIAS, _MASK = 1 << 15, 0xFFFF
# name, number, operator, or any other character (which the parser refuses)
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+(?:/\d+)?)|([-+*^])|(\S))")
_END = ("", "", None, "")


def _check_exponents(low, high):
    if low < -EXPONENT_BOUND or high > EXPONENT_BOUND:  # two compares on the parser's path
        EXPONENT_BOUND.check(-low, "exponent ", low)
        EXPONENT_BOUND.check(high, "exponent ", high)


def _origin(n):
    """The key of the zero exponent vector over n generators."""
    return ((1 << 16 * n) - 1) // _MASK * _BIAS


def _pack(exps):
    """The key of an exponent vector."""
    key = 0
    for e in exps:
        key = key << 16 | e + _BIAS
    return key


def _columns(num, n):
    """Each generator's exponents, term by term, read off the packed keys."""
    return [[(key >> s & _MASK) - _BIAS for key in num] for s in range(16 * n - 16, -1, -16)]


def _repack(num, old, new):
    """The keys of num moved from the layout of gens old to that of new."""
    if old == new:
        return num
    moves = [(16 * (len(old) - 1 - k), 16 * (len(new) - 1 - new.index(g))) for k, g in enumerate(old) if g in new]
    fill = _origin(len(new)) - sum(_BIAS << t for _, t in moves)
    return {fill + sum((key >> s & _MASK) << t for s, t in moves): c for key, c in num.items()}


def _drop_unused(gens, num):
    """Remove the generators whose exponent is zero in every term."""
    used, origin = 0, _origin(len(gens))
    for key in num:
        used |= key ^ origin
    kept = tuple(g for k, g in enumerate(gens) if used >> 16 * (len(gens) - 1 - k) & _MASK)
    return (gens, num) if len(kept) == len(gens) else (kept, _repack(num, gens, kept))


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


class LaurentPoly(Frozen):
    """gens, den, the packed numerators and _reach, a bound on |exponent| that equality,
    hashing and repr leave out; __init__ sets the four through _set, and every other path builds through _trusted."""

    __slots__ = ("gens", "den", "_packed", "_reach")

    def __init__(self, gens=(), terms=None):
        gens = tuple(gens)
        if not all(isinstance(g, str) for g in gens):
            raise ValueError(f"generator names must be text: {gens}")
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
            _check_exponents(min(exps, default=0), max(exps, default=0))
            cleaned[exps] = cleaned.get(exps, 0) + coeff
        order = sorted(range(len(gens)), key=gens.__getitem__)
        num, den = _scaled({_pack(e[k] for k in order): c for e, c in cleaned.items() if c != 0})
        reach = max((abs(e) for exps in cleaned for e in exps), default=0)
        gens, num = _drop_unused(tuple(gens[k] for k in order), num)
        self._set(gens, den, num, reach)

    @property
    def numerators(self):
        """The {exponents: int} view, built on each read."""
        columns = _columns(self._packed, len(self.gens))
        keys = zip(*columns) if columns else [()] * len(self._packed)
        return dict(zip(keys, self._packed.values()))

    @property
    def terms(self):
        """The {exponents: Fraction} view, built on each read."""
        return {e: Fraction(c, self.den) for e, c in self.numerators.items()}

    @classmethod
    def zero(cls):
        return cls._trusted((), 1, {}, 0)

    @classmethod
    def one(cls):
        return cls._trusted((), 1, {0: 1}, 0)

    @classmethod
    def constant(cls, c):
        c = as_scalar(c)
        return cls._trusted((), c.denominator, {0: c.numerator} if c else {}, 0)

    @classmethod
    def generator(cls, name):
        return cls._trusted((name,), 1, {_BIAS + 1: 1}, 1)

    @classmethod
    def monomial(cls, coeff, exps=None):
        exps = dict(exps or {})
        return cls(exps, {tuple(exps.values()): coeff})

    @classmethod
    def _one_minus(cls, coeff, exps):
        """1 - coeff * (the monomial of exps, exponent-0 gens left out); coeff nonzero, exps in bounds, not all 0."""
        gens, den = tuple(sorted(g for g, e in exps.items() if e)), coeff.denominator
        num = {_origin(len(gens)): den, _pack(exps[g] for g in gens): -coeff.numerator}
        return cls._trusted(gens, den, num, max(map(abs, exps.values())))

    def is_zero(self):
        return not self._packed

    def is_one(self):
        return self._packed == {0: 1} and self.den == 1

    def constant_value(self):
        if self.gens:
            raise ValueError("not a constant polynomial")
        return Fraction(self._packed.get(0, 0), self.den)

    def key(self):
        """Hashable canonical key, equal iff the polynomials are equal."""
        return self.gens, self.den, tuple(sorted(self.numerators.items()))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.gens == other.gens and self.den == other.den and self._packed == other._packed

    def __hash__(self):
        return hash((self.gens, self.den, frozenset(self._packed.items())))

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, LaurentPoly) else LaurentPoly.constant(x)

    def _aligned(self, other):
        """Common gens and both packed dicts laid out over them."""
        if self.gens == other.gens:
            return self.gens, self._packed, other._packed
        gens = tuple(sorted(set(self.gens) | set(other.gens)))
        return gens, _repack(self._packed, self.gens, gens), _repack(other._packed, other.gens, gens)

    def __add__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        den = lcm(self.den, other.den)
        scale_a, scale_b = den // self.den, den // other.den
        out = {e: c * scale_a for e, c in a.items()}
        for e, c in b.items():
            out[e] = out.get(e, 0) + c * scale_b
        num, den = _reduced(out, den)
        gens, num = _drop_unused(gens, num)
        return LaurentPoly._trusted(gens, den, num, max(self._reach, other._reach))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.gens, self.den, {e: -c for e, c in self._packed.items()}, self._reach)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        reach = self._reach + other._reach if a and b else 0
        if reach > EXPONENT_BOUND:
            reach = 0
            for column_a, column_b in zip(_columns(a, len(gens)), _columns(b, len(gens))):
                low, high = min(column_a) + min(column_b), max(column_a) + max(column_b)
                _check_exponents(low, high)
                reach = max(reach, -low, high)
        origin = _origin(len(gens))
        out = {}
        get = out.get
        for ka, ca in a.items():
            ka -= origin
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        num, den = _reduced(out, self.den * other.den)
        gens, num = _drop_unused(gens, num)
        return LaurentPoly._trusted(gens, den, num, reach)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = as_int(k)
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        if k * self._reach > EXPONENT_BOUND:
            for column in _columns(self._packed, len(self.gens)):
                _check_exponents(k * min(column), k * max(column))
        EXPONENT_BOUND.check(k, "power ", k)
        result, base = LaurentPoly.one(), self
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
        s = 16 * (len(self.gens) - 1 - self.gens.index(name))
        return max(key >> s & _MASK for key in self._packed) - _BIAS

    def evaluate(self, assignment) -> Fraction:
        """Exact value; each p/q is scaled by q^high * p^-low to stay integral."""
        values = []
        for g in self.gens:
            if g not in assignment:
                raise MissingAssignment(f"no value for {g}")
            values.append(as_scalar(assignment[g]))
        num, den = self._packed, self.den
        coeffs = list(num.values())
        for v, column in zip(values, _columns(num, len(values))):
            low, high = min(0, *column), max(0, *column)
            if low < 0 and v == 0:
                raise PoleAtPoint(f"negative power of 0 in {self}")
            p, q = v.numerator, v.denominator
            den *= p ** -low * q ** high
            coeffs = [c * p ** (e - low) * q ** (high - e) for c, e in zip(coeffs, column)]
        return Fraction(sum(coeffs), den)

    def _term_str(self, key, coeff):
        exps = ((key >> s & _MASK) - _BIAS for s in range(16 * len(self.gens) - 16, -1, -16))
        mono = "*".join(g if e == 1 else f"{g}^{e}" for g, e in zip(self.gens, exps) if e)
        if not mono:
            return format_scalar(coeff)
        if coeff == 1:
            return mono
        if coeff == -1:
            return f"-{mono}"
        return f"{format_scalar(coeff)}*{mono}"

    def __str__(self):
        if not self._packed:
            return "0"
        # constant first, then monomials lexicographically descending,
        # which renders the L-factor binomials as "1 - (monomial)"
        origin = _origin(len(self.gens))
        order = sorted(self._packed.items(), key=lambda t: (t[0] != origin, -t[0]))
        first, *rest = (self._term_str(key, Fraction(c, self.den)) for key, c in order)
        return first + "".join(f" - {r[1:]}" if r.startswith("-") else f" + {r}" for r in rest)

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
        shifts = {g: 16 * k for k, g in enumerate(reversed(gens))}
        num = {_origin(len(gens)) + sum(e << shifts[g] for g, e in key): c for key, c in sums.items()}
        num, den = _scaled(num)
        return cls._trusted(gens, den, num, max((abs(e) for key in sums for _, e in key), default=0))
