"""Sparse multivariate Laurent polynomials over the rationals.

Terms are kept in a dict from integer exponent vectors (negatives allowed)
to nonzero Fraction coefficients. The representation is canonical: the
generator tuple is sorted, generators that appear in no term are dropped,
and zero coefficients are never stored, so equality is structural.
Every exponent lies in [-EXPONENT_BOUND, EXPONENT_BOUND], and so does
every power a polynomial is raised to, whatever its base.

Only the public constructor cleans its input. Arithmetic builds results
that are canonical by construction and wraps them with `_trusted`, and so
does `parse`, which sums its terms in one dict instead of multiplying.
"""

import re
from fractions import Fraction
from math import lcm
from operator import add

from .errors import ExponentTooLarge, MissingAssignment, PoleAtPoint
from .scalars import as_scalar, format_scalar

# Far above every exponent the L-factor products reach; it keeps
# evaluation (v ** e) and expansion from running without end.
EXPONENT_BOUND = 10_000

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+(?:/\d+)?)|(?P<op>[-+*^]))")


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
    if den == 1:
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


class LaurentPoly:
    __slots__ = ("gens", "terms")

    def __init__(self, gens=(), terms=None):
        gens = tuple(gens)
        cleaned = {}
        for exps, coeff in ({} if terms is None else terms).items():
            coeff = as_scalar(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(gens):
                raise ValueError("exponent vector length does not match generators")
            if exps:
                _check_exponents(min(exps), max(exps))
            cleaned[exps] = cleaned.get(exps, _ZERO) + coeff
        order = sorted(range(len(gens)), key=gens.__getitem__)
        gens, terms = _drop_unused(
            tuple(gens[k] for k in order),
            {tuple(e[k] for k in order): c for e, c in cleaned.items() if c != 0},
        )
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, gens, terms):
        """Wrap sorted gens and nonzero Fraction terms, dropping unused gens."""
        self = object.__new__(cls)
        gens, terms = _drop_unused(gens, terms)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls._trusted((), {})

    @classmethod
    def one(cls):
        return cls._trusted((), {(): _ONE})

    @classmethod
    def constant(cls, c):
        c = as_scalar(c)
        return cls._trusted((), {(): c} if c else {})

    @classmethod
    def generator(cls, name):
        return cls._trusted((name,), {(1,): _ONE})

    @classmethod
    def monomial(cls, coeff, exps=None):
        coeff = as_scalar(coeff)
        if not coeff:
            return cls.zero()
        exps = {g: int(e) for g, e in dict(exps or {}).items()}
        gens = tuple(sorted(g for g, e in exps.items() if e))
        mono = tuple(exps[g] for g in gens)
        if mono:
            _check_exponents(min(mono), max(mono))
        return cls._trusted(gens, {mono: coeff})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(): _ONE}

    def constant_value(self):
        if self.gens:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), _ZERO)

    def key(self):
        """Hashable canonical key, equal iff the polynomials are equal."""
        return (
            self.gens,
            tuple(sorted((e, c.numerator, c.denominator) for e, c in self.terms.items())),
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.constant(as_scalar(x))

    def _aligned(self, other):
        if self.gens == other.gens:
            return self.gens, self.terms, other.terms
        gens = tuple(sorted(set(self.gens) | set(other.gens)))

        def remap(poly):
            if poly.gens == gens:
                return poly.terms
            idx = [poly.gens.index(g) if g in poly.gens else None for g in gens]
            return {
                tuple(0 if k is None else e[k] for k in idx): c
                for e, c in poly.terms.items()
            }

        return gens, remap(self), remap(other)

    def __add__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly._trusted(gens, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.gens, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        gens, a, b = self._aligned(other)
        for column_a, column_b in zip(zip(*a), zip(*b)):
            _check_exponents(min(column_a) + min(column_b), max(column_a) + max(column_b))
        a, den_a = _scaled(a)
        b, den_b = _scaled(b)
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        den = den_a * den_b
        if den == 1:
            terms = {e: Fraction(c) for e, c in out.items() if c}
        else:
            terms = {e: Fraction(c, den) for e, c in out.items() if c}
        return LaurentPoly._trusted(gens, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        for column in zip(*self.terms):
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
        if name not in self.gens or not self.terms:
            return 0
        k = self.gens.index(name)
        return max(e[k] for e in self.terms)

    def evaluate(self, assignment) -> Fraction:
        values = []
        for g in self.gens:
            if g not in assignment:
                raise MissingAssignment(f"no value for {g}")
            values.append(as_scalar(assignment[g]))
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    if e < 0 and v == 0:
                        raise PoleAtPoint(f"negative power of 0 in {self}")
                    term *= v ** e
            total += term
        return total

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

        Each term is one coefficient and a name -> exponent dict; terms are
        summed in one dict keyed by their nonzero (name, exponent) pairs.
        """
        tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"cannot read polynomial at: {text[pos:]!r}")
            pos = m.end()
            tokens.append((m.lastgroup, m[m.lastgroup]))
        tokens.append((None, None))
        sums = {}
        at = int(tokens[0][0] == "op" and tokens[0][1] in "+-")
        sign = -_ONE if tokens[0] == ("op", "-") else _ONE
        if tokens[at][0] is None:
            raise ValueError("empty polynomial")
        while True:
            coeff, exps = sign, {}
            while True:
                kind, value = tokens[at]
                at += 1
                if kind == "num":
                    coeff *= as_scalar(value)
                elif kind == "name":
                    exp = 1
                    if tokens[at] == ("op", "^"):
                        negative = tokens[at + 1] == ("op", "-")
                        at += 2 + negative
                        ekind, evalue = tokens[at - 1]
                        if ekind != "num" or "/" in evalue:
                            raise ValueError("exponent must be an integer")
                        exp = -int(evalue) if negative else int(evalue)
                        _check_exponents(exp, exp)
                    if coeff:
                        total = exps.get(value, 0) + exp
                        _check_exponents(total, total)
                        exps[value] = total
                else:
                    raise ValueError(f"unexpected token {value!r} in polynomial")
                if tokens[at] != ("op", "*"):
                    break
                at += 1
            if coeff:
                key = tuple(sorted(item for item in exps.items() if item[1]))
                total = sums.get(key, 0) + coeff
                if total:
                    sums[key] = total
                else:
                    del sums[key]
            kind, value = tokens[at]
            if kind is None:
                break
            at += 1
            if kind != "op" or value not in "+-":
                raise ValueError(f"expected + or - before {value!r}")
            sign = -_ONE if value == "-" else _ONE
        gens = tuple(sorted({name for key in sums for name, _ in key}))
        return cls._trusted(gens, {tuple(dict(key).get(g, 0) for g in gens): c for key, c in sums.items()})
