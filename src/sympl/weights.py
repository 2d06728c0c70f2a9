"""Weights for the rank-n symplectic group over a field with d real places.

A weight is a d x n matrix of exact rationals, one row per place, with
integral successive differences within each row. Entry denominators are
restricted to 1 or 2; that covers every statement in scope (integral
weights and the half-integral ones the unitarity tests need).

The lattice rules the other modules test are defined here once: vector
coercion, the index range, dominance of a row, a constant tail and a
bottom entry shared by all places.
"""

from enum import Enum
from fractions import Fraction

from .errors import (
    Frozen,
    IndexOutOfRange,
    InvalidWeight,
    NonConstantBottomEntry,
    NonIntegral,
)
from .scalars import as_exact, as_int, as_scalar, format_scalar, format_vector


def as_vector(xs) -> tuple:
    """Coerce a sequence of exact scalars to a tuple of Fractions."""
    return tuple(as_scalar(x) for x in xs)


def check_index(i, n: int, name: str = "i") -> int:
    """Read a parabolic or level index as an int, rejecting it outside 1..n."""
    i = as_int(i)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"{name} must satisfy 1 <= {name} <= {n}, got {format_scalar(i)}")
    return i


def is_dominant_row(row) -> bool:
    """True iff all successive differences are non-negative integers."""
    return all(a - b >= 0 and (a - b).denominator == 1 for a, b in zip(row, row[1:]))


def is_tail_constant(row, i: int) -> bool:
    """True iff the last i entries are equal; always true for i <= 1."""
    tail = row[len(row) - i:]
    return not tail or tail.count(tail[-1]) == len(tail)


class Weight(Frozen):
    """d rows (places) of n entries each, weakly structured by the lattice rule. It stores 2 lambda in
    int rows `doubled`, so lattice questions are integer work; `rows`, the Fraction rows, is built on each read."""

    __slots__ = ("doubled",)

    def __init__(self, rows):
        rows = tuple(tuple(map(as_exact, r)) for r in rows)
        if not rows:
            raise InvalidWeight("a weight needs at least one place")
        n = len(rows[0])
        if n < 1:
            raise InvalidWeight("a weight needs at least one entry per place")
        for row in rows:
            if len(row) != n:
                raise InvalidWeight("all places must have the same rank")
            for x in row:
                if x.denominator not in (1, 2):
                    raise InvalidWeight(f"entry {format_scalar(x)} has denominator {x.denominator}, only 1 or 2 allowed")
            # with denominators 1 and 2, a - b is an integer iff they agree
            for a, b in zip(row, row[1:]):
                if a.denominator != b.denominator:
                    raise InvalidWeight(f"difference {format_scalar(a)} - {format_scalar(b)} is not an integer")
        self._set(tuple(tuple(int(2 * x) for x in row) for row in rows))

    @property
    def rows(self):
        """The rows of Fractions."""
        return tuple(tuple(Fraction(v, 2) for v in row) for row in self.doubled)

    @classmethod
    def of(cls, *rows):
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def single(cls, row):
        """Weight with one place (d = 1)."""
        return cls((tuple(row),))

    @property
    def n(self) -> int:
        return len(self.doubled[0])

    @property
    def d(self) -> int:
        return len(self.doubled)

    def row(self, v: int):
        return tuple(Fraction(x, 2) for x in self.doubled[v])

    def bottom_entries(self):
        """The entries lambda_{n,v}, one per place."""
        return tuple(Fraction(row[-1], 2) for row in self.doubled)

    def is_zero(self) -> bool:
        return not any(map(any, self.doubled))

    def __str__(self):
        return format_weight(self)

    def __repr__(self):
        # the entries a reader means by the weight, not 2 lambda
        return f"Weight(rows={self.rows!r})"


class VanishingVerdict(Enum):
    NEARLY_HOLOMORPHIC_SPACE_VANISHES = "NearlyHolomorphicSpaceVanishes"
    HOLOMORPHIC_ZERO_OR_CONSTANT = "HolomorphicZeroOrConstant"
    NO_CONCLUSION = "NoConclusion"


def rho(n: int):
    """The shift vector (-1, -2, ..., -n), half the sum of the positive roots."""
    if n < 1:
        raise InvalidWeight("rank must be at least 1")
    return tuple(Fraction(-i) for i in range(1, n + 1))


def is_k_dominant(w: Weight) -> bool:
    """True iff per place all successive differences, integers by construction, are non-negative."""
    return all(is_dominant_row(row) for row in w.doubled)


def is_bottom_uniform(w: Weight) -> bool:
    """True iff the bottom entry is the same at every place."""
    return len({row[-1] for row in w.doubled}) == 1


def is_integral(w: Weight) -> bool:
    """True iff every entry is an integer."""
    return all(x % 2 == 0 for row in w.doubled for x in row)


def parity_class(w: Weight) -> int:
    """(-1)**lambda_n, defined when the bottom entry is one integer across places."""
    if not is_integral(w):
        raise NonIntegral("parity class needs an integral weight")
    if not is_bottom_uniform(w):
        bottoms = format_vector(sorted(set(w.bottom_entries())))
        raise NonConstantBottomEntry(f"bottom entries differ across places: {bottoms}")
    return -1 if w.doubled[0][-1] % 4 else 1


def holomorphy_vanishing(w: Weight) -> VanishingVerdict:
    """Vanishing verdict for the spaces attached to a k-dominant integral weight.

    Rank one with the zero weight falls through to the zero-or-constant
    branch; the stronger statement assumes n > 1.
    """
    bottoms = [row[-1] for row in w.doubled]  # doubled, which keeps their signs
    if w.n > 1 and not w.is_zero() and any(b == 0 for b in bottoms):
        return VanishingVerdict.NEARLY_HOLOMORPHIC_SPACE_VANISHES
    if any(b <= 0 for b in bottoms):
        return VanishingVerdict.HOLOMORPHIC_ZERO_OR_CONSTANT
    return VanishingVerdict.NO_CONCLUSION


def parse_weight(text: str) -> Weight:
    """Parse "5,3;5,4" (rows by ';', entries by ',', halves as "a/2")."""
    rows = []
    for part in text.strip().split(";"):
        if not part.strip():
            raise ValueError("empty weight row")
        rows.append(as_vector(part.split(",")))
    return Weight(tuple(rows))


def format_half(v: int) -> str:
    """v / 2 as format_scalar writes it, read off the int v."""
    return format_scalar(v // 2) if v % 2 == 0 else format_scalar(v) + "/2"


def format_weight(w: Weight) -> str:
    return ";".join(",".join(map(format_half, row)) for row in w.doubled)
