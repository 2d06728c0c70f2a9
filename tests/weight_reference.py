"""The Fraction-row Weight and the lattice functions that read it, kept as
the reference for the doubled-int Weight in `sympl.weights`.

`Weight` here stores its rows as tuples of Fractions, as `sympl.weights`
did before a weight was stored as 2 lambda in int rows. The predicates,
the Weyl-orbit functions and the checks of `orbitclassify` below are the
bodies that read those Fraction rows: `_row_layout` doubles each
canonical value itself, and `dominant_orbit_elements` halves the doubled
representatives back into Fractions. The tests compare the two term by
term and refusal by refusal.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from sympl.errors import (
    HypothesisViolated,
    InvalidWeight,
    LengthMismatch,
    NonConstantBottomEntry,
    NonIntegral,
    NotDominant,
    RankTooLarge,
    ShapeMismatch,
)
from sympl.orbitclassify import HYPOTHESIS_NAMES, SURJECTIVITY_CONDITIONS, is_squarefree
from sympl.scalars import as_int, as_scalar, format_scalar, format_vector, is_integer
from sympl.weights import check_index

ORBIT_SIZE_BOUND = 2 ** 16


def as_vector(xs) -> tuple:
    return tuple(as_scalar(x) for x in xs)


def is_dominant_row(row) -> bool:
    return all(a - b >= 0 and (a - b).denominator == 1 for a, b in zip(row, row[1:]))


def is_tail_constant(row, i: int) -> bool:
    return all(x == row[-1] for x in row[len(row) - i:])


@dataclass(frozen=True)
class Weight:
    rows: tuple

    def __post_init__(self):
        rows = tuple(as_vector(r) for r in self.rows)
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
            for a, b in zip(row, row[1:]):
                if (a - b).denominator != 1:
                    raise InvalidWeight(f"difference {format_scalar(a)} - {format_scalar(b)} is not an integer")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows):
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def d(self) -> int:
        return len(self.rows)

    def bottom_entries(self):
        return tuple(row[-1] for row in self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __str__(self):
        return ";".join(",".join(format_scalar(x) for x in row) for row in self.rows)


def is_k_dominant(w: Weight) -> bool:
    return all(is_dominant_row(row) for row in w.rows)


def is_bottom_uniform(w: Weight) -> bool:
    return len(set(w.bottom_entries())) == 1


def is_integral(w: Weight) -> bool:
    return all(x.denominator == 1 for row in w.rows for x in row)


def parity_class(w: Weight) -> int:
    if not is_integral(w):
        raise NonIntegral("parity class needs an integral weight")
    if not is_bottom_uniform(w):
        bottoms = format_vector(sorted(set(w.bottom_entries())))
        raise NonConstantBottomEntry(f"bottom entries differ across places: {bottoms}")
    return -1 if int(w.rows[0][-1]) % 2 else 1


def holomorphy_vanishing(w: Weight) -> str:
    bottoms = w.bottom_entries()
    if w.n > 1 and not w.is_zero() and any(b == 0 for b in bottoms):
        return "NearlyHolomorphicSpaceVanishes"
    if any(b <= 0 for b in bottoms):
        return "HolomorphicZeroOrConstant"
    return "NoConclusion"


def canonical_row(row) -> tuple:
    return tuple(sorted((abs(a - k) for k, a in enumerate(row, 1)), reverse=True))


def infchar_canonical(w: Weight) -> tuple:
    return tuple(canonical_row(row) for row in w.rows)


def infchar_equal(a: Weight, b: Weight) -> bool:
    if (a.n, a.d) != (b.n, b.d):
        raise ShapeMismatch(f"shapes ({a.d},{a.n}) and ({b.d},{b.n})")
    return infchar_canonical(a) == infchar_canonical(b)


def _row_layout(row):
    seen = Counter(v.numerator * 2 // v.denominator for v in canonical_row(row))
    if seen[0] > 1 or max(seen.values()) > 2:
        return None
    return list(seen), [v for v in seen if v and seen[v] == 1]


def is_regular(w: Weight) -> bool:
    for layout in map(_row_layout, w.rows):
        if layout is None or len(layout[1]) < w.n:
            return False
    return True


def _row_reps(values, free):
    reps = []
    for signs in product((True, False), repeat=len(free)):
        up = dict(zip(free, signs))
        shifted = [v for v in values if up.get(v, True)] + [-v for v in values[::-1] if v and not up.get(v, False)]
        reps.append([m + 2 * k for k, m in enumerate(shifted, 1)])
    return reps


def dominant_orbit_elements(w: Weight):
    layouts = [_row_layout(row) for row in w.rows]
    count = prod(0 if layout is None else 2 ** len(layout[1]) for layout in layouts)
    if count > ORBIT_SIZE_BOUND:
        raise RankTooLarge(f"{format_scalar(count)} dominant orbit elements exceed the bound {ORBIT_SIZE_BOUND}")
    if not count:
        return []
    doubled = [_row_reps(*layout) for layout in layouts]
    halves = {m: Fraction(m, 2) for m in {m for reps in doubled for rep in reps for m in rep}}
    per_place = [[tuple(map(halves.__getitem__, rep)) for rep in reps] for reps in doubled]
    return [Weight._trusted(rows) for rows in product(*per_place)]


def is_sufficiently_regular(w: Weight, i: int) -> bool:
    n = w.n
    i = check_index(i, n)
    for layout in map(_row_layout, w.rows):
        if layout is None or len(layout[0]) < n or layout[0][-1] <= 2 * (n - i + 1):
            return False
    return True


def orbit_dichotomy_check(w: Weight) -> bool:
    if not is_k_dominant(w):
        raise NotDominant("the dichotomy is stated for k-dominant weights")
    if not is_integral(w):
        raise NonIntegral("the dichotomy is stated for integral weights")
    bound = 2 * w.n
    if any(b <= bound for b in w.bottom_entries()):
        raise HypothesisViolated(f"needs every bottom entry > {bound}")
    for omega in dominant_orbit_elements(w):
        if omega == w:
            continue
        if not any(row[-1] < 0 for row in omega.rows):
            return False
    return True


def _validated_inner(inner, n, i):
    n = as_int(n)
    i = check_index(i, n)
    inner = as_vector(inner)
    if len(inner) != n - i:
        raise LengthMismatch(f"inner weight must have {n - i} entries, got {len(inner)}")
    if inner:
        if not all(is_integer(v) for v in inner):
            raise NonIntegral(f"inner weight {format_vector(inner)} has non-integer entries")
        if not is_dominant_row(inner):
            raise NotDominant(f"inner weight {format_vector(inner)} is not weakly decreasing")
        if inner[-1] < 0:
            raise NotDominant(f"inner weight {format_vector(inner)} has negative bottom entry")
    return tuple(int(v) for v in inner), n, i


def duality_check(inner, n, i, s) -> bool:
    inner, n, i = _validated_inner(inner, n, i)
    s = as_scalar(s)
    dual = 2 * n - i + 1 - s
    return canonical_row(inner + (s,) * i) == canonical_row(inner + (dual,) * i)


def theorem_main_necessary(w: Weight, i):
    i = check_index(i, w.n)
    if not is_integral(w):
        raise NonIntegral(f"{w} has non-integer entries")
    return [
        omega
        for omega in dominant_orbit_elements(w)
        if all(is_tail_constant(row, i) for row in omega.rows) and is_bottom_uniform(omega)
    ]


def decomposition_report(w: Weight, i, character_parity=None):
    """(hypotheses, parity class, exponent, inner weight, conclusion) of the report."""
    n = w.n
    i = check_index(i, n)
    if character_parity is not None and character_parity not in (1, -1):
        raise ValueError("character parity must be +1 or -1")
    checks = {
        "k_dominant_integral": is_k_dominant(w) and is_integral(w),
        "tail_constant_per_place": all(is_tail_constant(row, i) for row in w.rows),
        "bottom_entry_uniform": is_bottom_uniform(w),
        "sufficiently_regular": is_sufficiently_regular(w, i),
        "inner_weight_bound": i == n or all(row[n - i - 1] > 2 * n - i + 1 for row in w.rows),
    }
    hypotheses = tuple((name, bool(checks[name])) for name in HYPOTHESIS_NAMES)
    parity = exponent = inner_weight = None
    conclusion = "HypothesesFail"
    if all(ok for _, ok in hypotheses):
        parity = parity_class(w)
        exponent = w.rows[0][-1] - n + Fraction(i - 1, 2)
        inner_weight = tuple(tuple(row[: n - i]) for row in w.rows)
        conclusion = "IsotypicDescription"
        if character_parity is not None and character_parity != parity:
            conclusion = "VanishesWrongParity"
    return hypotheses, parity, exponent, inner_weight, conclusion


def surjectivity_failures(w: Weight, level) -> tuple:
    """The failed conditions of siegel_surjectivity_check, for a rank n >= 2,
    integral, dominant weight and a positive level."""
    n = w.n
    bottoms = w.bottom_entries()
    nexts = [row[-2] for row in w.rows]
    holds = {
        "level_squarefree": is_squarefree(level),
        "bottom_entry_bound": all(b > 2 * n for b in bottoms),
        "bottom_entry_uniform": is_bottom_uniform(w),
        "weight_alternative": all(a == b for a, b in zip(nexts, bottoms)) or len(set(nexts)) > 1,
    }
    return tuple(name for name in SURJECTIVITY_CONDITIONS if not holds[name])


def rigidity_shape(w: Weight, j: int) -> bool:
    """The weight-shape half of rigidity_check."""
    return is_bottom_uniform(w) and all(is_tail_constant(row, j) for row in w.rows)
