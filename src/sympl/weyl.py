"""The Weyl group of type C_n as signed permutations.

Elements are pairs (perm, signs). The action convention is fixed once:

    act(w, x)_i = signs_i * x_{perm^{-1}(i)}

so signs apply after the permutation. The dot action shifts by rho.
Infinitesimal characters are encoded canonically as the sorted absolute
values of lambda + rho, one row per place.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod
from operator import add

from .errors import (
    ORBIT_SIZE_BOUND,
    Frozen,
    HypothesisViolated,
    InvalidWeight,
    NonIntegral,
    NotDominant,
    RankMismatch,
    ShapeMismatch,
)
from .weights import Weight, check_index, is_integral, is_k_dominant, rho


class WeylElement(Frozen):
    """perm maps position to image on {1..n}; signs are +-1 per coordinate."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        perm = tuple(map(int, perm))
        signs = tuple(map(int, signs))
        n = len(perm)
        if n < 1 or sorted(perm) != list(range(1, n + 1)):
            raise InvalidWeight(f"not a permutation of 1..{n}: {perm}")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise InvalidWeight(f"signs must be +-1 vectors of length {n}: {signs}")
        self._set(perm, signs)

    @property
    def n(self) -> int:
        return len(self.perm)


def identity(n: int) -> WeylElement:
    return WeylElement(tuple(range(1, n + 1)), (1,) * n)


def _perm_inverse(perm):
    inv = [0] * len(perm)
    for k, image in enumerate(perm):
        inv[image - 1] = k + 1
    return tuple(inv)


def inverse(w: WeylElement) -> WeylElement:
    inv_perm = _perm_inverse(w.perm)
    signs = tuple(w.signs[w.perm[k] - 1] for k in range(w.n))
    return WeylElement(inv_perm, signs)


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """Composition with act(compose(w1, w2), x) = act(w1, act(w2, x))."""
    if w1.n != w2.n:
        raise RankMismatch(f"ranks {w1.n} and {w2.n}")
    perm = tuple(w1.perm[w2.perm[k] - 1] for k in range(w1.n))
    inv1 = _perm_inverse(w1.perm)
    signs = tuple(w1.signs[i] * w2.signs[inv1[i] - 1] for i in range(w1.n))
    return WeylElement(perm, signs)


def act(w: WeylElement, x):
    if len(x) != w.n:
        raise RankMismatch(f"vector length {len(x)} vs rank {w.n}")
    inv = _perm_inverse(w.perm)
    return tuple(w.signs[i] * x[inv[i] - 1] for i in range(w.n))


def dot_act(w: WeylElement, lam, n: int):
    """The shifted action w(lambda + rho) - rho."""
    if len(lam) != n or w.n != n:
        raise RankMismatch(f"expected rank {n}")
    r = rho(n)
    moved = act(w, tuple(Fraction(a) + b for a, b in zip(lam, r)))
    return tuple(a - b for a, b in zip(moved, r))


class InfChar(Frozen):
    """Canonical form: per place, |lambda_v + rho| sorted weakly decreasing."""

    __slots__ = ("canonical",)

    @property
    def n(self) -> int:
        return len(self.canonical[0])

    @property
    def d(self) -> int:
        return len(self.canonical)


def canonical_row(row, step=1) -> tuple:
    """|row + step rho| sorted weakly decreasing: one place of the infinitesimal character,
    doubled for step 2. rho_k = -k, so no rho vector is built and an integer row stays in ints."""
    return tuple(sorted((abs(a - step * k) for k, a in enumerate(row, 1)), reverse=True))


def infchar_canonical(w: Weight) -> InfChar:
    return InfChar(tuple(canonical_row(row) for row in w.rows))


def infchar_equal(a: Weight, b: Weight) -> bool:
    if (a.n, a.d) != (b.n, b.d):
        raise ShapeMismatch(f"shapes ({a.d},{a.n}) and ({b.d},{b.n})")
    return all(canonical_row(x, 2) == canonical_row(y, 2) for x, y in zip(a.doubled, b.doubled))


def is_regular(w: Weight) -> bool:
    """Full orbit size, i.e. per place |lambda + rho| distinct and nonzero."""
    return all(layout is not None and len(layout[1]) == w.n for layout in map(_row_layout, w.doubled))


def _row_layout(row):
    """The distinct canonical_row values of one doubled place, descending, and the
    nonzero ones seen once; None if a value is seen three times or zero twice."""
    seen = Counter(canonical_row(row, 2))
    if seen[0] > 1 or max(seen.values()) > 2:
        return None
    return list(seen), [v for v in seen if v and seen[v] == 1]


def _row_reps(values, free):
    """2 mu as int rows for the 2^len(free) dominant mu of one place, descending.

    mu + rho is strictly decreasing, so it is its entries sorted: a value seen
    twice gives the entries +a and -a, a single zero gives 0 and a free value
    gives +a or -a, and mu_k = (mu + rho)_k + k. Each entry is one slot of
    choices, +a before -a, so the product of the slots gives the rows in
    descending order.
    """
    slots = []
    for v in values:
        slots += [(v, -v)] if v in free else [(v,), (-v,)] if v else [(0,)]
    steps = range(2, 2 * len(slots) + 1, 2)
    return [tuple(map(add, sorted(signed, reverse=True), steps)) for signed in product(*slots)]


def _orbit_rows(w: Weight):
    """The doubled rows of all k-dominant weights with the same infinitesimal character.

    Each place with s nonzero values of |lambda + rho| seen once has 2^s
    representatives, or none (Bourbaki, Lie VI, Plate III); the elements
    are the product of the per-place lists, each in descending order. Their
    count is checked against ORBIT_SIZE_BOUND before any is built, at any rank.
    """
    layouts = [_row_layout(row) for row in w.doubled]
    count = prod(0 if layout is None else 2 ** len(layout[1]) for layout in layouts)
    ORBIT_SIZE_BOUND.check(count)
    return product(*(_row_reps(*layout) for layout in layouts)) if count else []


def dominant_orbit_elements(w: Weight):
    """All k-dominant weights with the same infinitesimal character (_orbit_rows), in its order."""
    return [Weight._trusted(rows) for rows in _orbit_rows(w)]


def is_sufficiently_regular(w: Weight, i: int) -> bool:
    """Some dominant representative has every bottom entry above 2n - i + 1:
    per place, n distinct |lambda + rho| (_row_reps), the smallest above n - i + 1."""
    n = w.n
    i = check_index(i, n)
    for layout in map(_row_layout, w.doubled):
        if layout is None or len(layout[0]) < n or layout[0][-1] <= 2 * (n - i + 1):
            return False
    return True


def orbit_dichotomy_check(w: Weight) -> bool:
    """Every dominant orbit element is the weight itself or dips below zero.

    Testing utility for large-bottom dominant integral weights; a false
    return falsifies either the implementation or the dichotomy.
    """
    if not is_k_dominant(w):
        raise NotDominant("the dichotomy is stated for k-dominant weights")
    if not is_integral(w):
        raise NonIntegral("the dichotomy is stated for integral weights")
    bound = 2 * w.n
    if any(row[-1] <= 2 * bound for row in w.doubled):
        raise HypothesisViolated(f"needs every bottom entry > {bound}")
    for rows in _orbit_rows(w):
        if rows != w.doubled:
            for row in rows:
                if row[-1] < 0:
                    break
            else:
                return False
    return True
