"""Independent answer checks that use no sympl code.

Each oracle re-derives an answer from first principles, the way the
acceptance tests do: the signed-permutation group is built here and
searched exhaustively, positive semidefiniteness is decided by the
recursive Schur complement, and rational functions are evaluated from
their factors' term dictionaries.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

GROUP_RANK_LIMIT = 4


@lru_cache(maxsize=None)
def signed_permutations(n):
    """All 2^n n! signed permutations of range(n) as (perm, signs) pairs."""
    return tuple(
        (perm, signs)
        for perm in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    )


def _shifted(row):
    # lambda + rho with rho = (-1, ..., -n)
    return tuple(Fraction(x) - (k + 1) for k, x in enumerate(row))


def _images(vec):
    return {
        tuple(signs[k] * vec[perm[k]] for k in range(len(vec)))
        for perm, signs in signed_permutations(len(vec))
    }


def same_dot_orbit(row_a, row_b):
    """True iff some signed permutation moves row_a to row_b under the dot action."""
    return _shifted(row_b) in _images(_shifted(row_a))


def infchar_equal(rows_a, rows_b):
    return all(same_dot_orbit(a, b) for a, b in zip(rows_a, rows_b))


def _dominant_orbit_rows(row):
    """k-dominant members of the dot orbit of one place, found by group search."""
    n = len(row)
    out = set()
    for image in _images(_shifted(row)):
        if all(image[k] > image[k + 1] for k in range(n - 1)):
            out.add(tuple(v + (k + 1) for k, v in enumerate(image)))
    return out


def orbit_dichotomy(rows):
    """Every dominant orbit element other than the weight dips below zero somewhere."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    for omega in product(*(_dominant_orbit_rows(row) for row in rows)):
        if omega != rows and not any(row[-1] < 0 for row in omega):
            return False
    return True


def is_psd(rows):
    """Recursive Schur complement test, as in acceptance criterion 8."""
    rows = [[Fraction(v) for v in row] for row in rows]
    while rows:
        a = rows[0][0]
        if a < 0:
            return False
        if a == 0:
            if any(v != 0 for v in rows[0]):
                return False
            rows = [row[1:] for row in rows[1:]]
            continue
        rows = [
            [rows[r][c] - rows[r][0] * rows[0][c] / a for c in range(1, len(rows))]
            for r in range(1, len(rows))
        ]
    return True


def is_pd(rows):
    """Positive definite iff every Schur pivot is positive."""
    rows = [[Fraction(v) for v in row] for row in rows]
    while rows:
        a = rows[0][0]
        if a <= 0:
            return False
        rows = [
            [rows[r][c] - rows[r][0] * rows[0][c] / a for c in range(1, len(rows))]
            for r in range(1, len(rows))
        ]
    return True


def poly_value(gens, terms, point):
    """Evaluate a term dictionary {exponents: coefficient} at an exact point."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for name, e in zip(gens, exps):
            term *= Fraction(point[name]) ** e
        total += term
    return total


def ratio_value(num_factors, den_factors, point):
    """Evaluate a product of factors over a product of factors; None at a pole."""
    value = Fraction(1)
    for f in num_factors:
        value *= poly_value(f.gens, f.terms, point)
    for f in den_factors:
        v = poly_value(f.gens, f.terms, point)
        if v == 0:
            return None
        value /= v
    return value
