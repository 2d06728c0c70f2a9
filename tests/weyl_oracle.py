"""The whole Weyl group of type C_n, listed: the oracle for the closed forms.

sympl itself never lists the group; the tests compare its closed forms
(canonical infinitesimal characters, regularity, dominant orbit
representatives) with exhaustive search over these 2^n n! elements.
"""

from itertools import permutations, product

from sympl.weyl import WeylElement


def enumerate_weyl(n: int):
    """All 2^n n! elements, lexicographic by (perm, signs)."""
    return [
        WeylElement(perm, signs)
        for perm in permutations(range(1, n + 1))
        for signs in product((-1, 1), repeat=n)
    ]
