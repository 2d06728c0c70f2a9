"""First reduction point and unitarizability of highest weight modules.

A k-dominant half-integral vector lambda is normalized by the scalar shift
r = n - lambda_n to a base vector with bottom entry n; the counts
p = #{entries = n} and q = #{entries = n+1} of the base drive both tests.
"""

from fractions import Fraction

from .errors import BottomEntryNotRank, Frozen, InvalidWeight, NotDominant, NotHalfIntegral
from .scalars import format_scalar, format_vector
from .weights import as_vector, is_dominant_row


class EhwProfile(Frozen):
    __slots__ = ("base", "p", "q", "r")


def _coerce_dominant_half_integral(lam):
    lam = as_vector(lam)
    if not lam:
        raise InvalidWeight("a weight needs at least one entry")
    if any(x.denominator not in (1, 2) for x in lam):
        raise NotHalfIntegral(f"entries must lie in (1/2)Z: {format_vector(lam)}")
    if not is_dominant_row(lam):
        raise NotDominant(f"not k-dominant: {format_vector(lam)}")
    return lam


def _counts(base):
    """p = #{entries = n} and q = #{entries = n + 1} of a base vector."""
    n = len(base)
    return base.count(n), base.count(n + 1)


def ehw_normalize(lam) -> EhwProfile:
    lam = _coerce_dominant_half_integral(lam)
    r = Fraction(len(lam)) - lam[-1]
    base = tuple(x + r for x in lam)
    return EhwProfile(base, *_counts(base), r)


def first_reduction_point(base) -> Fraction:
    """(p + q + 1)/2 for a base vector with bottom entry equal to the rank."""
    base = _coerce_dominant_half_integral(base)
    n = len(base)
    if base[-1] != n:
        raise BottomEntryNotRank(f"bottom entry {format_scalar(base[-1])} must equal the rank {n}")
    p, q = _counts(base)
    return Fraction(p + q + 1, 2)


def is_unitary_highest_weight(lam) -> bool:
    """Unitarity test: r <= p + q/2, which p >= 1 keeps at or above (p + q + 1)/2."""
    profile = ehw_normalize(lam)
    # Reading fixed here on purpose: p + q/2, not (p + q)/2. The zero weight
    # normalizes to r = n with p = n, q = 0 and must pass, which the other
    # precedence fails already at n = 2.
    return profile.r <= profile.p + Fraction(profile.q, 2)
