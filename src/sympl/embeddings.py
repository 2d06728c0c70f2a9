"""Highest weight vector data for principal and parabolic inductions.

Operations here take single-place vectors; multi-place weights are mapped
over places by the callers that need it. Characters of the real line are
reduced to (parity, exponent) pairs: parity is the sign-character power,
exponent the power of the absolute value.
"""

from fractions import Fraction

from .errors import (
    RANK_BOUND,
    Frozen,
    LengthMismatch,
    NonIntegral,
    NotDominant,
    NotScalarWeight,
    TailNotConstant,
)
from .scalars import as_int, as_scalar, format_scalar, format_vector
from .weights import as_vector, check_index, is_dominant_row, is_tail_constant


class CharacterDatum(Frozen):
    __slots__ = ("parity", "exponent")

    def __init__(self, parity, exponent):
        parity = as_int(parity)
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        self._set(parity, as_scalar(exponent))


class InductionDatum(Frozen):
    __slots__ = ("n", "i", "character", "inner_weight")


def _require_dominant_integral(lam):
    if any(x.denominator != 1 for x in lam):
        raise NonIntegral("entries must be integers")
    if not is_dominant_row(lam):
        raise NotDominant(f"not k-dominant: {format_vector(lam)}")


def principal_series_datum(lam):
    """Character list for the principal series containing the weight.

    Position k (1-based) carries the character attached to lambda_{n+1-k},
    with parity lambda_{n+1-k} mod 2 and exponent lambda_{n+1-k} - (n+1-k).
    """
    lam = as_vector(lam)
    _require_dominant_integral(lam)
    n = len(lam)
    out = []
    for k in range(1, n + 1):
        entry = int(lam[n - k])
        out.append(CharacterDatum(entry % 2, Fraction(entry - (n + 1 - k))))
    return out


def klingen_embedding_datum(lam, i: int) -> InductionDatum:
    """Induction datum whose section space holds a highest weight vector.

    Requires the last i entries equal; the character exponent is
    lambda_n - n + (i-1)/2 and the inner weight is the first n-i entries.
    """
    lam = as_vector(lam)
    n = len(lam)
    i = check_index(i, n)
    _require_dominant_integral(lam)
    if not is_tail_constant(lam, i):
        raise TailNotConstant(f"last {i} entries differ: {format_vector(lam[n - i:])}")
    bottom = int(lam[-1])
    character = CharacterDatum(bottom % 2, Fraction(bottom - n) + Fraction(i - 1, 2))
    return InductionDatum(n, i, character, lam[: n - i])


def klingen_embedding_inverse(n: int, i: int, mu: CharacterDatum, omega):
    """The unique weight candidate for given induction data, or None.

    Solves t = mu.exponent + n - (i-1)/2 and returns (omega, t, ..., t) when
    t is an integer of the right parity and the result is k-dominant, which
    for a dominant omega asks only that its last entry minus t be a
    nonnegative integer. A candidate of rank n above RANK_BOUND is refused
    before it is built.
    """
    omega = as_vector(omega or ())
    n = as_int(n)
    i = check_index(i, n)
    if len(omega) != n - i:
        raise LengthMismatch(f"inner weight must have length {format_scalar(n - i)}")
    if not is_dominant_row(omega):
        raise NotDominant(f"inner weight not k-dominant: {format_vector(omega)}")
    t = mu.exponent + n - Fraction(i - 1, 2)
    if t.denominator != 1 or int(t) % 2 != mu.parity or not is_dominant_row(omega[-1:] + (t,)):
        return None
    RANK_BOUND.check(n)
    return omega + (t,) * i


def siegel_degenerate_datum(lam) -> CharacterDatum:
    """Character of the degenerate series holding a scalar-weight vector:
    the character of the Klingen datum at i = n."""
    lam = as_vector(lam)
    n = len(lam)
    _require_dominant_integral(lam)
    if not is_tail_constant(lam, n):
        raise NotScalarWeight(f"entries differ: {format_vector(lam)}")
    return klingen_embedding_datum(lam, n).character


def klingen_convergence(s, n: int, j: int) -> bool:
    """Absolute convergence range of the rank-j Eisenstein sum: s > n - (j-1)/2."""
    n = as_int(n)
    j = check_index(j, n, "j")
    return as_scalar(s) > Fraction(n) - Fraction(j - 1, 2)


def gl_degenerate_convergence(s, t, n: int) -> bool:
    """Degenerate series on the linear group converges for s - t > n/2."""
    return as_scalar(s) - as_scalar(t) > Fraction(as_int(n), 2)
