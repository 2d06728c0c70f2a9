"""Induction-level classification, decomposition reports, surjectivity.

Three layers of bookkeeping on top of the Weyl-orbit machinery: grouping
induction points s by the dot orbit of their Harish-Chandra parameter,
structured hypothesis reports for the isotypic decomposition along a
Klingen parabolic, and the square-free-level surjectivity criterion for
the Siegel operator.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt

from .errors import (
    LEVEL_ENTRY_BOUND,
    Frozen,
    LengthMismatch,
    LevelTooLarge,
    NonIntegral,
    NotDominant,
    RankOne,
)
from .scalars import as_exact, as_int, as_scalar, format_scalar, format_vector, is_integer
from .weights import (
    Weight,
    check_index,
    is_bottom_uniform,
    is_dominant_row,
    is_integral,
    is_k_dominant,
    is_tail_constant,
    parity_class,
    rho,
)
from .weyl import canonical_row, dominant_orbit_elements, is_sufficiently_regular

HYPOTHESIS_NAMES = (
    "k_dominant_integral",
    "tail_constant_per_place",
    "bottom_entry_uniform",
    "sufficiently_regular",
    "inner_weight_bound",
)

CUSPIDAL_DATUM_ASSUMPTION = (
    "assumes a cuspidal datum whose archimedean components realize the "
    "listed inner weights; existence of that datum is not verified here"
)


def _shape(inner, n, i):
    """The inner weight as a vector of length n - i, with n and i as ints."""
    n = as_int(n)
    i = check_index(i, n)
    inner = tuple(map(as_exact, inner))
    if len(inner) != n - i:
        raise LengthMismatch(f"inner weight must have {n - i} entries, got {len(inner)}")
    return inner, n, i


def hc_parameter(inner, s, n, i):
    """The parameter rho + (inner_1, ..., inner_{n-i}, s, ..., s)."""
    inner, n, i = _shape(inner, n, i)
    full = inner + (as_scalar(s),) * i
    return tuple(a + b for a, b in zip(full, rho(n)))


def _validated_inner(inner, n, i):
    """_shape plus a dominant integral inner weight with non-negative entries."""
    inner, n, i = _shape(inner, n, i)
    if inner:
        if not all(is_integer(v) for v in inner):
            raise NonIntegral(f"inner weight {format_vector(inner)} has non-integer entries")
        if not is_dominant_row(inner):
            raise NotDominant(f"inner weight {format_vector(inner)} is not weakly decreasing")
        if inner[-1] < 0:
            raise NotDominant(f"inner weight {format_vector(inner)} has negative bottom entry")
    return tuple(int(v) for v in inner), n, i


class OrbitClassification(Frozen):
    __slots__ = ("n", "i", "inner", "x_max", "classes", "y", "bijective")

    @property
    def x(self):
        return tuple(range(self.x_max + 1))


def classify_levels(inner, n, i, x_max=None):
    """Partition the levels {0..x_max} by equality of induced orbits.

    For i < n the range ends at the bottom inner entry and x_max must be
    left unset. The i = n case has no inner entry to read the bound off,
    so there an explicit x_max is required instead.
    """
    inner, n, i = _validated_inner(inner, n, i)
    if i == n:
        if x_max is None:
            raise ValueError("x_max is required when i = n")
        x_max = as_int(x_max)
        if x_max < 0:
            raise ValueError("x_max must be nonnegative")
    else:
        if x_max is not None:
            raise ValueError("x_max is only accepted when i = n")
        x_max = inner[-1]
    LEVEL_ENTRY_BOUND.check((x_max + 1) * n, x_max + 1)

    # one list per orbit, in the order its first level is met
    classes = {}
    for x in range(x_max + 1):
        classes.setdefault(canonical_row(inner + (x,) * i), []).append(x)

    c = 2 * n - i + 1

    def in_y(x):
        return 2 * x <= c or x > c

    return OrbitClassification(
        n=n,
        i=i,
        inner=inner,
        x_max=x_max,
        classes=tuple(tuple(cls) for cls in classes.values()),
        y=tuple(filter(in_y, range(x_max + 1))),
        bijective=all(sum(map(in_y, cls)) == 1 for cls in classes.values()),
    )


def duality_check(inner, n, i, s) -> bool:
    """Levels s and 2n-i+1-s induce the same infinitesimal character."""
    inner, n, i = _validated_inner(inner, n, i)
    s = as_exact(s)
    dual = 2 * n - i + 1 - s
    return canonical_row(inner + (s,) * i) == canonical_row(inner + (dual,) * i)


def theorem_main_necessary(w: Weight, i):
    """Dominant orbit elements passing the tail and bottom-entry filters.

    An empty result certifies that no highest weight vector along the
    index-i parabolic shares this infinitesimal character.
    """
    i = check_index(i, w.n)
    if not is_integral(w):
        raise NonIntegral(f"{w} has non-integer entries")
    kept = []
    for omega in dominant_orbit_elements(w):
        for row in omega.doubled:
            if not is_tail_constant(row, i):
                break
        else:
            if is_bottom_uniform(omega):
                kept.append(omega)
    return kept


class DecompositionReport(Frozen):
    __slots__ = ("n", "d", "i", "weight", "hypotheses", "parity_class", "exponent", "inner_weight", "conclusion",
                 "assumption")

    def passed(self, name) -> bool:
        for label, ok in self.hypotheses:
            if label == name:
                return ok
        raise KeyError(name)


def decomposition_report(w: Weight, i, character_parity=None):
    """Evaluate the decomposition hypotheses and describe the outcome.

    The report is descriptive data, not a proof object. When a character
    parity (+1 or -1) is supplied and disagrees with (-1)^(bottom entry),
    the space it would contribute to is zero and the conclusion says so.
    """
    n = w.n
    i = check_index(i, n)
    if character_parity is not None and character_parity not in (1, -1):
        raise ValueError("character parity must be +1 or -1")

    checks = {
        "k_dominant_integral": is_k_dominant(w) and is_integral(w),
        "tail_constant_per_place": all(is_tail_constant(row, i) for row in w.doubled),
        "bottom_entry_uniform": is_bottom_uniform(w),
        "sufficiently_regular": is_sufficiently_regular(w, i),
        "inner_weight_bound": i == n
        or all(row[n - i - 1] > 2 * (2 * n - i + 1) for row in w.doubled),
    }
    hypotheses = tuple((name, bool(checks[name])) for name in HYPOTHESIS_NAMES)

    parity = exponent = inner_weight = None
    conclusion = "HypothesesFail"
    if all(ok for _, ok in hypotheses):
        parity = parity_class(w)
        exponent = Fraction(w.doubled[0][-1] - 2 * n + i - 1, 2)
        inner_weight = tuple(tuple(row[: n - i]) for row in w.rows)
        conclusion = "IsotypicDescription"
        if character_parity is not None and character_parity != parity:
            conclusion = "VanishesWrongParity"
    return DecompositionReport(
        n=n,
        d=w.d,
        i=i,
        weight=w,
        hypotheses=hypotheses,
        parity_class=parity,
        exponent=exponent,
        inner_weight=inner_weight,
        conclusion=conclusion,
        assumption=CUSPIDAL_DATUM_ASSUMPTION,
    )


SURJECTIVITY_CONDITIONS = ("level_squarefree", "bottom_entry_bound", "bottom_entry_uniform", "weight_alternative")


class SurjectivityVerdict(Frozen):
    __slots__ = ("tag", "failed_conditions")

    @classmethod
    def of(cls, failed):
        """The verdict on the failed conditions: SurjectiveByTheorem when none failed."""
        failed = tuple(failed)
        return cls("NotCovered" if failed else "SurjectiveByTheorem", failed)

    def __bool__(self):
        return self.tag == "SurjectiveByTheorem"


# Levels are factored by trial division over the primes below
# TRIAL_BOUND, then the cofactor is decided by Miller-Rabin on the first
# 13 prime bases, which is exact below PRIMALITY_BOUND (Sorenson and
# Webster, Math. Comp. 86 (2017)), and split by Brent's variant of
# Pollard's rho method when composite.
TRIAL_BOUND = 1000
PRIMALITY_BOUND = 3317044064679887385961981


def _primes_below(n: int) -> tuple:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(TRIAL_BOUND)
_BASES = _SMALL_PRIMES[:13]


def _miller_rabin(n: int) -> bool:
    """Exact primality of an odd n > 41 below PRIMALITY_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below TRIAL_BOUND (Brent 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _strip_small(n: int):
    """(n without its prime factors below TRIAL_BOUND, True iff none of them divides n twice)."""
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return n, False
    return n, True


def _squarefree_cofactor(m: int) -> bool:
    """Square-freeness of 1 < m < PRIMALITY_BOUND, m free of primes below TRIAL_BOUND."""
    if _miller_rabin(m):
        return True
    if isqrt(m) ** 2 == m:
        return False
    if m < TRIAL_BOUND ** 3:
        return True  # two distinct primes above TRIAL_BOUND
    a = _rho_factor(m)
    b = m // a
    return gcd(a, b) == 1 and _squarefree_cofactor(a) and _squarefree_cofactor(b)


def is_squarefree(n: int) -> bool:
    n = as_int(n)
    if n < 1:
        raise ValueError("need a positive integer")
    m, squarefree = _strip_small(n)
    if not squarefree:
        return False
    if m < TRIAL_BOUND:
        return True  # 1 or a prime
    if m >= PRIMALITY_BOUND:
        raise LevelTooLarge(f"cofactor {format_scalar(m)} of level {format_scalar(n)} is not below {PRIMALITY_BOUND}")
    return _squarefree_cofactor(m)


def _is_prime(p: int) -> bool:
    if p < 2 or _strip_small(p)[0] != p:
        return False
    if p < TRIAL_BOUND ** 2:
        return True
    if p >= PRIMALITY_BOUND:
        raise LevelTooLarge(f"cannot decide whether {format_scalar(p)} is prime: it is not below {PRIMALITY_BOUND}")
    return _miller_rabin(p)


def level_from_primes(primes):
    """Product of the listed primes; they must be distinct and prime."""
    primes = [as_int(p) for p in primes]
    if len(set(primes)) != len(primes):
        raise ValueError("prime factors must be distinct")
    level = 1
    for p in primes:
        if not _is_prime(p):
            raise ValueError(f"{format_scalar(p)} is not prime")
        level *= p
    return level


def siegel_surjectivity_check(w: Weight, level) -> SurjectivityVerdict:
    """Check the square-free-level sufficient conditions for surjectivity."""
    n = w.n
    if n == 1:
        raise RankOne("the criterion needs rank at least 2")
    if not is_integral(w):
        raise NonIntegral(f"{w} has non-integer entries")
    if not is_k_dominant(w):
        raise NotDominant(f"{w} is not dominant")
    level = as_int(level)
    if level < 1:
        raise ValueError("level must be a positive integer")

    bottoms = [row[-1] for row in w.doubled]  # doubled, as are the next entries
    nexts = [row[-2] for row in w.doubled]
    holds = {
        "level_squarefree": is_squarefree(level),
        "bottom_entry_bound": all(b > 4 * n for b in bottoms),
        "bottom_entry_uniform": is_bottom_uniform(w),
        # the next-to-bottom entries equal the bottom ones everywhere, or vary
        "weight_alternative": all(a == b for a, b in zip(nexts, bottoms)) or len(set(nexts)) > 1,
    }
    return SurjectivityVerdict.of(name for name in SURJECTIVITY_CONDITIONS if not holds[name])
