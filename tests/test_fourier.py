"""Tests for symmetric-matrix predicates and formal Fourier expansions."""

import random
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod
from operator import mul

import pytest

from sympl.cli import main
from sympl.errors import (
    DegreeExceedsGrid,
    GridTooLarge,
    IndexOutOfRange,
    NotUnimodular,
    RankMismatch,
    ShapeMismatch,
    Singular,
    SizeOne,
)
from sympl.fourier import (
    ENTRY_BOUND,
    ENUMERATION_BOUND,
    FourierExpansion,
    SymMatrix,
    _congruence,
    _definite,
    _eliminate,
    _factor_box,
    _integer_form,
    _upper_rows,
    _variable_position,
    build_pd_grid,
    corank,
    cusp_condition_check,
    filtration_index,
    format_expansion,
    gl_transform,
    grid_variable,
    in_sym_j,
    is_cuspidal,
    is_pd,
    is_psd,
    parse_expansion,
    pit_vanishes,
    rank,
    rigidity_check,
    siegel_phi,
    slash_invariance_check,
)
from sympl.laurent import LaurentPoly
from sympl.scalars import format_scalar
from sympl.serialize import grid_from_json, to_json
from sympl.weights import Weight, as_vector

P = LaurentPoly.parse


def matmul(a, b):
    return [
        [sum(a[r][t] * b[t][c] for t in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def transpose(a):
    return [[a[r][c] for r in range(len(a))] for c in range(len(a[0]))]


def gram(g):
    """The positive-definite matrix (t g) g for invertible g."""
    return matmul(transpose(g), g)


def random_invertible(rng, n):
    """Product of integer shears, so the determinant is 1."""
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    if n < 2:
        return rows
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for col in range(n):
            rows[i][col] += c * rows[j][col]
    return rows


def gram_like(rng, n, step, perturb):
    """(t g) g for a k x n matrix g with entries in step * {-2..2}, k <= n,
    then, when perturb is set, one entry and its mirror moved by +-step."""
    k = rng.randint(1, n)
    g = [[step * rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    rows = gram(g)
    if perturb:
        r, c = rng.randrange(n), rng.randrange(n)
        delta = rng.choice((-step, step))
        rows[r][c] += delta
        if r != c:
            rows[c][r] += delta
    return rows


def test_symmatrix_basics():
    h = SymMatrix.of([[1, 2], [2, 3]])
    assert h.n == 2
    assert h[0, 1] == 2
    assert h.upper_triangle() == (1, 2, 3)
    assert str(h) == "[1, 2; 2, 3]"
    assert h.drop_first() == SymMatrix.of([[3]])
    assert SymMatrix.diag([1, 2]).entries == ((1, 0), (0, 2))
    assert SymMatrix.zero(2) == SymMatrix.diag([0, 0])
    assert SymMatrix.identity(3) == SymMatrix.diag([1, 1, 1])
    with pytest.raises(ShapeMismatch):
        SymMatrix.of([[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch):
        SymMatrix.of([[1, 2]])


def test_rank_and_corank():
    assert rank(SymMatrix.identity(2)) == 2
    assert rank(SymMatrix.diag([0, 3])) == 1
    assert rank(SymMatrix.of([[1, 2], [2, 4]])) == 1
    assert rank(SymMatrix.zero(3)) == 0
    assert corank(SymMatrix.diag([0, 3])) == 1
    assert rank(SymMatrix.identity(7)) == 7


def test_definiteness_examples():
    i2 = SymMatrix.identity(2)
    assert is_psd(i2) and is_pd(i2)
    indef = SymMatrix.of([[1, 2], [2, 1]])
    assert not is_psd(indef) and not is_pd(indef)
    semi = SymMatrix.diag([0, 3])
    assert is_psd(semi) and not is_pd(semi)
    degenerate = SymMatrix.of([[2, 2], [2, 2]])
    assert is_psd(degenerate) and not is_pd(degenerate)
    # no size cap: size-7 answers agree with the Schur-complement oracle
    assert is_psd(SymMatrix.identity(7)) and is_pd(SymMatrix.identity(7))
    rng = random.Random(80)
    answers = set()
    for perturb in (False, True) * 10:
        rows = gram_like(rng, 7, Fraction(1), perturb)
        answer = is_psd(SymMatrix.of(rows))
        assert answer == psd_oracle(rows)
        answers.add(answer)
    assert answers == {True, False}


def psd_oracle(rows):
    """Schur-complement recursion, independent of the minor enumeration."""
    if not rows:
        return True
    a = rows[0][0]
    if a < 0:
        return False
    if a == 0:
        if any(v != 0 for v in rows[0]):
            return False
        return psd_oracle([row[1:] for row in rows[1:]])
    size = len(rows)
    comp = [
        [rows[r][c] - Fraction(rows[r][0] * rows[0][c], 1) / a for c in range(1, size)]
        for r in range(1, size)
    ]
    return psd_oracle(comp)


def pd_oracle(rows):
    if not rows:
        return True
    a = rows[0][0]
    if a <= 0:
        return False
    size = len(rows)
    comp = [
        [rows[r][c] - Fraction(rows[r][0] * rows[0][c], 1) / a for c in range(1, size)]
        for r in range(1, size)
    ]
    return pd_oracle(comp)


def test_definiteness_against_schur_recursion():
    values = range(-2, 3)
    for a in values:
        h = SymMatrix.of([[a]])
        assert is_psd(h) == psd_oracle([[Fraction(a)]])
        assert is_pd(h) == pd_oracle([[Fraction(a)]])
    for a in values:
        for b in values:
            for d in values:
                rows = [[Fraction(a), Fraction(b)], [Fraction(b), Fraction(d)]]
                h = SymMatrix.of(rows)
                assert is_psd(h) == psd_oracle(rows)
                assert is_pd(h) == pd_oracle(rows)
    rng = random.Random(81)
    for _ in range(300):
        n = rng.choice([3, 3, 4])
        sym = [[Fraction(0)] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                v = Fraction(rng.randint(-3, 3))
                sym[r][c] = sym[c][r] = v
        h = SymMatrix.of(sym)
        assert is_psd(h) == psd_oracle(sym)
        assert is_pd(h) == pd_oracle(sym)
    # half-integral entries, sizes up to 7: random, Gram and perturbed Gram
    half = Fraction(1, 2)
    answers = set()
    for _ in range(300):
        n = rng.randint(3, 7)
        if rng.random() < 0.25:
            sym = [[Fraction(0)] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    sym[r][c] = sym[c][r] = half * rng.randint(-3, 3)
        else:
            sym = gram_like(rng, n, half, rng.random() < 0.5)
        h = SymMatrix.of(sym)
        answers.add((is_psd(h), is_pd(h)))
        assert is_psd(h) == psd_oracle(sym)
        assert is_pd(h) == pd_oracle(sym)
    assert answers == {(False, False), (True, False), (True, True)}


def det_oracle(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** c * rows[0][c] * det_oracle([row[:c] + row[c + 1:] for row in rows[1:]])
        for c in range(len(rows))
    )


def rank_oracle(rows):
    """Size of the largest nonvanishing minor."""
    n = len(rows)
    for k in range(n, 0, -1):
        for rs in combinations(range(n), k):
            for cs in combinations(range(n), k):
                if det_oracle([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def eliminate(a, invert=False):
    """_eliminate on the integer form m / s of a, giving the determinant and
    the inverse of a itself as Fractions."""
    m, s = _integer_form(a)
    r, det, inverse = _eliminate(m, invert)
    if inverse is not None:
        rows, p = inverse
        inverse = [[Fraction(s * x, p) for x in row] for row in rows]
    return r, Fraction(det, s ** len(m)), inverse


def test_elimination_against_minors():
    rng = random.Random(84)

    def rational(height, width):
        return [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)]
            for _ in range(height)
        ]

    identity = [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
    ranks = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        # a product through k columns has rank at most k
        k = rng.randint(1, n)
        a = matmul(rational(n, k), rational(k, n))
        r, det, inverse = eliminate(a, invert=True)
        ranks.add(r)
        assert r == rank_oracle(a)
        assert det == det_oracle(a)
        if det:
            assert matmul(a, inverse) == [row[:n] for row in identity[:n]]
            h = SymMatrix.of(gram(rational(n, n)))
            back = matmul(transpose(a), matmul(gl_transform(h, a).entries, a))
            assert SymMatrix.of(back) == h
        else:
            assert inverse is None
        sym = gram(a)
        assert rank(SymMatrix.of(sym)) == rank_oracle(sym) == r
    assert ranks == {0, 1, 2, 3, 4}
    assert _eliminate(SymMatrix.zero(3).numerators) == (0, 0, None)


def test_in_sym_j():
    semi = SymMatrix.diag([0, 3])
    assert in_sym_j(semi, 0)
    assert in_sym_j(semi, 1)
    assert not in_sym_j(semi, 2)
    assert not in_sym_j(SymMatrix.identity(2), 1)
    assert not in_sym_j(SymMatrix.of([[0, 1], [1, 0]]), 1)
    assert in_sym_j(SymMatrix.zero(2), 2)
    with pytest.raises(IndexOutOfRange):
        in_sym_j(semi, 3)


def test_gl_transform_examples():
    h = SymMatrix.identity(2)
    assert gl_transform(h, [[2, 0], [0, 1]]) == SymMatrix.of(
        [[Fraction(1, 4), 0], [0, 1]]
    )
    assert gl_transform(h, [[1, 0], [0, 1]]) == h
    with pytest.raises(Singular):
        gl_transform(h, [[1, 1], [1, 1]])
    with pytest.raises(ShapeMismatch):
        gl_transform(h, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_gl_transform_is_right_action():
    rng = random.Random(82)
    for _ in range(80):
        n = rng.choice([2, 3])
        g = random_invertible(rng, n)
        h = SymMatrix.of(gram(g))
        a = random_invertible(rng, n)
        b = random_invertible(rng, n)
        step = gl_transform(gl_transform(h, a), b)
        assert step == gl_transform(h, matmul(b, a))
        assert rank(gl_transform(h, a)) == rank(h)


def congruence_oracle(h, m):
    """(t m) h m as a Fraction matrix product."""
    return SymMatrix.of(matmul(transpose(m), matmul(h, m)))


def slash_oracle(f, a):
    """slash_invariance_check written out with Fraction products."""
    r, det, inverse = eliminate(a, invert=True)
    assert r == len(a) and det in (1, -1)
    indices = set(f.support) | {congruence_oracle(h.entries, inverse) for h in f.support}
    return all(f.coefficient(h) == det ** f.k * f.coefficient(congruence_oracle(h.entries, a)) for h in indices)


def random_congruence_case(rng, n):
    """A half-integral or rational symmetric h, and an integer a of
    determinant +-1 or +-2 (then a^-1 is not integral)."""
    dens = rng.choice(((1, 2), (1, 2, 3, 5, 6)))
    h = SymMatrix.from_upper(n, [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(n * (n + 1) // 2)])
    a = random_invertible(rng, n)
    if rng.random() < 0.5:
        a = [[-v for v in a[0]]] + a[1:]
    if rng.random() < 0.4:
        i = rng.randrange(n)
        a = matmul(a, [[Fraction(2 if r == c == i else int(r == c)) for c in range(n)] for r in range(n)])
    return h, a


def test_congruence_matches_fraction_products():
    rng = random.Random(86)
    dets = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        h, a = random_congruence_case(rng, n)
        _, det, inverse = eliminate(a, invert=True)
        dets.add(det)
        assert matmul(a, inverse) == [[int(r == c) for c in range(n)] for r in range(n)]
        for m in (a, inverse):
            rows, s = _integer_form(m)
            assert _congruence(h, rows, s) == congruence_oracle(h.entries, m)
            assert _congruence(h, rows, s, 3) == congruence_oracle(h.entries, [[3 * v for v in row] for row in m])
        assert gl_transform(h, a) == congruence_oracle(h.entries, inverse)
    assert dets == {1, -1, 2, -2}


def test_slash_invariance_matches_fraction_products():
    rng = random.Random(87)
    answers = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        h, a = random_congruence_case(rng, n)
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            # a signed permutation: its orbit through h is finite and, with
            # one coefficient per orbit, often invariant
            perm = rng.sample(range(n), n)
            a = [[rng.choice((1, -1)) if c == perm[r] else 0 for c in range(n)] for r in range(n)]
        support, g = {}, h
        for _ in range(rng.randint(1, 4)):
            support[g] = support.get(g, 0) + rng.choice((1, 1, 1, 2))
            g = congruence_oracle(g.entries, a)
        f = FourierExpansion(n, k, support)
        det = eliminate(a)[1]
        if det in (1, -1):
            answers.add(slash_invariance_check(f, a))
            assert slash_invariance_check(f, a) == slash_oracle(f, a)
        else:
            with pytest.raises(NotUnimodular, match=f"determinant {det} is not a unit"):
                slash_invariance_check(f, a)
    assert answers == {True, False}


# The Fraction form: SymMatrix and its kernels as they stood before the
# matrix held integer rows over one denominator. The integer form is
# compared against it below.

def ref_as_rows(rows):
    out = tuple(as_vector(row) for row in rows)
    if any(len(row) != len(out) for row in out):
        raise ShapeMismatch("matrix must be square")
    return out


def ref_integer_rows(rows):
    s = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (s // v.denominator) for v in row] for row in rows], s


def ref_definite(rows, strict):
    m, _ = ref_integer_rows(rows)
    n = len(m)
    prev = 1
    for k, top in enumerate(m):
        p = top[k]
        if p <= 0:
            if p < 0 or strict or any(top[k + 1:]):
                return False
            continue
        for r in range(k + 1, n):
            f = top[r]
            row = m[r]
            for c in range(r, n):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
    return True


def ref_eliminate(rows, invert=False):
    n = len(rows)
    m, s = ref_integer_rows(rows)
    if invert:
        for r, row in enumerate(m):
            row.extend(int(r == c) for c in range(n))
    sign, prev, pivots = 1, 1, 0
    for col in range(n):
        pivot = next((r for r in range(pivots, n) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != pivots:
            m[pivots], m[pivot] = m[pivot], m[pivots]
            sign = -sign
        top = m[pivots]
        p = top[col]
        for r in range(n):
            if r != pivots:
                f = m[r][col]
                m[r] = [(p * x - f * t) // prev for x, t in zip(m[r], top)]
        prev = p
        pivots += 1
    if pivots < n:
        return pivots, Fraction(0), None
    inverse = None
    if invert:
        inverse = tuple(tuple(Fraction(s * x, prev) for x in row[n:]) for row in m)
    return n, Fraction(sign * prev, s ** n), inverse


def ref_congruence(h, m):
    hi, s_h = ref_integer_rows(h.entries)
    mi, s_m = ref_integer_rows(m)
    cols = tuple(zip(*mi))
    hm_cols = [[sum(map(mul, row, col)) for row in hi] for col in cols]
    den = s_h * s_m * s_m
    return RefSymMatrix(tuple(tuple(Fraction(sum(map(mul, a, b)), den) for b in hm_cols) for a in cols))


@dataclass(frozen=True)
class RefSymMatrix:
    entries: tuple

    def __post_init__(self):
        rows = ref_as_rows(self.entries)
        for r in range(len(rows)):
            for c in range(r + 1, len(rows)):
                if rows[r][c] != rows[c][r]:
                    raise ShapeMismatch(f"entry ({r},{c}) breaks symmetry")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self):
        return len(self.entries)

    def upper_triangle(self):
        return tuple(self.entries[r][c] for r in range(self.n) for c in range(r, self.n))

    def drop_first(self):
        return RefSymMatrix(tuple(row[1:] for row in self.entries[1:]))

    def __str__(self):
        return "[" + "; ".join(", ".join(format_scalar(v) for v in row) for row in self.entries) + "]"


def ref_in_sym_j(h, j):
    return all(h.entries[r][c] == 0 for r in range(h.n) for c in range(h.n) if r < j or c < j)


def ref_gl_transform(h, a):
    rows = ref_as_rows(a)
    if len(rows) != h.n:
        raise ShapeMismatch(f"expected size {h.n}, got {len(rows)}")
    a_inv = ref_eliminate(rows, invert=True)[2]
    if a_inv is None:
        raise Singular("matrix is not invertible")
    return ref_congruence(h, a_inv)


def ref_slash(support, k, a):
    """slash_invariance_check of the size-n expansion {RefSymMatrix: coefficient}."""
    rows = ref_as_rows(a)
    if not all(v.denominator == 1 for row in rows for v in row):
        raise NotUnimodular("matrix entries must be integers")
    _, det, a_inv = ref_eliminate(rows, invert=True)
    if det not in (1, -1):
        raise NotUnimodular(f"determinant {det} is not a unit")
    indices = set(support)
    indices.update(ref_congruence(h, a_inv) for h in support)
    return all(support.get(h, 0) == det ** k * support.get(ref_congruence(h, rows), 0) for h in indices)


def spelled(rng, v):
    """v as an int (when integral), a Fraction or a "p/q" string, at random."""
    v = Fraction(v)
    forms = [v, f"{v.numerator}/{v.denominator}"] + ([v.numerator] if v.denominator == 1 else [])
    return rng.choice(forms)


def outcome(build):
    try:
        return "ok", build()
    except Exception as e:  # the class and message are what is compared
        return type(e), str(e)


def symmetric_cases(rng):
    """Integer, half-integral and rational symmetric rows of size 1-7,
    Gram and perturbed Gram matrices among them."""
    cases = []
    for _ in range(160):
        n = rng.randint(1, 7)
        step = rng.choice((Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        if rng.random() < 0.6:
            rows = gram_like(rng, n, step, rng.random() < 0.5)
        else:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    rows[r][c] = rows[c][r] = step * rng.randint(-4, 4)
        if rng.random() < 0.3:
            rows[0] = [Fraction(0)] * n
            for row in rows:
                row[0] = Fraction(0)
        cases.append(rows)
    return cases


def test_integer_form_matches_fraction_reference():
    rng = random.Random(13)
    pairs = []
    for rows in symmetric_cases(rng):
        n = len(rows)
        # all ints where the values allow it, then mixed spellings
        plain = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
        for form in (plain, [[spelled(rng, v) for v in row] for row in rows]):
            h, ref = SymMatrix.of(form), RefSymMatrix(tuple(tuple(row) for row in form))
            pairs.append((h, ref))
            assert h.entries == ref.entries
            assert all(type(v) is Fraction for row in h.entries for v in row)
            assert str(h) == str(ref) and h.n == ref.n
            assert h.upper_triangle() == ref.upper_triangle()
            assert all(type(v) is Fraction for v in h.upper_triangle())
            if n > 1:
                assert h.drop_first().entries == ref.drop_first().entries
            assert (rank(h), is_psd(h), is_pd(h)) == (
                ref_eliminate(ref.entries)[0], ref_definite(ref.entries, False), ref_definite(ref.entries, True)
            )
            assert [in_sym_j(h, j) for j in range(n + 1)] == [ref_in_sym_j(ref, j) for j in range(n + 1)]
            r, det, inverse = ref_eliminate(ref.entries, invert=True)
            assert eliminate(form, invert=True) == (r, det, inverse and [list(row) for row in inverse])
            a = random_invertible(rng, n)
            if rng.random() < 0.5:
                a = [[v * rng.choice((1, 2, Fraction(1, 2))) for v in row] for row in a]
            if rng.random() < 0.2:
                a[0] = a[-1]
            got, expected = outcome(lambda: gl_transform(h, a)), outcome(lambda: ref_gl_transform(ref, a))
            assert got[0] is expected[0]
            assert got[1].entries == expected[1].entries if got[0] == "ok" else got[1] == expected[1]
    # == agrees with the Fraction form; one matrix spelled two ways is one key
    for (h, ref), (g, gref) in product(pairs[::3], repeat=2):
        assert (h == g) == (ref == gref)
    for (h, _), (g, _) in zip(pairs[::2], pairs[1::2]):
        assert h == g and hash(h) == hash(g)


def test_slash_invariance_matches_fraction_reference():
    rng = random.Random(14)
    answers = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        h, a = random_congruence_case(rng, n)
        if rng.random() < 0.5:
            perm = rng.sample(range(n), n)
            a = [[rng.choice((1, -1)) if c == perm[r] else 0 for c in range(n)] for r in range(n)]
        elif rng.random() < 0.2:
            a = [[v / 2 for v in row] for row in a]
        support, g = {}, RefSymMatrix(h.entries)
        for _ in range(rng.randint(1, 4)):
            support[g] = support.get(g, 0) + rng.choice((1, 1, 2))
            g = ref_congruence(g, a)
        k = rng.randint(1, 5)
        f = FourierExpansion(n, k, {ref.entries: c for ref, c in support.items()})
        got = outcome(lambda: slash_invariance_check(f, a))
        assert got == outcome(lambda: ref_slash(support, k, a))
        answers.add(got[1])
    assert {True, False} < answers


def test_construction_errors_match_fraction_reference():
    rng = random.Random(15)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [[spelled(rng, v) for v in row] for row in gram_like(rng, n, Fraction(1, 2), False)]
        fault = rng.choice(("float", "bool", "zero denominator", "not square", "asymmetric", "two faults"))
        r, c = rng.sample(range(n), 2) if fault == "asymmetric" else (rng.randrange(n), rng.randrange(n))
        if fault in ("float", "two faults"):
            rows[r][c] = 0.5
        if fault == "bool":
            rows[r][c] = rng.choice((True, False))
        if fault == "zero denominator":
            rows[r][c] = "1/0"
        if fault in ("not square", "two faults"):
            rows[rng.randrange(n)].append(1)
        if fault == "asymmetric":
            rows[r][c] = Fraction(rows[r][c]) + rng.choice((1, Fraction(1, 3)))
        got = outcome(lambda: SymMatrix.of(rows))
        expected = outcome(lambda: RefSymMatrix(tuple(tuple(row) for row in rows)))
        assert got[0] is expected[0]
        if got[0] == "ok":
            assert got[1].entries == expected[1].entries
        else:
            assert got[1] == expected[1]
            seen.add((got[0], got[1].split()[0]))
    assert seen == {(TypeError, "not"), (TypeError, "booleans"), (ValueError, "zero"), (ShapeMismatch, "matrix"), (ShapeMismatch, "entry")}


def count_fractions(monkeypatch):
    """The list that every Fraction built from here on is appended to."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        # Python 3.12 builds arithmetic results without __new__
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
    return built


def test_integer_rows_build_no_fraction(monkeypatch):
    built = count_fractions(monkeypatch)
    h = SymMatrix.of([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert is_pd(h) and is_psd(h) and rank(h) == 3 and corank(SymMatrix.diag([0, 3])) == 1
    assert in_sym_j(SymMatrix.of([[0, 0], [0, 5]]), 1) and not in_sym_j(h, 1)
    # the inverse of a has denominator 2
    g = gl_transform(h, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    points = list(build_pd_grid(2, 2, 1).points)
    assert built == []
    assert len(points) == 8 * 8
    assert g == congruence_oracle(h.entries, [[1, -1, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    # the counter does see Fractions
    assert built


def test_slash_invariance():
    f = FourierExpansion(2, 4, {SymMatrix.identity(2): 1})
    assert slash_invariance_check(f, [[1, 0], [0, 1]])
    assert slash_invariance_check(f, [[0, 1], [1, 0]])
    assert slash_invariance_check(f, [[-1, 0], [0, -1]])
    lopsided = FourierExpansion(2, 4, {SymMatrix.diag([1, 2]): 1})
    assert not slash_invariance_check(lopsided, [[0, 1], [1, 0]])
    paired = FourierExpansion(
        2, 4, {SymMatrix.diag([1, 2]): 5, SymMatrix.diag([2, 1]): 5}
    )
    assert slash_invariance_check(paired, [[0, 1], [1, 0]])
    with pytest.raises(NotUnimodular):
        slash_invariance_check(f, [[2, 0], [0, 1]])
    with pytest.raises(NotUnimodular):
        slash_invariance_check(f, [[Fraction(1, 2), 0], [0, 2]])
    f3 = FourierExpansion(3, 4, {SymMatrix.identity(3): 1})
    with pytest.raises(NotUnimodular, match="determinant 2 is"):
        slash_invariance_check(f3, [[2, 1, 0], [1, 1, 0], [0, 1, 2]])
    with pytest.raises(NotUnimodular, match="determinant -2 is"):
        slash_invariance_check(f3, [[1, 2, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ShapeMismatch):
        slash_invariance_check(f, [[1]])


def test_expansion_validation():
    f = FourierExpansion(2, 4, {SymMatrix.identity(2): 1, SymMatrix.zero(2): 0})
    assert len(f.support) == 1
    assert f.coefficient(SymMatrix.zero(2)) == 0
    assert f.coefficient([[1, 0], [0, 1]]) == 1
    # raw nested sequences are accepted as keys
    g = FourierExpansion(2, 4, {((1, 0), (0, 1)): 1})
    assert g == f
    with pytest.raises(ValueError):
        FourierExpansion(0, 4)
    with pytest.raises(ValueError):
        FourierExpansion(2, Fraction(1, 2))
    with pytest.raises(ShapeMismatch):
        FourierExpansion(2, 4, {SymMatrix.identity(3): 1})


@pytest.mark.parametrize(("n", "cells", "message"), [
    (2, [1], "size 2 has 3 cells, not 1"),
    (2, [1] * 4, "size 2 has 3 cells, not 4"),
    (-2, [1], "size -2 has 0 cells, not 1"),  # a negative size has no cells
])
def test_from_upper_names_a_cell_count_that_does_not_fit(n, cells, message):
    # the rows were built first, and zip() refused with an unnamed message
    with pytest.raises(ValueError, match=f"^{message}$"):
        SymMatrix.from_upper(n, cells)


def test_siegel_phi():
    f = FourierExpansion(2, 6, {SymMatrix.diag([0, 2]): 5, SymMatrix.identity(2): 7})
    phi = siegel_phi(f)
    assert phi.n == 1 and phi.k == 6
    assert phi.support == {SymMatrix.of([[2]]): Fraction(5)}
    all_pd = FourierExpansion(2, 6, {SymMatrix.identity(2): 7})
    assert siegel_phi(all_pd).support == {}
    assert siegel_phi(FourierExpansion(3, 0)).support == {}
    with pytest.raises(SizeOne):
        siegel_phi(FourierExpansion(1, 6, {SymMatrix.of([[1]]): 1}))


def test_cusp_conditions():
    assert cusp_condition_check(FourierExpansion(2, 4, {SymMatrix.identity(2): 1}))
    assert is_cuspidal(FourierExpansion(2, 4, {SymMatrix.identity(2): 1}))
    semi = FourierExpansion(2, 4, {SymMatrix.diag([0, 1]): 1})
    assert cusp_condition_check(semi)
    assert not is_cuspidal(semi)
    indef = FourierExpansion(2, 4, {SymMatrix.of([[1, 2], [2, 1]]): 1})
    assert not cusp_condition_check(indef)
    assert not is_cuspidal(indef)
    empty = FourierExpansion(2, 4)
    assert cusp_condition_check(empty) and is_cuspidal(empty)


def test_filtration_index():
    assert filtration_index(FourierExpansion(2, 4)) == 0
    assert filtration_index(FourierExpansion(2, 4, {SymMatrix.identity(2): 1})) == 1
    assert filtration_index(FourierExpansion(2, 4, {SymMatrix.diag([0, 2]): 1})) == 2
    assert filtration_index(FourierExpansion(2, 4, {SymMatrix.zero(2): 1})) == 3


def test_filtration_drop_example():
    support = {SymMatrix.diag([0, 4]): 1, SymMatrix.of([[1, 1], [1, 2]]): 2}
    f = FourierExpansion(2, 8, support)
    assert filtration_index(f) == 2
    assert filtration_index(siegel_phi(f)) == 1


def test_phi_preserves_cusp_condition_on_block_supports():
    # singular support realized in the zero-block shape the operator deletes
    rng = random.Random(83)
    for _ in range(100):
        n = rng.choice([2, 3])
        support = {}
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                g = random_invertible(rng, n)
                h = SymMatrix.of(gram(g))
            else:
                g = random_invertible(rng, n - 1)
                inner = gram(g)
                rows = [[Fraction(0)] * n for _ in range(n)]
                for r in range(n - 1):
                    for c in range(n - 1):
                        rows[r + 1][c + 1] = inner[r][c]
                h = SymMatrix.of(rows)
            support[h] = rng.randint(1, 9)
        f = FourierExpansion(n, 2 * rng.randint(1, 5), support)
        assert cusp_condition_check(f)
        phi = siegel_phi(f)
        assert cusp_condition_check(phi)
        assert filtration_index(f) - filtration_index(phi) <= 1


def test_rigidity_check():
    w = Weight(((5, 3),))
    assert rigidity_check(w, [SymMatrix.diag([0, 2])], 1)
    assert rigidity_check(w, FourierExpansion(2, 5, {SymMatrix.diag([0, 2]): 1}), 1)
    assert not rigidity_check(Weight(((5, 3), (5, 4))), [SymMatrix.diag([0, 2])], 1)
    assert not rigidity_check(w, [SymMatrix.zero(2)], 2)
    assert rigidity_check(Weight(((5, 5),)), [SymMatrix.zero(2)], 2)
    # vacuous when nothing in the support has corank >= j
    assert rigidity_check(w, [SymMatrix.identity(2)], 1)
    assert rigidity_check(w, [], 2)
    with pytest.raises(RankMismatch):
        rigidity_check(w, [SymMatrix.identity(3)], 1)
    with pytest.raises(RankMismatch):
        rigidity_check(w, FourierExpansion(3, 5), 1)
    with pytest.raises(IndexOutOfRange):
        rigidity_check(w, [SymMatrix.zero(2)], 5)


def test_grid_variable():
    assert grid_variable(1, 2) == "x_1_2_1"
    assert grid_variable(2, 1) == "x_1_2_1"
    assert grid_variable(1, 2, 3) == "x_1_2_3"


def test_grid_size_one():
    grid = build_pd_grid(1, 1, 2)
    assert grid.diagonal_offsets == (1,)
    assert grid.nominal_offsets == (1,)
    assert not grid.deviation
    assert grid.bad_point_count == 0
    values = sorted(point[0][(0, 0)] for point in grid.points)
    assert values == [1, 2, 3]


def test_grid_no_deviation():
    grid = build_pd_grid(2, 1, 2)
    assert len(grid.points) == 27
    assert grid.diagonal_offsets == (8,)
    assert grid.nominal_offsets == (8,)
    assert not grid.deviation
    assert grid.deviation_witnesses == ()
    diag_values = {point[0][(0, 0)] for point in grid.points}
    assert diag_values == {8, 9, 10}
    off_values = {point[0][(0, 1)] for point in grid.points}
    assert off_values == {1, 2, 3}
    for point in grid.points:
        assert is_pd(point[0])


def test_grid_offset_inflation():
    # the stated diagonal offset admits one degenerate matrix here
    grid = build_pd_grid(2, 1, 1)
    assert grid.deviation
    assert grid.bad_point_count == 1
    assert grid.deviation_witnesses == (SymMatrix.of([[2, 2], [2, 2]]),)
    assert grid.nominal_offsets == (2,)
    assert grid.diagonal_offsets == (8,)
    assert len(grid.points) == 8
    for point in grid.points:
        assert is_pd(point[0])


def test_grid_multiple_factors():
    grid = build_pd_grid(1, 2, 1)
    assert len(grid.points) == 4
    assert all(len(point) == 2 for point in grid.points)
    assert grid.diagonal_offsets == (1, 1)


def test_grid_bounds_dict():
    grid = build_pd_grid(2, 1, {(1, 2, 1): 3})
    assert grid.bounds[(1, 1, 2)] == 3
    assert grid.bounds[(1, 1, 1)] == 1
    assert grid.bounds[(1, 2, 2)] == 1
    with pytest.raises(ValueError):
        build_pd_grid(2, 1, {(1, 3, 1): 2})
    with pytest.raises(ValueError, match=r"\(1, 1, 2\) and \(1, 2, 1\) name one entry"):
        build_pd_grid(2, 1, {(1, 1, 2): 1, (1, 2, 1): 3})
    with pytest.raises(ValueError):
        build_pd_grid(2, 1, {(2, 1, 1): 2})
    with pytest.raises(ValueError):
        build_pd_grid(2, 1, 0)
    with pytest.raises(ValueError):
        build_pd_grid(0, 1, 1)


def test_pit_examples():
    grid = build_pd_grid(1, 1, 2)
    assert pit_vanishes(LaurentPoly.zero(), grid)
    assert not pit_vanishes(P("x_1_1_1 - 1"), grid)
    with pytest.raises(DegreeExceedsGrid):
        pit_vanishes(P("x_1_1_1^3"), grid)
    with pytest.raises(DegreeExceedsGrid):
        pit_vanishes(P("y + 1"), grid)
    with pytest.raises(ValueError):
        pit_vanishes(P("x_1_1_1^-1"), grid)


def test_pit_separates_monomials():
    grid = build_pd_grid(2, 1, 1)
    for name in ("x_1_1_1", "x_1_2_1", "x_2_2_1"):
        assert not pit_vanishes(P(name), grid)
    assert not pit_vanishes(P("x_1_1_1 - x_2_2_1"), grid)
    # variable names normalize the index pair, so x_2_1_1 is the same entry
    assert pit_vanishes(P("x_1_2_1 - x_2_1_1"), build_pd_grid(2, 1, 1))


def test_pit_certifies_an_identity():
    grid = build_pd_grid(2, 1, 2)
    square = P("x_1_1_1 + x_2_2_1") ** 2
    expanded = P("x_1_1_1^2 + 2*x_1_1_1*x_2_2_1 + x_2_2_1^2")
    assert pit_vanishes(square - expanded, grid)


def scan_vanishes(p, grid):
    """Reference: evaluate p at every grid point."""
    index = []
    for name in p.gens:
        _, i, j, k = name.split("_")
        i, j = sorted((int(i), int(j)))
        index.append((name, int(k) - 1, i - 1, j - 1))
    for point in grid.points:
        if p.evaluate({name: point[f].entries[i][j] for name, f, i, j in index}):
            return False
    return True


def random_grid_poly(rng, grid, zero):
    """A polynomial within the grid's degree bounds, with each off-diagonal
    exponent split at random between the names x_i_j_k and x_j_i_k. When
    zero is set, the same monomials are subtracted under fresh splits, so
    the polynomial vanishes on the grid, and is often nonzero as written."""
    def monomial(exps):
        factors = []
        for (k, i, j), e in exps.items():
            low = rng.randint(0, e) if i != j else e
            factors += [f"{grid_variable(i, j, k)}^{low}", f"x_{j}_{i}_{k}^{e - low}"]
        return "*".join(factors)

    entries = {pos: rng.randint(0, t) for pos, t in grid.bounds.items()}
    chosen = [{pos: rng.randint(0, t) for pos, t in grid.bounds.items()} for _ in range(rng.randint(1, 3))]
    coeffs = [rng.randint(1, 5) for _ in chosen]
    text = " + ".join(f"{c}*{monomial(m)}" for c, m in zip(coeffs, chosen))
    if zero:
        text += "".join(f" - {c}*{monomial(m)}" for c, m in zip(coeffs, chosen))
    elif rng.random() < 0.5:
        text += f" - {monomial(entries)}"
    return P(text)


def test_pit_matches_point_scan():
    rng = random.Random(6)
    grids = [build_pd_grid(n, d, t) for n in (1, 2) for d in (1, 2) for t in (1, 2)]
    grids += [build_pd_grid(2, 1, {(1, 1, 2): 2}), build_pd_grid(2, 2, {(2, 2, 2): 2, (1, 1, 1): 2})]
    outcomes = set()
    for grid in grids:
        for case in range(12):
            p = random_grid_poly(rng, grid, zero=case % 3 == 0)
            vanishes = pit_vanishes(p, grid)
            assert vanishes == scan_vanishes(p, grid), (str(p), grid.bounds)
            outcomes.add((vanishes, bool(p.terms)))
    # zero polynomials, aliased ones that vanish, and nonzero ones all occur
    assert outcomes == {(True, False), (True, True), (False, True)}


def test_pit_merges_aliased_names():
    grid = build_pd_grid(2, 1, 1)
    # y^2 - 3y + 2 for y = x_1_2_1 = x_2_1_1 in {1, 2}: zero on the grid, degree 2 > 1
    p = P("x_1_2_1*x_2_1_1 - 3*x_1_2_1 + 2")
    assert scan_vanishes(p, grid)
    with pytest.raises(DegreeExceedsGrid, match="degree 2 of x_1_2_1 = x_2_1_1 exceeds bound 1"):
        pit_vanishes(p, grid)
    assert pit_vanishes(P("x_1_2_1*x_2_1_1 - x_2_1_1*x_1_2_1"), grid)
    wider = build_pd_grid(2, 1, 2)
    assert not pit_vanishes(p, wider)
    assert pit_vanishes(P("x_1_2_1^2 - x_1_2_1*x_2_1_1"), wider)


@pytest.mark.parametrize("name", ["x_01_1_1", "x_1_1_01", "x_1_01_1", "x_\u0661_1_1"])
def test_pit_refuses_a_name_grid_variable_does_not_write(name, capsys):
    # x_01_1_1 is a generator apart from x_1_1_1, so it must not be read as entry (1,1,1)
    grid = build_pd_grid(1, 1, 1)
    message = f"variable {name} does not index a grid entry"
    with pytest.raises(DegreeExceedsGrid, match=f"^{message}$"):
        pit_vanishes(LaurentPoly((name, "x_1_1_1"), {(1, 0): 1, (0, 1): -1}), grid)
    if name.isascii():
        assert main(["pit", "--poly", f"{name} - x_1_1_1", "--n", "1", "--bounds", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: DegreeExceedsGrid: {message}\n")


def reference_pit_vanishes(p, grid):
    """The former pit_vanishes: every term rescanned per name and per alias."""
    entries = {}
    for k, name in enumerate(p.gens):
        pos = _variable_position(name, grid)
        if min(e[k] for e in p.numerators) < 0:
            raise ValueError(f"negative exponent of {name}: not a polynomial")
        aliases = entries.setdefault(pos, [])
        aliases.append(k)
        degree = max(sum(e[a] for a in aliases) for e in p.numerators)
        if degree > grid.bounds[pos]:
            names = " = ".join(p.gens[a] for a in aliases)
            raise DegreeExceedsGrid(f"degree {degree} of {names} exceeds bound {grid.bounds[pos]}")
    merged = {}
    for e, c in p.numerators.items():
        key = tuple(sum(e[a] for a in aliases) for aliases in entries.values())
        merged[key] = merged.get(key, 0) + c
    return not any(merged.values())


def random_alias_poly(rng, grid):
    """Terms over a grid's entries, each off-diagonal exponent split at random
    between x_i_j_k and x_j_i_k, often with a twin under another split and
    the opposite coefficient, which cancels only once aliases merge. Now and
    then an exponent is negative or past its bound, a name is off the grid,
    or the polynomial is a constant or zero."""
    roll = rng.random()
    if roll < 0.06:
        return LaurentPoly.zero()
    if roll < 0.12:
        return LaurentPoly.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    positions = rng.sample(sorted(grid.bounds), rng.randint(1, min(3, len(grid.bounds))))
    gens = [name for k, i, j in positions for name in dict.fromkeys((f"x_{i}_{j}_{k}", f"x_{j}_{i}_{k}"))]
    if rng.random() < 0.1:
        gens.append(rng.choice(("y", "x_1_9_1", "x_1_1_9", "x_1_1")))
    low = -1 if rng.random() < 0.1 else 0

    def split(exps):
        out = []
        for (k, i, j), e in zip(positions, exps):
            first = rng.randint(min(0, e), max(0, e)) if i != j else e
            out += [first, e - first] if i != j else [first]
        return out + [rng.randint(0, 1)] * (len(gens) - len(out))

    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(low, grid.bounds[pos] + (rng.random() < 0.15)) for pos in positions]
        c = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
        for coeff in (c, -c) if rng.random() < 0.6 else (c,):
            key = tuple(split(exps))
            terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(gens, terms)


def test_pit_columns_match_the_term_rescan():
    rng = random.Random(14)
    grids = [build_pd_grid(n, d, t) for n in (2, 3) for d in (1, 2) for t in (1, 2)]
    grids.append(build_pd_grid(2, 1, {(1, 1, 2): 2}))
    seen = Counter()
    for _ in range(600):
        grid = rng.choice(grids)
        p = random_alias_poly(rng, grid)
        got, expected = (outcome(lambda: pit(p, grid)) for pit in (pit_vanishes, reference_pit_vanishes))
        assert got == expected, (str(p), grid.bounds)
        if got[0] == "ok":
            seen[bool(p.gens), got[1]] += 1
        elif got[1].startswith("degree"):
            _, i, j, _ = got[1].split()[3].split("_")
            seen["overrun", i != j, " = " in got[1]] += 1
        else:
            seen[got[0], got[1].split()[0]] += 1
    # polynomials that vanish only once aliases merge, and ones that do not;
    # constants and zero; degree overruns on a diagonal entry, on the first
    # alias alone and on an alias chain; negative exponents and names off the
    # grid: all occur
    assert set(seen) == {
        (True, True), (True, False), (False, True), (False, False),
        ("overrun", False, False), ("overrun", True, False), ("overrun", True, True),
        (ValueError, "negative"), (DegreeExceedsGrid, "variable"),
    }, seen
    assert min(seen.values()) >= 10, seen


def test_integer_grid_text_builds_no_fraction(monkeypatch):
    grid = build_pd_grid(2, 2, 2)
    text = "3*x_1_2_1^2*x_2_2_2 - 2*x_1_1_1*x_2_1_1*x_1_2_1 + 7 - x_2_1_1^2*x_2_2_2*3 + 2*x_2_1_1^2 - 5*x_1_1_2"
    built = count_fractions(monkeypatch)
    p = LaurentPoly.parse(text)
    assert (p.den, len(p.numerators)) == (1, 6)
    assert not pit_vanishes(p, grid)
    assert pit_vanishes(LaurentPoly.parse("-x_1_2_1*x_2_1_1 + 4 - 4 + x_2_1_1*x_1_2_1 + 0*x_1_1_1"), grid)
    assert built == []
    # the counter does see Fractions
    assert LaurentPoly.parse("1/2 - x_1_1_1").terms and built


def sylvester_pd(n, cells):
    """Leading principal minors of the matrix with these upper-triangle cells, n <= 3."""
    if n == 1:
        return cells[0] > 0
    if n == 2:
        a, b, c = cells
        return a > 0 and a * c - b * b > 0
    a, b, c, d, e, f = cells
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return a > 0 and a * d - b * b > 0 and det > 0


def rohn_box_is_pd(n, box):
    """Rohn's vertex test (Rohn 1994, SIAM J. Matrix Anal. Appl. 15), the
    reference verdict for a box of symmetric matrices: the box is PD iff for
    every z in {1,-1}^n with z_1 = 1 the vertex whose entry (i, j) is at the
    low end of its range when z_i = z_j, and at the high end otherwise, is
    PD. The vertices are integer points of the box, so the test is exact.
    """
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    return all(
        _definite(_upper_rows(n, [v[0] if z[i] == z[j] else v[-1] for (i, j), v in zip(upper, box)]), strict=True)
        for z in product((1, -1), repeat=n)
        if z[0] == 1
    )


def degenerate_matrices(n, box):
    """Every matrix of the box that is not PD, by brute force."""
    return [SymMatrix.from_upper(n, c) for c in product(*box) if not _definite(_upper_rows(n, c), strict=True)]


def test_rohn_certificate_matches_enumeration():
    checked = failed = 0
    for n in (1, 2, 3):
        upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        off = [pos for pos in upper if pos[0] < pos[1]]
        # every off-diagonal bound pattern, per entry; diagonal bounds per entry
        # below n = 3 and uniform at n = 3
        diagonals = [pos for pos in upper if pos[0] == pos[1]] if n < 3 else [None]
        for off_ts in product((1, 2, 3), repeat=len(off)):
            for diag_ts in product((1, 2, 3), repeat=len(diagonals)):
                t = dict(zip(off, off_ts))
                for pos in upper:
                    if pos[0] == pos[1]:
                        t[pos] = diag_ts[0] if n == 3 else diag_ts[diagonals.index(pos)]
                bounds = {(1, i, j): t[(i, j)] for i, j in upper}
                for offset in range(1, 3 * n * n + 2):
                    box = _factor_box(n, 1, bounds, offset)
                    expected = all(sylvester_pd(n, cells) for cells in product(*box))
                    assert rohn_box_is_pd(n, box) == expected, (n, bounds, offset)
                    checked += 1
                    failed += not expected
    assert checked == 4 * 3 + 27 * 13 + 81 * 28
    assert 0 < failed < checked


def old_points(grid):
    """Every grid point as the former eager build listed them."""
    per_factor = []
    for k, offset in enumerate(grid.diagonal_offsets, start=1):
        upper = [(i, j) for i in range(1, grid.n + 1) for j in range(i, grid.n + 1)]
        value_sets = [
            range(offset, offset + grid.bounds[(k, i, j)] + 1) if i == j
            else range(1, grid.bounds[(k, i, j)] + 2)
            for i, j in upper
        ]
        matrices = []
        for choice in product(*value_sets):
            rows = [[0] * grid.n for _ in range(grid.n)]
            for (i, j), v in zip(upper, choice):
                rows[i - 1][j - 1] = rows[j - 1][i - 1] = v
            matrices.append(SymMatrix.of(rows))
        per_factor.append(matrices)
    return tuple(product(*per_factor))


def test_lazy_points_match_the_eager_product():
    for args in ((1, 1, 2), (2, 1, 1), (2, 2, 1), (1, 3, 2), (3, 1, 1),
                 (2, 2, {(1, 1, 2): 2, (2, 2, 2): 3})):
        grid = build_pd_grid(*args)
        expected = old_points(grid)
        assert len(grid.points) == len(expected)
        assert tuple(grid.points) == expected
        assert grid.points == build_pd_grid(*args).points


def test_large_grid_is_not_built():
    tracemalloc.start()
    try:
        grid = build_pd_grid(4, 3, 1)
        assert not pit_vanishes(P("x_1_2_1 - x_2_1_1 + x_4_4_3"), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.points) == 2 ** 30
    assert not grid.deviation and grid.diagonal_offsets == (4, 4, 4)
    assert peak < 2 ** 20


def test_factor_enumeration_bound():
    # diagonal values start at the degenerate offset 2; the box is decided
    # from its bounds however many matrices it has, and only listing the
    # grid's points is bounded
    witness = (SymMatrix.of([[2, 2], [2, 2]]),)
    for t in (100, 300):
        grid = build_pd_grid(2, 1, {(1, 1, 1): t, (1, 2, 2): t})
        assert grid.bad_point_count == 1 and grid.deviation_witnesses == witness
        assert grid.diagonal_offsets == (8,) and len(grid.points) == (t + 1) * 2 * (t + 1)
    with pytest.raises(GridTooLarge, match="181202 grid points to list"):
        to_json(grid)
    assert 301 * 2 * 301 > ENUMERATION_BOUND > 101 * 2 * 101


def test_grid_entry_bound():
    # d * n(n+1)/2 entries, each a bound position built by the grid: n = 361
    # is the largest grid at d = 1, and n = 100,000 listed 5 * 10^9 positions first
    assert build_pd_grid(361, 1, 1).points.count == 2 ** (361 * 362 // 2)
    assert 361 * 362 // 2 <= ENTRY_BOUND < 362 * 363 // 2
    for n, d, entries in ((362, 1, 65703), (1, ENTRY_BOUND + 1, 65537), (100_000, 1, 5_000_050_000)):
        start = time.perf_counter()
        with pytest.raises(GridTooLarge, match=rf"^{entries} grid entries exceed the bound 65536$"):
            build_pd_grid(n, d, 1)
        assert time.perf_counter() - start < 0.1


def test_grid_count_past_len():
    # each of the three cells takes 10^20 + 1 values: the count is read off the
    # range ends, since len() of such a range overflows
    grid = build_pd_grid(2, 1, 10 ** 20)
    assert grid.points.count == (10 ** 20 + 1) ** 3
    with pytest.raises(GridTooLarge, match=rf"^{(10 ** 20 + 1) ** 3} grid points to list"):
        to_json(grid)


def random_bounds(rng, n, d):
    """Per-entry bounds for some positions, with every off-diagonal bound
    1 in about 40% of the cases; unnamed positions default to 1."""
    ones = rng.random() < 0.4
    positions = [(k, i, j) for k in range(1, d + 1) for i in range(1, n + 1) for j in range(i, n + 1)]
    chosen = rng.sample(positions, rng.randint(0, len(positions)))
    return {(k, i, j): 1 if ones and i != j else rng.randint(1, 3) for k, i, j in chosen}


def test_grid_verdict_matches_rohn_and_scan():
    rng = random.Random(11)
    cases = [(n, 1, t) for n in range(1, 11) for t in (1, 2, 3)]
    for _ in range(150):
        n, d = rng.randint(1, 8), rng.randint(1, 2)
        cases.append((n, d, random_bounds(rng, n, d)))
    scanned = deviating = 0
    for n, d, bounds in cases:
        grid = build_pd_grid(n, d, bounds)
        witnesses = []
        for k, box in enumerate(grid.points.boxes, start=1):
            nominal = _factor_box(n, k, grid.bounds, grid.nominal_offsets[k - 1])
            pd = rohn_box_is_pd(n, nominal)
            expected = [] if pd else degenerate_matrices(n, nominal)
            if prod(map(len, nominal)) <= 2048:
                assert degenerate_matrices(n, nominal) == expected, (n, bounds, k)
                scanned += 1
            assert (grid.diagonal_offsets[k - 1] == grid.nominal_offsets[k - 1]) == pd, (n, bounds, k)
            assert box == nominal if pd else rohn_box_is_pd(n, box)
            witnesses += expected
            deviating += not pd
        assert grid.deviation_witnesses == tuple(witnesses), (n, bounds)
        assert grid.bad_point_count == len(witnesses) and grid.deviation == bool(witnesses)
    assert scanned > 100 and deviating > 10


def test_grid_build_runs_no_elimination(monkeypatch):
    import sympl.fourier

    calls = []
    definite = sympl.fourier._definite
    data = to_json(build_pd_grid(2, 2, 1))
    monkeypatch.setattr(sympl.fourier, "_definite", lambda rows, strict: calls.append(rows) or definite(rows, strict))
    assert build_pd_grid(16, 1, 1).nominal_offsets == (16,)
    assert grid_from_json(data).bad_point_count == 2
    assert calls == []
    # the counter does see eliminations
    assert is_pd(SymMatrix.identity(2)) and len(calls) == 1


def test_expansion_text_round_trip():
    f = FourierExpansion(
        2,
        4,
        {
            SymMatrix.of([[Fraction(1, 2), 0], [0, 3]]): Fraction(5, 7),
            SymMatrix.identity(2): 2,
        },
    )
    text = format_expansion(f)
    assert text.startswith("n=2 k=4\n")
    assert text.endswith("\n")
    assert parse_expansion(text) == f
    commented = "# header\n\nn=2 k=4\n# inline note\n1/2,0,3 : 5/7\n1,0,1 : 2\n"
    assert parse_expansion(commented) == f


def test_expansion_text_errors():
    with pytest.raises(ValueError):
        parse_expansion("")
    with pytest.raises(ValueError):
        parse_expansion("1,0,1 : 2")
    with pytest.raises(ValueError):
        parse_expansion("n=2 k=4\n1,0 : 2")
    with pytest.raises(ValueError):
        parse_expansion("n=2 k=4\n1,0,1 : 2\n1,0,1 : 3")
    with pytest.raises(ValueError):
        parse_expansion("n=2 k=4\n1,0,1 2")
    with pytest.raises(ValueError, match="^k must be an integer, got '1/2'$"):
        parse_expansion("n=2 k=1/2\n1,0,1 : 2")
    with pytest.raises(ValueError, match="^n must be an integer, got 'x'$"):
        parse_expansion("n=x k=1/2")
