"""Formal Fourier expansions indexed by rational symmetric matrices.

Exact predicates on the index matrices (rank, semidefiniteness, zero-block
shape), the GL coefficient transform, the Siegel operator, support
filtration, weight rigidity, and the positive-definite evaluation grid
with polynomial identity testing. All arithmetic is exact.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul
from types import MappingProxyType

from .errors import (
    ENTRY_BOUND,
    ENUMERATION_BOUND,  # noqa: F401 (a public name of this module)
    DegreeExceedsGrid,
    Frozen,
    IndexOutOfRange,
    NotUnimodular,
    RankMismatch,
    ShapeMismatch,
    Singular,
    SizeOne,
)
from .laurent import LaurentPoly, _columns
from .scalars import as_int, as_scalar, format_scalar
from .weights import Weight, as_vector, is_bottom_uniform, is_tail_constant


def _integer_form(rows):
    """Square rows of exact scalars as int rows over the lcm s of their denominators,
    and s. A row not all ints is read by as_vector, so each row is all ints or all Fractions."""
    rows = [row if all(type(v) is int for v in row) else as_vector(row) for row in map(tuple, rows)]
    if any(len(row) != len(rows) for row in rows):
        raise ShapeMismatch("matrix must be square")
    if all(type(row[0]) is int for row in rows):
        return tuple(rows), 1
    s = lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (s // v.denominator) for v in row) for row in rows), s


def _definite(rows, strict):
    """Symmetric elimination a = L D L^t without pivoting, on integer rows.

    True iff every pivot is positive (strict), or every pivot is
    nonnegative and each zero pivot heads an all-zero remaining row, which
    then drops out (semidefinite). The elimination is fraction free on the
    upper triangle (Bareiss): each remaining entry is the Schur complement
    entry times the positive leading minor of the pivots taken so far, so
    every division is exact and the signs and zeros are those of the
    pivots of D. A positive scale of the rows gives the same answer.
    """
    m = [list(row) for row in rows]
    n, prev = len(m), 1
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


def _eliminate(rows, invert=False):
    """Rank, determinant and, if asked, inverse of a square integer matrix.

    One fraction-free Gauss-Jordan elimination with row pivoting (Bareiss
    1968), next to the identity when inverting. After each pivot every
    entry is a minor of the matrix, so every division is exact; at full
    rank the left block ends as the last pivot p times the identity and
    the right block as p times the inverse. The inverse is given as those
    integer rows and p, and is None for a singular matrix.
    """
    n = len(rows)
    m = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(rows)] if invert else list(rows)
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
        return pivots, 0, None
    return n, sign * prev, (tuple(row[n:] for row in m), prev) if invert else None


def _upper_rows(n, cells):
    """The size-n symmetric rows whose upper triangle, row by row, is cells."""
    rows = [[0] * n for _ in range(n)]
    upper = [(r, c) for r in range(n) for c in range(r, n)]
    for (r, c), v in zip(upper, cells, strict=True):
        rows[r][c] = rows[c][r] = v
    return rows


def _congruence(h, m, den=1, num=1):
    """The symmetric matrix (t a) h a for a = m * num / den, m int rows, on integers."""
    cols = tuple(zip(*m))
    hm_cols = [[sum(map(mul, row, col)) for row in h.numerators] for col in cols]
    rows = tuple(tuple(num * num * sum(map(mul, a, b)) for b in hm_cols) for a in cols)
    return SymMatrix._reduced(rows, h.den * den * den)


class SymMatrix(Frozen):
    """A symmetric matrix of exact rationals: int rows `numerators` over one
    positive `den` sharing no factor with all of them, so equality and
    hashing are structural. `entries`, the Fraction rows, is built on each read."""

    __slots__ = ("numerators", "den")

    def __init__(self, entries):
        m, den = _integer_form(entries)
        if tuple(zip(*m)) != m:
            r, c = next((r, c) for r in range(len(m)) for c in range(r + 1, len(m)) if m[r][c] != m[c][r])
            raise ShapeMismatch(f"entry ({r},{c}) breaks symmetry")
        self._set(m, den)

    @classmethod
    def _reduced(cls, numerators, den):
        """Wrap symmetric int rows over den > 0, dividing out their common factor."""
        g = gcd(den, *(v for row in numerators for v in row))
        if g != 1:
            numerators = tuple(tuple(v // g for v in row) for row in numerators)
        return cls._trusted(numerators, den // g)

    @property
    def entries(self):
        """The rows of Fractions."""
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.numerators)

    @classmethod
    def of(cls, rows):
        """rows as a SymMatrix; a SymMatrix is returned as it is."""
        return rows if isinstance(rows, SymMatrix) else cls(rows)

    @classmethod
    def from_upper(cls, n, cells):
        """The size-n matrix whose upper triangle, row by row, is cells."""
        count = max(n, 0) * (n + 1) // 2
        if len(cells) != count:
            raise ValueError(f"size {format_scalar(n)} has {format_scalar(count)} cells, not {len(cells)}")
        return cls(_upper_rows(n, cells))

    @classmethod
    def diag(cls, values):
        values = tuple(values)
        return cls([[v if r == c else 0 for c in range(len(values))] for r, v in enumerate(values)])

    @classmethod
    def zero(cls, n):
        return cls.diag([0] * n)

    @classmethod
    def identity(cls, n):
        return cls.diag([1] * n)

    @property
    def n(self):
        return len(self.numerators)

    def __getitem__(self, rc):
        r, c = rc
        return Fraction(self.numerators[r][c], self.den)

    def upper_triangle(self):
        return tuple(Fraction(v, self.den) for r, row in enumerate(self.numerators) for v in row[r:])

    def drop_first(self):
        return SymMatrix._reduced(tuple(row[1:] for row in self.numerators[1:]), self.den)

    def __str__(self):
        return "[" + "; ".join(", ".join(map(format_scalar, row)) for row in self.entries) + "]"


def rank(h: SymMatrix) -> int:
    return _eliminate(h.numerators)[0]


def corank(h: SymMatrix) -> int:
    return h.n - rank(h)


def is_psd(h: SymMatrix) -> bool:
    """Positive semidefinite: every principal minor is nonnegative."""
    return _definite(h.numerators, strict=False)


def is_pd(h: SymMatrix) -> bool:
    """Positive definite: every leading principal minor is positive."""
    return _definite(h.numerators, strict=True)


def in_sym_j(h: SymMatrix, j: int) -> bool:
    """First j rows and columns vanish identically."""
    j = as_int(j)
    if not 0 <= j <= h.n:
        raise IndexOutOfRange(f"need 0 <= j <= {h.n}, got {format_scalar(j)}")
    # h is symmetric, so its first j columns are its first j rows
    return not any(any(row) for row in h.numerators[:j])


def gl_transform(h: SymMatrix, a) -> SymMatrix:
    """Index transform under the weight-k action, h -> (a^-t) h (a^-1)."""
    m, s = _integer_form(a)
    if len(m) != h.n:
        raise ShapeMismatch(f"expected size {h.n}, got {len(m)}")
    inverse = _eliminate(m, invert=True)[2]
    if inverse is None:
        raise Singular("matrix is not invertible")
    # a = m / s, so a^-1 = s * m^-1
    return _congruence(h, *inverse, s)


class FourierExpansion(Frozen):
    """Finitely supported coefficient map on size-n symmetric matrices, kept read-only."""

    __slots__ = ("n", "k", "support")

    def __init__(self, n, k, support=None):
        n = as_int(n)
        if n < 1:
            raise ValueError("size must be at least 1")
        k = as_int(k)
        cleaned = {}
        for h, coeff in (support or {}).items():
            h = SymMatrix.of(h)
            if h.n != n:
                raise ShapeMismatch(f"support key of size {h.n} in a size-{n} expansion")
            coeff = as_scalar(coeff)
            if coeff != 0:
                cleaned[h] = coeff
        self._set(n, k, MappingProxyType(cleaned))

    def coefficient(self, h) -> Fraction:
        return self.support.get(SymMatrix.of(h), Fraction(0))

    def __repr__(self):
        return f"FourierExpansion(n={self.n}, k={self.k}, {len(self.support)} coefficients)"


def slash_invariance_check(f: FourierExpansion, a) -> bool:
    """Coefficients transform correctly under an integer unimodular a."""
    m, s = _integer_form(a)
    if len(m) != f.n:
        raise ShapeMismatch(f"expected size {f.n}, got {len(m)}")
    if s != 1:
        raise NotUnimodular("matrix entries must be integers")
    _, det, inverse = _eliminate(m, invert=True)
    if det not in (1, -1):
        raise NotUnimodular(f"determinant {format_scalar(det)} is not a unit")
    scale = det ** f.k
    indices = set(f.support).union(_congruence(h, *inverse) for h in f.support)
    # c(h) must match the coefficient at (t a) h a
    return all(f.coefficient(h) == scale * f.coefficient(_congruence(h, m)) for h in indices)


def siegel_phi(f: FourierExpansion) -> FourierExpansion:
    """Degree-lowering operator: keep indices diag(0, h), reindex by h."""
    if f.n == 1:
        raise SizeOne("cannot lower a size-1 expansion")
    support = {}
    for h, coeff in f.support.items():
        if in_sym_j(h, 1):
            support[h.drop_first()] = coeff
    return FourierExpansion(f.n - 1, f.k, support)


def cusp_condition_check(f: FourierExpansion) -> bool:
    return all(is_psd(h) for h in f.support)


def is_cuspidal(f: FourierExpansion) -> bool:
    return all(is_pd(h) for h in f.support)


def filtration_index(f: FourierExpansion) -> int:
    """1 + the largest corank met in the support, 0 when nothing survives."""
    if not f.support:
        return 0
    return 1 + max(corank(h) for h in f.support)


def rigidity_check(w: Weight, f_or_support, j: int) -> bool:
    """Weight shape forced by a support element of corank at least j.

    Vacuously true when the support has no such element. Otherwise the
    bottom entry must be constant across places and the last j entries
    equal within each place.
    """
    if isinstance(f_or_support, FourierExpansion):
        if f_or_support.n != w.n:
            raise RankMismatch(f"weight rank {w.n} next to size {f_or_support.n}")
        keys = list(f_or_support.support)
    else:
        keys = [SymMatrix.of(h) for h in f_or_support]
        if any(h.n != w.n for h in keys):
            raise RankMismatch("support size differs from weight rank")
    j = as_int(j)
    if not 0 <= j <= w.n:
        raise IndexOutOfRange(f"need 0 <= j <= {w.n}, got {format_scalar(j)}")
    if not any(corank(h) >= j for h in keys):
        return True
    return is_bottom_uniform(w) and all(is_tail_constant(row, j) for row in w.doubled)


def grid_variable(i: int, j: int, k: int = 1) -> str:
    """Name of the matrix-entry variable at (i, j) for the k-th factor."""
    i, j = sorted((as_int(i), as_int(j)))
    return f"x_{i}_{j}_{as_int(k)}"


class GridPoints(Frozen):
    """The points of a PD grid, built when read, in the product order of
    the factors' boxes (per-factor value ranges of the upper triangle).
    Two are equal when their n and boxes are."""

    __slots__ = ("n", "boxes")

    @property
    def count(self):
        """The number of points, which may exceed what len() can return."""
        return prod(values.stop - values.start for box in self.boxes for values in box)

    def __len__(self):
        return self.count

    def __iter__(self):
        return product(*(_box_matrices(self.n, box) for box in self.boxes))


class PdGrid(Frozen):
    """A grid built by build_pd_grid; its points are always a GridPoints, its bounds read-only."""

    __slots__ = ("n", "d", "bounds", "points", "diagonal_offsets", "nominal_offsets", "deviation",
                 "deviation_witnesses", "bad_point_count")


def _normalize_bounds(n, d, degree_bounds):
    ENTRY_BOUND.check(d * n * (n + 1) // 2)
    positions = [(k, i, j) for k in range(1, d + 1) for i in range(1, n + 1) for j in range(i, n + 1)]
    if not isinstance(degree_bounds, dict):
        degree_bounds = dict.fromkeys(positions, as_int(degree_bounds))
    bounds = dict.fromkeys(positions, 1)
    given = {}
    for key, t in degree_bounds.items():
        k, i, j = key
        pos = (k, min(i, j), max(i, j))
        if pos not in bounds:
            raise ValueError(f"bound position {key} outside the grid")
        if pos in given:
            raise ValueError(f"bound positions {given[pos]} and {key} name one entry")
        given[pos] = key
        bounds[pos] = as_int(t)
    if any(t < 1 for t in bounds.values()):
        raise ValueError("degree bounds must be at least 1")
    return bounds


def _factor_box(n, k, bounds, offset):
    return tuple(
        range(offset, offset + bounds[(k, i, j)] + 1) if i == j else range(1, bounds[(k, i, j)] + 2)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )


def _box_matrices(n, box):
    return (SymMatrix.from_upper(n, cells) for cells in product(*box))


def build_pd_grid(n, d, degree_bounds) -> PdGrid:
    """Evaluation grid of positive-definite integer matrices.

    Off-diagonal value sets are {1..t+1}; diagonal sets start at the
    source lemma's offset n*b^2, b the factor's largest off-diagonal
    bound. So every box matrix has diagonal entries >= n*b^2 and
    off-diagonal entries in 1..b+1, which decides the box exactly:
    - n = 1 or b >= 2: n*b^2 > (n-1)(b+1), so every matrix is strictly
      diagonally dominant, hence PD.
    - b = 1, n >= 3: the box is PD iff its sign vertices are (Rohn 1994).
      A vertex conjugated by its sign matrix is n*I + M, M having +1
      inside a sign class and -2 across; M + I has rank <= 2, so M's
      least eigenvalue is >= -(n+2)/2 and the vertex is PD.
    - n = 2, b = 1: [[x, y], [y, x']] with x, x' >= 2 and y in {1, 2}
      fails only when x*x' <= y^2, that is only at [[2, 2], [2, 2]].
    That matrix is then the factor's one witness, and its offset is
    raised to n*(b+1)^2, where (b+1)(nb+1) > 0 is the dominance margin.
    """
    n, d = as_int(n), as_int(d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    bounds = _normalize_bounds(n, d, degree_bounds)

    boxes, diagonal_offsets, nominal_offsets, witnesses = [], [], [], []
    for k in range(1, d + 1):
        biggest = max((bounds[(k, i, j)] for i in range(1, n + 1) for j in range(i + 1, n + 1)), default=1)
        offset = n * biggest ** 2
        nominal_offsets.append(offset)
        if n == 2 and biggest == 1:
            witnesses.append(SymMatrix.of([[2, 2], [2, 2]]))
            offset = n * (biggest + 1) ** 2
        diagonal_offsets.append(offset)
        boxes.append(_factor_box(n, k, bounds, offset))

    return PdGrid(
        n=n,
        d=d,
        bounds=MappingProxyType(bounds),
        points=GridPoints(n, tuple(boxes)),
        diagonal_offsets=tuple(diagonal_offsets),
        nominal_offsets=tuple(nominal_offsets),
        deviation=bool(witnesses),
        deviation_witnesses=tuple(witnesses),
        bad_point_count=len(witnesses),
    )


def _variable_position(name, grid):
    parts = name.split("_")
    if len(parts) == 4 and parts[0] == "x" and all(part.isdecimal() for part in parts[1:]):
        i, j, k = map(int, parts[1:])
        if name == f"x_{i}_{j}_{k}" and (k, min(i, j), max(i, j)) in grid.bounds:
            return k, min(i, j), max(i, j)
    raise DegreeExceedsGrid(f"variable {name} does not index a grid entry")


def pit_vanishes(p: LaurentPoly, grid: PdGrid) -> bool:
    """Whether p vanishes at every grid point, decided without evaluating p.

    x_i_j_k and x_j_i_k name one grid entry, so their exponents add. With
    every entry's degree within the bound t of the grid, whose entries take
    t+1 values each, p vanishes on it exactly when its merged coefficients
    are all zero (Combinatorial Nullstellensatz, Alon 1999, Lemma 2.1).
    The integer numerators share one positive denominator, so they decide it.
    """
    names, merged = {}, {}
    for name, column in zip(p.gens, _columns(p._packed, len(p.gens))):
        pos = _variable_position(name, grid)
        if min(column) < 0:
            raise ValueError(f"negative exponent of {name}: not a polynomial")
        names[pos] = names.get(pos, ()) + (name,)
        merged[pos] = tuple(map(add, merged[pos], column)) if pos in merged else column
        degree = max(merged[pos])
        if degree > grid.bounds[pos]:
            raise DegreeExceedsGrid(f"degree {degree} of {' = '.join(names[pos])} exceeds bound {grid.bounds[pos]}")
    keys = zip(*merged.values()) if merged else [()] * len(p._packed)
    sums = {}
    for key, c in zip(keys, p._packed.values()):
        sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def format_expansion(f: FourierExpansion) -> str:
    """Render as the line-oriented text format (see parse_expansion)."""
    lines = [f"n={f.n} k={f.k}"]
    for h in sorted(f.support, key=lambda h: h.upper_triangle()):
        cells = ",".join(format_scalar(v) for v in h.upper_triangle())
        lines.append(f"{cells} : {format_scalar(f.support[h])}")
    return "\n".join(lines) + "\n"


def parse_expansion(text: str) -> FourierExpansion:
    """Read the text format: a header "n=... k=..." and one line per
    coefficient, "upper-triangle entries, comma separated : value".
    Blank lines and lines starting with # are skipped.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise ValueError("empty expansion text")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header if "=" in part)
    if sorted(fields) != ["k", "n"]:
        raise ValueError(f"bad header {lines[0]!r}, expected n=... k=...")
    values = []
    for name in ("n", "k"):
        try:
            values.append(int(fields[name]))
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {fields[name]!r}") from None
    n, k = values
    expected = n * (n + 1) // 2
    support = {}
    for line in lines[1:]:
        if ":" not in line:
            raise ValueError(f"missing ':' in {line!r}")
        left, right = line.rsplit(":", 1)
        cells = as_vector(left.split(","))
        if len(cells) != expected:
            raise ValueError(f"expected {expected} entries in {line!r}")
        h = SymMatrix.from_upper(n, cells)
        if h in support:
            raise ValueError(f"repeated index {h}")
        support[h] = as_scalar(right.strip())
    return FourierExpansion(n, k, support)
