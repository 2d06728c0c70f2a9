"""The three in-process workloads: seeded input pools, calls and checks.

A workload is a round template: a list of (kind, stratum, count) slots.
Every round runs the same slots in a seeded order, so each round has
the same mix of operations and input sizes and only the values differ.
Inputs come from a fixed pool per (kind, stratum): entry k is generated
from its own string seed, so the answers recorded in expected/ at the
seed commit stay valid whatever seed a run is given. The run seed picks
and orders pool entries.

Calls go through module attributes (``weyl.infchar_equal``, never a
name imported at load time) so that the tracer's rebinding is seen.
"""

import random
from collections import namedtuple
from fractions import Fraction

from sympl import embeddings, ehw, fourier, laurent, lfactors, orbitclassify, weights, weyl

import oracles

POOL_SIZE = 48

# Orbit enumeration costs 2^n representatives per place, multiplied
# across places, so (rank, places) stays within 2^(n d) <= 512: every
# such operation finishes in under about 50 ms on the seed.
ENUMERATING = ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1),
               (2, 2), (3, 2), (4, 2), (2, 3), (3, 3))

# At most this many L-factor binomials are multiplied into one factor,
# which bounds an expanded side at 176 terms (m = 2).
PREMULTIPLIED_CAP = 8

Kind = namedtuple("Kind", "gen call answer oracle expect")


def kind(gen, call, answer=None, oracle=None, expect=None):
    return Kind(gen, call, answer or (lambda args, result: result), oracle, expect)


def _weight(rows):
    return weights.Weight(tuple(tuple(r) for r in rows))


def _dominant(rng, n, low, high):
    return tuple(sorted((rng.randint(low, high) for _ in range(n)), reverse=True))


# ---------------------------------------------------------------- lattice_sweep

def _gen_classify(rng, n, mode):
    i = {"low": 1, "mid": n - 1, "top": n}[mode]
    if i == n:
        return (), n, i, rng.randint(0, 2 * n + 4)
    length = n - i
    c = rng.randint(0, 2 * n + 4)
    shape = rng.choice(("const", "desc", "lead") if length >= 2 else ("const", "desc"))
    if shape == "const":
        inner = (c,) * length
    elif shape == "desc":
        inner = tuple(c + length - 1 - t for t in range(length))
    else:
        inner = (c + 6,) + (c,) * (length - 1)
    return inner, n, i, None


def _call_classify(inner, n, i, x_max):
    cls = orbitclassify.classify_levels(inner, n, i, x_max=x_max)
    duals = tuple(orbitclassify.duality_check(inner, n, i, s) for s in range(cls.x_max + 1))
    return cls, duals


def _answer_classify(args, result):
    cls, duals = result
    return cls.x_max, cls.classes, cls.y, cls.bijective, duals


def _oracle_classify(args, result):
    # Criterion 2: every level pairs with its dual, and for i < n each
    # class meets the representative set exactly once.
    cls, duals = result
    return all(duals) and (cls.bijective or args[2] == args[1])


def _gen_dichotomy(rng, n, d):
    rows = []
    for _ in range(d):
        bottom = rng.randint(2 * n + 1, 2 * n + 3)
        rows.append(_dominant(rng, n - 1, bottom, 2 * n + 6) + (bottom,))
    return (tuple(rows),)


def _oracle_dichotomy(args, result):
    rows = args[0]
    if len(rows[0]) > oracles.GROUP_RANK_LIMIT:
        return None
    return result == oracles.orbit_dichotomy(rows)


def _gen_infchar(rng, n, d):
    a = tuple(tuple(rng.randint(-4, 6) for _ in range(n)) for _ in range(d))
    if rng.random() < 0.5:
        b = []
        for row in a:
            perm = rng.sample(range(n), n)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            shifted = [x - (k + 1) for k, x in enumerate(row)]
            b.append(tuple(signs[k] * shifted[perm[k]] + (k + 1) for k in range(n)))
        b = tuple(b)
    else:
        b = tuple(tuple(rng.randint(-4, 6) for _ in range(n)) for _ in range(d))
    return a, b


def _oracle_infchar(args, result):
    a, b = args
    if len(a[0]) > oracles.GROUP_RANK_LIMIT:
        return None
    return result == oracles.infchar_equal(a, b)


def _gen_roundtrip(rng, n):
    i = rng.randint(1, n)
    t = rng.randint(-12, 12)
    return _dominant(rng, n - i, t, 12) + (t,) * i, i


def _call_roundtrip(row, i):
    datum = embeddings.klingen_embedding_datum(row, i)
    back = embeddings.klingen_embedding_inverse(len(row), i, datum.character, datum.inner_weight)
    return datum, back


def _answer_roundtrip(args, result):
    datum, back = result
    c = datum.character
    return datum.n, datum.i, c.parity, c.exponent, datum.inner_weight, back


def _gen_reject_tail(rng, n):
    upper = _dominant(rng, n - 1, -12, 12)
    return upper + (upper[-1] - rng.randint(1, 3),), rng.randint(2, n)


def _gen_reject_dominant(rng, n, d):
    rows = [tuple(2 * n + 1 + 3 * j + rng.randint(0, 2) for j in range(n))]
    rows += [_dominant(rng, n, 2 * n + 1, 2 * n + 6) for _ in range(d - 1)]
    return (tuple(rows),)


def _gen_report(rng, n, d):
    i = rng.randint(1, n)
    shared = rng.randint(2 * n - i - 1, 2 * n + 3)
    uniform = rng.random() < 0.7
    rows = []
    for _ in range(d):
        t = shared if uniform else rng.randint(2 * n - i - 1, 2 * n + 3)
        row = list(_dominant(rng, n - i, t, t + 6) + (t,) * i)
        if i >= 2 and rng.random() < 0.2:
            row[-1] -= 1
        rows.append(tuple(row))
    return tuple(rows), i, rng.choice((None, 1, -1))


def _answer_report(args, r):
    return r.hypotheses, r.parity_class, r.exponent, r.inner_weight, r.conclusion


def _gen_necessary(rng, n, d):
    rows = tuple(_dominant(rng, n, -3, 2 * n + 4) for _ in range(d))
    return rows, rng.randint(1, n)


def _gen_suffreg(rng, n, d):
    half = Fraction(1, 2) if rng.random() < 0.3 else 0
    rows = tuple(tuple(x + half for x in _dominant(rng, n, -2, 2 * n + 4)) for _ in range(d))
    return rows, rng.randint(1, n)


def _gen_unitary(rng, n, half):
    entry = Fraction(rng.randint(-3, n + 3)) + (Fraction(1, 2) if half else 0)
    lam = [entry]
    for _ in range(n - 1):
        entry += rng.randint(0, 2)
        lam.append(entry)
    return (tuple(reversed(lam)),)


LATTICE_KINDS = {
    "classify": kind(_gen_classify, _call_classify, _answer_classify, _oracle_classify),
    "dichotomy": kind(
        _gen_dichotomy,
        lambda rows: weyl.orbit_dichotomy_check(_weight(rows)),
        oracle=_oracle_dichotomy,
    ),
    "infchar": kind(
        _gen_infchar,
        lambda a, b: weyl.infchar_equal(_weight(a), _weight(b)),
        oracle=_oracle_infchar,
    ),
    "roundtrip": kind(
        _gen_roundtrip,
        _call_roundtrip,
        _answer_roundtrip,
        lambda args, result: result[1] == args[0],
    ),
    "report": kind(
        _gen_report,
        lambda rows, i, char: orbitclassify.decomposition_report(_weight(rows), i, char),
        _answer_report,
    ),
    "necessary": kind(
        _gen_necessary,
        lambda rows, i: orbitclassify.theorem_main_necessary(_weight(rows), i),
        lambda args, result: tuple(w.rows for w in result),
    ),
    "suffreg": kind(
        _gen_suffreg,
        lambda rows, i: weyl.is_sufficiently_regular(_weight(rows), i),
    ),
    "unitary": kind(_gen_unitary, lambda lam: ehw.is_unitary_highest_weight(lam)),
    "reject_tail": kind(
        _gen_reject_tail,
        lambda row, i: embeddings.klingen_embedding_datum(row, i),
        expect="TailNotConstant",
    ),
    "reject_dominant": kind(
        _gen_reject_dominant,
        lambda rows: weyl.orbit_dichotomy_check(_weight(rows)),
        expect="NotDominant",
    ),
}

LATTICE_ROUND = (
    [("infchar", (n, 1), 3) for n in range(1, 9)]
    + [("infchar", (n, 2), 2) for n in range(1, 9)]
    + [("roundtrip", (n,), 4) for n in range(1, 9)]
    + [("unitary", (n, half), 1) for n in range(1, 9) for half in (0, 1)]
    + [("classify", (n, mode), 1) for n in range(2, 9) for mode in ("low", "top")]
    + [("classify", (n, "mid"), 1) for n in range(3, 9)]
    + [(k, nd, 1) for k in ("dichotomy", "necessary", "report", "suffreg") for nd in ENUMERATING]
    + [("reject_tail", (n,), 1) for n in range(2, 9)]
    + [("reject_dominant", (n, 1), 1) for n in range(2, 9)]
)


# ---------------------------------------------------------------- fourier_grid

def _gram(rng, size, k):
    g = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(k)]
    return tuple(
        tuple(sum(g[t][r] * g[t][c] for t in range(k)) for c in range(size))
        for r in range(size)
    )


def _gen_matrix(rng, size, perturbed):
    rows = [list(row) for row in _gram(rng, size, rng.randint(1, size))]
    if perturbed:
        r, c = rng.randrange(size), rng.randrange(size)
        delta = rng.choice((-2, -1, 1, 2))
        rows[r][c] += delta
        if r != c:
            rows[c][r] += delta
    return (tuple(tuple(row) for row in rows),)


def _unimodular(rng, size):
    rows = [[int(r == c) for c in range(size)] for r in range(size)]
    for _ in range(rng.randint(1, 4)):
        x, y = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(size):
            rows[x][col] += c * rows[y][col]
    if rng.random() < 0.5:
        rows[0] = [-v for v in rows[0]]
    return tuple(tuple(row) for row in rows)


def _gen_gl(rng, size):
    return _gram(rng, size, size), _unimodular(rng, size)


def _gen_expansion(rng, size):
    """Criterion-8 style support: full Gram matrices and padded singular ones."""
    support = {}
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            h = _gram(rng, size, size)
        else:
            inner = _gram(rng, size - 1, size - 1)
            h = ((0,) * size,) + tuple((0,) + row for row in inner)
        support[h] = rng.randint(1, 9)
    return size, 2 * rng.randint(1, 5), tuple(sorted(support.items()))


def _expansion(size, k, items):
    return fourier.FourierExpansion(size, k, {fourier.SymMatrix.of(h): c for h, c in items})


def _answer_expansion(args, f):
    return f.n, f.k, sorted((h.upper_triangle(), c) for h, c in f.support.items())


def _gen_slash(rng, size):
    return _gen_expansion(rng, size), _unimodular(rng, size)


def _gen_rigidity(rng, size):
    rows = tuple(_dominant(rng, size, 0, 6) for _ in range(rng.randint(1, 2)))
    return _gen_expansion(rng, size), rows, rng.randint(0, size)


def _grid_positions(n, d):
    return [(k, i, j) for k in range(1, d + 1) for i in range(1, n + 1) for j in range(i, n + 1)]


def _monomial_text(coeff, exps):
    factors = [name if e == 1 else f"{name}^{e}" for name, e in exps if e]
    return "*".join([str(coeff)] + factors)


def _gen_grid(rng, n, d, t, zero):
    names = [f"x_{i}_{j}_{k}" for k, i, j in _grid_positions(n, d)]
    monomials = {}
    for _ in range(rng.randint(1, 4)):
        monomials[tuple((name, rng.randint(0, t)) for name in names)] = rng.randint(1, 9)
    text = " + ".join(_monomial_text(c, e) for e, c in monomials.items())
    if zero:
        # the same terms subtracted in another order: zero only after parsing
        items = list(monomials.items())
        rng.shuffle(items)
        text += "".join(" - " + _monomial_text(c, e) for e, c in items)
    return n, d, t, text, bool(zero)


def _call_grid(n, d, t, text, zero):
    grid = fourier.build_pd_grid(n, d, t)
    return grid, fourier.pit_vanishes(laurent.LaurentPoly.parse(text), grid)


def _answer_grid(args, result):
    g, vanishes = result
    witnesses = tuple(h.entries for h in g.deviation_witnesses)
    return g.n, g.d, g.diagonal_offsets, g.nominal_offsets, g.deviation, g.bad_point_count, witnesses, vanishes


def _entries(args):
    return args[0]


FOURIER_KINDS = {
    "psd": kind(
        _gen_matrix,
        lambda rows: fourier.is_psd(fourier.SymMatrix.of(rows)),
        oracle=lambda args, result: result == oracles.is_psd(_entries(args)),
    ),
    "pd": kind(
        _gen_matrix,
        lambda rows: fourier.is_pd(fourier.SymMatrix.of(rows)),
        oracle=lambda args, result: result == oracles.is_pd(_entries(args)),
    ),
    "rank": kind(
        _gen_matrix,
        lambda rows: (fourier.rank(fourier.SymMatrix.of(rows)), fourier.corank(fourier.SymMatrix.of(rows))),
    ),
    "gl": kind(
        _gen_gl,
        lambda h, a: fourier.gl_transform(fourier.SymMatrix.of(h), a),
        lambda args, result: result.entries,
    ),
    "slash": kind(_gen_slash, lambda f, a: fourier.slash_invariance_check(_expansion(*f), a)),
    "cusp": kind(
        _gen_expansion,
        lambda *f: fourier.cusp_condition_check(_expansion(*f)),
        oracle=lambda args, result: result == all(oracles.is_psd(h) for h, _ in args[2]),
    ),
    "phi": kind(_gen_expansion, lambda *f: fourier.siegel_phi(_expansion(*f)), _answer_expansion),
    "filtration": kind(_gen_expansion, lambda *f: fourier.filtration_index(_expansion(*f))),
    "rigidity": kind(
        _gen_rigidity,
        lambda f, rows, j: fourier.rigidity_check(_weight(rows), _expansion(*f), j),
    ),
    "grid": kind(
        _gen_grid,
        _call_grid,
        _answer_grid,
        # criterion 9: an in-bounds polynomial vanishes on the grid iff it is zero
        lambda args, result: result[1] == args[4],
    ),
}

GRIDS = ((1, 1, 2, 0), (1, 2, 2, 1), (1, 3, 3, 0), (2, 1, 1, 1), (2, 1, 3, 0), (2, 2, 2, 1),
         (2, 2, 3, 0), (3, 1, 1, 0), (3, 1, 2, 1), (2, 3, 2, 1), (2, 2, 4, 1))

FOURIER_ROUND = (
    [(k, (size, p), 1) for k in ("psd", "pd", "rank") for size in range(1, 7) for p in (0, 1)]
    + [("gl", (size,), 2) for size in (2, 3, 4)]
    + [("slash", (size,), 2) for size in (2, 3)]
    + [(k, (size,), 1) for k in ("cusp", "phi", "filtration", "rigidity") for size in (2, 3, 4)]
    + [("grid", g, 1) for g in GRIDS]
)


# ---------------------------------------------------------------- lfactor_algebra

_PARAMS = (Fraction(5, 7), Fraction(2), Fraction(-1, 5), Fraction(7, 2), Fraction(11))


def _gen_point(rng, m):
    # No prime 3 appears outside T, so no binomial 1 - monomial vanishes here.
    point = {
        "Q": Fraction(rng.choice((2, 5, 7))),
        "T": Fraction(1, 3 ** rng.randint(1, 4)),
        "X": Fraction(rng.choice((1, -1, 2))),
    }
    for k in range(1, m + 1):
        point[f"b{k}"] = rng.choice(_PARAMS)
    return tuple(sorted(point.items()))


def _gen_satake(rng, m):
    if rng.random() < 0.5:
        return tuple(f"b{k}" for k in range(1, m + 1)), "X"
    return tuple(rng.sample(_PARAMS, m)), rng.choice(("X", Fraction(2), Fraction(-1, 5)))


def _points_agree(lhs, rhs, points):
    values = []
    for point in points:
        point = dict(point)
        a = oracles.ratio_value(lhs.num_factors, lhs.den_factors, point)
        b = oracles.ratio_value(rhs.num_factors, rhs.den_factors, point)
        if a is not None and b is not None:
            values.append(a == b)
    return all(values)


def _gen_identity(rng, m, i):
    params, character = _gen_satake(rng, m)
    return i, rng.randint(0, i), params, character, (_gen_point(rng, m), _gen_point(rng, m))


def _call_identity(i, j, params, character, points):
    satake = lfactors.SatakeDatum(params, character)
    half_gap = Fraction(i - j, 2)
    lhs = lfactors.gk_value(i, j, satake) * lfactors.xi(j, satake, shift=half_gap + 1)
    rhs = lfactors.xi(j, satake, shift=half_gap)
    return lhs == rhs, lhs, rhs


def _oracle_equality(args, result):
    equal, lhs, rhs = result
    return equal == _points_agree(lhs, rhs, args[-1])


def _gen_premultiplied(rng, m, k):
    j = 1
    while _lfactor_count(m, j) < k:
        j += 1
    positions = tuple(sorted(rng.sample(range(_lfactor_count(m, j)), k)))
    shift = Fraction(rng.randint(-2, 2), 2)
    equal = rng.random() < 0.5
    return m, j, shift, positions, equal, (_gen_point(rng, m), _gen_point(rng, m), _gen_point(rng, m))


def _lfactor_count(m, j):
    """Denominator binomials of xi(j) at Satake rank m."""
    return (2 * m + 1) * j + j * (j - 1) // 2


def _call_premultiplied(m, j, shift, positions, equal, points):
    target = lfactors.xi(j, lfactors.SatakeDatum.symbolic(m), shift=shift)
    product = laurent.LaurentPoly.one()
    for p in positions:
        product = product * target.den_factors[p]
    if not equal:
        product = product * laurent.LaurentPoly.parse("1 - Q^2*T")
    rest = tuple(f for p, f in enumerate(target.den_factors) if p not in positions)
    candidate = lfactors.RationalFunction(target.num_factors, (product,) + rest)
    return candidate == target, candidate, target


def _gen_evaluate(rng, which, i):
    m = rng.randint(0, 2)
    j = rng.randint(0, i)
    shift = Fraction(rng.randint(-2, 2), 2)
    return which, i, j, m, shift, _gen_point(rng, m)


def _call_evaluate(which, i, j, m, shift, point):
    satake = lfactors.SatakeDatum.symbolic(m)
    f = lfactors.xi(i, satake, shift) if which == "xi" else lfactors.gk_value(i, j, satake)
    return lfactors.evaluate(f, dict(point)), f


def _oracle_evaluate(args, result):
    value, f = result
    return value == oracles.ratio_value(f.num_factors, f.den_factors, dict(args[-1]))


_POLY_GENS = ("Q", "T", "X", "b1", "x_1_1_1")


def _gen_poly_text(rng, nterms):
    terms = []
    for _ in range(nterms):
        exps = [(g, rng.randint(-3, 3)) for g in rng.sample(_POLY_GENS, rng.randint(1, 3))]
        coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in exps if e) or "1"
        sign = rng.choice(("+", "-"))
        terms.append((sign, f"{coeff}*{mono}"))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {s} {t}" for s, t in terms[1:])


def _gen_poly(rng, nterms):
    point = {"Q": Fraction(rng.choice((2, 3, 5))), "T": Fraction(1, rng.choice((2, 7, 16))),
             "X": Fraction(rng.choice((-1, 2, 3))), "b1": Fraction(5, 7), "x_1_1_1": Fraction(rng.randint(2, 9))}
    return _gen_poly_text(rng, nterms), _gen_poly_text(rng, nterms), tuple(sorted(point.items()))


def _call_poly(a, b, point):
    p = laurent.LaurentPoly.parse(a)
    q = laurent.LaurentPoly.parse(b)
    r = p * q + p - q
    return r, r.evaluate(dict(point)), p, q


def _answer_poly(args, result):
    r, value = result[:2]
    return r.gens, sorted(r.terms.items()), value


def _oracle_poly(args, result):
    r, value, p, q = result
    point = dict(args[-1])
    pv = oracles.poly_value(p.gens, p.terms, point)
    qv = oracles.poly_value(q.gens, q.terms, point)
    return value == pv * qv + pv - qv == oracles.poly_value(r.gens, r.terms, point)


LFACTOR_KINDS = {
    "identity": kind(_gen_identity, _call_identity, lambda args, r: r[0], _oracle_equality),
    "premultiplied": kind(_gen_premultiplied, _call_premultiplied, lambda args, r: r[0], _oracle_equality),
    "evaluate": kind(_gen_evaluate, _call_evaluate, lambda args, r: r[0], _oracle_evaluate),
    "poly": kind(_gen_poly, _call_poly, _answer_poly, _oracle_poly),
}

LFACTOR_ROUND = (
    [("identity", (m, i), 1) for m in range(3) for i in range(1, 5)]
    + [("premultiplied", (m, k), 1) for m in range(3) for k in (2, 4, 6, PREMULTIPLIED_CAP)]
    + [("evaluate", (which, i), 1) for which in ("xi", "gk") for i in range(1, 5)]
    + [("poly", (nterms,), 2) for nterms in (2, 4, 6)]
)


WORKLOADS = {
    "lattice_sweep": (LATTICE_KINDS, LATTICE_ROUND),
    "fourier_grid": (FOURIER_KINDS, FOURIER_ROUND),
    "lfactor_algebra": (LFACTOR_KINDS, LFACTOR_ROUND),
}


def stratum_key(kind_name, stratum):
    return kind_name + ":" + ",".join(str(s) for s in stratum)


def pool_args(workload, kind_name, stratum, index):
    """Pool entry `index` of one stratum; depends on nothing but its name."""
    kinds, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{stratum_key(kind_name, stratum)}/{index}")
    return kinds[kind_name].gen(rng, *stratum)
