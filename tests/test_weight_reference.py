"""The doubled-int Weight and the lattice functions that read it against the
Fraction-row reference in weight_reference.py."""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import weight_reference as ref
from sympl import orbitclassify, weights, weyl
from sympl.errors import DomainError
from sympl.fourier import SymMatrix, rigidity_check
from sympl.weights import Weight
from test_fourier import count_fractions


def outcome(call):
    """What call() returns, or the class and message of what it raises."""
    try:
        return call()
    except (DomainError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def entry(rng, x, half):
    """x, or x + 1/2 when half, as an int or Fraction or as "p/q" text."""
    value = Fraction(2 * x + 1, 2) if half else x
    roll = rng.random()
    return str(value) if roll < 0.2 else Fraction(value) if roll < 0.4 else value


def drawn_row(rng, n):
    """One place: few values of lambda + rho (so zeros, pairs and triples occur),
    a dominant row, one with a constant tail, or one with a bottom above 2n."""
    shape = rng.choice(("orbit", "dominant", "tail", "large"))
    if shape == "orbit":
        spread = rng.randint(0, n + 2) if rng.random() < 0.7 else 4 * n
        xs = [rng.randint(-spread, spread) + k for k in range(1, n + 1)]
    elif shape == "large":
        xs = sorted((rng.randint(2 * n + 1, 2 * n + 6) for _ in range(n)), reverse=True)
    else:
        xs = sorted((rng.randint(-3, 2 * n + 4) for _ in range(n)), reverse=True)
        if shape == "tail":
            t = rng.randint(1, n)
            xs[n - t:] = [xs[n - t]] * t
    half = rng.random() < 0.3
    return [entry(rng, x, half) for x in xs]


def drawn_rows(rng, n):
    """d = 1-3 places, often with one bottom entry, and now and then a flaw
    the constructor refuses."""
    rows = [drawn_row(rng, n) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        for row in rows[1:]:
            row[-1] = rows[0][-1]
    if rng.random() < 0.12:
        row = rng.choice(rows)
        k = rng.randrange(n)
        flaw = rng.choice(("third", "mixed", "float", "bool", "ragged", "empty"))
        if flaw == "third":
            row[k] = Fraction(1, 3)
        elif flaw == "mixed":
            row[k] = Fraction(row[k]) + Fraction(1, 2)
        elif flaw == "float":
            row[k] = 1.5
        elif flaw == "bool":
            row[k] = True
        elif flaw == "ragged":
            row.append(0)
        else:
            rows = [] if rng.random() < 0.5 else [[]]
    return rows


def doubled(w):
    """2 lambda as int rows, read off the Fraction rows of a reference weight."""
    return w.doubled if isinstance(w, Weight) else tuple(tuple(x.numerator * (2 // x.denominator) for x in row) for row in w.rows)


def doubled_of(weights_or_error):
    return [doubled(w) for w in weights_or_error] if isinstance(weights_or_error, list) else weights_or_error


def report_of(report):
    if isinstance(report, tuple):
        return report
    return report.hypotheses, report.parity_class, report.exponent, report.inner_weight, report.conclusion


def check_weight(w, r, seen):
    """Everything the two give for one weight; the orbit-building calls only
    when the orbit is small or refused before it is built."""
    n = w.n
    assert (w.rows, w.n, w.d, w.bottom_entries(), w.is_zero(), str(w), repr(w)) == (
        r.rows, r.n, r.d, r.bottom_entries(), r.is_zero(), str(r), repr(r))
    assert all(type(x) is Fraction for row in w.rows for x in row)
    assert w == Weight(r.rows) and hash(w) == hash(Weight(r.rows))
    assert (weights.is_k_dominant(w), weights.is_integral(w), weights.is_bottom_uniform(w)) == (
        ref.is_k_dominant(r), ref.is_integral(r), ref.is_bottom_uniform(r))
    assert outcome(lambda: weights.parity_class(w)) == outcome(lambda: ref.parity_class(r))
    assert weights.holomorphy_vanishing(w).value == ref.holomorphy_vanishing(r)
    assert weyl.infchar_canonical(w).canonical == ref.infchar_canonical(r)
    regular = weyl.is_regular(w)
    assert regular == ref.is_regular(r)
    seen[f"regular {regular}"] += 1
    layouts = [weyl._row_layout(row) for row in w.doubled]
    count = prod(0 if layout is None else 2 ** len(layout[1]) for layout in layouts)
    small = count <= 256 or count > weyl.ORBIT_SIZE_BOUND
    if count <= 1024 or count > weyl.ORBIT_SIZE_BOUND:
        elements = outcome(lambda: doubled_of(weyl.dominant_orbit_elements(w)))
        assert elements == outcome(lambda: doubled_of(ref.dominant_orbit_elements(r)))
        seen["orbit refused" if isinstance(elements, tuple) else f"orbit small {small}"] += 1
    if small:
        dichotomy = outcome(lambda: weyl.orbit_dichotomy_check(w))
        assert dichotomy == outcome(lambda: ref.orbit_dichotomy_check(r))
        seen[f"dichotomy {dichotomy if isinstance(dichotomy, bool) else dichotomy[0].__name__}"] += 1
    support = [SymMatrix.zero(n)]
    for i in sorted({0, 1, n // 2 + 1, n, n + 1}):
        assert outcome(lambda: weyl.is_sufficiently_regular(w, i)) == outcome(lambda: ref.is_sufficiently_regular(r, i))
        assert outcome(lambda: report_of(orbitclassify.decomposition_report(w, i, -1))) == outcome(
            lambda: ref.decomposition_report(r, i, -1))
        if i <= n:
            assert rigidity_check(w, support, i) == ref.rigidity_shape(r, i)
        if small:
            necessary = outcome(lambda: doubled_of(orbitclassify.theorem_main_necessary(w, i)))
            assert necessary == outcome(lambda: doubled_of(ref.theorem_main_necessary(r, i)))
            seen["necessary empty" if necessary == [] else "necessary some"] += isinstance(necessary, list)
    if n >= 2 and weights.is_integral(w) and weights.is_k_dominant(w):
        for level in (1, 6, 12):
            verdict = orbitclassify.siegel_surjectivity_check(w, level)
            assert verdict.failed_conditions == ref.surjectivity_failures(r, level)


def test_doubled_weight_matches_the_fraction_reference():
    rng = random.Random(21)
    seen = Counter()
    # zero places next to nonzero ones, which the draws below seldom give
    for rows in (((0, 0), (3, 0)), ((0, 0), (0, 0)), ((0,), (1,)), ((Fraction(1, 2), Fraction(-1, 2)), (0, 0))):
        check_weight(Weight(rows), ref.Weight(rows), Counter())
    previous = None
    for _ in range(500):
        n = rng.choice((12, 20, 30)) if rng.random() < 0.06 else rng.randint(1, 8)
        rows = drawn_rows(rng, n)
        w = outcome(lambda: Weight(rows))
        r = outcome(lambda: ref.Weight(rows))
        if isinstance(r, tuple):
            assert w == r, rows
            seen[f"refused {r[0].__name__}"] += 1
            continue
        seen["rank 30"] += n == 30
        seen["half"] += not ref.is_integral(r)
        check_weight(w, r, seen)
        if previous is not None:
            # a signed permutation of lambda + rho of this weight, or the last weight
            moved = [[rng.choice((1, -1)) * (x - k) + j for j, (k, x) in enumerate(
                rng.sample(list(enumerate(row, 1)), len(row)), 1)] for row in r.rows]
            for other in (Weight(moved), previous[0]):
                equal = outcome(lambda: weyl.infchar_equal(w, other))
                assert equal == outcome(lambda: ref.infchar_equal(r, ref.Weight(other.rows)))
                seen[f"infchar {equal if isinstance(equal, bool) else 'refused'}"] += 1
        previous = w, r
    assert len(seen) >= 18 and min(seen.values()) >= 2, seen


def test_duality_check_matches_the_fraction_reference():
    rng = random.Random(22)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 8)
        i = rng.randint(0, n + 1)
        inner = sorted((rng.randint(-1, 12) for _ in range(max(0, n - i))), reverse=True)
        flaw = rng.random()
        if inner and flaw < 0.1:
            inner[rng.randrange(len(inner))] = rng.choice((Fraction(1, 2), "5/2", -3, 99, "7"))
        elif flaw < 0.15:
            inner.append(1)
        inner = [entry(rng, x, False) if type(x) is int else x for x in inner]
        s = rng.choice((rng.randint(-4, 2 * n + 4), Fraction(rng.randint(-9, 9), rng.choice((2, 3))),
                        str(rng.randint(0, 9)), "1/3"))
        got = outcome(lambda: orbitclassify.duality_check(inner, n, i, s))
        assert got == outcome(lambda: ref.duality_check(inner, n, i, s)), (inner, n, i, s)
        seen[got if isinstance(got, bool) else got[0].__name__] += 1
    assert min(seen.values()) >= 10 and len(seen) >= 5, seen


def test_integer_input_builds_no_fraction(monkeypatch):
    built = count_fractions(monkeypatch)
    w = Weight(((13, 11, 9), (12, 11, 9)))
    # lambda + rho = (11, 9, 6) at the second place, moved by a signed permutation
    assert weyl.infchar_equal(w, Weight.of((13, 11, 9), (-10, 11, 9)))
    assert not weyl.infchar_equal(w, Weight.of((13, 11, 9), (13, 11, 9)))
    assert weyl.orbit_dichotomy_check(w)
    assert weyl.is_sufficiently_regular(w, 1) and not weyl.is_sufficiently_regular(Weight.single((3, 2, 1)), 1)
    necessary = orbitclassify.theorem_main_necessary(Weight.of((5, 5, 5), (6, 5, 5)), 2)
    assert len(necessary) == 2
    assert orbitclassify.duality_check((5, 3), 3, 1, 2) and orbitclassify.duality_check([7], 2, 1, 9)
    assert built == []
    # the Fraction rows are built on read, and the counter sees them
    assert necessary[0].rows and built


def layout_rows(n, low, high):
    """One int row per distinct canonical_row(row, 2) over all rows of n entries in [low, high]:
    _row_layout reads nothing else, so these rows give every layout of the box."""
    found = {(): ()}
    for k in range(1, n + 1):
        grown = {}
        for values, row in found.items():
            for a in range(low, high + 1):
                grown.setdefault(tuple(sorted(values + (abs(a - 2 * k),))), row + (a,))
        found = grown
    return found.values()


def test_row_reps_match_the_reference_on_every_layout_of_a_box():
    seen = Counter()
    for n in range(1, 6):
        for row in layout_rows(n, -6, 12):
            layout = weyl._row_layout(row)
            seen[layout is None] += 1
            if layout is not None:
                assert weyl._row_reps(*layout) == [tuple(rep) for rep in ref._row_reps(*layout)], row
                seen[f"free {len(layout[1])}"] += 1
    assert seen[True] and all(seen[f"free {s}"] for s in range(6)), seen


def test_tail_constancy_matches_the_reference():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(0, 6)
        row = [rng.choice((0, 1, 2)) for _ in range(n)]
        if rng.random() < 0.5:
            row = [Fraction(x, rng.choice((1, 2))) for x in row]
        for rows in (row, tuple(row)):
            for i in range(-1, n + 2):
                got = weights.is_tail_constant(rows, i)
                assert got == ref.is_tail_constant(rows, i), (rows, i)
                seen[got, 1 < i <= n] += 1
    assert min(seen[True, True], seen[False, True], seen[True, False]) >= 100, seen
