"""The ten acceptance checks, one test per numbered criterion.

Every test re-derives its expected answer independently where that is
feasible (brute force enumerations, recursive oracles, from-scratch
formulas) and prints a single PASS line once its assertions hold, so
running with -s doubles as a checklist. The module imports no pytest,
so any installed interpreter can run the ten criteria as a script:

    PYTHONPATH=src python tests/test_acceptance.py

It prints each criterion's wall time and exits 1 when any fails.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from sympl.ehw import first_reduction_point, is_unitary_highest_weight
from sympl.embeddings import (
    klingen_embedding_datum,
    klingen_embedding_inverse,
    siegel_degenerate_datum,
)
from sympl.fourier import (
    FourierExpansion,
    SymMatrix,
    build_pd_grid,
    cusp_condition_check,
    filtration_index,
    is_psd,
    pit_vanishes,
    siegel_phi,
)
from sympl.laurent import LaurentPoly
from sympl.lfactors import SatakeDatum, gk_value, xi
from sympl.orbitclassify import (
    classify_levels,
    duality_check,
    siegel_surjectivity_check,
)
from sympl.weights import Weight
from sympl.weyl import dot_act, infchar_equal, orbit_dichotomy_check
from weyl_oracle import enumerate_weyl


def test_criterion_01_classification_reproduction():
    start = time.monotonic()
    c = classify_levels((5,), 2, 1)
    expected = {frozenset({0, 4}), frozenset({1, 3}), frozenset({2}), frozenset({5})}
    assert {frozenset(cls) for cls in c.classes} == expected
    assert c.y == (0, 1, 2, 5)
    assert c.bijective

    # brute force over all 8 signed permutations, built right here
    elements = [
        (perm, signs)
        for perm in permutations(range(2))
        for signs in product((1, -1), repeat=2)
    ]

    def param(x):
        # inner (5,) plus level x, shifted by (-1, -2)
        return (5 - 1, x - 2)

    def image(elem, v):
        perm, signs = elem
        return tuple(signs[k] * v[perm[k]] for k in range(2))

    related = {
        (a, b)
        for a in range(6)
        for b in range(6)
        if any(image(e, param(a)) == param(b) for e in elements)
    }
    brute = set()
    seen = set()
    for x in range(6):
        if x in seen:
            continue
        cls = frozenset(b for b in range(6) if (x, b) in related)
        seen |= cls
        brute.add(cls)
    assert brute == expected

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS classification of inner (5), n=2, i=1 "
        f"matches the brute force partition ({elapsed:.3f} s)"
    )


def test_criterion_02_bijectivity_and_duality_sweep():
    start = time.monotonic()
    cases = set()
    for n in range(2, 6):
        top = 2 * n + 4
        for i in range(1, n):
            length = n - i
            for c in range(top + 1):
                cases.add(((c,) * length, n, i))
                cases.add((tuple(c + length - 1 - t for t in range(length)), n, i))
                if length >= 2:
                    cases.add(((c + 6,) + (c,) * (length - 1), n, i))
    assert len(cases) >= 200
    for inner, n, i in sorted(cases):
        cls = classify_levels(inner, n, i)
        assert cls.bijective, (inner, n, i)
        for s in cls.x:
            assert duality_check(inner, n, i, s), (inner, n, i, s)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2: PASS bijectivity and duality over {len(cases)} "
        f"inner-weight cases, n up to 5 ({elapsed:.1f} s)"
    )


def test_criterion_03_dichotomy_sweep():
    start = time.monotonic()
    count = 0
    for n in range(1, 5):
        for bottom in range(2 * n + 1, 2 * n + 4):
            for upper in combinations_with_replacement(range(bottom, 2 * n + 7), n - 1):
                row = tuple(sorted(upper, reverse=True)) + (bottom,)
                assert orbit_dichotomy_check(Weight((row,))), row
                count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3: PASS orbit dichotomy on {count} regular weights, "
        f"n up to 4 ({elapsed:.1f} s)"
    )


def test_criterion_04_infchar_oracle_equivalence():
    rng = random.Random(4242)
    groups = {n: list(enumerate_weyl(n)) for n in range(1, 5)}

    def random_row(n):
        return tuple(rng.randint(-4, 6) for _ in range(n))

    mismatches = 0
    for trial in range(1000):
        n = rng.randint(1, 4)
        d = 2 if trial % 10 == 0 else 1
        a_rows = tuple(random_row(n) for _ in range(d))
        if rng.random() < 0.5:
            b_rows = tuple(
                dot_act(rng.choice(groups[n]), row, n) for row in a_rows
            )
        else:
            b_rows = tuple(random_row(n) for _ in range(d))
        a = Weight(a_rows)
        b = Weight(b_rows)
        oracle = all(
            any(dot_act(w, ra, n) == rb for w in groups[n])
            for ra, rb in zip(a_rows, b_rows)
        )
        if infchar_equal(a, b) != oracle:
            mismatches += 1
    assert mismatches == 0
    print(
        "ACCEPTANCE 4: PASS infinitesimal character equality matches "
        "exhaustive dot-orbit membership on 1000 pairs, zero mismatches"
    )


def test_criterion_05_reduction_point_spot_values():
    assert first_reduction_point((4, 3, 3)) == Fraction(2)
    assert is_unitary_highest_weight((0, 0)) is True
    assert is_unitary_highest_weight((-1, -1)) is False
    print(
        "ACCEPTANCE 5: PASS first reduction point of (4,3,3) is 2; "
        "(0,0) unitary, (-1,-1) not"
    )


def test_criterion_06_embedding_round_trip():
    start = time.monotonic()
    count = 0
    for n in range(1, 5):
        for asc in combinations_with_replacement(range(-12, 13), n):
            row = tuple(reversed(asc))
            for i in range(1, n + 1):
                if any(row[t] != row[-1] for t in range(n - i, n)):
                    continue
                datum = klingen_embedding_datum(row, i)
                back = klingen_embedding_inverse(
                    n, i, datum.character, datum.inner_weight
                )
                assert back == row, (row, i)
                count += 1
    for n in range(1, 5):
        for t in range(-6, 7):
            row = (t,) * n
            datum = klingen_embedding_datum(row, n)
            assert datum.character == siegel_degenerate_datum(row)
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 6: PASS embedding data invert exactly on {count} "
        f"admissible (weight, i) pairs, n up to 4 ({elapsed:.1f} s)"
    )


def test_criterion_07_lfactor_ratio_identities():
    for m in range(3):
        satake = SatakeDatum.symbolic(m)
        for i in range(5):
            for j in range(i + 1):
                half_gap = Fraction(i - j, 2)
                lhs = gk_value(i, j, satake) * xi(j, satake, shift=half_gap + 1)
                rhs = xi(j, satake, shift=half_gap)
                assert lhs == rhs, (i, j, m)
    point = {"X": 1, "Q": 2, "T": Fraction(1, 16)}
    assert gk_value(1, 1, SatakeDatum()).evaluate(point) == Fraction(21, 20)
    satake = SatakeDatum.symbolic(2)
    pt = {
        "Q": Fraction(2),
        "T": Fraction(1, 64),
        "X": Fraction(1),
        "b1": Fraction(3),
        "b2": Fraction(5, 7),
    }
    i, j = 4, 3
    half_gap = Fraction(i - j, 2)
    lhs = gk_value(i, j, satake) * xi(j, satake, shift=half_gap + 1)
    rhs = xi(j, satake, shift=half_gap)
    assert lhs.evaluate(pt) == rhs.evaluate(pt)
    print(
        "ACCEPTANCE 7: PASS constant-term ratio identities for i <= 4, "
        "j <= i, m <= 2, plus the exact value 21/20 at the spot point"
    )


def test_criterion_08_fourier_suite():
    start = time.monotonic()

    def psd_oracle(rows):
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

    checked = 0
    values = range(-2, 3)
    for size in (1, 2, 3):
        spots = [(r, c) for r in range(size) for c in range(r, size)]
        for choice in product(values, repeat=len(spots)):
            rows = [[Fraction(0)] * size for _ in range(size)]
            for (r, c), v in zip(spots, choice):
                rows[r][c] = rows[c][r] = Fraction(v)
            assert is_psd(SymMatrix.of(rows)) == psd_oracle(rows), rows
            checked += 1

    def matmul(a, b):
        return [
            [sum(a[r][t] * b[t][c] for t in range(len(b))) for c in range(len(b[0]))]
            for r in range(len(a))
        ]

    def random_invertible(rng, size):
        rows = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
        if size < 2:
            return rows
        for _ in range(rng.randint(1, 4)):
            x, y = rng.sample(range(size), 2)
            c = rng.randint(-2, 2)
            for col in range(size):
                rows[x][col] += c * rows[y][col]
        return rows

    rng = random.Random(2718)
    for _ in range(500):
        n = rng.choice([2, 3])
        support = {}
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                g = random_invertible(rng, n)
                h = matmul([list(row) for row in zip(*g)], g)
            else:
                g = random_invertible(rng, n - 1)
                inner = matmul([list(row) for row in zip(*g)], g)
                h = [[Fraction(0)] * n for _ in range(n)]
                for r in range(n - 1):
                    for c in range(n - 1):
                        h[r + 1][c + 1] = inner[r][c]
            support[SymMatrix.of(h)] = rng.randint(1, 9)
        f = FourierExpansion(n, 2 * rng.randint(1, 5), support)
        assert cusp_condition_check(f)
        phi = siegel_phi(f)
        assert cusp_condition_check(phi)
        assert filtration_index(f) - filtration_index(phi) <= 1
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 8: PASS semidefinite oracle agreement on {checked} "
        f"matrices and cusp/filtration behavior on 500 expansions ({elapsed:.1f} s)"
    )


def test_criterion_09_pit_guarantee():
    rng = random.Random(4343)
    grids = {}
    for _ in range(200):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        t = rng.randint(1, 2)
        grid = grids.setdefault((n, d, t), build_pd_grid(n, d, t))
        positions = [
            (k, i, j)
            for k in range(1, d + 1)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        ]
        p = LaurentPoly.zero()
        while p.is_zero():
            p = LaurentPoly.zero()
            for _ in range(rng.randint(1, 3)):
                exps = {}
                for k, i, j in positions:
                    e = rng.randint(0, t)
                    if e:
                        exps[f"x_{i}_{j}_{k}"] = e
                p = p + LaurentPoly.monomial(rng.randint(-5, 5), exps)
        assert not pit_vanishes(p, grid), str(p)
        assert pit_vanishes(LaurentPoly.zero(), grid)
    flagged = build_pd_grid(2, 1, 1)
    assert flagged.deviation
    assert flagged.bad_point_count == 1
    assert flagged.deviation_witnesses == (SymMatrix.of([[2, 2], [2, 2]]),)
    assert flagged.nominal_offsets == (2,)
    assert flagged.diagonal_offsets == (8,)
    print(
        "ACCEPTANCE 9: PASS no nonzero in-bounds polynomial passed the grid "
        "test in 200 trials; the stated offset's degenerate point [[2,2],[2,2]] "
        "is detected and reported"
    )


def test_criterion_10_surjectivity_checker():
    good = siegel_surjectivity_check(Weight(((11, 11),)), 6)
    assert good.tag == "SurjectiveByTheorem"
    assert good.failed_conditions == ()
    bad = siegel_surjectivity_check(Weight(((11, 11),)), 12)
    assert bad.tag == "NotCovered"
    assert bad.failed_conditions == ("level_squarefree",)
    varied = siegel_surjectivity_check(Weight(((11, 11), (12, 11))), 6)
    assert varied.tag == "SurjectiveByTheorem"
    print(
        "ACCEPTANCE 10: PASS surjectivity verdicts for level 6, level 12, "
        "and the two-place varying-row case"
    )


if __name__ == "__main__":
    import sys
    import traceback

    criteria = [(name, check) for name, check in sorted(globals().items()) if name.startswith("test_criterion_")]
    failed = []
    for name, check in criteria:
        start = time.perf_counter()
        try:
            check()
        except Exception:
            traceback.print_exc()
            failed.append(name)
        print(f"{name}: {'FAIL' if name in failed else 'pass'} in {time.perf_counter() - start:.3f} s")
    print(f"python {sys.version.split()[0]}: {len(criteria)} criteria run, {len(failed)} failed")
    sys.exit(1 if failed else 0)
