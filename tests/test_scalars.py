"""The exact integer reader and the entry points that read ints with it."""

from fractions import Fraction

import pytest

from sympl.embeddings import (
    CharacterDatum,
    gl_degenerate_convergence,
    klingen_convergence,
    klingen_embedding_datum,
    klingen_embedding_inverse,
)
from sympl.fourier import FourierExpansion, SymMatrix, build_pd_grid, grid_variable, in_sym_j, rigidity_check
from sympl.laurent import LaurentPoly
from sympl.lfactors import SatakeDatum, abelian_L, gk_value, xi
from sympl.orbitclassify import (
    classify_levels,
    decomposition_report,
    is_squarefree,
    level_from_primes,
    siegel_surjectivity_check,
    theorem_main_necessary,
)
from sympl.scalars import as_int
from sympl.weights import Weight, check_index
from sympl.weyl import is_sufficiently_regular


def test_as_int_reads_exact_integers():
    assert as_int(7) == 7
    for x, expected in ((Fraction(6, 3), 2), ("10/2", 5), (" -4 ", -4), (-3, -3)):
        value = as_int(x)
        assert value == expected and type(value) is int


@pytest.mark.parametrize("x, error, message", [
    (2.0, TypeError, "not an exact scalar"),
    (True, TypeError, "booleans are not scalars"),
    (None, TypeError, "not an exact scalar"),
    (Fraction(13, 2), ValueError, "^not an integer: 13/2$"),
    ("5/2", ValueError, "^not an integer: 5/2$"),
    ("x", ValueError, "Invalid literal"),
])
def test_as_int_refuses_what_it_would_truncate(x, error, message):
    with pytest.raises(error, match=message):
        as_int(x)


W = Weight.single((11, 11))
SATAKE = SatakeDatum()


@pytest.mark.parametrize("call", [
    lambda x: siegel_surjectivity_check(W, x),
    is_squarefree,
    lambda x: level_from_primes([2, x]),
    lambda x: classify_levels((), 2, 2, x_max=x),
    lambda x: classify_levels((5,), x, 1),
    lambda x: theorem_main_necessary(W, x),
    lambda x: decomposition_report(W, x),
    lambda x: xi(x, SATAKE),
    lambda x: gk_value(x, 1, SATAKE),
    lambda x: gk_value(2, x, SATAKE),
    lambda x: SatakeDatum.symbolic(x),
    lambda x: abelian_L(0, twist_power=x),
    lambda x: LaurentPoly.parse("x + 1") ** x,
    lambda x: in_sym_j(SymMatrix.identity(2), x),
    lambda x: rigidity_check(W, [], x),
    lambda x: grid_variable(1, 2, x),
    lambda x: FourierExpansion(x, 4),
    lambda x: FourierExpansion(1, x),
    lambda x: build_pd_grid(x, 1, 1),
    lambda x: build_pd_grid(2, x, 1),
    lambda x: build_pd_grid(2, 1, x),
    lambda x: build_pd_grid(2, 1, {(1, 1, 2): x}),
    lambda x: check_index(x, 3),
    lambda x: is_sufficiently_regular(Weight.single((9, 9, 9)), x),
    lambda x: klingen_embedding_datum((5, 5, 5), x),
    lambda x: klingen_embedding_inverse(x, 1, CharacterDatum(1, 0), (6, 6)),
    lambda x: klingen_embedding_inverse(3, x, CharacterDatum(1, 0), (6,)),
    lambda x: klingen_convergence(5, 3, x),
    lambda x: klingen_convergence(5, x, 1),
    lambda x: gl_degenerate_convergence(5, 1, x),
    lambda x: LaurentPoly(("x",), {(x,): 1}),
    lambda x: LaurentPoly.monomial(1, {"x": x}),
])
def test_entry_points_read_ints_without_truncating(call):
    # none of these reads 5/2 or 2.5 as 2
    with pytest.raises(ValueError, match="not an integer: 5/2"):
        call(Fraction(5, 2))
    with pytest.raises(TypeError):
        call(2.5)


def test_entry_points_take_integral_exact_values():
    assert siegel_surjectivity_check(W, Fraction(12, 2))
    assert xi(Fraction(4, 2), SATAKE) == xi(2, SATAKE)
    assert build_pd_grid(Fraction(4, 2), 1, "1") == build_pd_grid(2, 1, 1)
    # "10/2" passes the weight's integrality check and is then read as 5
    assert FourierExpansion(1, "10/2").k == 5
    assert check_index(Fraction(4, 2), 3) == 2 and type(check_index(Fraction(4, 2), 3)) is int
    assert klingen_embedding_datum((5, 5, 5), Fraction(4, 2)) == klingen_embedding_datum((5, 5, 5), 2)
    assert klingen_convergence(5, Fraction(6, 2), 1) is klingen_convergence(5, 3, 1)
    assert LaurentPoly(("x",), {(Fraction(4, 2),): 1}) == LaurentPoly.monomial(1, {"x": "2"}) == LaurentPoly.parse("x^2")


def test_laurent_exponents_refuse_booleans():
    with pytest.raises(TypeError, match="booleans are not scalars"):
        LaurentPoly(("x",), {(True,): 1})
    with pytest.raises(TypeError, match="booleans are not scalars"):
        LaurentPoly.monomial(1, {"x": True})
