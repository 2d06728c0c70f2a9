"""Round trips and stable field names for the JSON encoders."""

import copy
import json
import re
import sys
from fractions import Fraction

import pytest

from sympl.ehw import ehw_normalize
from sympl.embeddings import klingen_embedding_datum, principal_series_datum
from sympl.encode import _ENCODERS
from sympl.errors import GridTooLarge, InvalidWeight, NotDominant, ValueTooLarge
from sympl.fourier import ENUMERATION_BOUND, FourierExpansion, GridPoints, SymMatrix, build_pd_grid
from sympl.laurent import LaurentPoly
from sympl.lfactors import RationalFunction, SatakeDatum, gk_value
from sympl.orbitclassify import (
    classify_levels,
    decomposition_report,
    siegel_surjectivity_check,
)
from sympl.scalars import as_scalar, format_scalar
from sympl.serialize import (
    character_from_json,
    classification_from_json,
    expansion_from_json,
    grid_from_json,
    induction_from_json,
    infchar_from_json,
    poly_from_json,
    profile_from_json,
    rational_from_json,
    report_from_json,
    scalar_to_json,
    to_json,
    verdict_from_json,
    weight_from_json,
)
from sympl.weights import Weight
from sympl.weyl import infchar_canonical


def through_json(payload):
    """Force a pass through real JSON text to catch non JSON types."""
    return json.loads(json.dumps(payload))


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="no int digit limit")
def test_scalar_beyond_the_digit_limit():
    for x in (Fraction(10 ** 5000 + 1, 3), Fraction(10 ** 5000)):
        with pytest.raises(ValueTooLarge, match=f"more than {sys.get_int_max_str_digits()} digits"):
            format_scalar(x)
        with pytest.raises(ValueTooLarge):
            scalar_to_json(x)
    assert scalar_to_json(Fraction(10 ** 4000 + 1, 3)) == f"{10 ** 4000 + 1}/3"


def test_scalar_json_forms():
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert isinstance(scalar_to_json(Fraction(4, 2)), int)
    assert scalar_to_json(Fraction(-7, 2)) == "-7/2"
    assert as_scalar(2) == 2
    assert as_scalar("-7/2") == Fraction(-7, 2)


def test_weight_round_trip():
    w = Weight(((Fraction(7, 2), Fraction(5, 2)), (5, 3)))
    data = through_json(to_json(w))
    assert data == {"rows": [["7/2", "5/2"], [5, 3]]}
    assert weight_from_json(data) == w


@pytest.mark.parametrize("data, message", [
    ({}, "weight.rows: missing"),
    ([[5, 3]], "weight.rows: missing"),
    ({"rows": 5}, "weight.rows: not a list of rows of scalars"),
    ({"rows": [5]}, "weight.rows: not a list of rows of scalars"),
    ({"rows": "53"}, "weight.rows: not a list of rows of scalars"),
    ({"rows": ["53"]}, "weight.rows: not a list of rows of scalars"),
    ({"rows": [[5.0, 3]]}, "weight.rows: not a list of rows of scalars"),
    ({"rows": [[True]]}, "weight.rows: not a list of rows of scalars"),
    ({"rows": [[None]]}, "weight.rows: not a list of rows of scalars"),
])
def test_weight_decoder_names_a_malformed_payload(data, message):
    # each raised KeyError or TypeError, or decoded "53" as the row (5, 3)
    with pytest.raises(ValueError) as caught:
        weight_from_json(data)
    assert str(caught.value) == message
    with pytest.raises(ValueError, match="^weight.rows: "):
        report_from_json(dict(through_json(to_json(decomposition_report(Weight(((12, 12),)), 1))), weight=data))
    # the weight's own refusals pass through
    with pytest.raises(InvalidWeight, match="difference 1 - 1/2 is not an integer"):
        weight_from_json({"rows": [[1, "1/2"]]})


def test_decoders_compare_type_exactly():
    # == let 2.0 pass for 2 and true for 1, so these decoded to the value they name;
    # a Fraction, which JSON cannot hold, and a tuple for a list are refused as well
    profile = {"base": [4, 3, 3], "p": 2, "q": 1, "r": 0}
    assert profile_from_json(profile) == ehw_normalize((4, 3, 3))
    report = through_json(to_json(decomposition_report(Weight(((12, 12),)), 1)))
    hypotheses = [dict(report["hypotheses"][0], passed=1)] + report["hypotheses"][1:]
    classification = through_json(to_json(classify_levels((5,), 2, 1)))
    for decoder, data in (
        (profile_from_json, dict(profile, p=2.0, q=True)),
        (report_from_json, dict(report, hypotheses=hypotheses)),
        (report_from_json, dict(report, n=2.0)),
        (classification_from_json, dict(classification, bijective=1)),
        (profile_from_json, dict(profile, p=Fraction(2))),
        (profile_from_json, dict(profile, base=(4, 3, 3))),
    ):
        with pytest.raises(ValueError, match="disagree"):
            decoder(data)


def test_infchar_round_trip():
    ic = infchar_canonical(Weight(((3, 3),)))
    data = through_json(to_json(ic))
    assert data == {"places": [[2, 1]]}
    assert infchar_from_json(data) == ic


def test_character_round_trip():
    c = klingen_embedding_datum((7, 5, 5), 2).character
    data = through_json(to_json(c))
    assert data == {"parity": 1, "exponent": "5/2"}
    assert character_from_json(data) == c


def test_induction_round_trip():
    datum = klingen_embedding_datum((7, 5, 5), 2)
    data = through_json(to_json(datum))
    assert data["n"] == 3 and data["i"] == 2
    assert data["character"] == {"parity": 1, "exponent": "5/2"}
    assert data["inner_weight"] == [7]
    assert induction_from_json(data) == datum
    chain = principal_series_datum((5, 3))
    for c in chain:
        assert character_from_json(through_json(to_json(c))) == c


def test_profile_round_trip():
    profile = ehw_normalize((4, 3, 3))
    data = through_json(to_json(profile))
    assert data == {"base": [4, 3, 3], "p": 2, "q": 1, "r": 0}
    assert profile_from_json(data) == profile


def test_classification_round_trip():
    c = classify_levels((5,), 2, 1)
    data = through_json(to_json(c))
    assert data["n"] == 2 and data["i"] == 1
    assert data["inner"] == [5]
    assert data["x_max"] == 5
    assert data["classes"] == [[0, 4], [1, 3], [2], [5]]
    assert data["y"] == [0, 1, 2, 5]
    assert data["bijective"] is True
    assert classification_from_json(data) == c


def _altered(data, fields):
    """A copy of data for each field, with only that field changed."""
    for field, change in fields.items():
        altered = copy.deepcopy(data)
        altered[field] = change(altered[field])
        yield altered


@pytest.mark.parametrize("c", [classify_levels((5,), 2, 1), classify_levels((), 3, 3, 7)])
def test_classification_decoder_rebuilds_and_checks(c):
    data = through_json(to_json(c))
    assert classification_from_json(data) == c
    fields = {
        "classes": lambda classes: classes[::-1],
        "y": lambda y: y[:-1],
        "bijective": lambda b: not b,
    }
    for altered in _altered(data, fields):
        with pytest.raises(ValueError, match="disagree"):
            classification_from_json(altered)


def test_report_round_trip():
    report = decomposition_report(Weight(((12, 12),)), 1)
    data = through_json(to_json(report))
    assert data["n"] == 2 and data["d"] == 1 and data["i"] == 1
    assert data["weight"] == {"rows": [[12, 12]]}
    assert [h["name"] for h in data["hypotheses"]] == [
        name for name, _ in report.hypotheses
    ]
    assert all(h["passed"] is True for h in data["hypotheses"])
    assert data["parity_class"] == 1
    assert data["exponent"] == 10
    assert data["inner_weight"] == [[12]]
    assert data["conclusion"] == "IsotypicDescription"
    assert report_from_json(data) == report


def test_report_round_trip_with_nulls():
    report = decomposition_report(Weight(((12, 11),)), 2)
    data = through_json(to_json(report))
    assert data["conclusion"] == "HypothesesFail"
    assert data["exponent"] is None
    assert data["inner_weight"] is None
    assert report_from_json(data) == report


def test_report_round_trip_with_the_wrong_parity():
    # the decoder passes the one character parity that yields this conclusion
    report = decomposition_report(Weight(((12, 12),)), 1, -1)
    data = through_json(to_json(report))
    assert data["conclusion"] == "VanishesWrongParity" and data["parity_class"] == 1
    assert report_from_json(data) == report
    with pytest.raises(ValueError, match="disagree"):
        report_from_json(dict(data, parity_class=-1))


def _disagreeing_inputs():
    """(decoder, data) pairs whose fields disagree; each was decoded field by field as given."""
    report = through_json(to_json(decomposition_report(Weight(((12, 12),)), 1)))
    failing = [dict(report["hypotheses"][0], passed="false")] + report["hypotheses"][1:]
    profile = through_json(to_json(ehw_normalize((4, 3, 3))))
    verdict = through_json(to_json(siegel_surjectivity_check(Weight(((11, 11),)), 12)))
    return {
        "report-passed-as-text": (report_from_json, dict(report, hypotheses=failing)),
        "report-exponent": (report_from_json, dict(report, exponent=99)),
        "report-parity": (report_from_json, dict(report, parity_class=-1)),
        "profile-counts": (profile_from_json, dict(profile, p=7, q=9)),
        "profile-base": (profile_from_json, dict(profile, base=[5, 4, 4])),
        "infchar-unsorted": (infchar_from_json, {"places": [[1, 5]]}),
        "infchar-negative": (infchar_from_json, {"places": [[5, -1]]}),
        "verdict-tag": (verdict_from_json, dict(verdict, tag=5)),
        "verdict-text": (verdict_from_json, dict(verdict, failed_conditions="ab")),
        "verdict-unknown": (verdict_from_json, dict(verdict, failed_conditions=["level_prime"])),
        "verdict-repeated": (verdict_from_json, dict(verdict, failed_conditions=["level_squarefree"] * 2)),
        "verdict-order": (verdict_from_json, {"tag": "NotCovered",
                                              "failed_conditions": ["weight_alternative", "level_squarefree"]}),
    }


@pytest.mark.parametrize("decoder, data", _disagreeing_inputs().values(), ids=_disagreeing_inputs())
def test_decoders_refuse_fields_that_disagree(decoder, data):
    with pytest.raises(ValueError, match="disagree"):
        decoder(data)


def test_decoders_refuse_what_no_value_encodes_to():
    # a character no weight yields, ragged places, and the rebuilding call's own refusals
    datum = through_json(to_json(klingen_embedding_datum((7, 5, 5), 2)))
    for character in ({"parity": 1, "exponent": "1/3"}, {"parity": 0, "exponent": "5/2"}):
        with pytest.raises(ValueError, match="no weight yields"):
            induction_from_json(dict(datum, character=character))
    with pytest.raises(InvalidWeight, match="same rank"):
        infchar_from_json({"places": [[5, 1], [3]]})
    with pytest.raises(NotDominant):
        profile_from_json({"base": [3, 4], "p": 0, "q": 0, "r": 0})


def test_profile_decoder_refuses_an_empty_base():
    # ehw_normalize read the bottom entry of the empty vector: a raw IndexError
    with pytest.raises(InvalidWeight, match="^a weight needs at least one entry$"):
        profile_from_json({"base": [], "p": 0, "q": 0, "r": 0})


@pytest.mark.parametrize("decoder, data, message", [
    (report_from_json, {}, "report.conclusion: missing"),
    (infchar_from_json, {}, "infchar.places: missing"),
    (poly_from_json, {"generators": ["x"]}, "poly.terms: missing"),
    (expansion_from_json, {"n": 1}, "expansion.k: missing"),
    (classification_from_json, {"n": "a"}, "classification.i: missing"),
    (verdict_from_json, {"tag": "x"}, "verdict.failed_conditions: missing"),
    # a non-list is refused by the rebuild, as a string already was
    (verdict_from_json, {"tag": "x", "failed_conditions": 5}, "verdict fields disagree with the verdict rebuilt from them"),
    (grid_from_json, [], "grid.bounds: missing"),
    (character_from_json, [], "character.parity: missing"),
    (induction_from_json, {"n": 3, "i": 2, "inner_weight": [5]}, "induction.character: missing"),
    # a VanishesWrongParity report with a text parity_class failed at the unary minus
    (report_from_json, {"conclusion": "VanishesWrongParity", "weight": {"rows": [[12, 12]]}, "i": 1, "parity_class": "1"},
     "report fields disagree with the report rebuilt from them"),
    (profile_from_json, {"base": [4, 3, 3]}, "profile.r: missing"),
    (rational_from_json, {"numerator_factors": [], "denominator_factors": 1}, "rational.denominator_factors: not a list"),
    (poly_from_json, {"generators": [], "terms": [[]]}, "poly.terms[].exponents: missing"),
    (expansion_from_json, {"n": 1, "k": 2, "support": [{"entries": 1}]}, "expansion.support[].entries: not a list"),
    (grid_from_json, {"n": 1, "d": 1, "bounds": [{"k": 1, "i": 1, "j": 1}]}, "grid.bounds[].t: missing"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_decoders_name_a_missing_field_or_wrong_container(decoder, data, message):
    # each raised KeyError or TypeError
    with pytest.raises(ValueError) as caught:
        decoder(data)
    assert str(caught.value) == message


def test_verdict_round_trip():
    good = siegel_surjectivity_check(Weight(((11, 11),)), 6)
    data = through_json(to_json(good))
    assert data == {"tag": "SurjectiveByTheorem", "failed_conditions": []}
    assert verdict_from_json(data) == good
    bad = siegel_surjectivity_check(Weight(((11, 11),)), 12)
    data = through_json(to_json(bad))
    assert data == {"tag": "NotCovered", "failed_conditions": ["level_squarefree"]}
    assert verdict_from_json(data) == bad


def test_poly_round_trip():
    p = LaurentPoly.parse("1 - 3/2*Q^-2*T*X")
    data = through_json(to_json(p))
    assert data["generators"] == ["Q", "T", "X"]
    assert {"exponents": [-2, 1, 1], "coefficient": "-3/2"} in data["terms"]
    assert {"exponents": [0, 0, 0], "coefficient": 1} in data["terms"]
    assert poly_from_json(data) == p
    assert poly_from_json(through_json(to_json(LaurentPoly.zero()))) == LaurentPoly.zero()


def test_decoders_refuse_a_repeated_entry():
    # a repeat encodes back once, so it is refused as any payload that does not encode back
    term = {"exponents": [1], "coefficient": 1}
    with pytest.raises(ValueError, match="^polynomial fields disagree with the polynomial rebuilt from them$"):
        poly_from_json({"generators": ["x"], "terms": [term, dict(term, coefficient=2)]})
    with pytest.raises(ValueError, match="repeated generator"):
        poly_from_json({"generators": ["x", "x"], "terms": [dict(term, exponents=[1, 1])]})
    entry = {"entries": [1, 0, 1], "coefficient": 2}
    with pytest.raises(ValueError, match="^expansion fields disagree with the expansion rebuilt from them$"):
        expansion_from_json({"n": 2, "k": 4, "support": [entry, dict(entry, coefficient=3)]})


@pytest.mark.parametrize("name", [None, 1, True])
def test_poly_decoder_refuses_a_generator_that_is_not_text(name):
    # such a polynomial decoded and encoded back, but str() of it raised a raw TypeError
    data = {"generators": [name], "terms": [{"exponents": [1], "coefficient": 1}]}
    with pytest.raises(ValueError, match=re.escape(f"generator names must be text: {(name,)}")):
        poly_from_json(data)


def test_decoders_refuse_a_non_integral_count():
    with pytest.raises(ValueError, match="not an integer: 5/2"):
        character_from_json({"parity": "5/2", "exponent": 1})
    # a float was a raw TypeError from the scalar reader, and "2" and "8/2" decoded as 2 and 4
    for decoder, data, message in (
        (expansion_from_json, {"n": 2.0, "k": 4, "support": []}, "expansion: not an exact scalar: 2.0"),
        (poly_from_json, {"generators": ["x"], "terms": [{"exponents": [1.5], "coefficient": 1}]},
         "polynomial: not an exact scalar: 1.5"),
        (grid_from_json, {"n": 1, "d": 1, "bounds": [{"k": 1, "i": 1, "j": 1, "t": 1.5}]}, "grid: not an exact scalar: 1.5"),
        (expansion_from_json, {"n": "2", "k": "8/2", "support": []},
         "expansion fields disagree with the expansion rebuilt from them"),
    ):
        with pytest.raises(ValueError) as caught:
            decoder(data)
        assert str(caught.value) == message
    assert expansion_from_json({"n": 2, "k": 4, "support": []}) == FourierExpansion(2, 4)


def _poly_data(text):
    return through_json(to_json(LaurentPoly.parse(text)))


@pytest.mark.parametrize("decoder, data, message", [
    (infchar_from_json, {"places": [[2.0, 1]]}, "infinitesimal character: not an exact scalar: 2.0"),
    (character_from_json, {"parity": [0], "exponent": 3}, "character: not an exact scalar: [0]"),
    (induction_from_json, {"n": None, "i": 2, "character": {"parity": 1, "exponent": "5/2"}, "inner_weight": [7]},
     "induction datum: not an exact scalar: None"),
    (profile_from_json, {"base": [4, 3, 3], "p": 2, "q": 1, "r": None}, "profile: not an exact scalar: None"),
    (classification_from_json, {"n": 2.0, "i": 1, "inner": [5]}, "classification: not an exact scalar: 2.0"),
    (report_from_json, {"conclusion": "IsotypicDescription", "weight": {"rows": [[12, 12]]}, "i": True,
                        "parity_class": 1}, "report: booleans are not scalars"),
    (poly_from_json, {"generators": ["x"], "terms": [{"exponents": [[1]], "coefficient": 1}]},
     "polynomial: unhashable type: 'list'"),
    (rational_from_json, {"numerator_factors": [{"generators": ["X"], "terms": [{"exponents": [1], "coefficient": None}]}],
                          "denominator_factors": []}, "polynomial: not an exact scalar: None"),
    (rational_from_json, {"numerator_factors": [], "denominator_factors": [_poly_data("0")]},
     "rational function: zero factor in denominator"),
    (expansion_from_json, {"n": 1, "k": True, "support": []}, "expansion: booleans are not scalars"),
    (grid_from_json, {"n": 1, "d": [1], "bounds": []}, "grid: not an exact scalar: [1]"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_decoders_name_a_scalar_of_the_wrong_type(decoder, data, message):
    # each raised a raw TypeError from a scalar reader or a dict key, or the zero factor a ZeroDivisionError
    with pytest.raises(ValueError) as caught:
        decoder(data)
    assert str(caught.value) == message
    assert type(caught.value.__cause__) in (TypeError, ZeroDivisionError)  # the reader's error stays in the trace


def _noncanonical_inputs():
    """(decoder, data) pairs naming a value in a form to_json never writes; each decoded as that value."""
    weight = {"rows": [[4, 1]]}
    character = through_json(to_json(klingen_embedding_datum((7, 5, 5), 2).character))
    poly = _poly_data("1 - 3/2*Q^-2*T*X")
    rational = through_json(to_json(gk_value(1, 1, SatakeDatum.symbolic(1))))
    expansion = through_json(to_json(FourierExpansion(2, 4, {SymMatrix.identity(2): 2, SymMatrix.zero(2): 1})))
    return {
        "weight-unknown-key": (weight_from_json, dict(weight, extra=1)),
        "weight-text-4/2": (weight_from_json, {"rows": [["4/2", 1]]}),
        "character-unknown-key": (character_from_json, dict(character, extra=1)),
        "character-text-2/4": (character_from_json, dict(character, exponent="2/4")),
        "poly-unknown-key": (poly_from_json, dict(poly, extra=1)),
        "poly-reordered-terms": (poly_from_json, dict(poly, terms=poly["terms"][::-1])),
        "poly-zero-term": (poly_from_json, dict(poly, terms=poly["terms"] + [{"exponents": [0, 0, 1], "coefficient": 0}])),
        "poly-text-exponent": (poly_from_json, dict(poly, terms=[{"exponents": ["2/2", 0, 0], "coefficient": 1}])),
        "rational-unknown-key": (rational_from_json, dict(rational, extra=1)),
        "rational-reordered-factor": (rational_from_json, dict(rational, numerator_factors=rational["numerator_factors"][:1]
                                                               + [dict(poly, terms=poly["terms"][::-1])])),
        "expansion-unknown-key": (expansion_from_json, dict(expansion, extra=1)),
        "expansion-zero-entry": (expansion_from_json, dict(expansion, support=expansion["support"]
                                                           + [{"entries": [1, 1, 1], "coefficient": 0}])),
        "expansion-reordered": (expansion_from_json, dict(expansion, support=expansion["support"][::-1])),
    }


@pytest.mark.parametrize("decoder, data", _noncanonical_inputs().values(), ids=_noncanonical_inputs())
def test_decoders_refuse_a_form_to_json_never_writes(decoder, data):
    with pytest.raises(ValueError, match="fields disagree"):
        decoder(data)


def test_rational_round_trip():
    f = gk_value(1, 1, SatakeDatum.symbolic(1))
    data = through_json(to_json(f))
    assert set(data) == {"numerator_factors", "denominator_factors"}
    back = rational_from_json(data)
    assert back.num_factors == f.num_factors
    assert back.den_factors == f.den_factors
    assert back == f


def test_expansion_round_trip():
    f = FourierExpansion(
        2,
        4,
        {
            SymMatrix.of([[Fraction(1, 2), 0], [0, 3]]): Fraction(5, 7),
            SymMatrix.identity(2): 2,
        },
    )
    data = through_json(to_json(f))
    assert data["n"] == 2 and data["k"] == 4
    assert {"entries": ["1/2", 0, 3], "coefficient": "5/7"} in data["support"]
    assert {"entries": [1, 0, 1], "coefficient": 2} in data["support"]
    assert expansion_from_json(data) == f


def test_grid_round_trip():
    grid = build_pd_grid(2, 1, 1)
    data = through_json(to_json(grid))
    assert data["n"] == 2 and data["d"] == 1
    assert data["bounds"] == [
        {"k": 1, "i": 1, "j": 1, "t": 1},
        {"k": 1, "i": 1, "j": 2, "t": 1},
        {"k": 1, "i": 2, "j": 2, "t": 1},
    ]
    assert data["deviation"] is True
    assert data["bad_point_count"] == 1
    assert data["deviation_witnesses"] == [[2, 2, 2]]
    assert data["diagonal_offsets"] == [8]
    assert data["nominal_offsets"] == [2]
    assert len(data["points"]) == 8
    back = grid_from_json(data)
    assert back == grid


def test_grid_points_encode_as_their_matrices():
    # points are emitted from the box cells; they give the bytes of the
    # matrices' upper triangles, degenerate boxes included
    for grid in (
        build_pd_grid(2, 1, 1),  # a degenerate box: raised offset, one witness
        build_pd_grid(1, 2, {(1, 1, 1): 3, (2, 1, 1): 1}),
        build_pd_grid(2, 2, {(1, 1, 2): 2, (2, 2, 2): 3}),
        build_pd_grid(3, 1, 1),
    ):
        listed = grid_from_json(through_json(to_json(grid)))
        assert listed == grid
        matrices = [[[scalar_to_json(x) for x in h.upper_triangle()] for h in point] for point in grid.points]
        for g in (grid, listed):
            data = to_json(g)
            assert data["points"] == matrices
            assert json.dumps(data) == json.dumps(dict(data, points=matrices))
        assert json.dumps(to_json(grid)) == json.dumps(to_json(listed))


@pytest.mark.parametrize("grid", [
    build_pd_grid(2, 1, 1),  # a degenerate box: raised offset, one witness
    build_pd_grid(2, 2, {(1, 1, 2): 2, (2, 2, 2): 3}),
    build_pd_grid(3, 1, 1),
])
def test_grid_decoder_rebuilds_and_checks(grid):
    data = through_json(to_json(grid))
    back = grid_from_json(data)
    assert back == grid
    assert isinstance(back.points, GridPoints)
    fields = {
        "points": lambda points: points[:-1],
        "nominal_offsets": lambda offsets: [v + 1 for v in offsets],
        "diagonal_offsets": lambda offsets: [v + 1 for v in offsets],
        "deviation": lambda deviation: not deviation,
        "deviation_witnesses": lambda witnesses: witnesses + [[1] * len(data["points"][0][0])],
        "bad_point_count": lambda count: count + 1,
    }
    for altered in _altered(data, fields):
        with pytest.raises(ValueError, match="disagree"):
            grid_from_json(altered)


def test_grid_listing_bound():
    # 7^6 points: counted, but too many to list
    grid = build_pd_grid(3, 1, 6)
    assert len(grid.points) == 7 ** 6 > ENUMERATION_BOUND
    with pytest.raises(GridTooLarge):
        to_json(grid)
    # 2^66 points: more than len() can return, still refused by name
    wide = build_pd_grid(11, 1, 1)
    assert wide.points.count == 2 ** 66
    with pytest.raises(GridTooLarge, match=f"{2 ** 66} grid points"):
        to_json(wide)
    bounds = [{"k": 1, "i": i, "j": j, "t": 1} for i in range(1, 12) for j in range(i, 12)]
    with pytest.raises(GridTooLarge):
        grid_from_json({"n": 11, "d": 1, "bounds": bounds})


# one value of each type to_json dispatches, with its JSON keys in order;
# for a type encoded by the field walk these are its declared fields in
# declaration order, so reordering a field fails here
TABLED = [
    (Weight(((Fraction(7, 2), Fraction(5, 2)), (5, 3))), ["rows"]),
    (infchar_canonical(Weight(((3, 3),))), ["places"]),
    (klingen_embedding_datum((7, 5, 5), 2).character, ["parity", "exponent"]),
    (klingen_embedding_datum((7, 5, 5), 2), ["n", "i", "character", "inner_weight"]),
    (ehw_normalize((4, 3, 3)), ["base", "p", "q", "r"]),
    (classify_levels((5,), 2, 1), ["n", "i", "inner", "x_max", "classes", "y", "bijective"]),
    (
        decomposition_report(Weight(((12, 12),)), 1),
        ["n", "d", "i", "weight", "hypotheses", "parity_class", "exponent", "inner_weight", "conclusion",
         "assumption"],
    ),
    (siegel_surjectivity_check(Weight(((11, 11),)), 12), ["tag", "failed_conditions"]),
    (LaurentPoly.parse("1 - 3/2*Q^-2*T*X"), ["generators", "terms"]),
    (gk_value(1, 1, SatakeDatum.symbolic(1)), ["numerator_factors", "denominator_factors"]),
    (FourierExpansion(2, 4, {SymMatrix.identity(2): Fraction(5, 7)}), ["n", "k", "support"]),
    (
        build_pd_grid(2, 1, 1),
        ["n", "d", "bounds", "points", "diagonal_offsets", "nominal_offsets", "deviation",
         "deviation_witnesses", "bad_point_count"],
    ),
]


@pytest.mark.parametrize("value, keys", TABLED, ids=[type(value).__name__ for value, _ in TABLED])
def test_to_json_dispatches_to_each_encoder(value, keys):
    data = to_json(value)
    assert list(data) == keys
    assert to_json({"value": value, "list": [value]}) == {"value": data, "list": [data]}


def test_every_encoder_is_tabled():
    assert sorted(_ENCODERS) == sorted(type(value).__name__ for value, _ in TABLED)


def test_to_json_walks_containers_and_keeps_plain_values():
    value = {"row": (Fraction(1, 2), 3, Fraction(4, 2)), "nested": [(Fraction(-7, 3),), {"x": 5}]}
    assert to_json(value) == {"row": ["1/2", 3, 2], "nested": [["-7/3"], {"x": 5}]}
    assert type(to_json(Fraction(4, 2))) is int
    # ints past the small-int fast path go through scalar_to_json unchanged
    assert to_json([2 ** 2048, -(10 ** 1000)]) == [2 ** 2048, -(10 ** 1000)]
    for plain in (True, False, None, "text", ""):
        assert to_json(plain) is plain
    assert to_json([True, 1, None]) == [True, 1, None]
    assert type(to_json([True])[0]) is bool
    with pytest.raises(TypeError, match="no JSON form for SymMatrix"):
        to_json(SymMatrix.identity(2))


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="no int digit limit")
def test_to_json_beyond_the_digit_limit():
    for x in (Fraction(10 ** 5000 + 1, 3), 10 ** 5000):
        with pytest.raises(ValueTooLarge):
            to_json({"values": [x]})
