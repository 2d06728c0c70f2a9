"""JSON decoding for the public value types; to_json is re-exported from encode.

Each value type has its own decoder. It rebuilds the value and returns it
through _rebuilt, which refuses with a ValueError data that does not encode
back to itself. Field names are stable and documented in the README.
"""

import json

from .ehw import EhwProfile, ehw_normalize
from .embeddings import CharacterDatum, InductionDatum, klingen_embedding_datum, klingen_embedding_inverse
from .encode import scalar_to_json, to_json  # noqa: F401 (public names of this module)
from .fourier import FourierExpansion, PdGrid, SymMatrix, build_pd_grid
from .laurent import LaurentPoly
from .lfactors import RationalFunction
from .orbitclassify import (
    SURJECTIVITY_CONDITIONS,
    DecompositionReport,
    OrbitClassification,
    SurjectivityVerdict,
    classify_levels,
    decomposition_report,
)
from .scalars import as_int, as_scalar
from .weights import Weight, as_vector
from .weyl import InfChar, infchar_canonical


def _field(data, path, kind=None):
    """data's value at the last key of path; otherwise a ValueError names path."""
    key = path.rpartition(".")[2]
    if type(data) is not dict or key not in data:
        raise ValueError(f"{path}: missing")
    if kind is not None and type(data[key]) is not kind:
        raise ValueError(f"{path}: not a {kind.__name__}")
    return data[key]


def _rebuilt(build, data, what):
    """build(), the value rebuilt from the inputs data names; a ValueError names what when build fails on a
    field's type, and unless the value encodes back to data type for type (== and the sorted JSON texts)."""
    try:
        value = build()
    except (TypeError, ZeroDivisionError) as error:  # a float, bool, null or list as a scalar or key; a zero divisor
        raise ValueError(f"{what}: {error}") from error
    encoded = to_json(value)  # == refuses a tuple for a list; the texts 2.0 or true for an int, and a Fraction (repr)
    if encoded != data or json.dumps(encoded, sort_keys=True) != json.dumps(data, sort_keys=True, default=repr):
        raise ValueError(f"{what} fields disagree with the {what} rebuilt from them")
    return value


def weight_from_json(data) -> Weight:
    """The weight of rows of ints and "p/2" texts; otherwise a ValueError names weight.rows."""
    rows = _field(data, "weight.rows")
    if type(rows) is not list or not all(type(r) is list and all(type(x) in (int, str) for x in r) for r in rows):
        raise ValueError("weight.rows: not a list of rows of scalars")
    return _rebuilt(lambda: Weight(rows), data, "weight")


def infchar_from_json(data) -> InfChar:
    """The character of the weight whose place k is c_k + k, which is c when each place c is canonical."""
    places = _field(data, "infchar.places", list)
    return _rebuilt(
        lambda: infchar_canonical(Weight([c + k for k, c in enumerate(as_vector(place), 1)] for place in places)),
        data, "infinitesimal character")


def character_from_json(data) -> CharacterDatum:
    parity, exponent = _field(data, "character.parity"), _field(data, "character.exponent")
    return _rebuilt(lambda: CharacterDatum(parity, exponent), data, "character")


def induction_from_json(data) -> InductionDatum:
    """The datum of the one weight row klingen_embedding_inverse finds for it."""
    def build():
        n, i, inner = (_field(data, f"induction.{key}") for key in ("n", "i", "inner_weight"))
        row = klingen_embedding_inverse(n, i, character_from_json(_field(data, "induction.character")), inner)
        if row is None:
            raise ValueError("no weight yields this induction datum")
        return klingen_embedding_datum(row, i)
    return _rebuilt(build, data, "induction datum")


def profile_from_json(data) -> EhwProfile:
    """The profile of the weight base - r."""
    r, base = _field(data, "profile.r"), _field(data, "profile.base")
    return _rebuilt(lambda: ehw_normalize([b - as_scalar(r) for b in as_vector(base)]), data, "profile")


def classification_from_json(data) -> OrbitClassification:
    """The classification of n, i, inner and, when i = n, x_max."""
    def build():
        i, n, inner = (_field(data, f"classification.{key}") for key in ("i", "n", "inner"))
        return classify_levels(inner, n, i, _field(data, "classification.x_max") if as_int(i) == as_int(n) else None)
    return _rebuilt(build, data, "classification")


def report_from_json(data) -> DecompositionReport:
    """The report on weight and i; a VanishesWrongParity one was given the parity -parity_class,
    and with a parity_class that is not an int it was given none, so the rebuilt report disagrees."""
    wrong = _field(data, "report.conclusion") == "VanishesWrongParity"
    weight, i = weight_from_json(_field(data, "report.weight")), _field(data, "report.i")
    parity_class = _field(data, "report.parity_class")
    parity = -parity_class if wrong and type(parity_class) is int else None
    return _rebuilt(lambda: decomposition_report(weight, i, parity), data, "report")


def verdict_from_json(data) -> SurjectivityVerdict:
    """The verdict on the failed conditions, each named once in SURJECTIVITY_CONDITIONS order;
    a failed_conditions that is not a list names none, so the rebuilt verdict disagrees."""
    failed = _field(data, "verdict.failed_conditions")
    named = failed if type(failed) is list else ()
    return _rebuilt(lambda: SurjectivityVerdict.of(c for c in SURJECTIVITY_CONDITIONS if c in named), data, "verdict")


def poly_from_json(data) -> LaurentPoly:
    gens, terms = tuple(_field(data, "poly.generators", list)), _field(data, "poly.terms", list)
    return _rebuilt(lambda: LaurentPoly(gens, {
        tuple(_field(t, "poly.terms[].exponents", list)): _field(t, "poly.terms[].coefficient") for t in terms
    }), data, "polynomial")


def rational_from_json(data) -> RationalFunction:
    return _rebuilt(lambda: RationalFunction(
        tuple(poly_from_json(p) for p in _field(data, "rational.numerator_factors", list)),
        tuple(poly_from_json(p) for p in _field(data, "rational.denominator_factors", list)),
    ), data, "rational function")


def expansion_from_json(data) -> FourierExpansion:
    def build():
        n, k = as_int(_field(data, "expansion.n")), as_int(_field(data, "expansion.k"))
        support = {}
        for item in _field(data, "expansion.support", list):
            h = SymMatrix.from_upper(n, _field(item, "expansion.support[].entries", list))
            support[h] = _field(item, "expansion.support[].coefficient")
        return FourierExpansion(n, k, support)
    return _rebuilt(build, data, "expansion")


def grid_from_json(data) -> PdGrid:
    """The grid of n, d and bounds."""
    read = [[_field(b, f"grid.bounds[].{key}") for key in "kijt"] for b in _field(data, "grid.bounds", list)]
    n, d = _field(data, "grid.n"), _field(data, "grid.d")
    return _rebuilt(lambda: build_pd_grid(n, d, {(k, i, j): t for k, i, j, t in read}), data, "grid")
