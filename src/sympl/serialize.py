"""JSON decoding for the public value types; to_json is re-exported from encode.

Each value type has its own decoder, and a computed value is decoded by
rebuilding it. A missing field or a wrong container raises a ValueError
naming its path. Field names are stable and documented in the README.
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


def _rebuilt(value, data, what):
    """value, rebuilt from the inputs data names; ValueError unless it encodes back to data,
    type for type: == refuses a tuple for a list, the JSON texts 2.0 or true for an int."""
    encoded = to_json(value)
    try:
        same = encoded == data and json.dumps(encoded, sort_keys=True) == json.dumps(data, sort_keys=True)
    except TypeError:  # data holds what JSON cannot, such as a Fraction
        same = False
    if not same:
        raise ValueError(f"{what} fields disagree with the {what} rebuilt from them")
    return value


def weight_from_json(data) -> Weight:
    """The weight of rows of ints and "p/q" texts; otherwise a ValueError names weight.rows."""
    rows = _field(data, "weight.rows")
    if type(rows) is not list or not all(type(r) is list and all(type(x) in (int, str) for x in r) for r in rows):
        raise ValueError("weight.rows: not a list of rows of scalars")
    return Weight(rows)


def infchar_from_json(data) -> InfChar:
    """The character of the weight whose place k is c_k + k, which is c when each place c is canonical."""
    places = _field(data, "infchar.places", list)
    rows = tuple(tuple(c + k for k, c in enumerate(as_vector(place), 1)) for place in places)
    return _rebuilt(infchar_canonical(Weight(rows)), data, "infinitesimal character")


def character_from_json(data) -> CharacterDatum:
    return CharacterDatum(_field(data, "character.parity"), _field(data, "character.exponent"))


def induction_from_json(data) -> InductionDatum:
    """The datum of the one weight row klingen_embedding_inverse finds for it."""
    n, i, inner = (_field(data, f"induction.{key}") for key in ("n", "i", "inner_weight"))
    row = klingen_embedding_inverse(n, i, character_from_json(_field(data, "induction.character")), inner)
    if row is None:
        raise ValueError("no weight yields this induction datum")
    return _rebuilt(klingen_embedding_datum(row, i), data, "induction datum")


def profile_from_json(data) -> EhwProfile:
    """The profile of the weight base - r."""
    r = as_scalar(_field(data, "profile.r"))
    return _rebuilt(ehw_normalize([b - r for b in as_vector(_field(data, "profile.base"))]), data, "profile")


def classification_from_json(data) -> OrbitClassification:
    """The classification of n, i, inner and, when i = n, x_max."""
    i, n, inner = (_field(data, f"classification.{key}") for key in ("i", "n", "inner"))
    x_max = _field(data, "classification.x_max") if as_int(i) == as_int(n) else None
    return _rebuilt(classify_levels(inner, n, i, x_max), data, "classification")


def report_from_json(data) -> DecompositionReport:
    """The report on weight and i; a VanishesWrongParity one was given the parity -parity_class,
    and with a parity_class that is not an int it was given none, so the rebuilt report disagrees."""
    wrong = _field(data, "report.conclusion") == "VanishesWrongParity"
    weight, i = weight_from_json(_field(data, "report.weight")), _field(data, "report.i")
    parity_class = _field(data, "report.parity_class")
    parity = -parity_class if wrong and type(parity_class) is int else None
    return _rebuilt(decomposition_report(weight, i, parity), data, "report")


def verdict_from_json(data) -> SurjectivityVerdict:
    """The verdict on the failed conditions, each named once in SURJECTIVITY_CONDITIONS order;
    a failed_conditions that is not a list names none, so the rebuilt verdict disagrees."""
    failed = _field(data, "verdict.failed_conditions")
    named = failed if type(failed) is list else ()
    return _rebuilt(SurjectivityVerdict.of(c for c in SURJECTIVITY_CONDITIONS if c in named), data, "verdict")


def poly_from_json(data) -> LaurentPoly:
    gens = tuple(_field(data, "poly.generators", list))
    terms = {}
    for t in _field(data, "poly.terms", list):
        exps = tuple(as_int(e) for e in _field(t, "poly.terms[].exponents", list))
        if exps in terms:
            raise ValueError(f"repeated exponents {list(exps)}")
        terms[exps] = as_scalar(_field(t, "poly.terms[].coefficient"))
    return LaurentPoly(gens, terms)


def rational_from_json(data) -> RationalFunction:
    return RationalFunction(
        tuple(poly_from_json(p) for p in _field(data, "rational.numerator_factors", list)),
        tuple(poly_from_json(p) for p in _field(data, "rational.denominator_factors", list)),
    )


def expansion_from_json(data) -> FourierExpansion:
    n, k = as_int(_field(data, "expansion.n")), as_int(_field(data, "expansion.k"))
    support = {}
    for item in _field(data, "expansion.support", list):
        h = SymMatrix.from_upper(n, as_vector(_field(item, "expansion.support[].entries", list)))
        if h in support:
            raise ValueError(f"repeated index {h}")
        support[h] = as_scalar(_field(item, "expansion.support[].coefficient"))
    return FourierExpansion(n, k, support)


def grid_from_json(data) -> PdGrid:
    """The grid of n, d and bounds."""
    read = [[as_int(_field(b, f"grid.bounds[].{key}")) for key in "kijt"] for b in _field(data, "grid.bounds", list)]
    bounds = {(k, i, j): t for k, i, j, t in read}
    return _rebuilt(build_pd_grid(_field(data, "grid.n"), _field(data, "grid.d"), bounds), data, "grid")
