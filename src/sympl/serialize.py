"""JSON encoding and decoding for the public value types.

to_json is the one encoder; each value type has its own decoder, and a
computed value is decoded by rebuilding it. Field names are stable and
documented in the README, and tests round trip every value type through
to_json and its decoder. Scalars travel as ints when integral and as
"p/q" strings otherwise, so nothing ever becomes a float on the wire.
"""

import json
from dataclasses import fields
from fractions import Fraction
from itertools import product

from .ehw import EhwProfile, ehw_normalize
from .embeddings import CharacterDatum, InductionDatum, klingen_embedding_datum, klingen_embedding_inverse
from .errors import GridTooLarge
from .fourier import ENUMERATION_BOUND, FourierExpansion, PdGrid, SymMatrix, build_pd_grid
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
from .scalars import as_int, as_scalar, format_scalar
from .weights import Weight, as_vector, format_half
from .weyl import InfChar, infchar_canonical


# An int below this (617 digits) prints under every digit limit Python
# accepts (640 or more), so to_json passes it through unchecked.
_PRINTABLE = 2 ** 2048


def scalar_to_json(x):
    """An int when x is integral and "p/q" otherwise, each printable
    (format_scalar raises ValueTooLarge when not)."""
    x = as_scalar(x)
    text = format_scalar(x)
    return x.numerator if x.denominator == 1 else text


def to_json(value):
    """The JSON form of a value: each public value type through its
    entry in _ENCODERS, ints and Fractions through scalar_to_json, dicts,
    lists and tuples walked, and bools, strs and None as they are."""
    kind = type(value)  # exact types, so a bool is never read as an int
    if kind is int and -_PRINTABLE < value < _PRINTABLE:
        return value
    if kind is Fraction or kind is int:
        return scalar_to_json(value)
    if kind is tuple or kind is list:
        return [to_json(v) for v in value]
    if kind is dict:
        return {k: to_json(v) for k, v in value.items()}
    if value is None or kind is bool or kind is str:
        return value
    encoder = _ENCODERS.get(kind.__name__)
    if encoder is None:
        raise TypeError(f"no JSON form for {kind.__name__}")
    return encoder(value)


def _fields(value) -> dict:
    """The JSON form of a dataclass whose keys are its fields in declaration order."""
    return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}


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
    rows = data.get("rows") if type(data) is dict else None
    if type(rows) is not list or not all(type(r) is list and all(type(x) in (int, str) for x in r) for r in rows):
        raise ValueError("weight.rows: " + ("missing" if rows is None else "not a list of rows of scalars"))
    return Weight(rows)


def _weight(w: Weight) -> dict:
    """The rows, written from the doubled ints: even ones as ints, odd ones as "p/2" texts."""
    rows = []
    for row in w.doubled:
        rows.append([to_json(v // 2) if v % 2 == 0 else format_half(v) for v in row])
    return {"rows": rows}


def _infchar(ic: InfChar) -> dict:
    return {"places": to_json(ic.canonical)}


def infchar_from_json(data) -> InfChar:
    """The character of the weight whose place k is c_k + k, which is c when each place c is canonical."""
    rows = tuple(tuple(c + k for k, c in enumerate(as_vector(place), 1)) for place in data["places"])
    return _rebuilt(infchar_canonical(Weight(rows)), data, "infinitesimal character")


def character_from_json(data) -> CharacterDatum:
    return CharacterDatum(data["parity"], data["exponent"])


def induction_from_json(data) -> InductionDatum:
    """The datum of the one weight row klingen_embedding_inverse finds for it."""
    row = klingen_embedding_inverse(data["n"], data["i"], character_from_json(data["character"]), data["inner_weight"])
    if row is None:
        raise ValueError("no weight yields this induction datum")
    return _rebuilt(klingen_embedding_datum(row, data["i"]), data, "induction datum")


def profile_from_json(data) -> EhwProfile:
    """The profile of the weight base - r."""
    r = as_scalar(data["r"])
    return _rebuilt(ehw_normalize([b - r for b in as_vector(data["base"])]), data, "profile")


def classification_from_json(data) -> OrbitClassification:
    """The classification of n, i, inner and, when i = n, x_max."""
    x_max = data["x_max"] if as_int(data["i"]) == as_int(data["n"]) else None
    return _rebuilt(classify_levels(data["inner"], data["n"], data["i"], x_max), data, "classification")


def _report(report: DecompositionReport) -> dict:
    # the override keeps the key where the field walk put it
    return {**_fields(report), "hypotheses": [{"name": name, "passed": ok} for name, ok in report.hypotheses]}


def report_from_json(data) -> DecompositionReport:
    """The report on weight and i; a VanishesWrongParity one was given the parity -parity_class."""
    wrong = data["conclusion"] == "VanishesWrongParity"
    report = decomposition_report(weight_from_json(data["weight"]), data["i"], -data["parity_class"] if wrong else None)
    return _rebuilt(report, data, "report")


def verdict_from_json(data) -> SurjectivityVerdict:
    """The verdict on the failed conditions, each named once in SURJECTIVITY_CONDITIONS order."""
    failed = data["failed_conditions"]
    return _rebuilt(SurjectivityVerdict.of(c for c in SURJECTIVITY_CONDITIONS if c in failed), data, "verdict")


def _poly(p: LaurentPoly) -> dict:
    return {
        "generators": list(p.gens),
        "terms": [
            {"exponents": list(exps), "coefficient": scalar_to_json(p.terms[exps])}
            for exps in sorted(p.terms, reverse=True)
        ],
    }


def poly_from_json(data) -> LaurentPoly:
    gens = tuple(data["generators"])
    terms = {}
    for t in data["terms"]:
        exps = tuple(as_int(e) for e in t["exponents"])
        if exps in terms:
            raise ValueError(f"repeated exponents {list(exps)}")
        terms[exps] = as_scalar(t["coefficient"])
    return LaurentPoly(gens, terms)


def _rational(f: RationalFunction) -> dict:
    return {
        "numerator_factors": to_json(f.num_factors),
        "denominator_factors": to_json(f.den_factors),
    }


def rational_from_json(data) -> RationalFunction:
    return RationalFunction(
        tuple(poly_from_json(p) for p in data["numerator_factors"]),
        tuple(poly_from_json(p) for p in data["denominator_factors"]),
    )


def _expansion(f: FourierExpansion) -> dict:
    return {
        "n": f.n,
        "k": f.k,
        "support": [
            {
                "entries": to_json(h.upper_triangle()),
                "coefficient": scalar_to_json(f.support[h]),
            }
            for h in sorted(f.support, key=lambda h: h.upper_triangle())
        ],
    }


def expansion_from_json(data) -> FourierExpansion:
    n = as_int(data["n"])
    support = {}
    for item in data["support"]:
        h = SymMatrix.from_upper(n, as_vector(item["entries"]))
        if h in support:
            raise ValueError(f"repeated index {h}")
        support[h] = as_scalar(item["coefficient"])
    return FourierExpansion(n, as_int(data["k"]), support)


def _grid(grid: PdGrid) -> dict:
    points = grid.points
    if points.count > ENUMERATION_BOUND:
        raise GridTooLarge(f"{format_scalar(points.count)} grid points to list, above the bound {ENUMERATION_BOUND}")
    return {
        "n": grid.n,
        "d": grid.d,
        "bounds": [
            {"k": k, "i": i, "j": j, "t": grid.bounds[(k, i, j)]}
            for (k, i, j) in sorted(grid.bounds)
        ],
        # a grid's upper triangles are the integer cells of its factor boxes
        "points": [[list(cells) for cells in point] for point in product(*(product(*box) for box in points.boxes))],
        "diagonal_offsets": list(grid.diagonal_offsets),
        "nominal_offsets": list(grid.nominal_offsets),
        "deviation": grid.deviation,
        "deviation_witnesses": [to_json(h.upper_triangle()) for h in grid.deviation_witnesses],
        "bad_point_count": grid.bad_point_count,
    }


def grid_from_json(data) -> PdGrid:
    """The grid of n, d and bounds."""
    bounds = {(as_int(b["k"]), as_int(b["i"]), as_int(b["j"])): as_int(b["t"]) for b in data["bounds"]}
    return _rebuilt(build_pd_grid(data["n"], data["d"], bounds), data, "grid")


# The encoder of each public value type, keyed by class name.
_ENCODERS = {
    "Weight": _weight,
    "InfChar": _infchar,
    "CharacterDatum": _fields,
    "InductionDatum": _fields,
    "EhwProfile": _fields,
    "OrbitClassification": _fields,
    "DecompositionReport": _report,
    "SurjectivityVerdict": _fields,
    "LaurentPoly": _poly,
    "RationalFunction": _rational,
    "FourierExpansion": _expansion,
    "PdGrid": _grid,
}
