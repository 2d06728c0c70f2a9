"""JSON encoding and decoding for the public value types.

Field names here are stable and documented in the README; tests round
trip every encoder through its decoder. Scalars travel as ints when
integral and as "p/q" strings otherwise, so nothing ever becomes a
float on the wire.
"""

from fractions import Fraction
from itertools import product

from .ehw import EhwProfile
from .embeddings import CharacterDatum, InductionDatum
from .errors import GridTooLarge
from .fourier import ENUMERATION_BOUND, FourierExpansion, PdGrid, SymMatrix, build_pd_grid
from .laurent import LaurentPoly
from .lfactors import RationalFunction
from .orbitclassify import (
    DecompositionReport,
    OrbitClassification,
    SurjectivityVerdict,
    classify_levels,
)
from .scalars import as_scalar, format_scalar
from .weights import Weight, as_vector
from .weyl import InfChar


def scalar_to_json(x):
    """An int when x is integral and "p/q" otherwise, each printable
    (format_scalar raises ValueTooLarge when not)."""
    x = as_scalar(x)
    text = format_scalar(x)
    return x.numerator if x.denominator == 1 else text


def scalar_from_json(data) -> Fraction:
    return as_scalar(data)


def _row_to_json(row):
    return [scalar_to_json(v) for v in row]


def weight_to_json(w: Weight) -> dict:
    return {"rows": [_row_to_json(row) for row in w.rows]}


def weight_from_json(data) -> Weight:
    return Weight(tuple(as_vector(row) for row in data["rows"]))


def infchar_to_json(ic: InfChar) -> dict:
    return {"places": [_row_to_json(row) for row in ic.canonical]}


def infchar_from_json(data) -> InfChar:
    return InfChar(tuple(as_vector(row) for row in data["places"]))


def character_to_json(c: CharacterDatum) -> dict:
    return {"parity": c.parity, "exponent": scalar_to_json(c.exponent)}


def character_from_json(data) -> CharacterDatum:
    return CharacterDatum(int(data["parity"]), as_scalar(data["exponent"]))


def induction_to_json(datum: InductionDatum) -> dict:
    return {
        "n": datum.n,
        "i": datum.i,
        "character": character_to_json(datum.character),
        "inner_weight": _row_to_json(datum.inner_weight),
    }


def induction_from_json(data) -> InductionDatum:
    return InductionDatum(
        n=int(data["n"]),
        i=int(data["i"]),
        character=character_from_json(data["character"]),
        inner_weight=as_vector(data["inner_weight"]),
    )


def profile_to_json(profile: EhwProfile) -> dict:
    return {
        "base": _row_to_json(profile.base),
        "p": profile.p,
        "q": profile.q,
        "r": scalar_to_json(profile.r),
    }


def profile_from_json(data) -> EhwProfile:
    return EhwProfile(
        base=as_vector(data["base"]),
        p=int(data["p"]),
        q=int(data["q"]),
        r=as_scalar(data["r"]),
    )


def classification_to_json(c: OrbitClassification) -> dict:
    return {
        "n": c.n,
        "i": c.i,
        "inner": _row_to_json(c.inner),
        "x_max": c.x_max,
        "classes": [list(cls) for cls in c.classes],
        "y": list(c.y),
        "bijective": c.bijective,
    }


def classification_from_json(data) -> OrbitClassification:
    """Rebuild the classification from n, i, inner and, when i = n, x_max;
    raise ValueError if any field of data disagrees with it."""
    n, i = int(data["n"]), int(data["i"])
    c = classify_levels(as_vector(data["inner"]), n, i, data["x_max"] if i == n else None)
    if classification_to_json(c) != data:
        raise ValueError("classification fields disagree with the levels they classify")
    return c


def report_to_json(report: DecompositionReport) -> dict:
    return {
        "n": report.n,
        "d": report.d,
        "i": report.i,
        "weight": weight_to_json(report.weight),
        "hypotheses": [
            {"name": name, "passed": ok} for name, ok in report.hypotheses
        ],
        "parity_class": report.parity_class,
        "exponent": None if report.exponent is None else scalar_to_json(report.exponent),
        "inner_weight": None
        if report.inner_weight is None
        else [_row_to_json(row) for row in report.inner_weight],
        "conclusion": report.conclusion,
        "assumption": report.assumption,
    }


def report_from_json(data) -> DecompositionReport:
    return DecompositionReport(
        n=int(data["n"]),
        d=int(data["d"]),
        i=int(data["i"]),
        weight=weight_from_json(data["weight"]),
        hypotheses=tuple((h["name"], bool(h["passed"])) for h in data["hypotheses"]),
        parity_class=None if data["parity_class"] is None else int(data["parity_class"]),
        exponent=None if data["exponent"] is None else as_scalar(data["exponent"]),
        inner_weight=None
        if data["inner_weight"] is None
        else tuple(as_vector(row) for row in data["inner_weight"]),
        conclusion=data["conclusion"],
        assumption=data["assumption"],
    )


def verdict_to_json(v: SurjectivityVerdict) -> dict:
    return {"tag": v.tag, "failed_conditions": list(v.failed_conditions)}


def verdict_from_json(data) -> SurjectivityVerdict:
    return SurjectivityVerdict(
        tag=data["tag"], failed_conditions=tuple(data["failed_conditions"])
    )


def poly_to_json(p: LaurentPoly) -> dict:
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
        exps = tuple(int(e) for e in t["exponents"])
        if exps in terms:
            raise ValueError(f"repeated exponents {list(exps)}")
        terms[exps] = as_scalar(t["coefficient"])
    return LaurentPoly(gens, terms)


def rational_to_json(f: RationalFunction) -> dict:
    return {
        "numerator_factors": [poly_to_json(p) for p in f.num_factors],
        "denominator_factors": [poly_to_json(p) for p in f.den_factors],
    }


def rational_from_json(data) -> RationalFunction:
    return RationalFunction(
        tuple(poly_from_json(p) for p in data["numerator_factors"]),
        tuple(poly_from_json(p) for p in data["denominator_factors"]),
    )


def expansion_to_json(f: FourierExpansion) -> dict:
    return {
        "n": f.n,
        "k": f.k,
        "support": [
            {
                "entries": _row_to_json(h.upper_triangle()),
                "coefficient": scalar_to_json(f.support[h]),
            }
            for h in sorted(f.support, key=lambda h: h.upper_triangle())
        ],
    }


def expansion_from_json(data) -> FourierExpansion:
    n = int(data["n"])
    support = {}
    for item in data["support"]:
        h = SymMatrix.from_upper(n, as_vector(item["entries"]))
        if h in support:
            raise ValueError(f"repeated index {h}")
        support[h] = as_scalar(item["coefficient"])
    return FourierExpansion(n, int(data["k"]), support)


def grid_to_json(grid: PdGrid) -> dict:
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
        "deviation_witnesses": [
            _row_to_json(h.upper_triangle()) for h in grid.deviation_witnesses
        ],
        "bad_point_count": grid.bad_point_count,
    }


def grid_from_json(data) -> PdGrid:
    """Rebuild the grid from n, d and bounds; raise ValueError if any
    field of data disagrees with it."""
    bounds = {
        (int(b["k"]), int(b["i"]), int(b["j"])): int(b["t"]) for b in data["bounds"]
    }
    grid = build_pd_grid(data["n"], data["d"], bounds)
    if grid_to_json(grid) != data:
        raise ValueError("grid fields disagree with the grid its n, d and bounds build")
    return grid
