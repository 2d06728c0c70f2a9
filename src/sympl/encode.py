"""to_json, the JSON form of the public value types, with no layer imported.

Each encoder is found by class name, and one that calls a layer helper
imports it as it runs, when a value of that type has loaded the layer.
Scalars travel as ints when integral and as "p/q" strings otherwise.
"""

from fractions import Fraction
from itertools import product

from .errors import ENUMERATION_BOUND
from .scalars import as_scalar, format_scalar

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


def _fields(value):
    """The JSON form of a value whose keys are its declared fields in order."""
    return {name: to_json(getattr(value, name)) for name in value._fields}


def _weight(w):
    """The rows, written from the doubled ints: even ones as ints, odd ones as "p/2" texts."""
    from .weights import format_half

    rows = []
    for row in w.doubled:
        rows.append([to_json(v // 2) if v % 2 == 0 else format_half(v) for v in row])
    return {"rows": rows}


def _infchar(ic):
    return {"places": to_json(ic.canonical)}


def _report(report):
    # the override keeps the key where the field walk put it
    return {**_fields(report), "hypotheses": [{"name": name, "passed": ok} for name, ok in report.hypotheses]}


def _poly(p):
    return {
        "generators": list(p.gens),
        "terms": [
            {"exponents": list(exps), "coefficient": scalar_to_json(c)}
            for exps, c in sorted(p.terms.items(), reverse=True)  # exponent vectors are distinct
        ],
    }


def _rational(f):
    return {
        "numerator_factors": to_json(f.num_factors),
        "denominator_factors": to_json(f.den_factors),
    }


def _expansion(f):
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


def _grid(grid):
    points = grid.points
    ENUMERATION_BOUND.check(points.count)
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
