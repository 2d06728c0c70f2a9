"""Command line driver.

One subcommand per library operation, text tables by default and the
frozen JSON schemas behind --json. Exit codes: 0 success, 1 domain
rejection (error name echoed on stderr), 2 usage problems.
"""

import argparse
import json
import sys

from .ehw import ehw_normalize, first_reduction_point, is_unitary_highest_weight
from .embeddings import (
    CharacterDatum,
    klingen_embedding_datum,
    klingen_embedding_inverse,
    principal_series_datum,
    siegel_degenerate_datum,
)
from .errors import DomainError
from .fourier import (
    build_pd_grid,
    cusp_condition_check,
    filtration_index,
    format_expansion,
    is_cuspidal,
    parse_expansion,
    pit_vanishes,
    siegel_phi,
)
from .laurent import LaurentPoly
from .lfactors import SatakeDatum, gk_value, xi
from .orbitclassify import (
    classify_levels,
    decomposition_report,
    level_from_primes,
    siegel_surjectivity_check,
)
from .scalars import as_scalar, format_scalar
from .serialize import (
    character_to_json,
    classification_to_json,
    expansion_to_json,
    grid_to_json,
    induction_to_json,
    rational_to_json,
    report_to_json,
    scalar_to_json,
    verdict_to_json,
    weight_to_json,
)
from .weights import format_weight, parse_weight
from .weyl import (
    dominant_orbit_elements,
    infchar_canonical,
    is_sufficiently_regular,
    orbit_dichotomy_check,
)


def _bool(b) -> str:
    return "true" if b else "false"


def _row_text(row) -> str:
    return ",".join(format_scalar(x) for x in row)


def _scalars(text):
    """Comma-separated scalars; empty items are skipped."""
    return tuple(as_scalar(x) for x in text.split(",") if x.strip())


def _satake_from_args(args):
    if getattr(args, "satake", None):
        params = _scalars(args.satake)
    else:
        m = getattr(args, "m", None) or 0
        params = tuple(f"b{k}" for k in range(1, m + 1))
    character = "X"
    if getattr(args, "char", None) is not None and args.char != "X":
        character = as_scalar(args.char)
    return SatakeDatum(params, character)


def _parse_assignment(text):
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected name=value, got {part!r}")
        name, _, value = part.partition("=")
        out[name.strip()] = as_scalar(value.strip())
    return out


def _parse_bounds(text):
    text = text.strip()
    if "=" not in text:
        return int(text)
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pos, _, t = part.partition("=")
        k, i, j = (int(x) for x in pos.split(","))
        out[(k, i, j)] = int(t)
    return out


def _cmd_orbit(args):
    value = orbit_dichotomy_check(parse_weight(args.weight))
    return {"value": value}, [_bool(value)]


def _cmd_infchar(args):
    ic = infchar_canonical(parse_weight(args.weight))
    places = [list(row) for row in ic.canonical]
    text = ";".join(_row_text(row) for row in ic.canonical)
    return {"places": [[scalar_to_json(v) for v in row] for row in places]}, [text]


def _cmd_dominant(args):
    elements = dominant_orbit_elements(parse_weight(args.weight))
    payload = {"weights": [weight_to_json(w) for w in elements]}
    return payload, [format_weight(w) for w in elements]


def _cmd_suffreg(args):
    value = is_sufficiently_regular(parse_weight(args.weight), args.i)
    return {"value": value}, [_bool(value)]


def _cmd_embed(args):
    if args.invert:
        if args.n is None or args.exponent is None or args.parity is None:
            raise ValueError("--invert needs --n, --i, --parity and --exponent")
        inner = _scalars(args.inner)
        mu = CharacterDatum(args.parity, as_scalar(args.exponent))
        row = klingen_embedding_inverse(args.n, args.i, mu, inner)
        if row is None:
            return {"weight_row": None}, ["none"]
        return {"weight_row": [scalar_to_json(x) for x in row]}, [_row_text(row)]
    if args.weight is None:
        raise ValueError("embed needs --weight (or --invert with its flags)")
    w = parse_weight(args.weight)
    data = [klingen_embedding_datum(row, args.i) for row in w.rows]
    lines = [
        "n={} i={} parity={} exponent={} inner={}".format(
            d.n,
            d.i,
            d.character.parity,
            format_scalar(d.character.exponent),
            _row_text(d.inner_weight) or "-",
        )
        for d in data
    ]
    return {"places": [induction_to_json(d) for d in data]}, lines


def _cmd_principal(args):
    w = parse_weight(args.weight)
    data = [principal_series_datum(row) for row in w.rows]
    lines = [
        " ".join(f"({c.parity},{format_scalar(c.exponent)})" for c in place)
        for place in data
    ]
    payload = {"places": [[character_to_json(c) for c in place] for place in data]}
    return payload, lines


def _cmd_degenerate(args):
    w = parse_weight(args.weight)
    data = [siegel_degenerate_datum(row) for row in w.rows]
    lines = [
        f"parity={c.parity} exponent={format_scalar(c.exponent)}" for c in data
    ]
    return {"places": [character_to_json(c) for c in data]}, lines


def _cmd_reduction_point(args):
    w = parse_weight(args.weight)
    values = [first_reduction_point(ehw_normalize(row).base) for row in w.rows]
    payload = {"values": [scalar_to_json(v) for v in values]}
    return payload, [format_scalar(v) for v in values]


def _cmd_unitary(args):
    w = parse_weight(args.weight)
    values = [is_unitary_highest_weight(row) for row in w.rows]
    return {"values": values}, [_bool(v) for v in values]


def _cmd_classify_levels(args):
    inner = _scalars(args.inner)
    c = classify_levels(inner, args.n, args.i, x_max=args.x_max)
    lines = [f"x_max: {c.x_max}"]
    for t, cls in enumerate(c.classes, 1):
        lines.append(f"class {t}: {', '.join(str(x) for x in cls)}")
    lines.append(f"y: {', '.join(str(x) for x in c.y)}")
    lines.append(f"bijective: {_bool(c.bijective)}")
    return classification_to_json(c), lines


def _cmd_report(args):
    parity = None if args.char is None else int(args.char)
    r = decomposition_report(parse_weight(args.weight), args.i, parity)
    lines = [f"{name}: {'pass' if ok else 'fail'}" for name, ok in r.hypotheses]
    lines.append(f"conclusion: {r.conclusion}")
    if r.parity_class is not None:
        lines.append(f"parity class: {'+1' if r.parity_class == 1 else '-1'}")
    if r.exponent is not None:
        lines.append(f"exponent: {format_scalar(r.exponent)}")
    if r.inner_weight is not None:
        inner = ";".join(_row_text(row) for row in r.inner_weight)
        lines.append(f"inner weight: {inner or '-'}")
    lines.append(f"assumption: {r.assumption}")
    return report_to_json(r), lines


def _cmd_surjectivity(args):
    if (args.level is None) == (args.primes is None):
        raise ValueError("need exactly one of --level and --primes")
    if args.primes is not None:
        level = level_from_primes(int(p) for p in args.primes.split(","))
    else:
        level = args.level
    v = siegel_surjectivity_check(parse_weight(args.weight), level)
    lines = [f"verdict: {v.tag}"]
    lines.extend(f"failed: {c}" for c in v.failed_conditions)
    return verdict_to_json(v), lines


def _cmd_xi(args):
    f = xi(args.i, _satake_from_args(args), as_scalar(args.shift))
    return rational_to_json(f), [str(f)]


def _cmd_gk(args):
    f = gk_value(args.i, args.j, _satake_from_args(args))
    return rational_to_json(f), [str(f)]


def _cmd_eval(args):
    satake = _satake_from_args(args)
    if args.kind == "xi":
        f = xi(args.i, satake, as_scalar(args.shift))
    else:
        if args.j is None:
            raise ValueError("eval --kind gk needs --j")
        f = gk_value(args.i, args.j, satake)
    value = f.evaluate(_parse_assignment(args.at))
    return {"value": scalar_to_json(value)}, [format_scalar(value)]


def _read_expansion(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_expansion(fh.read())


def _cmd_fourier(args):
    f = _read_expansion(args.file)
    cusp = cusp_condition_check(f)
    cuspidal = is_cuspidal(f)
    filt = filtration_index(f)
    lines = [
        f"n: {f.n}",
        f"k: {f.k}",
        f"support size: {len(f.support)}",
        f"cusp condition: {_bool(cusp)}",
        f"cuspidal: {_bool(cuspidal)}",
        f"filtration index: {filt}",
    ]
    lines.extend(format_expansion(f).splitlines()[1:])
    payload = {
        "expansion": expansion_to_json(f),
        "cusp_condition": cusp,
        "cuspidal": cuspidal,
        "filtration_index": filt,
    }
    return payload, lines


def _cmd_phi(args):
    result = siegel_phi(_read_expansion(args.file))
    return expansion_to_json(result), format_expansion(result).splitlines()


def _cmd_grid(args):
    grid = build_pd_grid(args.n, args.d, _parse_bounds(args.bounds))
    lines = [
        f"n: {grid.n}",
        f"d: {grid.d}",
        f"points: {len(grid.points)}",
        f"diagonal offsets: {', '.join(str(v) for v in grid.diagonal_offsets)}",
        f"nominal offsets: {', '.join(str(v) for v in grid.nominal_offsets)}",
        f"deviation: {_bool(grid.deviation)}",
    ]
    if grid.deviation:
        lines.append(f"bad points: {grid.bad_point_count}")
        lines.extend(f"witness: {h}" for h in grid.deviation_witnesses)
    return grid_to_json(grid), lines


def _cmd_pit(args):
    grid = build_pd_grid(args.n, args.d, _parse_bounds(args.bounds))
    p = LaurentPoly.parse(args.poly)
    vanishes = pit_vanishes(p, grid)
    lines = [f"vanishes: {_bool(vanishes)}"]
    if grid.deviation:
        lines.append("deviation: true")
    return {"vanishes": vanishes, "deviation": grid.deviation}, lines


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sympl",
        description="Exact weight, orbit, L-factor and Fourier computations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON schema")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("orbit", _cmd_orbit, "dominant orbit dichotomy check")
    p.add_argument("--weight", required=True)

    p = add("infchar", _cmd_infchar, "canonical infinitesimal character")
    p.add_argument("--weight", required=True)

    p = add("dominant", _cmd_dominant, "dominant weights in the dot orbit")
    p.add_argument("--weight", required=True)

    p = add("suffreg", _cmd_suffreg, "sufficient regularity relative to i")
    p.add_argument("--weight", required=True)
    p.add_argument("--i", type=int, required=True)

    p = add("embed", _cmd_embed, "parabolic induction embedding datum")
    p.add_argument("--weight")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--invert", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--parity", type=int, choices=(0, 1))
    p.add_argument("--exponent")
    p.add_argument("--inner", default="")

    p = add("principal", _cmd_principal, "principal series character list")
    p.add_argument("--weight", required=True)

    p = add("degenerate", _cmd_degenerate, "scalar degenerate series character")
    p.add_argument("--weight", required=True)

    p = add("reduction-point", _cmd_reduction_point, "first reduction point")
    p.add_argument("--weight", required=True)

    p = add("unitary", _cmd_unitary, "unitarizability of the highest weight module")
    p.add_argument("--weight", required=True)

    p = add("classify-levels", _cmd_classify_levels, "orbit classes of induction levels")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--inner", default="")
    p.add_argument("--x-max", dest="x_max", type=int)

    p = add("report", _cmd_report, "decomposition hypothesis report")
    p.add_argument("--weight", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--char", choices=("1", "-1", "+1"))

    p = add("surjectivity", _cmd_surjectivity, "Siegel operator surjectivity check")
    p.add_argument("--weight", required=True)
    p.add_argument("--level", type=int)
    p.add_argument("--primes")

    p = add("xi", _cmd_xi, "normalizing L-factor product")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--satake")
    p.add_argument("--char")
    p.add_argument("--shift", default="0")

    p = add("gk", _cmd_gk, "intertwining constant term value")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--satake")
    p.add_argument("--char")

    p = add("eval", _cmd_eval, "evaluate xi or gk at exact rational values")
    p.add_argument("--kind", choices=("xi", "gk"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--satake")
    p.add_argument("--char")
    p.add_argument("--shift", default="0")
    p.add_argument("--at", required=True)

    p = add("fourier", _cmd_fourier, "summarize an expansion file")
    p.add_argument("file")

    p = add("phi", _cmd_phi, "apply the degree-lowering operator to a file")
    p.add_argument("file")

    p = add("grid", _cmd_grid, "positive definite evaluation grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--bounds", required=True)

    p = add("pit", _cmd_pit, "polynomial identity test over the grid")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--bounds", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines = args.handler(args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
