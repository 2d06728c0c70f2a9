"""Command line driver.

One subcommand per library operation, text tables by default and the
frozen JSON schemas behind --json. Exit codes: 0 success, 1 domain
rejection (error name echoed on stderr), 2 usage problems; at the process
boundary, 74 when stdout cannot be written, 130 on SIGINT and 141 when
the reader of stdout has closed it.
"""

import argparse
import os
import sys

from .errors import DomainError
from .scalars import as_scalar, format_scalar


def _bool(b) -> str:
    return "true" if b else "false"


def _row_text(row) -> str:
    return ",".join(format_scalar(x) for x in row)


def _character_text(c) -> str:
    return f"parity={c.parity} exponent={format_scalar(c.exponent)}"


def _scalars(text):
    """Comma-separated scalars; empty items are skipped."""
    return tuple(as_scalar(x) for x in text.split(",") if x.strip())


def _satake_from_args(args):
    from .lfactors import SatakeDatum, check_factor_count

    if args.satake:
        # the parameters are listed, so --m is checked as symbolic checks it but names no symbols
        if args.m < 0:
            raise ValueError("m must be nonnegative")
        check_factor_count(0, args.m)
    params = _scalars(args.satake) if args.satake else SatakeDatum.symbolic(args.m).params
    character = "X" if args.char in (None, "X") else as_scalar(args.char)
    return SatakeDatum(params, character)


def _pairs(text, sep, key, value):
    """`name=value` items split at sep, read by key and value; a name given twice is refused."""
    out = {}
    for part in text.split(sep):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected name=value, got {part!r}")
        name, _, v = (x.strip() for x in part.partition("="))
        k = key(name)
        if k in out:
            raise ValueError(f"{name} is given twice")
        out[k] = value(v)
    return out


def _position(text):
    try:
        k, i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a bound position k,i,j of integers, got {text!r}") from None
    return k, i, j


def _parse_bounds(text):
    text = text.strip()
    return _pairs(text, ";", _position, int) if "=" in text else int(text)


def _parse_weight(text):
    from .weights import parse_weight

    return parse_weight(text)


# Each handler imports the layers it calls and returns the text lines, or
# under --json the library value or a dict naming the payload keys; main
# encodes that value with encode.to_json, which loads no layer.


def _cmd_orbit(args):
    from .weyl import orbit_dichotomy_check

    value = orbit_dichotomy_check(_parse_weight(args.weight))
    return {"value": value} if args.json else [_bool(value)]


def _cmd_infchar(args):
    from .weyl import infchar_canonical

    ic = infchar_canonical(_parse_weight(args.weight))
    return ic if args.json else [";".join(_row_text(row) for row in ic.canonical)]


def _cmd_dominant(args):
    from .weights import format_weight
    from .weyl import dominant_orbit_elements

    elements = dominant_orbit_elements(_parse_weight(args.weight))
    return {"weights": elements} if args.json else [format_weight(w) for w in elements]


def _cmd_suffreg(args):
    from .weyl import is_sufficiently_regular

    value = is_sufficiently_regular(_parse_weight(args.weight), args.i)
    return {"value": value} if args.json else [_bool(value)]


def _per_place(args, compute, key, line):
    """compute at each place of --weight, in order, so the first failing place refuses;
    {key: values} under --json, else one line per value."""
    values = [compute(row) for row in _parse_weight(args.weight).rows]
    return {key: values} if args.json else [line(v) for v in values]


def _cmd_embed(args):
    from .embeddings import CharacterDatum, klingen_embedding_datum, klingen_embedding_inverse

    if args.invert:
        if args.n is None or args.exponent is None or args.parity is None:
            raise ValueError("--invert needs --n, --i, --parity and --exponent")
        inner = _scalars(args.inner)
        mu = CharacterDatum(args.parity, as_scalar(args.exponent))
        row = klingen_embedding_inverse(args.n, args.i, mu, inner)
        return {"weight_row": row} if args.json else ["none" if row is None else _row_text(row)]
    if args.weight is None:
        raise ValueError("embed needs --weight (or --invert with its flags)")

    def line(d):
        return f"n={d.n} i={d.i} {_character_text(d.character)} inner={_row_text(d.inner_weight) or '-'}"

    return _per_place(args, lambda row: klingen_embedding_datum(row, args.i), "places", line)


def _cmd_principal(args):
    from .embeddings import principal_series_datum

    def line(place):
        return " ".join(f"({c.parity},{format_scalar(c.exponent)})" for c in place)

    return _per_place(args, principal_series_datum, "places", line)


def _cmd_degenerate(args):
    from .embeddings import siegel_degenerate_datum

    return _per_place(args, siegel_degenerate_datum, "places", _character_text)


def _cmd_reduction_point(args):
    from .ehw import ehw_normalize, first_reduction_point

    return _per_place(args, lambda row: first_reduction_point(ehw_normalize(row).base), "values", format_scalar)


def _cmd_unitary(args):
    from .ehw import is_unitary_highest_weight

    return _per_place(args, is_unitary_highest_weight, "values", _bool)


def _cmd_classify_levels(args):
    from .orbitclassify import classify_levels

    inner = _scalars(args.inner)
    c = classify_levels(inner, args.n, args.i, x_max=args.x_max)
    if args.json:
        return c
    lines = [f"x_max: {c.x_max}"]
    for t, cls in enumerate(c.classes, 1):
        lines.append(f"class {t}: {', '.join(str(x) for x in cls)}")
    lines.append(f"y: {', '.join(str(x) for x in c.y)}")
    lines.append(f"bijective: {_bool(c.bijective)}")
    return lines


def _cmd_report(args):
    from .orbitclassify import decomposition_report

    parity = None if args.char is None else int(args.char)
    r = decomposition_report(_parse_weight(args.weight), args.i, parity)
    if args.json:
        return r
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
    return lines


def _cmd_surjectivity(args):
    from .orbitclassify import level_from_primes, siegel_surjectivity_check

    if (args.level is None) == (args.primes is None):
        raise ValueError("need exactly one of --level and --primes")
    if args.primes is not None:
        level = level_from_primes(int(p) for p in args.primes.split(","))
    else:
        level = args.level
    v = siegel_surjectivity_check(_parse_weight(args.weight), level)
    if args.json:
        return v
    return [f"verdict: {v.tag}"] + [f"failed: {c}" for c in v.failed_conditions]


def _lfactor(args):
    """The xi or g_k product that args.kind names, over the Satake options."""
    from .lfactors import gk_value, xi

    satake = _satake_from_args(args)
    if args.kind == "xi":
        return xi(args.i, satake, as_scalar(args.shift))
    if args.j is None:
        raise ValueError("eval --kind gk needs --j")
    return gk_value(args.i, args.j, satake)


def _cmd_lfactor(args):
    f = _lfactor(args)
    return f if args.json else [str(f)]


def _cmd_eval(args):
    value = _lfactor(args).evaluate(_pairs(args.at, ",", str, as_scalar))
    return {"value": value} if args.json else [format_scalar(value)]


def _read_expansion(path):
    from .fourier import parse_expansion

    with open(path, "r", encoding="utf-8") as fh:
        return parse_expansion(fh.read())


def _cmd_fourier(args):
    from .fourier import cusp_condition_check, filtration_index, format_expansion, is_cuspidal

    f = _read_expansion(args.file)
    cusp = cusp_condition_check(f)
    cuspidal = is_cuspidal(f)
    filt = filtration_index(f)
    if args.json:
        return {"expansion": f, "cusp_condition": cusp, "cuspidal": cuspidal, "filtration_index": filt}
    return [
        f"n: {f.n}",
        f"k: {f.k}",
        f"support size: {len(f.support)}",
        f"cusp condition: {_bool(cusp)}",
        f"cuspidal: {_bool(cuspidal)}",
        f"filtration index: {filt}",
    ] + format_expansion(f).splitlines()[1:]


def _cmd_phi(args):
    from .fourier import format_expansion, siegel_phi

    result = siegel_phi(_read_expansion(args.file))
    return result if args.json else format_expansion(result).splitlines()


def _cmd_grid(args):
    from .fourier import build_pd_grid

    grid = build_pd_grid(args.n, args.d, _parse_bounds(args.bounds))
    if args.json:
        return grid
    lines = [
        f"n: {grid.n}",
        f"d: {grid.d}",
        f"points: {format_scalar(grid.points.count)}",
        f"diagonal offsets: {', '.join(str(v) for v in grid.diagonal_offsets)}",
        f"nominal offsets: {', '.join(str(v) for v in grid.nominal_offsets)}",
        f"deviation: {_bool(grid.deviation)}",
    ]
    if grid.deviation:
        lines.append(f"bad points: {grid.bad_point_count}")
        lines.extend(f"witness: {h}" for h in grid.deviation_witnesses)
    return lines


def _cmd_pit(args):
    from .fourier import build_pd_grid, pit_vanishes
    from .laurent import LaurentPoly

    bounds = _parse_bounds(args.bounds)
    p = LaurentPoly.parse(args.poly)
    grid = build_pd_grid(args.n, args.d, bounds)
    vanishes = pit_vanishes(p, grid)
    if args.json:
        return {"vanishes": vanishes, "deviation": grid.deviation}
    return [f"vanishes: {_bool(vanishes)}"] + (["deviation: true"] if grid.deviation else [])


def _build_parser(argv):
    """Every subcommand, so the top-level help, usage and errors keep their text, but the options of only
    the one argv names: its first token not starting with "-", since the top level has no option but -h."""
    parser = argparse.ArgumentParser(
        prog="sympl",
        description="Exact weight, orbit, L-factor and Fourier computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)

    def add(name, handler, help_text, *groups, **defaults):
        p = sub.add_parser(name, help=help_text)
        if name != command:  # argparse will not read its options, so they are dropped
            return argparse.Namespace(add_argument=lambda *args, **kwargs: None)
        p.add_argument("--json", action="store_true", help="emit the JSON schema")
        p.set_defaults(handler=handler, **defaults)
        for group in groups:
            group(p)
        return p

    # option groups that several subcommands share, each declared once
    def weight(p):
        p.add_argument("--weight", required=True)

    def index(p):
        p.add_argument("--i", type=int, required=True)

    def satake(p):
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--satake")
        p.add_argument("--char")

    def shift(p):
        p.add_argument("--shift", default="0")

    def grid(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--bounds", required=True)

    add("orbit", _cmd_orbit, "dominant orbit dichotomy check", weight)
    add("infchar", _cmd_infchar, "canonical infinitesimal character", weight)
    add("dominant", _cmd_dominant, "dominant weights in the dot orbit", weight)
    add("suffreg", _cmd_suffreg, "sufficient regularity relative to i", weight, index)

    p = add("embed", _cmd_embed, "parabolic induction embedding datum")
    p.add_argument("--weight")
    index(p)
    p.add_argument("--invert", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--parity", type=int, choices=(0, 1))
    p.add_argument("--exponent")
    p.add_argument("--inner", default="")

    add("principal", _cmd_principal, "principal series character list", weight)
    add("degenerate", _cmd_degenerate, "scalar degenerate series character", weight)
    add("reduction-point", _cmd_reduction_point, "first reduction point", weight)
    add("unitary", _cmd_unitary, "unitarizability of the highest weight module", weight)

    p = add("classify-levels", _cmd_classify_levels, "orbit classes of induction levels")
    p.add_argument("--n", type=int, required=True)
    index(p)
    p.add_argument("--inner", default="")
    p.add_argument("--x-max", dest="x_max", type=int)

    p = add("report", _cmd_report, "decomposition hypothesis report", weight, index)
    p.add_argument("--char", choices=("1", "-1", "+1"))

    p = add("surjectivity", _cmd_surjectivity, "Siegel operator surjectivity check", weight)
    p.add_argument("--level", type=int)
    p.add_argument("--primes")

    add("xi", _cmd_lfactor, "normalizing L-factor product", index, satake, shift, kind="xi")

    p = add("gk", _cmd_lfactor, "intertwining constant term value", index, kind="gk")
    p.add_argument("--j", type=int, required=True)
    satake(p)

    p = add("eval", _cmd_eval, "evaluate xi or gk at exact rational values")
    p.add_argument("--kind", choices=("xi", "gk"), required=True)
    index(p)
    p.add_argument("--j", type=int)
    satake(p)
    shift(p)
    p.add_argument("--at", required=True)

    add("fourier", _cmd_fourier, "summarize an expansion file").add_argument("file")
    add("phi", _cmd_phi, "apply the degree-lowering operator to a file").add_argument("file")
    add("grid", _cmd_grid, "positive definite evaluation grid", grid)

    p = add("pit", _cmd_pit, "polynomial identity test over the grid")
    p.add_argument("--poly", required=True)
    grid(p)

    return parser


def main(argv=None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except KeyboardInterrupt:
        return 130


def _run(argv):
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = args.handler(args)
        if args.json:
            from .encode import to_json

            output = to_json(output)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            import json

            print(json.dumps(output, indent=2))
        else:
            for line in output:
                print(line)
        sys.stdout.flush()  # here, so that a buffered write fails inside the try too
    except OSError as exc:
        # what is left, and the flush at exit, go to os.devnull, as the Python docs' SIGPIPE note does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, what a shell reports for a reader that left early
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 74  # EX_IOERR
    return 0


if __name__ == "__main__":
    sys.exit(main())
