"""cli_cold: the command line interface, one fresh interpreter per operation.

Every operation is a `python -m sympl.cli ...` subprocess, started only
after the previous one has exited. Its answer is the exit code plus the
exact stdout bytes; stderr is only searched for a traceback, because
its message text is allowed to change. Commands come from a fixed pool
per kind, like the in-process workloads, and expansion files are written
into a directory inside the checkout.
"""

import random
from fractions import Fraction

POOL_SIZE = 8
REGULAR_PER_ROUND = 19

# The README usage list, with the optional [..] parts written out both
# ways and the quoted pit polynomial written without spaces. The FILE
# examples are the generated "fourier" and "phi" kinds.
README_EXAMPLES = (
    "orbit --weight 3",
    "infchar --weight 3,3",
    "dominant --weight 3,3",
    "suffreg --weight 5,5 --i 1",
    "embed --weight 7,5,5 --i 2",
    "embed --invert --n 2 --i 2 --parity 1 --exponent=-1/2",
    "principal --weight 5,3",
    "degenerate --weight 4,4",
    "reduction-point --weight 4,3,3",
    "unitary --weight 4,3,3",
    "classify-levels --n 2 --i 1 --inner 5",
    "classify-levels --n 2 --i 2 --x-max 5",
    "report --weight 12,12 --i 1",
    "report --weight 12,12 --i 1 --char -1",
    "surjectivity --weight 11,11 --level 6",
    "surjectivity --weight 11,11 --primes 2,3",
    "xi --i 2 --m 1",
    "xi --i 2 --m 1 --shift 1/2 --satake 2,3 --char 1",
    "gk --i 1 --j 1",
    "eval --kind gk --i 1 --j 1 --at X=1,Q=2,T=1/16",
    "grid --n 2 --bounds 1",
    "pit --poly x_1_1_1-x_1_1_1 --n 1 --bounds 1",
)

# ROADMAP item 4(a): a p/0 scalar ends in an uncaught ZeroDivisionError.
# These run after the timed rounds and are reported on their own.
KNOWN_DEFECTS = (
    ("infchar", "--weight", "1/0"),
    ("xi", "--i", "1", "--satake", "1/0"),
    ("eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", "X=1/0,Q=2,T=1/16"),
)


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _weight_text(rows):
    return ";".join(",".join(_fmt(x) for x in row) for row in rows)


def _dominant(rng, n, low, high):
    return tuple(sorted((rng.randint(low, high) for _ in range(n)), reverse=True))


def _arg(flag, value):
    # attached with '=', as the README advises for negative values
    return f"--{flag}={value}"


def _weight(rows):
    return _arg("weight", _weight_text(rows))


def _rows(rng, n, d, low, high, half=False):
    shift = Fraction(1, 2) if half else 0
    return tuple(tuple(x + shift for x in _dominant(rng, n, low, high)) for _ in range(d))


def _tail_rows(rng, n, i, d):
    rows = []
    for _ in range(d):
        t = rng.randint(-6, 8)
        rows.append(_dominant(rng, n - i, t, t + 6) + (t,) * i)
    return tuple(rows)


def _expansion_text(rng, size):
    lines = ["# generated", f"n={size} k={2 * rng.randint(1, 5)}"]
    seen = set()
    for _ in range(rng.randint(1, 5)):
        g = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        h = [[sum(g[t][r] * g[t][c] for t in range(size)) for c in range(size)] for r in range(size)]
        if rng.random() < 0.4:
            h = [[0] * size] + [[0] + row[1:] for row in h[1:]]
        cells = tuple(h[r][c] for r in range(size) for c in range(r, size))
        if cells not in seen:
            seen.add(cells)
            lines.append(",".join(str(v) for v in cells) + f" : {rng.randint(-9, 9) or 1}")
    return "\n".join(lines) + "\n"


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):  # exact below 3.2e9
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_between(rng, low, high):
    while True:
        p = rng.randrange(low, high) | 1
        if _is_prime(p):
            return p


def _satake_flags(rng, m):
    flags = ["--m", str(m)]
    if rng.random() < 0.4:
        params = [_fmt(rng.choice((Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-1, 2)))) for _ in range(m)]
        flags = [_arg("satake", ",".join(params))] if params else flags
    if rng.random() < 0.3:
        flags.append(_arg("char", rng.choice(("1", "-1", "2", "X"))))
    return flags


def _point(rng, m):
    parts = [f"X={rng.choice((1, -1, 2))}", f"Q={rng.choice((2, 5, 7))}", f"T=1/{3 ** rng.randint(1, 4)}"]
    parts += [f"b{k}={rng.choice(('2', '5/7', '-1/2'))}" for k in range(1, m + 1)]
    return ",".join(parts)


def _grid_bounds(rng, n, d):
    if rng.random() < 0.5:
        return str(rng.randint(1, 2))
    k, i = rng.randint(1, d), rng.randint(1, n)
    return f"{k},{i},{rng.randint(i, n)}={rng.randint(1, 3)}"


def _pit_poly(rng, n, zero):
    names = [f"x_{i}_{j}_1" for i in range(1, n + 1) for j in range(i, n + 1)]
    terms = [f"{rng.randint(1, 9)}*{rng.choice(names)}" for _ in range(rng.randint(1, 3))]
    text = " + ".join(terms)
    return text + "".join(" - " + t for t in reversed(terms)) if zero else text


def _gen(rng, kind):
    """argv for one pool entry of a kind, with "{file}" standing for an expansion file."""
    n = rng.randint(1, 4)
    if kind == "orbit":
        rows = []
        for _ in range(rng.randint(1, 2)):
            bottom = rng.randint(2 * n + 1, 2 * n + 3)
            rows.append(_dominant(rng, n - 1, bottom, 2 * n + 6) + (bottom,))
        return ["orbit", _weight(rows)]
    if kind == "infchar":
        return ["infchar", _weight(tuple(tuple(rng.randint(-4, 6) for _ in range(n)) for _ in range(rng.randint(1, 2))))]
    if kind == "dominant":
        return ["dominant", _weight(_rows(rng, n, rng.randint(1, 2), -2, 6))]
    if kind == "suffreg":
        return ["suffreg", _weight(_rows(rng, n, 1, -2, 2 * n + 4, rng.random() < 0.3)), "--i", str(rng.randint(1, n))]
    if kind == "embed":
        i = rng.randint(1, n)
        return ["embed", _weight(_tail_rows(rng, n, i, rng.randint(1, 2))), "--i", str(i)]
    if kind == "embed_invert":
        i = rng.randint(1, n)
        inner = _dominant(rng, n - i, -4, 8)
        argv = ["embed", "--invert", "--n", str(n), "--i", str(i), "--parity", str(rng.randint(0, 1)),
                _arg("exponent", _fmt(Fraction(rng.randint(-12, 12), 2)))]
        return argv + ([_arg("inner", ",".join(str(v) for v in inner))] if inner else [])
    if kind == "principal":
        return ["principal", _weight(_rows(rng, n, rng.randint(1, 2), -4, 8))]
    if kind == "degenerate":
        return ["degenerate", _weight(tuple((t,) * n for t in [rng.randint(-4, 8)] * rng.randint(1, 2)))]
    if kind == "reduction_point":
        return ["reduction-point", _weight(_rows(rng, n, rng.randint(1, 2), -3, 6, rng.random() < 0.5))]
    if kind == "unitary":
        return ["unitary", _weight(_rows(rng, n, rng.randint(1, 2), -3, 6, rng.random() < 0.5))]
    if kind == "classify_levels":
        n = rng.randint(2, 5)
        i = rng.randint(1, n - 1)
        inner = _dominant(rng, n - i, 0, 2 * n + 4)
        return ["classify-levels", "--n", str(n), "--i", str(i), _arg("inner", ",".join(str(v) for v in inner))]
    if kind == "classify_levels_top":
        n = rng.randint(1, 5)
        return ["classify-levels", "--n", str(n), "--i", str(n), "--x-max", str(rng.randint(0, 2 * n + 4))]
    if kind == "report":
        n = rng.randint(1, 3)
        i = rng.randint(1, n)
        argv = ["report", _weight(_tail_rows(rng, n, i, rng.randint(1, 2))), "--i", str(i)]
        return argv + ([_arg("char", rng.choice(("1", "+1", "-1")))] if rng.random() < 0.5 else [])
    if kind == "surjectivity_level":
        n = rng.randint(2, 3)
        return ["surjectivity", _weight(_rows(rng, n, rng.randint(1, 2), 2 * n - 1, 2 * n + 4)),
                "--level", str(rng.randint(1, 400))]
    if kind == "surjectivity_primes":
        primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19), rng.randint(1, 3))
        return ["surjectivity", _weight(_rows(rng, 2, 1, 5, 12)), "--primes", ",".join(map(str, primes))]
    if kind == "surjectivity_large":
        # 18 digits, both factors above the cube root: trial division runs
        # all the way to it (ROADMAP item 4(b)). The narrow band keeps the
        # cube root, and so the work, within 4 % across the pool.
        level = _prime_between(rng, 900_000_000, 999_999_999) * _prime_between(rng, 900_000_000, 999_999_999)
        return ["surjectivity", _weight(_rows(rng, 2, 1, 5, 12)), "--level", str(level)]
    if kind == "xi":
        m = rng.randint(0, 2)
        return ["xi", "--i", str(rng.randint(0, 3)), _arg("shift", _fmt(Fraction(rng.randint(-2, 2), 2)))] + _satake_flags(rng, m)
    if kind == "gk":
        i = rng.randint(1, 3)
        return ["gk", "--i", str(i), "--j", str(rng.randint(0, i))] + _satake_flags(rng, rng.randint(0, 2))
    if kind == "eval_gk":
        i, m = rng.randint(1, 3), rng.randint(0, 2)
        return ["eval", "--kind", "gk", "--i", str(i), "--j", str(rng.randint(0, i)), "--m", str(m), "--at", _point(rng, m)]
    if kind == "eval_xi":
        m = rng.randint(0, 2)
        return ["eval", "--kind", "xi", "--i", str(rng.randint(1, 3)), "--m", str(m),
                _arg("shift", _fmt(Fraction(rng.randint(-2, 2), 2))), "--at", _point(rng, m)]
    if kind in ("fourier", "phi"):
        return [kind, "{file}"]
    if kind == "grid":
        n, d = rng.randint(1, 2), rng.randint(1, 2)
        return ["grid", "--n", str(n), "--d", str(d), _arg("bounds", _grid_bounds(rng, n, d))]
    if kind == "pit":
        n = rng.randint(1, 2)
        return ["pit", _arg("poly", _pit_poly(rng, n, rng.random() < 0.5)), "--n", str(n), "--bounds", str(rng.randint(1, 2))]
    if kind == "usage_missing":
        return rng.choice((["infchar"], ["embed", "--weight=3,3"], ["surjectivity", "--weight=11,11"],
                           ["classify-levels", "--n", "2", "--i", "2"], ["eval", "--kind", "gk", "--i", "1", "--at", "X=1"],
                           ["fourier", "no-such-file.txt"], ["grid"]))
    if kind == "usage_value":
        return rng.choice((["infchar", "--weight=abc"], ["suffreg", "--weight=3,3", "--i", "x"],
                           ["gk", "--i", "1", "--j", "1", "--satake=a,b"], ["grid", "--n", "1", "--bounds", "zero"],
                           ["pit", "--poly", "x_1_1_1 +", "--n", "1", "--bounds", "1"]))
    if kind == "reject_tail":
        upper = _dominant(rng, n, -6, 8)
        row = upper + (upper[-1] - rng.randint(1, 3),)
        return ["embed", _weight((row,)), "--i", str(rng.randint(2, n + 1))]
    if kind == "reject_dominant":
        row = tuple(2 * n + 1 + 3 * j + rng.randint(0, 2) for j in range(n + 1))
        return ["orbit", _weight((row,))]
    raise KeyError(kind)


REGULAR_KINDS = (
    "readme", "orbit", "infchar", "dominant", "suffreg", "embed", "embed_invert", "principal",
    "degenerate", "reduction_point", "unitary", "classify_levels", "classify_levels_top", "report",
    "surjectivity_level", "surjectivity_primes", "xi", "gk", "eval_gk", "eval_xi", "fourier", "phi",
    "grid", "pit", "usage_missing", "usage_value", "reject_tail", "reject_dominant",
)
LARGE_KIND = "surjectivity_large"


def pool_entry(kind, index):
    """(argv, expansion file text or None) for pool entry `index` of a kind.

    Odd entries ask for --json, so text and JSON output each make half
    of every kind (usage errors included).
    """
    if kind == "readme":
        argv = README_EXAMPLES[index % len(README_EXAMPLES)].split()
        if index >= len(README_EXAMPLES):
            argv.append("--json")
        return argv, None
    rng = random.Random(f"cli_cold/{kind}/{index}")
    argv = _gen(rng, kind)
    text = _expansion_text(rng, rng.randint(2, 4)) if "{file}" in argv else None
    if index % 2:
        argv = argv + ["--json"]
    return argv, text


def pool_size(kind):
    return 2 * len(README_EXAMPLES) if kind == "readme" else POOL_SIZE
