"""Golden transcript of the command line driver.

`tests/cli_golden/corpus.json` holds a fixed corpus of argvs over all
nineteen subcommands, in text and `--json` form, with domain rejections
and usage errors. For each argv it stores the exit code, the sha256 of
stdout and the exact stderr. The test replays every argv through
`cli.main` and compares all three, so a refactor that changes any
observable output fails here.

The replay itself is `golden_replay.py`, which needs no pytest. The
corpus is written by `corpus()` below. To re-record it after a change
to the output that is intended and named:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import random

from golden_replay import CORPUS, PLACEHOLDER, mismatches, python_version, replay, run
from sympl.serialize import (
    character_from_json,
    classification_from_json,
    expansion_from_json,
    grid_from_json,
    induction_from_json,
    infchar_from_json,
    rational_from_json,
    report_from_json,
    to_json,
    verdict_from_json,
    weight_from_json,
)
from sympl.weights import as_vector
from test_bound_edges import EDGES, MALFORMED

COMMANDS = (
    "orbit", "infchar", "dominant", "suffreg", "embed", "principal", "degenerate",
    "reduction-point", "unitary", "classify-levels", "report", "surjectivity",
    "xi", "gk", "eval", "fourier", "phi", "grid", "pit",
)


def _row(rng, n, low, high, half):
    row = sorted((rng.randint(low, high) for _ in range(n)), reverse=True)
    if half:
        return ",".join(f"{2 * x + 1}/2" for x in row)
    return ",".join(str(x) for x in row)


def _weight(rng, n, d, low=-3, high=9, half=False):
    return "--weight=" + ";".join(_row(rng, n, low, high, half) for _ in range(d))


def _weights(rng, count, n_max=3, d_max=2, **kw):
    return [
        _weight(rng, rng.randint(1, n_max), rng.randint(1, d_max), half=rng.random() < 0.3, **kw)
        for _ in range(count)
    ]


def corpus():
    """The fixed list of (argv, env) entries, seeded and hand-picked."""
    rng = random.Random(2006)
    w = "--weight="
    base = []

    def add(*argvs, env=None):
        for argv in argvs:
            base.append((argv.split() if isinstance(argv, str) else list(argv), env))

    # parse and lattice rejections shared by every weight command
    bad_weights = ["junk", "", "1/0", "1/3", "1,1/2", "1;2,3", "3,5"]
    for cmd in ("orbit", "infchar", "dominant", "principal", "degenerate", "reduction-point", "unitary"):
        add(*[[cmd, w + b] for b in bad_weights])

    add("orbit --weight 3", "orbit --weight 6,5", "orbit --weight 3,3", "orbit --weight 7;8",
        "orbit --weight 9,8;9,8", "orbit --weight 10,9,8", "orbit --weight 13/2,11/2",
        "orbit --weight 30,29,28,27,26,25,24,23,22", "orbit --weight 20,12,9,7",
        "orbit --weight 20,15,12,10", "orbit --weight 12,10;11,9",
        "orbit --weight 60,59,58,57,56,55,54,53,52,51,50,49,48,47,46,45,44")
    # SYMPL_ORBIT_CAP was the rank cap's setting; it is no longer read
    add("orbit --weight 10,9,8", env={"SYMPL_ORBIT_CAP": "2"})

    add("infchar --weight 3,3", "infchar --weight 3,1", "infchar --weight 0",
        "infchar --weight 5,3;5,4", "infchar --weight 1/2", "infchar --weight 7/2,5/2,1/2",
        "infchar --weight=-3,-5", "infchar --weight 1,2,3")
    add(*[["infchar", a] for a in _weights(rng, 10, n_max=5, d_max=3)])

    add("dominant --weight 3,3", "dominant --weight 3,2,1", "dominant --weight 2;2;2",
        "dominant --weight 1/2,1/2", "dominant --weight 5,5;4,4", "dominant --weight=-1,-1,-1",
        "dominant --weight 9,8,7,6,5,4,3,2,1", "dominant --weight 8,7,6,5,4,3,2,1",
        "dominant --weight 18,17,16,15,14,13,12,11,10",
        "dominant --weight 34,33,32,31,30,29,28,27,26,25,24,23,22,21,20,19,18")
    add(*[["dominant", a] for a in _weights(rng, 8, n_max=4, d_max=2)])
    add("dominant --weight 3,2,1", env={"SYMPL_ORBIT_CAP": "2"})
    add("dominant --weight 3,2,1", env={"SYMPL_ORBIT_CAP": "0"})
    add("dominant --weight 3,2,1", env={"SYMPL_ORBIT_CAP": "x"})
    add("dominant --weight 9,8,7,6,5,4,3,2,1", env={"SYMPL_ORBIT_CAP": "9"})

    add("suffreg --weight 5,5 --i 1", "suffreg --weight 3,3 --i 1", "suffreg --weight 5,4 --i 2",
        "suffreg --weight 5,5 --i 0", "suffreg --weight 5,5 --i 3", "suffreg --weight 3,5 --i 1",
        "suffreg --weight 9,8,7,6,5,4,3,2,1 --i 1", "suffreg --weight 30,29,28,27,26,25,24,23,22,21 --i 1",
        "suffreg --weight 11/2,9/2 --i 1", "suffreg --weight 8,8;9,7 --i 2",
        "suffreg --weight 5,5", "suffreg --weight 5,5 --i x", "suffreg --weight junk --i 1")
    for a in _weights(rng, 6, n_max=4, d_max=2):
        add(["suffreg", a, "--i", str(rng.randint(0, 4))])

    add("embed --weight 7,5,5 --i 2", "embed --weight 3,5 --i 1", "embed --weight 5,3 --i 2",
        "embed --weight 5,3 --i 0", "embed --weight 5,3 --i 3", "embed --weight 1/2,1/2 --i 1",
        "embed --weight 7,5,5;8,6,6 --i 2", "embed --weight 4,4,4 --i 3", "embed --weight=-1,-1 --i 2",
        "embed --weight 6,4,4;6,5,4 --i 2", "embed --weight 4,4 --i 1", "embed --i 1")
    add("embed --invert --n 2 --i 2 --parity 1 --exponent=-1/2",
        "embed --invert --n 2 --i 1 --parity 0 --exponent 3 --inner 5",
        "embed --invert --n 3 --i 1 --parity 0 --exponent 0 --inner 1,2",
        "embed --invert --n 3 --i 4 --parity 0 --exponent 0",
        "embed --invert --n 3 --i 0 --parity 0 --exponent 0 --inner 1,1,1",
        "embed --invert --n 3 --i 1 --parity 0 --exponent 0 --inner 1",
        "embed --invert --n 2 --i 1 --parity 1 --exponent 3/2 --inner 1/2",
        "embed --invert --n 3 --i 2 --parity 1 --exponent 5/2 --inner 7",
        "embed --invert --n 2 --i 1 --parity 2 --exponent 0 --inner 5",
        "embed --invert --i 1")
    for _ in range(6):
        n = rng.randint(1, 4)
        i = rng.randint(1, n)
        inner = ",".join(str(x) for x in sorted((rng.randint(0, 9) for _ in range(n - i)), reverse=True))
        exponent = f"{rng.randint(-8, 8)}/2" if rng.random() < 0.5 else str(rng.randint(-4, 4))
        add(["embed", "--invert", "--n", str(n), "--i", str(i), "--parity", str(rng.randint(0, 1)),
             "--exponent=" + exponent, "--inner=" + inner])

    add("principal --weight 5,3", "principal --weight 1/2", "principal --weight 0",
        "principal --weight=-1,-3", "principal --weight 5,3;4,4")
    add(*[["principal", a] for a in _weights(rng, 4, n_max=4)])

    add("degenerate --weight 4,4", "degenerate --weight 4,3", "degenerate --weight 1/2,1/2",
        "degenerate --weight 5", "degenerate --weight=-2,-2,-2", "degenerate --weight 4,4;5,5",
        "degenerate --weight 4,4;5,4")

    add("reduction-point --weight 4,3,3", "reduction-point --weight 5/2,3/2",
        "reduction-point --weight 0,0", "reduction-point --weight=-1,-1", "reduction-point --weight 4,3,3;2,2,2")
    add(*[["reduction-point", a] for a in _weights(rng, 5, n_max=4)])

    add("unitary --weight 4,3,3", "unitary --weight=-1,-1", "unitary --weight 0,0",
        "unitary --weight 1/2,1/2", "unitary --weight=-3/2,-3/2,-3/2")
    add(*[["unitary", a] for a in _weights(rng, 6, n_max=4, low=-6, high=4)])

    add("classify-levels --n 2 --i 1 --inner 5", "classify-levels --n 2 --i 2 --x-max 5",
        "classify-levels --n 3 --i 1 --inner 1/2,1/2", "classify-levels --n 3 --i 1 --inner 1,2",
        "classify-levels --n 3 --i 1 --inner 1,-1", "classify-levels --n 3 --i 0",
        "classify-levels --n 3 --i 4", "classify-levels --n 3 --i 1 --inner 5",
        "classify-levels --n 2 --i 2", "classify-levels --n 2 --i 1 --inner 5 --x-max 3",
        "classify-levels --n 2 --i 2 --x-max=-1", "classify-levels --n 3 --i 3 --x-max 10",
        "classify-levels --n 0 --i 0", "classify-levels --n 2 --i 2 --inner 1 --x-max 3",
        "classify-levels --n x --i 1", "classify-levels --n 4 --i 2 --inner 9,6",
        "classify-levels --n 1 --i 1 --x-max 4", "classify-levels --n 3 --i 1 --inner 6,0")
    for _ in range(8):
        n = rng.randint(1, 5)
        i = rng.randint(1, n)
        if i == n:
            add(["classify-levels", "--n", str(n), "--i", str(i), "--x-max", str(rng.randint(0, 12))])
        else:
            inner = sorted((rng.randint(0, 12) for _ in range(n - i)), reverse=True)
            add(["classify-levels", "--n", str(n), "--i", str(i), "--inner", ",".join(map(str, inner))])

    add("report --weight 12,12 --i 1", "report --weight 12,12 --i 1 --char=-1",
        "report --weight 12,12 --i 1 --char +1", "report --weight 12,12 --i 1 --char 1",
        "report --weight 12,12 --i 1 --char 2", "report --weight 12,12 --i 0",
        "report --weight 12,12 --i 3", "report --weight 9,8,7,6,5,4,3,2,1 --i 1",
        "report --weight 12,12;12,12 --i 2", "report --weight 13,12;12,12 --i 1",
        "report --weight 1/2,1/2 --i 1", "report --weight 3,5 --i 1",
        "report --weight 20,11,11;19,11,11 --i 2", "report --weight 20,11,11;19,12,11 --i 2",
        "report --weight 13,13;13,13 --i 1 --char=-1", "report --weight 12,12")
    for a in _weights(rng, 6, n_max=3, d_max=2, low=0, high=16):
        add(["report", a, "--i", str(rng.randint(1, 3))])

    add("surjectivity --weight 11,11 --level 6", "surjectivity --weight 11,11 --primes 2,3",
        "surjectivity --weight 11,11 --level 12", "surjectivity --weight 11,11 --level 6 --primes 2",
        "surjectivity --weight 11,11", "surjectivity --weight 11 --level 6",
        "surjectivity --weight 1/2,1/2 --level 6", "surjectivity --weight 3,5 --level 6",
        "surjectivity --weight 11,11 --level 0", "surjectivity --weight 11,11 --primes 4",
        "surjectivity --weight 11,11 --primes 2,2", "surjectivity --weight 11,11;12,11 --level 6",
        "surjectivity --weight 12,11;12,11 --level 6", "surjectivity --weight 12,11;13,11 --level 30",
        "surjectivity --weight 5,5 --level 1", "surjectivity --weight 11,11 --level 1000000000039")
    for a in _weights(rng, 4, n_max=3, d_max=3, low=2, high=14):
        add(["surjectivity", a, "--level", str(rng.randint(1, 60))])

    add("xi --i 0", "xi --i 2 --m 1", "xi --i 2 --m 1 --shift 1/2 --satake 2,3 --char 1",
        "xi --i 1 --satake 1/0", "xi --i 3 --m 2", "xi --i 1 --shift 20000", "xi --i=-1",
        "xi --i 2 --satake 1/2 --char 3", "xi --i 1 --char X --m 1")
    add("gk --i 1 --j 1", "gk --i 1 --j 2", "gk --i 2 --j 1 --m 1", "gk --i 2 --j 2 --satake 2 --char 1",
        "gk --i 0 --j 0", "gk --i 3 --j 1", "gk --i 1")
    add("eval --kind gk --i 1 --j 1 --at X=1,Q=2,T=1/16", "eval --kind gk --i 1 --at X=1",
        "eval --kind gk --i 1 --j 1 --at X=1,Q=1,T=1", "eval --kind gk --i 1 --j 1 --at X=1/0,Q=2,T=1/16",
        "eval --kind xi --i 2 --m 1 --at X=2,Q=3,T=1/5,b1=1/2", "eval --kind xi --i 1 --at X=1",
        "eval --kind xi --i 1 --at junk", "eval --kind zz --i 1 --at X=1",
        "eval --kind xi --i 2 --satake 2,3 --char 1 --shift 1 --at Q=2,T=1/3")
    data = PLACEHOLDER + "/"
    for name in ("n1", "n2", "n3", "indefinite", "bad_entries", "bad_header", "empty", "missing"):
        add(["fourier", data + name + ".txt"], ["phi", data + name + ".txt"])
    add("fourier", "phi")
    add("grid --n 2 --bounds 1", "grid --n 1 --bounds 2", "grid --n 1 --d 2 --bounds 1",
        "grid --n 2 --bounds 1,1,1=1;1,1,2=2;1,2,2=1", "grid --n 0 --bounds 1",
        "grid --n 2 --bounds x", "grid --n 3 --bounds 1", "grid --n 2")
    add("pit --poly x_1_1_1-x_1_1_1 --n 1 --bounds 1", "pit --poly x_1_1_1 --n 2 --bounds 1",
        "pit --poly x_1_1_1^3 --n 1 --bounds 1", "pit --poly x_1_1_1^99999999-1 --n 1 --bounds 1",
        "pit --poly (x --n 1 --bounds 1", "pit --poly x_1_1_1*x_1_2_1-x_1_2_1*x_1_1_1 --n 2 --bounds 1",
        "pit --poly x_1_1_1^2-2*x_1_1_1+1 --n 1 --d 2 --bounds 2")
    add([], ["no-such-command"], ["orbit"], ["--json"])
    # added after recording: more than 2^16 dominant orbit elements are refused
    add(["dominant", w + ";".join(["2"] * 17)], ["orbit", w + ";".join(["20"] * 17)],
        ["dominant", w + ";".join(["5,4"] * 9)])
    # added after recording: levels past trial division, decided by Miller-Rabin
    # and Pollard rho, and levels and primes beyond exact primality testing
    p, q = 999999937, 999999929
    big_prime = 2 ** 89 - 1
    for level in (p * q, 1000003 ** 2 * 1000000007, 1000003 ** 3, 1000003 * 1000033 * 1000037,
                  318665857834031151167461, big_prime, 9 * big_prime):
        add(["surjectivity", "--weight=11,11", f"--level={level}"])
    for primes in (f"{p},{q}", str(2 ** 61 - 1), f"2,{big_prime}", "3825123056546413051"):
        add(["surjectivity", "--weight=11,11", f"--primes={primes}"])
    # added after recording: x_i_j_k and x_j_i_k share one degree bound, a grid
    # too large to list is refused, and a degenerate factor box is decided at any size
    add("pit --poly x_1_2_1*x_2_1_1-3*x_1_2_1+2 --n 2 --bounds 1", "pit --poly x_1_2_1-x_2_1_1 --n 2 --bounds 1",
        "grid --n 3 --bounds 6", "grid --n 2 --bounds 1,1,1=300;1,2,2=300")
    # added after recording: a zero denominator in a polynomial is a usage error
    add("pit --poly 1/0*x_1_1_1 --n 1 --bounds 1")
    # added after recording, and recorded before the parser read the text in one
    # scan: stray characters (a grammar error before one does not hide it), mixed
    # whitespace, p/q and Unicode-digit coefficients, and alias degree overruns
    grid = ["--n", "2", "--bounds", "2"]
    for poly in ("~x_1_1_1", "x_1_1_1 ~ 1", "x_1_1_1 - x_1_1_1 ~", "x x ~", "2 x_1_1_1 ~", "1/0*x_1_1_1 ~",
                 "x_1_1_1^ ~", "x_1_1_1\t-\r\nx_1_1_1\n", "\tx_1_2_1 *\nx_2_1_1\r\n- x_2_1_1*x_1_2_1 ",
                 "1/2*x_1_1_1 - 2/4*x_1_1_1", "3/2*x_1_2_1*x_2_1_1 - 1/3", "x_1_1_1^1/2", "x_1_1_1 - ٣",
                 "٣*x_1_1_1 - 3*x_1_1_1", "x_1_2_1^3 + 1", "x_1_2_1^2*x_2_1_1 - x_1_1_1",
                 "x_1_2_1*x_2_1_1^2 - x_2_1_1^3", "x_1_1_1*x_1_2_1^-1", "x_1_3_1 + x_1_1_1", "x_1_1_1 +", "*"):
        add(["pit", "--poly", poly] + grid)
    # added after recording: more than 2^16 factors of xi, or Satake parameters,
    # are refused (xi --i 800 took 16.7 s and 311 MB)
    add("xi --i 800", "gk --i 3000 --j 3000", "eval --kind xi --i 800 --at X=1,Q=2,T=1/3",
        "xi --i 0 --m 1000000000", "eval --kind gk --i 2 --j 1 --m 70000 --at X=1")
    # added after recording, and recorded before canonical_row stopped building rho
    # and the layout, regularity and sufficient regularity read it: lambda + rho with
    # a value seen three times, zeros, pairs, half-integral and rank-30 rows, levels
    # at rank 8; --m checked but not named under --satake; evaluation with poles
    edge_rows = ["2,1,4", "1,2", "3,2,2", "2,2,2", "5/2,3/2,-3/2", "-1/2", "3/2", "5/2", "4,4", "5,5",
                 "1,2,3,4", "-7/2,-9/2;1/2,-1/2", "1000000000000,1", "7,5,5;3,2,2;2,1,4",
                 ",".join(map(str, range(30, 0, -1))), ",".join(["20"] * 39), "1,2" + ",0" * 38]
    for row in edge_rows:
        add(["infchar", w + row], ["dominant", w + row])
        n = len(row.split(";")[0].split(","))
        add(*[["suffreg", w + row, "--i", str(i)] for i in sorted({1, n // 2 + 1, n})])
    add("classify-levels --n 8 --i 8 --x-max 40", "classify-levels --n 8 --i 1 --inner 20,18,15,10,7,3,0",
        "classify-levels --n 4 --i 2 --inner 0,0", "classify-levels --n 3 --i 3 --x-max 0",
        "classify-levels --n 5 --i 3 --inner 9,9", "classify-levels --n 1 --i 1 --x-max 100",
        "classify-levels --n 6 --i 6 --x-max 200", "classify-levels --n 7 --i 4 --inner 12,12,5")
    add("xi --i 1 --m -1 --satake 2", "xi --i 1 --m 3 --satake 2", "xi --i 2 --m -1 --satake 1/0",
        "eval --kind xi --i 1 --m -1 --satake 2 --at X=1", "gk --i 2 --j 1 --m -5 --satake b",
        "eval --kind xi --i 2 --satake 2 --char 1 --at Q=1,T=1/2",
        "eval --kind gk --i 2 --j 1 --m 1 --at X=1,Q=2,T=1/16,b1=3",
        "eval --kind xi --i 3 --m 2 --shift 1/2 --at X=2,Q=3,T=1/5,b1=1/2,b2=-4",
        "eval --kind xi --i 2 --m 1 --at X=1,Q=2,T=1/3")
    # added after recording: a point count past len() is counted from its ranges, one
    # past printing is ValueTooLarge, and more than 2^16 grid entries or 2^20 level
    # entries are refused before any is built (each overflowed, or ran without end)
    add("grid --n 2 --bounds 100000000000000000000", "grid --n 200 --bounds 1", "grid --n 362 --bounds 1",
        "grid --n 100000 --bounds 1", "grid --n 1 --d 65537 --bounds 1", "pit --poly x_1_1_1 --n 100000 --bounds 1",
        "classify-levels --n 2 --i 2 --x-max 100000000000", "classify-levels --n 2 --i 1 --inner 100000000000",
        "classify-levels --n 16 --i 16 --x-max 65536")
    # added after recording: a refusal naming a number past the 4,300-digit
    # int-to-text limit is ValueTooLarge (it exited 2 as a usage error), and
    # embed --invert refuses a rank above RANK_BOUND before building the row
    add(*[argv for argv, _ in EDGES])
    # added after recording: a text that is no number stays a usage error, though
    # digits past the int-to-text limit follow its last e
    add(*[["orbit", "--weight", text] for text in MALFORMED])
    # added after recording: each per-place command refused at a later place, and
    # with two failing places, where the first place names the error
    add("embed --weight=5,4;3,5 --i 1", "embed --weight=3,5;5,3 --i 2",
        "principal --weight=5,3;3,5", "principal --weight=5,3;1/2,1/2", "principal --weight=3,5;1,4",
        "degenerate --weight=4,4;3,5", "degenerate --weight=4,3;3,5",
        "reduction-point --weight=4,3,3;3,5,5", "reduction-point --weight=2,5;1,4",
        "unitary --weight=4,3,3;3,5,5", "unitary --weight=1,4;2,5")
    # added after recording: a fractional negative character, whose power is a
    # fraction in each binomial's coefficient
    add("xi --i 2 --satake 5/7,2 --char=-1/5 --shift 1/2",
        "eval --kind gk --i 3 --j 1 --satake 5/7 --char=-1/5 --at Q=2,T=1/3")

    entries = []
    for argv, env in base:
        for form in (argv, argv + ["--json"]):
            entry = {"argv": form}
            if env:
                entry["env"] = env
            entries.append(entry)
    return entries


def test_golden_cli_transcript():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    entries = recorded["entries"]
    assert len(entries) >= 300
    assert {e["argv"][0] for e in entries if e["argv"]} >= set(COMMANDS)
    differ = mismatches(recorded)
    assert not differ, f"{len(differ)} argvs differ, first: {differ[:3]}"


def _embed(payload):
    if "places" in payload:
        return {"places": [induction_from_json(d) for d in payload["places"]]}
    row = payload["weight_row"]  # embed --invert
    return {"weight_row": None if row is None else as_vector(row)}


# Per command, the --json payload with every library value in it decoded;
# commands whose payloads hold only bools and scalars are left out.
DECODED = {
    "infchar": infchar_from_json,
    "dominant": lambda p: {"weights": [weight_from_json(w) for w in p["weights"]]},
    "embed": _embed,
    "principal": lambda p: {"places": [[character_from_json(c) for c in place] for place in p["places"]]},
    "degenerate": lambda p: {"places": [character_from_json(c) for c in p["places"]]},
    "classify-levels": classification_from_json,
    "report": report_from_json,
    "surjectivity": verdict_from_json,
    "xi": rational_from_json,
    "gk": rational_from_json,
    "fourier": lambda p: dict(p, expansion=expansion_from_json(p["expansion"])),
    "phi": expansion_from_json,
    "grid": grid_from_json,
}


def test_golden_json_decodes_to_what_was_printed():
    # every decoder, fed what the CLI printed, gives back a value that prints the same bytes
    decoded = 0
    for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]:
        argv = entry["argv"]
        if entry["exit"] != 0 or "--json" not in argv or argv[0] not in DECODED:
            continue
        code, out, _ = run(entry)
        assert code == 0
        value = DECODED[argv[0]](json.loads(out))
        assert json.dumps(to_json(value), indent=2) + "\n" == out, argv
        decoded += 1
    assert decoded == 183


def test_corpus_file_is_its_own_recording():
    # a re-recording with no change to the output leaves the file as it is
    text = CORPUS.read_text(encoding="utf-8")
    recorded = json.loads(text)
    assert text == render(recorded["python"], recorded["entries"])
    assert [(e["argv"], e.get("env")) for e in recorded["entries"]] == [(e["argv"], e.get("env")) for e in corpus()]


def render(python, entries):
    """The text of the corpus file; one entry per line, so a re-recording diffs line by line."""
    body = ",\n".join(json.dumps(e) for e in entries)
    return f'{{"python": "{python}", "entries": [\n{body}\n]}}\n'


def record():
    entries = [dict(entry, **replay(entry)) for entry in corpus()]
    CORPUS.write_text(render(python_version(), entries), encoding="utf-8")
    codes = [e["exit"] for e in entries]
    print(f"{len(entries)} argvs, exits 0/1/2: {codes.count(0)}/{codes.count(1)}/{codes.count(2)}")


if __name__ == "__main__":
    record()
