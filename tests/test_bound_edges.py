"""Inputs at the edge of what the library prints or builds.

Each argv runs through `python -m sympl.cli` in its own subprocess, with
an address-space limit and a time limit on that child only, and must end
in exit 1 with a named DomainError and no traceback. Before these edges
were bounded, a number too long to print in a refusal message exited 2
as a usage error, and `embed --invert` built a row of n entries for any
n (a MemoryError or OverflowError traceback). The golden corpus replays
the same argvs in-process, in text and --json form. Texts that are no
number stay usage errors (exit 2) even when a long exponent ends them.
Every row of the table of named bounds in sympl.errors has a library
case here at its value and just above it, and README must table it.
"""

import importlib
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sympl
from sympl import errors
from sympl.ehw import first_reduction_point
from sympl.embeddings import CharacterDatum, klingen_embedding_inverse
from sympl.encode import to_json
from sympl.errors import ValueTooLarge
from sympl.fourier import FourierExpansion, SymMatrix, build_pd_grid, in_sym_j, slash_invariance_check
from sympl.laurent import LaurentPoly
from sympl.lfactors import RationalFunction, SatakeDatum, _binomial, check_factor_count, gk_value, standard_L, xi
from sympl.orbitclassify import PRIMALITY_BOUND, _is_prime, classify_levels
from sympl.scalars import as_scalar
from sympl.weights import check_index, parse_weight
from sympl.weyl import dominant_orbit_elements

MEMORY = 1 << 30
SECONDS = 10


def _primes_below(bound, count):
    """The count largest primes below bound, descending."""
    primes, p = [], bound - 1 - bound % 2
    while len(primes) < count:
        if _is_prime(p):
            primes.append(p)
        p -= 2
    return primes


BIG, TINY = "1e5000", "1e-5000"
# (argv, the DomainError it ends in)
EDGES = [
    (["infchar", "--weight", TINY], "ValueTooLarge"),
    (["unitary", "--weight", TINY], "ValueTooLarge"),
    (["embed", "--weight", f"{TINY},{TINY}", "--i", "1"], "ValueTooLarge"),
    (["infchar", "--weight", f"{BIG},1/2"], "ValueTooLarge"),
    (["xi", "--i", "1", "--shift", TINY], "ValueTooLarge"),
    (["xi", "--i", "1", "--shift", BIG], "ValueTooLarge"),
    (["xi", "--i", "9" * 3000], "ValueTooLarge"),
    (["dominant", "--weight", ";".join(["2"] * 15000)], "ValueTooLarge"),
    # 200 primes just below PRIMALITY_BOUND: a level of more than 4,300 digits
    (["surjectivity", "--weight", "9,9", "--primes", ",".join(map(str, _primes_below(PRIMALITY_BOUND, 200)))],
     "ValueTooLarge"),
    (["embed", "--invert", "--n", "1000000000", "--i", "1000000000", "--parity", "1", "--exponent=1/2"],
     "RankTooLarge"),
    (["embed", "--invert", "--n", "10" + "0" * 19, "--i", "10" + "0" * 19, "--parity", "1", "--exponent=1/2"],
     "RankTooLarge"),
    # an exponent past the digit limit is refused before Fraction builds 10^k
    # (orbit took 11.8 s to print true, and one more digit costs about 26 times more)
    (["orbit", "--weight", "1e10000000"], "ValueTooLarge"),
    (["xi", "--i", "1", "--shift", "1e-100000000"], "ValueTooLarge"),
]
# texts that are no number, though digits past the limit follow their last e: the
# parser's usage error, not ValueTooLarge
MALFORMED = ["e99999", "xe99999", "1e+-99999", "1e 99999", "1/2e99999", "1._5e99999"]


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


@pytest.mark.parametrize(("argv", "error"), EDGES, ids=[f"{argv[0]}-{k}" for k, (argv, _) in enumerate(EDGES)])
def test_bound_edge_ends_in_a_named_refusal(argv, error):
    result = _cli(argv)
    assert "Traceback" not in result.stderr
    assert result.returncode == 1, result.stderr[:300]
    assert result.stderr.startswith(f"error: {error}: "), result.stderr[:300]
    assert result.stdout == ""


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_exponent_text_stays_a_usage_error(text):
    result = _cli(["orbit", "--weight", text])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"usage error: Invalid literal for Fraction: {text!r}\n"


@pytest.mark.parametrize("text", ["1e99_999", " -1.5E+0_99999 ", ".5e99999", "1.e-99999", "0e99999"])
def test_well_formed_exponent_past_the_limit_is_refused(text):
    with pytest.raises(ValueTooLarge, match="^exact value has more than [0-9]+ digits to print$"):
        as_scalar(text)


def _cli(argv):
    """python -m sympl.cli argv in a child limited in memory and time."""
    return _python(["-m", "sympl.cli", *argv])


def _python(args):
    """python args in a child limited in memory and time, with sympl on its path."""
    path = [str(Path(sympl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=SECONDS, preexec_fn=_limit,
    )


HUGE = 10 ** 5000


LIBRARY_EDGES = {
    "power": lambda: LaurentPoly.constant(3) ** HUGE,
    "xi-index": lambda: xi(-HUGE, SatakeDatum()),
    "factor-count": lambda: check_factor_count(HUGE, 0),
    "gk-index": lambda: gk_value(1, -HUGE, SatakeDatum()),
    "check-index": lambda: check_index(HUGE, 3),
    "sym-j": lambda: in_sym_j(SymMatrix.identity(2), HUGE),
    "reduction-point": lambda: first_reduction_point((HUGE,)),
    "inverse-length": lambda: klingen_embedding_inverse(HUGE, 1, CharacterDatum(0, 0), ()),
    "determinant": lambda: slash_invariance_check(FourierExpansion(1, 0), [[HUGE]]),
}


@pytest.mark.parametrize("call", LIBRARY_EDGES.values(), ids=LIBRARY_EDGES)
def test_library_refusals_of_unprintable_numbers(call):
    # the message would name a number past the interpreter's int-to-text limit
    with pytest.raises(ValueTooLarge):
        call()


@pytest.mark.parametrize("n", [4000, 10 ** 9])
def test_expansion_decoder_refuses_a_short_cell_list_before_building(n):
    # the decoder built the n x n zero matrix first: 933 MB and 1.7 s at n = 4000
    data = {"n": n, "k": 0, "support": [{"entries": [1], "coefficient": 1}]}
    script = (
        "import time\n"
        "from sympl.serialize import expansion_from_json\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    expansion_from_json({data!r})\n"
        "except ValueError as error:\n"
        "    print(time.perf_counter() - start, error)\n"
    )
    result = _python(["-c", script])
    assert result.returncode == 0, result.stderr[-300:]
    seconds, message = result.stdout.rstrip("\n").split(" ", 1)
    assert message == f"size {n} has {n * (n + 1) // 2} cells, not 1"
    assert float(seconds) < 0.1


# Each row of the table of named bounds (sympl.errors.Bound), with a library
# case that reaches a count of its choosing and returns the count it reached:
# (case, the least count above the bound the case can reach, its exact
# refusal). At the bound the case must answer; above it, refuse by the row.
def _orbit_elements(count):
    places = count.bit_length() - 1  # each place "2" has two dominant elements
    return len(dominant_orbit_elements(parse_weight(";".join(["2"] * places))))


def _embedded_rank(n):
    # t = exponent + (n + 1)/2 at i = n, an odd integer for either parity of n
    return len(klingen_embedding_inverse(n, n, CharacterDatum(1, Fraction(1 - n % 2, 2)), ()))


def _level_entries(count):
    n = next(n for n in range(16, count) if count % n == 0)  # 16 at 2^20, 17 at 2^20 + 1
    return n * (classify_levels((), n, n, count // n - 1).x_max + 1)


def _expanded_terms(count):
    # one factor of count terms against 1, so that side expands to count terms
    p = LaurentPoly(("x", "y"), {divmod(e, 256): 1 for e in range(count)})
    assert RationalFunction((p,), ()) != RationalFunction((), ())
    return len(p.numerators)


def _listed_points(count):
    return len(to_json(build_pd_grid(1, 1, count - 1))["points"])  # t + 1 points at n = d = 1


ROW_EDGES = {
    # an orbit's size is a power of two, so the least count above 2^16 is 2^17
    "ORBIT_SIZE_BOUND": (_orbit_elements, 2 ** 17, "131072 dominant orbit elements exceed the bound 65536"),
    "RANK_BOUND": (_embedded_rank, 65537, "rank 65537 exceeds the bound 65536"),
    "LEVEL_ENTRY_BOUND": (_level_entries, 2 ** 20 + 1, "1048577 entries over 61681 levels exceed the bound 1048576"),
    "EXPONENT_BOUND": (lambda e: LaurentPoly.parse(f"x^{e}").degree("x"), 10001,
                       "exponent 10001 exceeds the bound 10000"),
    "EXPANSION_BOUND": (_expanded_terms, 65537, "expanding 1 factors could give 65537 terms, above the bound 65536"),
    "FACTOR_BOUND": (lambda m: SatakeDatum.symbolic(m).m, 65537, "65537 Satake parameters exceed the bound 65536"),
    "ENTRY_BOUND": (lambda d: len(build_pd_grid(1, d, 1).bounds), 65537, "65537 grid entries exceed the bound 65536"),
    "ENUMERATION_BOUND": (_listed_points, 65537, "65537 grid points to list, above the bound 65536"),
}


def _rows():
    return {name: value for name, value in vars(errors).items() if isinstance(value, errors.Bound)}


def test_every_bound_row_has_an_edge():
    assert set(_rows()) == set(ROW_EDGES)


@pytest.mark.parametrize("name", ROW_EDGES)
def test_bound_row_holds_at_its_value_and_refuses_above(name):
    bound = getattr(errors, name)
    case, above, message = ROW_EDGES[name]
    assert case(bound) == bound
    with pytest.raises(bound.error) as raised:
        case(above)
    assert str(raised.value) == message


def _factors(build):
    # a datum of m symbols gives 2m + 1 factors, so the edge below 2^16 is 2^16 - 1
    return lambda count: len(build(SatakeDatum.symbolic((count - 1) // 2)).den_factors)


PARAMETERS_ABOVE = "65537 Satake parameters exceed the bound 65536"
# Every public builder of the objects FACTOR_BOUND counts: (case, count at the edge, count just above, message).
FACTOR_EDGES = {
    "SatakeDatum": (lambda m: SatakeDatum(f"b{k}" for k in range(1, m + 1)).m, 65536, 65537, PARAMETERS_ABOVE),
    "SatakeDatum numeric": (lambda m: SatakeDatum(range(1, m + 1)).m, 65536, 65537, PARAMETERS_ABOVE),
    "SatakeDatum.symbolic": (lambda m: SatakeDatum.symbolic(m).m, 65536, 65537, PARAMETERS_ABOVE),
    "standard_L": (_factors(lambda s: standard_L(0, s)), 65535, 65537,
                   "65537 factors of standard_L exceed the bound 65536"),
    "xi": (_factors(lambda s: xi(1, s)), 65535, 65537, "65537 factors of xi(1) exceed the bound 65536"),
}


@pytest.mark.parametrize("name", FACTOR_EDGES)
def test_every_factor_builder_holds_at_the_edge_and_refuses_above(name):
    case, edge, above, message = FACTOR_EDGES[name]
    assert case(edge) == edge
    _binomial.cache_clear()
    with pytest.raises(errors.FACTOR_BOUND.error) as raised:
        case(above)
    assert str(raised.value) == message
    assert _binomial.cache_info().currsize == 0  # refused before any factor is built


def test_readme_tables_every_bound_row():
    # | `NAME` | `sympl.<module>.NAME` | value | what it counts | `Error` |, a power of two as 2^k
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    for name, bound in _rows().items():
        row = next((line for line in lines if line.startswith(f"| `{name}` |")), None)
        assert row is not None, name
        _, path, value, _, error = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        module, _, attribute = path.rpartition(".")
        assert attribute == name and getattr(importlib.import_module(module), name) is bound
        assert value == (f"2^{bound.bit_length() - 1}" if bound & (bound - 1) == 0 else f"{bound:,}")
        assert error == bound.error.__name__
