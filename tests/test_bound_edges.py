"""Inputs at the edge of what the library prints or builds.

Each argv runs through `python -m sympl.cli` in its own subprocess, with
an address-space limit and a time limit on that child only, and must end
in exit 1 with a named DomainError and no traceback. Before these edges
were bounded, a number too long to print in a refusal message exited 2
as a usage error, and `embed --invert` built a row of n entries for any
n (a MemoryError or OverflowError traceback). The golden corpus replays
the same argvs in-process, in text and --json form. Texts that are no
number stay usage errors (exit 2) even when a long exponent ends them.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import sympl
from sympl.ehw import first_reduction_point
from sympl.embeddings import CharacterDatum, klingen_embedding_inverse
from sympl.errors import ValueTooLarge
from sympl.fourier import FourierExpansion, SymMatrix, in_sym_j, slash_invariance_check
from sympl.laurent import LaurentPoly
from sympl.lfactors import SatakeDatum, check_factor_count, gk_value, xi
from sympl.orbitclassify import PRIMALITY_BOUND, _is_prime
from sympl.scalars import as_scalar
from sympl.weights import check_index

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
    path = [str(Path(sympl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "sympl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=SECONDS, preexec_fn=_limit,
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
