"""End-to-end tests of the command line driver."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sympl
from sympl.cli import main
from sympl.lfactors import RationalFunction, SatakeDatum, gk_value
from sympl.orbitclassify import HYPOTHESIS_NAMES, classify_levels
from sympl.serialize import to_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_classify_levels_table(capsys):
    code, lines, _ = run(capsys, ["classify-levels", "--n", "2", "--i", "1", "--inner", "5"])
    assert code == 0
    assert lines == [
        "x_max: 5",
        "class 1: 0, 4",
        "class 2: 1, 3",
        "class 3: 2",
        "class 4: 5",
        "y: 0, 1, 2, 5",
        "bijective: true",
    ]


def test_classify_levels_json_matches_library(capsys):
    code, lines, _ = run(
        capsys, ["classify-levels", "--n", "2", "--i", "1", "--inner", "5", "--json"]
    )
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload == to_json(classify_levels((5,), 2, 1))


def test_classify_levels_top_index(capsys):
    code, lines, _ = run(
        capsys, ["classify-levels", "--n", "2", "--i", "2", "--x-max", "5"]
    )
    assert code == 0
    assert lines == [
        "x_max: 5",
        "class 1: 0, 3",
        "class 2: 1, 2",
        "class 3: 4",
        "class 4: 5",
        "y: 0, 1, 4, 5",
        "bijective: true",
    ]


def test_reduction_point(capsys):
    code, lines, _ = run(capsys, ["reduction-point", "--weight", "4,3,3"])
    assert code == 0
    assert lines == ["2"]


def test_unitary(capsys):
    code, lines, _ = run(capsys, ["unitary", "--weight", "4,3,3"])
    assert code == 0
    assert lines == ["true"]
    code, lines, _ = run(capsys, ["unitary", "--weight=-1,-1"])
    assert code == 0
    assert lines == ["false"]


def test_infchar_and_dominant(capsys):
    code, lines, _ = run(capsys, ["infchar", "--weight", "3,3"])
    assert code == 0
    assert lines == ["2,1"]
    code, lines, _ = run(capsys, ["dominant", "--weight", "3,3"])
    assert code == 0
    assert lines == ["3,3", "3,1", "2,0", "0,0"]


def test_suffreg(capsys):
    code, lines, _ = run(capsys, ["suffreg", "--weight", "3,3", "--i", "1"])
    assert code == 0
    assert lines == ["false"]


def test_suffreg_has_no_rank_cap(capsys):
    code, lines, _ = run(capsys, ["suffreg", "--weight", "5,4,3", "--i", "1"])
    assert code == 0
    assert lines == ["false"]
    code, lines, _ = run(capsys, ["suffreg", "--weight", "30,29,28,27,26,25,24,23,22,21", "--i", "1"])
    assert code == 0
    assert lines == ["true"]
    code, lines, _ = run(capsys, ["report", "--weight", "9,8,7,6,5,4,3,2,1", "--i", "1"])
    assert code == 0
    assert "sufficiently_regular: fail" in lines


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduction-point", "--weight", "3,5"], "NotDominant: not k-dominant: (3, 5)"),
        (["embed", "--weight", "3,5", "--i", "1"], "NotDominant: not k-dominant: (3, 5)"),
        (["embed", "--weight", "5,3", "--i", "2"], "TailNotConstant: last 2 entries differ: (5, 3)"),
        (
            ["embed", "--invert", "--n", "3", "--i", "1", "--parity", "0", "--exponent", "0", "--inner", "1,2"],
            "NotDominant: inner weight not k-dominant: (1, 2)",
        ),
        (["degenerate", "--weight", "4,3"], "NotScalarWeight: entries differ: (4, 3)"),
        (
            ["classify-levels", "--n", "3", "--i", "1", "--inner", "1/2,1/2"],
            "NonIntegral: inner weight (1/2, 1/2) has non-integer entries",
        ),
        (
            ["classify-levels", "--n", "3", "--i", "1", "--inner", "1,2"],
            "NotDominant: inner weight (1, 2) is not weakly decreasing",
        ),
        (
            ["classify-levels", "--n", "3", "--i", "1", "--inner", "1,-1"],
            "NotDominant: inner weight (1, -1) has negative bottom entry",
        ),
        # one case per call site of the shared index, dominance, tail and
        # scalar-weight rules, with the messages they had before sharing them
        (["embed", "--weight", "5,3", "--i", "3"], "IndexOutOfRange: i must satisfy 1 <= i <= 2, got 3"),
        (
            ["embed", "--invert", "--n", "3", "--i", "4", "--parity", "0", "--exponent", "0"],
            "IndexOutOfRange: i must satisfy 1 <= i <= 3, got 4",
        ),
        (["classify-levels", "--n", "3", "--i", "0"], "IndexOutOfRange: i must satisfy 1 <= i <= 3, got 0"),
        (["suffreg", "--weight", "5,5", "--i", "3"], "IndexOutOfRange: i must satisfy 1 <= i <= 2, got 3"),
        (["report", "--weight", "12,12", "--i", "3"], "IndexOutOfRange: i must satisfy 1 <= i <= 2, got 3"),
        (["embed", "--weight", "7,5,5;8,6,5", "--i", "2"], "TailNotConstant: last 2 entries differ: (6, 5)"),
        (["unitary", "--weight", "1/2,3/2"], "NotDominant: not k-dominant: (1/2, 3/2)"),
        (["principal", "--weight", "3,5"], "NotDominant: not k-dominant: (3, 5)"),
        (["orbit", "--weight", "3,5"], "NotDominant: the dichotomy is stated for k-dominant weights"),
        (["surjectivity", "--weight", "3,5", "--level", "6"], "NotDominant: 3,5 is not dominant"),
        (["degenerate", "--weight", "4,4;5,4"], "NotScalarWeight: entries differ: (5, 4)"),
    ],
)
def test_rejection_messages_render_scalars(capsys, argv, message):
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err == f"error: {message}\n"
    assert "Fraction(" not in err


def test_exponent_bound_is_a_rejection(capsys):
    code, _, err = run(capsys, ["pit", "--poly", "x_1_1_1^99999999 - 1", "--n", "1", "--bounds", "1"])
    assert code == 1
    assert err.startswith("error: ExponentTooLarge:")


def test_orbit_exit_codes(capsys):
    code, lines, _ = run(capsys, ["orbit", "--weight", "3"])
    assert code == 0
    assert lines == ["true"]
    code, _, err = run(capsys, ["orbit", "--weight", "3,3"])
    assert code == 1
    assert err.startswith("error: HypothesisViolated:")


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["suffreg", "--weight", "3,3"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, ["orbit", "--weight", "junk"])
    assert code == 2
    assert err.startswith("usage error:")
    code, _, err = run(capsys, ["fourier", "/no/such/file.txt"])
    assert code == 2
    assert err.startswith("usage error:")
    (tmp_path / "k.txt").write_text("n=2 k=1/2\n1,0,1 : 2\n")
    (tmp_path / "n.txt").write_text("n=x k=2\n1,0,1 : 2\n")
    # a key=value name, a bounds position or a grid entry given twice
    twice = ["--n", "2", "--bounds", "1,1,1=2;1,1,1=5"]
    for argv, message in [
        (["eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", "X=1,Q=2,T=1/16,X=3"], "X is given twice"),
        (["grid"] + twice, "1,1,1 is given twice"),
        (["pit", "--poly", "x_1_1_1"] + twice, "1,1,1 is given twice"),
        (
            ["grid", "--n", "2", "--bounds", "1,1,2=1;1,2,1=3"],
            "bound positions (1, 1, 2) and (1, 2, 1) name one entry",
        ),
        # a bounds position that is not three integers
        (["grid", "--n", "2", "--bounds", "1,1=2"], "expected a bound position k,i,j of integers, got '1,1'"),
        (["pit", "--poly", "x_1_1_1", "--n", "2", "--bounds", "1,a,1=2"],
         "expected a bound position k,i,j of integers, got '1,a,1'"),
        # an expansion header whose size or weight is not an integer
        (["fourier", str(tmp_path / "k.txt")], "k must be an integer, got '1/2'"),
        (["phi", str(tmp_path / "n.txt")], "n must be an integer, got 'x'"),
    ]:
        for form in ([], ["--json"]):
            assert run(capsys, argv + form) == (2, [], f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["infchar", "--weight", "1/0"],
        ["xi", "--i", "1", "--satake", "1/0"],
        ["eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", "X=1/0,Q=2,T=1/16"],
        ["pit", "--poly", "1/0*x_1_1_1", "--n", "1", "--bounds", "1"],
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, lines, err = run(capsys, argv)
    assert code == 2
    assert lines == []
    assert err.startswith("usage error: zero denominator in '1/0'")
    assert "Traceback" not in err


def test_embed_forward(capsys):
    code, lines, _ = run(capsys, ["embed", "--weight", "7,5,5", "--i", "2"])
    assert code == 0
    assert lines == ["n=3 i=2 parity=1 exponent=5/2 inner=7"]


def test_embed_invert(capsys):
    code, lines, _ = run(
        capsys,
        ["embed", "--invert", "--n", "2", "--i", "2", "--parity", "1", "--exponent=-1/2"],
    )
    assert code == 0
    assert lines == ["1,1"]
    code, lines, _ = run(
        capsys,
        [
            "embed", "--invert", "--n", "2", "--i", "1",
            "--parity", "0", "--exponent", "3", "--inner", "5",
        ],
    )
    assert code == 0
    assert lines == ["none"]
    code, _, err = run(capsys, ["embed", "--invert", "--i", "1"])
    assert code == 2
    assert err.startswith("usage error:")
    code, _, err = run(capsys, ["embed", "--i", "1"])
    assert code == 2


def test_principal_and_degenerate(capsys):
    code, lines, _ = run(capsys, ["principal", "--weight", "5,3"])
    assert code == 0
    assert lines == ["(1,1) (1,4)"]
    code, lines, _ = run(capsys, ["degenerate", "--weight", "4,4"])
    assert code == 0
    assert lines == ["parity=0 exponent=5/2"]


def test_report_lines(capsys):
    code, lines, _ = run(capsys, ["report", "--weight", "12,12", "--i", "1"])
    assert code == 0
    for name in HYPOTHESIS_NAMES:
        assert f"{name}: pass" in lines
    assert "conclusion: IsotypicDescription" in lines
    assert "parity class: +1" in lines
    assert "exponent: 10" in lines
    assert "inner weight: 12" in lines
    assert any(line.startswith("assumption:") for line in lines)


def test_report_character_flip(capsys):
    code, lines, _ = run(capsys, ["report", "--weight", "12,12", "--i", "1", "--char=-1"])
    assert code == 0
    assert "conclusion: VanishesWrongParity" in lines
    code, lines, _ = run(capsys, ["report", "--weight", "12,12", "--i", "1", "--char", "+1"])
    assert code == 0
    assert "conclusion: IsotypicDescription" in lines


def test_surjectivity(capsys):
    code, lines, _ = run(capsys, ["surjectivity", "--weight", "11,11", "--level", "12"])
    assert code == 0
    assert lines == ["verdict: NotCovered", "failed: level_squarefree"]
    code, lines, _ = run(capsys, ["surjectivity", "--weight", "11,11", "--primes", "2,3"])
    assert code == 0
    assert lines == ["verdict: SurjectiveByTheorem"]
    code, _, err = run(
        capsys, ["surjectivity", "--weight", "11,11", "--level", "6", "--primes", "2"]
    )
    assert code == 2
    code, _, err = run(capsys, ["surjectivity", "--weight", "11,11"])
    assert code == 2


def test_xi_and_gk(capsys):
    code, lines, _ = run(capsys, ["xi", "--i", "0"])
    assert code == 0
    assert lines == ["1"]
    code, lines, _ = run(capsys, ["gk", "--i", "1", "--j", "1"])
    assert code == 0
    assert lines == ["(1 - Q^-2*T*X) / (1 - T*X)"]
    code, lines, _ = run(capsys, ["gk", "--i", "1", "--j", "1", "--json"])
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload == to_json(gk_value(1, 1, SatakeDatum()))
    code, _, err = run(capsys, ["gk", "--i", "1", "--j", "2"])
    assert code == 1
    assert err.startswith("error: IndexOutOfRange:")


def test_satake_replaces_the_symbolic_parameters(capsys):
    # --m sets the count of symbols b1..bm; with --satake it is read only for its sign
    argv = ["xi", "--i", "2", "--m", "1", "--shift", "1/2", "--satake", "2,3", "--char", "1"]
    for form in ([], ["--json"]):
        code, lines, err = run(capsys, argv + form)
        assert (code, err) == (0, "")
        assert run(capsys, argv[:3] + argv[5:] + form) == (code, lines, err)


def test_satake_names_no_symbols(capsys, monkeypatch):
    # with --satake, --m is read only for its checks: `xi --i 1 --m 32767
    # --satake 2` named 32,767 symbols only to drop them
    argv = ["xi", "--i", "1", "--satake", "2,1/3"]
    expected = [run(capsys, argv + form) for form in ([], ["--json"])]

    def named(cls, m):
        raise AssertionError("--m symbols were named under --satake")

    monkeypatch.setattr(SatakeDatum, "symbolic", classmethod(named))
    for want, form in zip(expected, ([], ["--json"])):
        for m in ("0", "3", "32767"):
            assert run(capsys, argv + ["--m", m] + form) == want and want[0] == 0
    for command in (["xi", "--i", "1"], ["gk", "--i", "2", "--j", "1"], ["eval", "--kind", "xi", "--i", "1", "--at", "X=1"]):
        code, lines, err = run(capsys, command + ["--m", "-1", "--satake", "2"])
        assert (code, lines, err) == (2, [], "usage error: m must be nonnegative\n")
    with pytest.raises(AssertionError, match="named under --satake"):
        main(["xi", "--i", "1", "--m", "1"])


def test_grid_counts_past_len_and_past_printing(capsys):
    # grid --n 2 --bounds 10^20 ended in an OverflowError traceback; grid --n 200
    # --bounds 1 (2^20100 points) in a usage error from Python's digit limit
    start = time.perf_counter()
    big = 10 ** 20
    code, lines, err = run(capsys, ["grid", "--n", "2", "--bounds", str(big)])
    assert (code, err, lines[2]) == (0, "", f"points: {(big + 1) ** 3}")
    code, lines, err = run(capsys, ["grid", "--n", "2", "--bounds", str(big), "--json"])
    assert (code, lines) == (1, [])
    assert err == f"error: GridTooLarge: {(big + 1) ** 3} grid points to list, above the bound 65536\n"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for form in ([], ["--json"]):
            code, lines, err = run(capsys, ["grid", "--n", "200", "--bounds", "1"] + form)
            assert (code, lines) == (1, [])
            assert err == f"error: ValueTooLarge: exact value has more than {limit} digits to print\n"
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("command", [["grid"], ["pit", "--poly", "x_1_1_1"]])
def test_grid_entry_bound(capsys, command):
    # the 5 * 10^9 bound positions of n = 100,000 were built before anything else
    for form in ([], ["--json"]):
        start = time.perf_counter()
        code, lines, err = run(capsys, command + ["--n", "100000", "--bounds", "1"] + form)
        assert (code, lines, err) == (1, [], "error: GridTooLarge: 5000050000 grid entries exceed the bound 65536\n")
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["classify-levels", "--n", "2", "--i", "2", "--x-max", "100000000000"],
    ["classify-levels", "--n", "2", "--i", "1", "--inner", "100000000000"],
])
def test_classify_levels_entry_bound(capsys, argv):
    # each ran one canonical_row per level, without end
    for form in ([], ["--json"]):
        start = time.perf_counter()
        code, lines, err = run(capsys, argv + form)
        message = "200000000002 entries over 100000000001 levels exceed the bound 1048576"
        assert (code, lines, err) == (1, [], f"error: LevelTooLarge: {message}\n")
        assert time.perf_counter() - start < 1


def test_eval(capsys):
    code, lines, _ = run(
        capsys,
        ["eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", "X=1,Q=2,T=1/16"],
    )
    assert code == 0
    assert lines == ["21/20"]
    # blank --at items are skipped
    blank = ["eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", " ,X=1,, Q=2,T=1/16, "]
    assert run(capsys, blank)[:2] == (0, ["21/20"])
    code, _, err = run(capsys, ["eval", "--kind", "gk", "--i", "1", "--at", "X=1"])
    assert code == 2
    code, _, err = run(
        capsys,
        ["eval", "--kind", "gk", "--i", "1", "--j", "1", "--at", "X=1,Q=1,T=1"],
    )
    assert code == 1
    assert err.startswith("error: PoleAtPoint:")


def test_fourier_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("n=2 k=4\n0,0,2 : 5\n1,0,1 : 7\n")
    code, lines, _ = run(capsys, ["fourier", str(path)])
    assert code == 0
    assert lines == [
        "n: 2",
        "k: 4",
        "support size: 2",
        "cusp condition: true",
        "cuspidal: false",
        "filtration index: 2",
        "0,0,2 : 5",
        "1,0,1 : 7",
    ]


def test_phi_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("n=2 k=4\n0,0,2 : 5\n1,0,1 : 7\n")
    code, lines, _ = run(capsys, ["phi", str(path)])
    assert code == 0
    assert lines == ["n=1 k=4", "2 : 5"]


def test_grid(capsys):
    code, lines, _ = run(capsys, ["grid", "--n", "2", "--bounds", "1"])
    assert code == 0
    assert lines == [
        "n: 2",
        "d: 1",
        "points: 8",
        "diagonal offsets: 8",
        "nominal offsets: 2",
        "deviation: true",
        "bad points: 1",
        "witness: [2, 2; 2, 2]",
    ]


def test_grid_count_beyond_len(capsys):
    # 66 upper-triangle entries with two values each: more points than len() can return
    code, lines, err = run(capsys, ["grid", "--n", "11", "--bounds", "1"])
    assert (code, err) == (0, "")
    assert lines[2] == f"points: {2 ** 66}"
    code, lines, err = run(capsys, ["grid", "--n", "11", "--bounds", "1", "--json"])
    assert (code, lines) == (1, [])
    assert err == f"error: GridTooLarge: {2 ** 66} grid points to list, above the bound 65536\n"


def test_degenerate_box_is_decided_at_any_size(capsys):
    # 301 * 2 * 301 matrices: the witness comes from the bounds, only listing is bounded
    argv = ["grid", "--n", "2", "--bounds", "1,1,1=300;1,2,2=300"]
    code, lines, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert lines[2:] == ["points: 181202", "diagonal offsets: 8", "nominal offsets: 2",
                         "deviation: true", "bad points: 1", "witness: [2, 2; 2, 2]"]
    code, lines, err = run(capsys, argv + ["--json"])
    assert (code, lines) == (1, [])
    assert err == "error: GridTooLarge: 181202 grid points to list, above the bound 65536\n"


# Python 3.11 (and security releases of 3.10) refuse to print an int of more
# than sys.get_int_max_str_digits() digits; 0 means no limit.
@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="no int digit limit")
@pytest.mark.parametrize("argv", [
    # the value's numerator and denominator have about 5,000 digits
    ["eval", "--kind", "xi", "--i", "40", "--at", "X=1,Q=2,T=1/3"],
    # an integer coefficient (10^4000)^2 inside the printed factors
    ["xi", "--i", "2", "--char", str(10 ** 4000)],
])
def test_value_beyond_the_digit_limit_is_named(capsys, argv):
    limit = sys.get_int_max_str_digits()
    for form in (argv, argv + ["--json"]):
        code, lines, err = run(capsys, form)
        assert (code, lines) == (1, [])
        assert err == f"error: ValueTooLarge: exact value has more than {limit} digits to print\n"


@pytest.mark.parametrize("command", [["xi"], ["gk", "--j", "0"], ["eval", "--kind", "xi", "--at", "X=1"]])
def test_negative_m_is_a_usage_error(capsys, command):
    code, lines, err = run(capsys, command + ["--i", "1", "--m", "-1"])
    assert (code, lines, err) == (2, [], "usage error: m must be nonnegative\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["xi", "--i", "800"], "320400 factors of xi(800)"),
        (["xi", "--i", "3000", "--json"], "4501500 factors of xi(3000)"),
        (["xi", "--i", "1", "--m", "32768"], "65537 factors of xi(1)"),
        (["gk", "--i", "3000", "--j", "3000"], "4501500 factors of xi(3000)"),
        (["eval", "--kind", "xi", "--i", "800", "--at", "X=1,Q=2,T=1/3"], "320400 factors of xi(800)"),
        (["eval", "--kind", "gk", "--i", "900", "--j", "800", "--at", "X=1"], "320400 factors of xi(800)"),
        (["xi", "--i", "0", "--m", "1000000000"], "1000000000 Satake parameters"),
        (["xi", "--i", "-1", "--m", "1000000000"], "1000000000 Satake parameters"),
        (["gk", "--i", "1", "--j", "1", "--m", str(10 ** 12)], f"{10 ** 12} Satake parameters"),
        (["eval", "--kind", "xi", "--i", "1", "--m", "100000", "--at", "X=1"], "100000 Satake parameters"),
        # --satake names no symbols, but --m is still bounded
        (["gk", "--i", "2", "--j", "1", "--m", "70000", "--satake", "2"], "70000 Satake parameters"),
    ],
)
def test_factor_count_bound(capsys, argv, message):
    # refused before the Satake symbols or any factor is built: xi --i 800
    # took 16.7 s and 311 MB, and --m had no bound at all
    start = time.perf_counter()
    code, lines, err = run(capsys, argv)
    assert (code, lines, err) == (1, [], f"error: IndexOutOfRange: {message} exceed the bound 65536\n")
    assert time.perf_counter() - start < 1


def test_xi_builds_in_one_pass(capsys, monkeypatch):
    # 200 standard and 19,900 abelian factors. A product per factor built
    # 20,100 more RationalFunctions and re-validated the growing tuple each
    # time, about 2*10^8 factor checks in all (11.6 s).
    built = []
    init = RationalFunction.__init__

    def counted(self, num_factors=(), den_factors=()):
        num, den = tuple(num_factors), tuple(den_factors)
        built.append(len(num) + len(den))
        init(self, num, den)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    start = time.perf_counter()
    code, lines, _ = run(capsys, ["xi", "--i", "200"])
    seconds = time.perf_counter() - start
    assert code == 0
    assert lines[0].startswith("1 / (1 - Q^199*T*X)*(1 - Q^197*T*X)*")
    assert lines[0].count(")*(") == 200 + 19_900 - 1
    # the binomials are built directly, so xi builds one RationalFunction
    assert built == [20_100]
    # a loose budget: about 0.4 s one-pass, against 11.6 s for the product loop
    assert seconds < 8


def test_pit(capsys):
    code, lines, _ = run(
        capsys, ["pit", "--poly", "x_1_1_1 - x_1_1_1", "--n", "1", "--bounds", "1"]
    )
    assert code == 0
    assert lines == ["vanishes: true"]
    code, lines, _ = run(capsys, ["pit", "--poly", "x_1_1_1", "--n", "2", "--bounds", "1"])
    assert code == 0
    assert lines == ["vanishes: false", "deviation: true"]
    code, _, err = run(
        capsys, ["pit", "--poly", "x_1_1_1^3", "--n", "1", "--bounds", "1"]
    )
    assert code == 1
    assert err.startswith("error: DegreeExceedsGrid:")


def test_pit_reads_the_polynomial_before_building_the_grid(capsys, monkeypatch):
    import sympl.fourier

    def build_pd_grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(sympl.fourier, "build_pd_grid", build_pd_grid)
    argv = ["pit", "--poly", "x^", "--n", "2", "--bounds", "1,1,1=180;1,2,2=180"]
    code, lines, err = run(capsys, argv)
    assert (code, lines, err) == (2, [], "usage error: exponent must be an integer\n")


def test_orbit_count_bound(capsys, monkeypatch):
    # the rank cap and its setting are gone: rank 9 answers, rank 17 is refused by its count
    monkeypatch.setenv("SYMPL_ORBIT_CAP", "2")
    code, lines, _ = run(capsys, ["dominant", "--weight", "3,2,1"])
    assert (code, lines) == (0, ["3,2,1"])
    code, lines, _ = run(capsys, ["dominant", "--weight", "18,17,16,15,14,13,12,11,10"])
    assert code == 0
    assert len(lines) == 512 and lines[0] == "18,17,16,15,14,13,12,11,10" and lines[-1] == "0,-1,-2,-3,-4,-5,-6,-7,-8"
    code, lines, _ = run(capsys, ["orbit", "--weight", "30,29,28,27,26,25,24,23,22"])
    assert (code, lines) == (0, ["true"])
    for cmd, top in (("dominant", 34), ("orbit", 60)):
        weight = ",".join(str(top - k) for k in range(17))
        code, _, err = run(capsys, [cmd, "--weight", weight])
        assert code == 1
        assert err == "error: RankTooLarge: 131072 dominant orbit elements exceed the bound 65536\n"


def test_module_invocation():
    # the child imports the same sympl as this process, installed or not
    path = [str(Path(sympl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-m", "sympl.cli", "reduction-point", "--weight", "4,3,3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "2\n"


# Exits at the process boundary: a reader that closed the pipe, a full
# device and SIGINT each end in their own exit code, with no traceback.
# One child writes text with PYTHONUNBUFFERED=1, the other --json with
# stdout buffered, so a failing write and a failing flush are both met.
BOUNDARY = [(["infchar", "--weight", "3,2"], "1"), (["infchar", "--weight", "3,2", "--json"], "")]
# admitted, and seconds of pure Python work (about 10 s cold)
SLOW = ["classify-levels", "--n", "1", "--i", "1", "--x-max", "1048575"]


def _boundary_child(args, unbuffered, stdout):
    path = [str(Path(sympl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONUNBUFFERED=unbuffered)
    result = subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                            timeout=60)
    assert "Traceback" not in result.stderr
    return result


@pytest.mark.parametrize(("argv", "unbuffered"), BOUNDARY, ids=["text", "json"])
def test_closed_pipe_exits_141(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first line
    try:
        result = _boundary_child(["-m", "sympl.cli", *argv], unbuffered, write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(("argv", "unbuffered"), BOUNDARY, ids=["text", "json"])
def test_full_device_exits_74_with_one_error_line(argv, unbuffered):
    with open("/dev/full", "w") as full:
        result = _boundary_child(["-m", "sympl.cli", *argv], unbuffered, full)
    assert result.returncode == 74
    assert result.stderr == "error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_sigint_exits_130(json_flag):
    # the child signals itself once main is running on a slow admitted input
    script = (
        "import os, signal, sys, threading\n"
        "from sympl.cli import main\n"
        "threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
        f"sys.exit(main({SLOW + json_flag!r}))\n"
    )
    start = time.perf_counter()
    result = _boundary_child(["-c", script], "1", subprocess.PIPE)
    assert (result.returncode, result.stdout, result.stderr) == (130, "", "")
    assert time.perf_counter() - start < 5
