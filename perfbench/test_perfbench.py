"""Tests of the benchmark's own checks, pools and tracer (fast, no subprocesses).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from fractions import Fraction

import answers
import oracles
import tracer as tracing
import workloads
import worker
from sympl import orbitclassify, weyl


def _first(runner, name):
    for _ in range(3):
        for op in runner.next_round():
            if op[0] == name:
                return op
    raise AssertionError(f"no {name} op in three rounds")


def test_checker_catches_a_wrong_answer():
    runner = worker.InProcess("lattice_sweep", seed=5)
    op = _first(runner, "dichotomy")
    _, result, problem = runner.execute(op)
    assert problem is None
    assert runner.check(op, result) is None
    assert "differs from the recorded" in runner.check(op, not result)


def test_oracle_catches_a_wrong_answer_even_if_it_was_recorded():
    runner = worker.InProcess("lattice_sweep", seed=5, expected={})
    key, index = workloads.stratum_key("infchar", (3, 1)), 2
    op = ("infchar", key, index, workloads.pool_args("lattice_sweep", "infchar", (3, 1), index))
    _, result, _ = runner.execute(op)
    wrong = not result
    runner.expected[key] = [None] * index + [runner.digest(op, wrong)]
    assert "oracle disagrees" in runner.check(op, wrong)


def test_expected_rejection_is_required():
    runner = worker.InProcess("lattice_sweep", seed=5)
    op = _first(runner, "reject_tail")
    _, result, _ = runner.execute(op)
    assert isinstance(result, answers.Raised) and result.name == "TailNotConstant"
    assert runner.check(op, result) is None
    assert "expected TailNotConstant" in runner.check(op, (Fraction(1), ()))


def test_cli_checker_wants_recorded_bytes_and_no_traceback(tmp_path):
    op = ("infchar", 0, ["infchar", "--weight=3,3"])
    recorded = answers.digest((0, b"2,1\n"))
    runner = worker.ColdCli(1, tmp_path, tmp_path, expected={"infchar": [recorded]})
    assert runner.check(op, 0, b"2,1\n", b"") is None
    assert "differ from the recorded" in runner.check(op, 0, b"2,2\n", b"")
    assert "differ from the recorded" in runner.check(op, 1, b"2,1\n", b"")
    assert "traceback" in runner.check(op, 0, b"2,1\n", b"Traceback (most recent call last):\n")


def test_pools_depend_on_the_entry_and_rounds_on_the_seed():
    args = workloads.pool_args("fourier_grid", "psd", (3, 1), 7)
    assert args == workloads.pool_args("fourier_grid", "psd", (3, 1), 7)
    same = [op[:3] for op in worker.InProcess("lfactor_algebra", seed=3).next_round()]
    again = [op[:3] for op in worker.InProcess("lfactor_algebra", seed=3).next_round()]
    other = [op[:3] for op in worker.InProcess("lfactor_algebra", seed=4).next_round()]
    assert same == again != other
    assert sorted(k for k, _, _ in same) == sorted(k for k, _, _ in other)


def test_oracles_agree_with_hand_answers():
    assert oracles.is_psd([[1, 1], [1, 1]]) and not oracles.is_pd([[1, 1], [1, 1]])
    assert not oracles.is_psd([[0, 1], [1, 0]])
    assert oracles.is_pd([[2, 1], [1, 2]])
    assert oracles.same_dot_orbit((3, 3), (2, 0))  # |(2,1)| both ways
    assert not oracles.same_dot_orbit((3, 3), (3, 2))
    assert oracles.orbit_dichotomy(((9, 8, 7),))
    assert not oracles.orbit_dichotomy(((7, 6, 5),))  # bottom <= 2n: (7,6,1) survives


def test_tracer_nests_layers_and_restores_names():
    original = weyl.dominant_orbit_elements
    spans = tracing.Tracer()
    spans.install()
    try:
        assert weyl.dominant_orbit_elements is not original
        assert orbitclassify.dominant_orbit_elements is weyl.dominant_orbit_elements
        orbitclassify.theorem_main_necessary(workloads._weight(((9, 8, 7),)), 1)
    finally:
        spans.uninstall()
    assert weyl.dominant_orbit_elements is original
    assert orbitclassify.dominant_orbit_elements is original
    names = {i: spans.names[q] for i, _, q, _, _, _ in spans.spans}
    parent_of = {i: p for i, p, _, _, _, _ in spans.spans}
    enum = next(i for i, name in names.items() if name == "weyl.dominant_orbit_elements")
    assert names[parent_of[enum]] == "orbitclassify.theorem_main_necessary"
    assert spans.agg.counters["weyl.dominant_reps"] == 8
    assert spans.agg.calls["weights"] > 8 and spans.agg.calls["fourier"] == 0
    for layer, self_s in spans.agg.self_s.items():
        assert self_s >= 0, layer
