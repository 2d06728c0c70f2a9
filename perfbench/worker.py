"""Runs one workload and prints its measurements as one JSON line.

run.py starts this file with src/ on PYTHONPATH. The loop is closed,
with one client: each operation starts after the previous one returned.
Operations are timed one by one from outside the library; each answer
is checked after its timer has stopped, and a failed check is counted,
never fatal.

The run is a sequence of rounds with the same mix of operations. With
--trace 1, rounds alternate between untraced and traced, so the same
run gives the per-layer numbers and the tracing overhead.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import calibration
import clicold
import workloads
from sympl.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 30
WARMUP_ROUNDS = 1
MAX_REPORTED_FAILURES = 20


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"no answer within {OP_TIMEOUT_S} s")


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Cursors:
    """Seeded walk over each stratum's pool: a shuffled order, then repeat it."""

    def __init__(self, rng):
        self.rng = rng
        self.walks = {}
        self.seen = set()
        self.repeats = 0

    def next(self, key, size):
        walk = self.walks.get(key)
        if walk is None:
            order = list(range(size))
            self.rng.shuffle(order)
            walk = self.walks[key] = [order, 0]
        index = walk[0][walk[1] % size]
        walk[1] += 1
        if (key, index) in self.seen:
            self.repeats += 1
        self.seen.add((key, index))
        return index


class InProcess:
    """lattice_sweep, fourier_grid and lfactor_algebra: direct library calls."""

    calibrate_every = None
    reference = staticmethod(calibration.kernel_sample)
    scale = staticmethod(calibration.scale_kernel)

    def __init__(self, workload, seed, expected=None):
        self.workload = workload
        self.kinds, template = workloads.WORKLOADS[workload]
        self.slots = [(k, s) for k, s, count in template for _ in range(count)]
        self.expected = answers.load_expected(workload) if expected is None else expected
        self.rng = random.Random(seed)
        self.cursors = Cursors(self.rng)
        self.args = {}
        self.oracle_verdicts = {}
        signal.signal(signal.SIGALRM, _alarm)

    def next_round(self):
        order = list(self.slots)
        self.rng.shuffle(order)
        ops = []
        for name, stratum in order:
            key = workloads.stratum_key(name, stratum)
            index = self.cursors.next(key, workloads.POOL_SIZE)
            if (key, index) not in self.args:
                self.args[key, index] = workloads.pool_args(self.workload, name, stratum, index)
            ops.append((name, key, index, self.args[key, index]))
        return ops

    def execute(self, op):
        """(seconds, result, None), or (seconds, None, reason) when the call failed."""
        name, key, index, args = op
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            t0 = time.perf_counter()
            try:
                result = self.kinds[name].call(*args)
            except DomainError as exc:
                result = answers.Raised(type(exc).__name__)
            t1 = time.perf_counter()
        except Exception as exc:  # any other exception, a timeout included, fails the op
            return time.perf_counter() - t0, None, f"{key}#{index}: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return t1 - t0, result, None

    def run(self, op, traced):
        seconds, result, problem = self.execute(op)
        return seconds, problem or self.check(op, result)

    def digest(self, op, result):
        name, key, index, args = op
        if isinstance(result, answers.Raised):
            return answers.digest(result)
        return answers.digest(self.kinds[name].answer(args, result))

    def check(self, op, result):
        """None when the result is right, else a one-line reason."""
        name, key, index, args = op
        kind = self.kinds[name]
        raised = isinstance(result, answers.Raised)
        if kind.expect and (not raised or result.name != kind.expect):
            return f"{key}#{index}: expected {kind.expect}, got {result!r}"
        got = self.digest(op, result)
        want = self.expected.get(key, [])[index:index + 1]
        if [got] != want:
            return f"{key}#{index}: answer {got} differs from the recorded {want}"
        if not raised and kind.oracle is not None:
            if (key, index) not in self.oracle_verdicts:
                self.oracle_verdicts[key, index] = kind.oracle(args, result)
            if self.oracle_verdicts[key, index] is False:
                return f"{key}#{index}: the independent oracle disagrees"
        return None

    def notes(self):
        notes = {"ops_per_round": len(self.slots)}
        if self.workload == "lattice_sweep":
            high = sum(1 for _, stratum in self.slots if stratum[0] >= 6)
            notes["rank_ge6_share"] = round(high / len(self.slots), 4)
        return notes


class ColdCli:
    """cli_cold: one `python -m sympl.cli` child per op, never two at once."""

    calibrate_every = 4
    scale = staticmethod(calibration.scale_spawn)

    def __init__(self, seed, file_dir, trace_dir, expected=None, tracer=None):
        self.expected = answers.load_expected("cli_cold") if expected is None else expected
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.cursors = Cursors(self.rng)
        self.order = list(clicold.REGULAR_KINDS)
        self.rng.shuffle(self.order)
        self.position = 0
        self.file_dir = file_dir
        self.trace_file = trace_dir / "cli-child-trace.json"
        self.env = dict(os.environ)
        self.json_bytes = []
        self.child_dumps = []

    def reference(self):
        return calibration.spawn_sample(self.env, ROOT)

    def _pick(self, kind):
        index = self.cursors.next(kind, clicold.pool_size(kind))
        argv, text = clicold.pool_entry(kind, index)
        if text is not None:
            path = self.file_dir / f"{kind}-{index}.txt"
            if not path.exists():
                path.write_text(text, encoding="utf-8")
            argv = [str(path) if a == "{file}" else a for a in argv]
        return kind, index, argv

    def next_round(self):
        kinds = [self.order[(self.position + t) % len(self.order)] for t in range(clicold.REGULAR_PER_ROUND)]
        self.position += clicold.REGULAR_PER_ROUND
        ops = [self._pick(kind) for kind in kinds] + [self._pick(clicold.LARGE_KIND)]
        self.rng.shuffle(ops)
        return ops

    def spawn(self, argv, traced=False):
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv]
            env = dict(self.env, PERFBENCH_TRACE_FILE=str(self.trace_file),
                       PERFBENCH_OP_ID=str(self.tracer.op_id))
        else:
            command, env = [sys.executable, "-m", "sympl.cli", *argv], self.env
        return subprocess.run(command, env=env, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)

    def run(self, op, traced):
        kind, index, argv = op
        t0 = time.perf_counter()
        try:
            proc = self.spawn(argv, traced)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"{kind}#{index}: no exit within {OP_TIMEOUT_S} s"
        elapsed = time.perf_counter() - t0
        if traced and self.trace_file.exists():
            self.child_dumps.append(json.loads(self.trace_file.read_text(encoding="utf-8")))
            self.trace_file.unlink()
        if "--json" in argv and proc.returncode == 0:
            self.json_bytes.append(len(proc.stdout))
        return elapsed, self.check(op, proc.returncode, proc.stdout, proc.stderr)

    def check(self, op, returncode, stdout, stderr):
        kind, index, argv = op
        if b"Traceback" in stderr:
            return f"{kind}#{index}: traceback on stderr"
        if returncode not in (0, 1, 2):
            return f"{kind}#{index}: exit code {returncode}"
        got = answers.digest((returncode, stdout))
        want = self.expected.get(kind, [])[index:index + 1]
        if [got] != want:
            return f"{kind}#{index}: exit code and stdout {got} differ from the recorded {want}"
        return None

    def notes(self):
        return {"ops_per_round": clicold.REGULAR_PER_ROUND + 1}


def measure(runner, seconds, trace, tracer):
    """Warm up, then run rounds until `seconds` of wall time have passed.

    The op times of a round are rescaled by the median of the reference
    samples taken in it (calibration.py): one before and one after the
    round, and one before every `calibrate_every`-th op where ops are
    long enough for the machine speed to move within a round.
    """
    attempted = failed = op_id = 0
    failures = []
    rounds = []

    def play(ops, traced, timed):
        nonlocal attempted, failed, op_id
        raw = []
        references = [runner.reference()]
        if traced and tracer is not None:
            tracer.install()
        try:
            for position, op in enumerate(ops, 1):
                op_id += 1
                if tracer is not None:
                    tracer.op_id = op_id
                if runner.calibrate_every and position % runner.calibrate_every == 0:
                    references.append(runner.reference())
                duration, problem = runner.run(op, traced)
                attempted += 1
                raw.append(duration)
                if problem is not None:
                    failed += 1
                    if len(failures) < MAX_REPORTED_FAILURES:
                        failures.append(problem)
        finally:
            if traced and tracer is not None:
                tracer.uninstall()
        references.append(runner.reference())
        if timed:
            reference = statistics.median(references)
            latencies = [runner.scale(t, reference) for t in raw]
            rounds.append({"ops": len(ops), "busy_s": sum(latencies), "raw_busy_s": sum(raw),
                           "reference_s": reference, "traced": traced, "latencies": latencies})

    if isinstance(runner, InProcess):
        for _ in range(WARMUP_ROUNDS):
            play(runner.next_round(), traced=False, timed=False)
    # The benchmark's own objects should not lengthen sympl's collections.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    # a traced run needs at least one untraced and one traced round
    while time.perf_counter() - start < seconds or len(rounds) < (2 if trace else 1):
        play(runner.next_round(), traced=trace and len(rounds) % 2 == 1, timed=True)
    return rounds, attempted, failed, failures, time.perf_counter() - start


def end_to_end(rounds):
    """Median over all ops; the tail percentiles are medians over rounds.

    Every round has the same mix of operations, so a round's p90 and p99
    are well-defined figures of that mix; their median over rounds keeps
    one slow op or one slow round from moving the tail.
    """
    latencies = sorted(x for r in rounds for x in r["latencies"])

    def tail(q):
        return statistics.median(nearest_rank(sorted(r["latencies"]), q) for r in rounds)

    return {
        "ops_per_s": statistics.median(r["ops"] / r["busy_s"] for r in rounds),
        "op_p50_ms": nearest_rank(latencies, 0.50) * 1e3,
        "op_p90_ms": tail(0.90) * 1e3,
        "op_p99_ms": tail(0.99) * 1e3,
        "samples": len(latencies),
        "rounds": len(rounds),
        "raw_ops_per_s": statistics.median(r["ops"] / r["raw_busy_s"] for r in rounds),
        "reference_ms": statistics.median(r["reference_s"] for r in rounds) * 1e3,
    }


def per_layer(agg, traced_rounds, untraced_rounds):
    """Per-op work and self time over the traced rounds, plus the tracing overhead.

    Self times get the traced rounds' mean calibration factor, so they
    add up to `trace.busy_s` like the op times they are part of.
    """
    ops = sum(r["ops"] for r in traced_rounds)
    busy = sum(r["busy_s"] for r in traced_rounds)
    factor = busy / sum(r["raw_busy_s"] for r in traced_rounds)
    out = {}
    for layer in agg.calls:
        out[f"{layer}.calls"] = agg.calls[layer] / ops
        out[f"{layer}.self_s"] = agg.self_s[layer] * factor / ops
        out[f"{layer}.rejections"] = agg.rejections[layer] / ops
    c = agg.counters
    for name in ("weights.built", "weyl.dominant_reps", "orbitclassify.levels", "embeddings.round_trips",
                 "fourier.matrices_tested", "fourier.grid_points_built", "laurent.evaluations",
                 "laurent.term_products"):
        out[name] = c.get(name, 0) / ops
    built = c.get("fourier.grid_points_built", 0)
    out["fourier.pit_points_ratio"] = c.get("fourier.pit_points_evaluated", 0) / built if built else 0.0
    eq_calls = c.get("lfactors.eq_calls", 0)
    out["lfactors.eq_structural_share"] = c.get("lfactors.eq_structural", 0) / eq_calls if eq_calls else 0.0
    traced_rate = statistics.median(r["ops"] / r["busy_s"] for r in traced_rounds)
    untraced_rate = statistics.median(r["ops"] / r["busy_s"] for r in untraced_rounds)
    out["trace.busy_s"] = busy / ops
    out["trace.ops_per_s"] = traced_rate
    out["trace.untraced_ops_per_s"] = untraced_rate
    out["trace.overhead"] = untraced_rate / traced_rate
    out["trace.ops"] = ops
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import sympl
    if Path(sympl.__file__).resolve().parent != ROOT / "src" / "sympl":
        print(f"worker: sympl was imported from {sympl.__file__}, not from src/", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    if args.workload == "cli_cold":
        file_dir = args.out_dir / f"cli-files-{os.getpid()}"
        file_dir.mkdir(parents=True, exist_ok=True)
        runner = ColdCli(args.seed, file_dir, args.out_dir, tracer=tracer)
    else:
        runner = InProcess(args.workload, args.seed)

    rounds, attempted, failed, failures, wall = measure(runner, args.seconds, bool(args.trace), tracer)
    untraced = [r for r in rounds if not r["traced"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured_wall_s": wall,
        "end_to_end": end_to_end(untraced),
        "notes": runner.notes(),
        "rounds": [dict(r, latencies=[round(t, 7) for t in r["latencies"]]) for r in rounds],
    }
    result["notes"]["pool_repeat_share"] = round(runner.cursors.repeats / max(1, attempted), 4)

    if args.workload == "cli_cold":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        for child in runner.child_dumps if tracer else ():
            tracer.agg.merge(child["aggregate"])
        for path in file_dir.iterdir():
            path.unlink()
        file_dir.rmdir()
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result["end_to_end"]["peak_rss_mb"] = usage.ru_maxrss / 1024

    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        layers = per_layer(tracer.agg, traced, untraced)
        payload = runner.json_bytes if args.workload == "cli_cold" else []
        layers["serialize.payload_bytes"] = statistics.mean(payload) if payload else 0.0
        result["per_layer"] = layers
        trace_path = args.out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        if args.workload == "cli_cold":
            dump = {"aggregate": tracer.agg.as_dict(), "children": runner.child_dumps}
            trace_path.write_text(json.dumps(dump), encoding="utf-8")
        else:
            tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
