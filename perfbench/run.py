"""sympl benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload lattice_sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The benchmark imports sympl from src/
and needs nothing else. It first times `import sympl` in fresh
interpreters (setup_s), then starts one worker process that runs the
workload for --seconds and checks every answer. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the
per-layer ones. The lines before it are for people; a fuller record of
the run goes to .perfbench_out/.

Workloads: lattice_sweep, fourier_grid, lfactor_algebra, cli_cold
(see perfbench/README.md). Exit code 0 when a result was printed, 2
when the checkout holds no sympl sources or the worker failed.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import clicold

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SPAWNS = 15
DEADLINE_S = 170

WORKLOADS = ("lattice_sweep", "fourier_grid", "lfactor_algebra", "cli_cold")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Child reports its clock at start, after `import sympl` and after
# `import sympl.cli`. perf_counter is CLOCK_MONOTONIC, shared by processes.
_SETUP_PROBE = (
    "import time; t0 = time.perf_counter()\n"
    "import sympl\n"
    "t1 = time.perf_counter()\n"
    "import sympl.cli\n"
    "print(t0, t1, time.perf_counter(), sympl.__file__)\n"
)


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("self_s") or name == "trace.busy_s":
        return "s/op"
    if name.endswith(("_share", "_ratio")):
        return "share"
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name == "trace.overhead":
        return "x"
    if name in ("trace.ops", "cli.known_defect_failures"):
        return "count"
    if name == "serialize.payload_bytes":
        return "bytes/op"
    return "count/op"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # sympl receives only the generated inputs, not the caller's settings
    env.pop("SYMPL_ORBIT_CAP", None)
    return env


def run_bounded(command, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def measure_setup(env):
    """Fresh interpreters importing sympl: import seconds, start-up ms, CLI import ms.

    Each probe is rescaled by a bare interpreter start timed just before it.
    """
    imports, starts, cli_imports, raw_imports = [], [], [], []
    for _ in range(SETUP_SPAWNS):
        reference = calibration.spawn_sample(env, ROOT)
        spawned = time.perf_counter()
        code, out, err = run_bounded([sys.executable, "-c", _SETUP_PROBE], env, timeout=60)
        if code != 0:
            raise RuntimeError(f"import sympl failed: {err.decode(errors='replace').strip()}")
        t0, t1, t2, origin = out.decode().split()
        if Path(origin).resolve().parent != ROOT / "src" / "sympl":
            raise RuntimeError(f"sympl was imported from {origin}, not from src/")
        starts.append(calibration.scale_spawn(float(t0) - spawned, reference) * 1e3)
        imports.append(calibration.scale_spawn(float(t1) - float(t0), reference))
        cli_imports.append(calibration.scale_spawn(float(t2) - float(t0), reference) * 1e3)
        raw_imports.append(float(t1) - float(t0))
    return {
        "setup_s": statistics.median(imports),
        "cli.interpreter_ms": statistics.median(starts),
        "cli.import_ms": statistics.median(cli_imports),
        "raw_setup_s": statistics.median(raw_imports),
    }


def known_defects(env):
    """How many p/0 probes still end in a traceback or an exit code outside {0, 1, 2}."""
    failing = 0
    for argv in clicold.KNOWN_DEFECTS:
        code, _, err = run_bounded([sys.executable, "-m", "sympl.cli", *argv], env, timeout=60)
        failing += b"Traceback" in err or code not in (0, 1, 2)
    return failing


def commit_id():
    """The commit when the checkout is a git work tree, read without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "sympl" / "__init__.py").is_file():
        print(f"perfbench: no sympl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = measure_setup(env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: setup failed: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    command = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT_DIR)]
    try:
        code, out, err = run_bounded(command, env, timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: the worker did not finish in time", file=sys.stderr)
        return 2
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err.decode(errors="replace"))
        print(f"perfbench: the worker exited with code {code}", file=sys.stderr)
        return 2
    worker = json.loads(lines[-1])

    try:
        defects = known_defects(env)
    except subprocess.TimeoutExpired:
        defects = len(clicold.KNOWN_DEFECTS)

    e2e = dict(worker["end_to_end"], setup_s=setup["setup_s"])
    if args.trace:
        layers = dict(worker["per_layer"], **{k: v for k, v in setup.items() if k.startswith("cli.")})
        layers["cli.known_defect_failures"] = defects
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "setup": setup,
        "known_defect_failures": defects,
        **worker,
        "end_to_end": e2e,
    }
    record_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}  "
          f"cpus {record['cpu_count']}  commit {record['commit'][:12]}")
    print(f"ops attempted {worker['attempted']}  failed {worker['failed']}  "
          f"error_rate {worker['failed'] / worker['attempted']:.4f}  "
          f"samples {e2e['samples']}  rounds {e2e['rounds']}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<12} {e2e[name]:12.4f} {unit}")
    for problem in worker["failures"]:
        print(f"  failed: {problem}")
    print(f"  known defects (p/0 scalars, not counted above): {defects} of "
          f"{len(clicold.KNOWN_DEFECTS)} probes end in a traceback")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
