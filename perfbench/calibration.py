"""Machine-speed calibration for every time the benchmark reports.

On a shared 2-core machine the speed of the same code drifts by up to a
factor of two over tens of seconds (CPU frequency and neighbour load),
which swamps the differences a change to sympl makes. So a reference
that runs no sympl code is timed right next to the measured work, and
each measured time is rescaled to the machine speed at which the
reference takes its nominal time:

    reported = measured * nominal / reference

Two references, each matched to what it scales:

- in-process work: a pure-Python kernel shaped like sympl's Fraction and
  tuple work (nominal KERNEL_S);
- work that starts an interpreter (CLI children, import timing): the
  wall time of a bare `python -c pass` (nominal SPAWN_S), which also
  follows process creation and file reads, where the kernel does not.

A slower sympl still reports slower, since neither reference runs sympl
code. The run record keeps the raw, unscaled numbers too.
"""

import subprocess
import sys
import time
from fractions import Fraction

KERNEL_S = 0.002
SPAWN_S = 0.05
REPEATS = 3


def _kernel():
    total = Fraction(0)
    seen = {}
    for k in range(1, 150):
        x = Fraction(k, 7) - Fraction(3, k)
        row = tuple(sorted((x, Fraction(k), Fraction(-k, 2)), reverse=True))
        seen[row] = abs(x)
        total += seen[row]
    return total


def kernel_sample():
    """Fastest of a few kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_sample(env, cwd):
    """Wall time of one bare interpreter start, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def scale_kernel(seconds, kernel_s):
    return seconds * KERNEL_S / kernel_s


def scale_spawn(seconds, spawn_s):
    return seconds * SPAWN_S / spawn_s
