"""The four benchmark workloads: their inputs, made from the seed, and the
size of one instance.

Shared by the runner (run.py), which checks outputs, and by the worker
(worker.py), which runs one instance in a fresh interpreter.  Importing
this module imports nothing from wproj.
"""

from __future__ import annotations

import random
from fractions import Fraction

SRC_DIR = "src"
PACKAGE_INIT = "src/wproj/__init__.py"
L2_FIXTURE = "tests/fixtures/l2.wpoly"
Y_FILE = "perfbench/inputs/Y.wpoly"
WORK_DIR = ".perfbench"

NAMES = ("enum-p23", "l2-box", "scan-111", "heights-wide")

# enum-p23: every point of P(2,3) with wh <= 9/4 (20,424 of them).
P23_WEIGHTS = (2, 3)
P23_BOUND = Fraction(9, 4)

# l2-box: phase 1 of the L2 hypersurface search, the box |x_i| <= 2^{q_i}.
L2_WEIGHTS = (2, 4, 6, 10)
L2_BOUND = 2
L2_PIN = (-2, -8, 14, 1)

# scan-111: Y = [1:1:1] in P(1,2,3), S = {2}, a 2 x 2 grid of (eps, delta).
SCAN_WEIGHTS = (1, 2, 3)
SCAN_SAMPLES = 1000
SCAN_RADIUS = 1000
SCAN_PRIMES = (2,)
SCAN_EPS = (Fraction(1, 4), Fraction(1, 2))
SCAN_DELTA = (Fraction(1, 4), Fraction(1, 2))
SCAN_CODIM = 2

# heights-wide: a seeded batch of points of P(2,4,6,10), nonzero coordinates.
HEIGHTS_WEIGHTS = (2, 4, 6, 10)
HEIGHTS_POINTS = 1000
HEIGHTS_RADIUS = 10**6
HEIGHTS_S = (2, 3)

# Jobs are pinned to 1: on a 2-core shared machine a --jobs 2 run would
# measure the scheduler rather than the program.
JOBS = "1"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def cli_argv(name: str, seed: int, out_path: str) -> list[str]:
    """The wproj command line of one instance of a CLI workload."""
    if name == "enum-p23":
        return ["search", "--weights", _csv(P23_WEIGHTS), "--bound", str(P23_BOUND),
                "--jobs", JOBS, "--format", "json", "--out", out_path]
    if name == "l2-box":
        return ["search", "--weights", _csv(L2_WEIGHTS), "--bound", str(L2_BOUND),
                "--poly", L2_FIXTURE, "--no-phase2", "--jobs", JOBS,
                "--format", "json", "--out", out_path]
    if name == "scan-111":
        box = _csv([SCAN_RADIUS] * len(SCAN_WEIGHTS))
        return ["vojta-scan", "--weights", _csv(SCAN_WEIGHTS), "--poly", Y_FILE,
                "--codim", str(SCAN_CODIM), "--primes", _csv(SCAN_PRIMES),
                "--eps", _csv(SCAN_EPS), "--delta", _csv(SCAN_DELTA),
                "--samples", str(SCAN_SAMPLES), "--box", box, "--seed", str(seed),
                "--jobs", JOBS, "--out", out_path]
    raise ValueError(f"{name} is not a CLI workload")


def heights_points(seed: int) -> list[tuple[int, ...]]:
    """The point batch of heights-wide: uniform nonzero |x_i| <= 10^6."""
    rng = random.Random(seed)
    r = HEIGHTS_RADIUS
    out = []
    for _ in range(HEIGHTS_POINTS):
        coords = []
        for _ in HEIGHTS_WEIGHTS:
            c = rng.randint(1, r)
            coords.append(c if rng.random() < 0.5 else -c)
        out.append(tuple(coords))
    return out


def l2_box_size() -> int:
    """Tuples in the phase-1 box: prod (2 floor(2^{q_i}) + 1)."""
    n = 1
    for q in L2_WEIGHTS:
        n *= 2 * L2_BOUND**q + 1
    return n
