"""The benchmark's tracer (perfbench/tracer.py) rebinds wproj functions by
module attribute; installing it fails if a refactor renames or removes one
of the bindings it traces."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_sieve_confirmations():
    # x^2 - y^2 on P(1,1) at B = 40: a phase-1 box of 81^2 tuples, above
    # _FAST_PATH_VOLUME, whose survivors are confirmed by search._eval_terms
    script = """
import json
from fractions import Fraction
from tracer import Tracer
tracer = Tracer()
tracer.install()
from wproj import classify, parse_poly
from wproj.search import _FAST_PATH_VOLUME, SearchConfig, search
assert 81 ** 2 > _FAST_PATH_VOLUME
f = parse_poly("x^2 - y^2", {"x": 1, "y": 1})
search(SearchConfig(classify([1, 1]), Fraction(40), hypersurface=f, phase2=False))
print(json.dumps(tracer.counts))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["phase1.candidates"] == 81**2
    assert counts["phase1.flagged"] >= counts["phase1.confirmed"] > 0
