"""wproj's benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each instance of the workload runs
in a fresh interpreter (perfbench/worker.py), as a CLI user runs wproj, one
after another (a closed loop with one client) for about S seconds and at
least MIN_INSTANCES times (see run_loop).  The outputs are then checked apart
from the program (perfbench/checks.py).  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.

An operation is one CLI invocation for enum-p23, l2-box and scan-111 and
one point for heights-wide.  It fails if it raises, exits nonzero or fails
its check; ``correct`` is false when a check rejected an output that the
program produced without an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_INSTANCES = 3
MIN_PAIRS = 2
# A run ends within three minutes even on a stalled machine: no instance
# starts after RUN_BUDGET seconds, and none runs past INSTANCE_TIMEOUT.
RUN_BUDGET = 60.0
INSTANCE_TIMEOUT = 40.0
# One BLAS thread: numpy's import otherwise starts a second busy thread on a
# 2-core machine.  A fixed hash seed keeps set and dict layouts alike.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_instance(name: str, seed: int, trace: bool, tag: str) -> dict:
    """Start one worker and wait for it; returns its measurements."""
    meta_path = os.path.join(wl.WORK_DIR, tag + ".json")
    for stale in (meta_path, os.path.join(wl.WORK_DIR, tag + ".out")):
        if os.path.exists(stale):
            os.remove(stale)
    env = dict(os.environ, **WORKER_ENV)
    err_path = os.path.join(wl.WORK_DIR, tag + ".err")
    start = time.perf_counter()
    with open(err_path, "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, name, str(seed), "1" if trace else "0", tag],
                env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=INSTANCE_TIMEOUT,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code = "timeout"
    if code != 0 or not os.path.exists(meta_path):
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        return {"tag": tag, "error": f"worker exit {code}: {tail}"}
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["tag"] = tag
    meta["setup_s"] = meta["ready"] - start
    return meta


def run_loop(name: str, seed: int, seconds: float, traced_pairs: bool) -> list[dict]:
    """Whole instances (untraced/traced pairs if asked) for about `seconds`.

    Another round starts while its expected end, judged by the last round,
    lies less than half a round past `seconds`, so runs last `seconds` on
    average whatever the speed of the machine.
    """
    t0 = time.perf_counter()
    done: list[dict] = []
    k = 0
    last = 0.0
    minimum = MIN_PAIRS if traced_pairs else MIN_INSTANCES
    while True:
        elapsed = time.perf_counter() - t0
        if k >= minimum and elapsed + last / 2 >= seconds:
            break
        if done and elapsed > RUN_BUDGET:
            break
        started = time.perf_counter()
        done.append(run_instance(name, seed, False, f"{name}-{k}"))
        if traced_pairs:
            inst = run_instance(name, seed, True, f"{name}-{k}-traced")
            inst["traced"] = True
            done.append(inst)
        last = time.perf_counter() - started
        k += 1
    return done


def check_all(name: str, seed: int, instances: list[dict]) -> tuple[int, int, int]:
    """Check every output after the timed loop: (attempted, failed, wrong)."""
    import checks

    check = checks.checker(name, seed)
    per_instance = wl.HEIGHTS_POINTS if name == "heights-wide" else 1
    attempted = failed = wrong = 0
    verdicts: dict[str, list[str]] = {}  # identical outputs get one check
    for inst in instances:
        attempted += per_instance
        if inst.get("error"):
            failed += per_instance
            print(f"# {inst['tag']}: {inst['error'].strip()[-300:]}", file=sys.stderr)
            continue
        with open(os.path.join(wl.WORK_DIR, inst["tag"] + ".out")) as fh:
            text = fh.read()
        key = hashlib.sha256(text.encode()).hexdigest()
        if key not in verdicts:
            verdicts[key] = check(text)
        problems = verdicts[key]
        inst["items"] = check.items(text)
        bad = [p for p in problems if not p.startswith(checks.RAISED)]
        for p in problems[:5]:
            print(f"# {inst['tag']}: {p}", file=sys.stderr)
        if name == "heights-wide":
            failed += len(problems)
            wrong += len(bad)
        elif problems:
            failed += 1
            wrong += 1
    return attempted, failed, wrong


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(instances: list[dict]) -> dict:
    ok = [i for i in instances if "wall_s" in i]
    return {
        "wall_s": _metric(statistics.median(i["wall_s"] for i in ok), "s"),
        "items_per_s": _metric(
            statistics.median(i["items"] / i["wall_s"] for i in ok if "items" in i), "1/s"
        ),
        "setup_s": _metric(statistics.median(i["setup_s"] for i in ok), "s"),
        "peak_rss_mb": _metric(statistics.median(i["peak_rss_mb"] for i in ok), "MiB"),
    }


def _share(num: int, base: int) -> float:
    """num/base; 0 when the base is 0, i.e. the layer is idle on the workload."""
    return num / base if base else 0.0


# (metric, unit, span or counter read from one traced instance's summary)
def _calls(span):
    return lambda t: t["spans"][span]["calls"]


def _self(span):
    return lambda t: t["spans"][span]["self_s"]


def _count(key):
    return lambda t: t["counts"][key]


LAYER_METRICS = [
    ("exactnum.factor.calls", "count", _calls("exactnum.factor")),
    ("exactnum.factor.self_s", "s", _self("exactnum.factor")),
    ("exactnum.factor.repeat_share", "ratio",
     lambda t: _share(t["counts"]["factor.repeats"], t["spans"]["exactnum.factor"]["calls"])),
    ("exactnum.of_log.calls", "count", _calls("exactnum.of_log")),
    ("exactnum.of_log.self_s", "s", _self("exactnum.of_log")),
    ("exactnum.sign.calls", "count", _calls("exactnum.sign")),
    ("exactnum.sign.self_s", "s", _self("exactnum.sign")),
    ("exactnum.sign.first_prec_share", "ratio",
     lambda t: _share(t["counts"]["sign.first_prec"], t["counts"]["sign.base"])),
    ("exactnum.sign.max_prec_bits", "bits", _count("sign.max_prec_bits")),
    ("exactnum.decimal.calls", "count", _calls("exactnum.decimal")),
    ("exactnum.decimal.self_s", "s", _self("exactnum.decimal")),
    ("wpoint.WPoint.calls", "count", _calls("wpoint.WPoint")),
    ("wpoint.WPoint.self_s", "s", _self("wpoint.WPoint")),
    ("wpoint.canonicalize.calls", "count", _calls("wpoint.canonicalize")),
    ("wpoint.canonicalize.self_s", "s", _self("wpoint.canonicalize")),
    ("wpoint.wgcd_tuple.calls", "count", _calls("wpoint.wgcd_tuple")),
    ("wpoint.wgcd_tuple.self_s", "s", _self("wpoint.wgcd_tuple")),
    ("wheight.lwh.calls", "count", _calls("wheight.lwh")),
    ("wheight.lwh.self_s", "s", _self("wheight.lwh")),
    ("wheight.support_primes.calls", "count", _calls("wheight.support_primes")),
    ("wheight.support_primes.self_s", "s", _self("wheight.support_primes")),
    ("wheight.local_height.calls", "count", _calls("wheight.local_height")),
    ("wheight.local_height.self_s", "s", _self("wheight.local_height")),
    ("wheight.split_height_S.self_s", "s", _self("wheight.split_height_S")),
    ("wheight.log_hwgcd_point.self_s", "s", _self("wheight.log_hwgcd_point")),
    ("wpoly.eval.calls", "count", _calls("wpoly.eval")),
    ("wpoly.eval.self_s", "s", _self("wpoly.eval")),
    ("search.phase1.self_s", "s", _self("search.phase1")),
    ("search.phase1.candidates", "count", _count("phase1.candidates")),
    ("search.phase1.flagged", "count", _count("phase1.flagged")),
    ("search.phase1.confirm_share", "ratio",
     lambda t: _share(t["counts"]["phase1.confirmed"], t["counts"]["phase1.flagged"])),
    ("search.phase2.self_s", "s", _self("search.phase2")),
    ("search.phase2.candidates", "count", _count("phase2.candidates")),
    ("search.phase2.profiles", "count", _count("phase2.profiles")),
    ("search.collect.self_s", "s", _self("search.collect")),
    ("search.collect.inputs", "count", _count("collect.inputs")),
    ("search.collect.hit_share", "ratio",
     lambda t: _share(t["counts"]["collect.hits"], t["counts"]["collect.inputs"])),
    ("vojtalab.sample.self_s", "s", _self("vojtalab.sample")),
    ("vojtalab.sample.attempts", "count", _count("sample.attempts")),
    ("vojtalab.sample.accept_share", "ratio",
     lambda t: _share(t["counts"]["sample.accepted"], t["counts"]["sample.attempts"])),
    ("vojtalab.records.calls", "count", _calls("vojtalab.records")),
    ("vojtalab.records.self_s", "s", _self("vojtalab.records")),
    ("vojtalab.cells.self_s", "s", _self("vojtalab.cells")),
    ("vojtalab.to_json.self_s", "s", _self("vojtalab.to_json")),
    ("vojtalab.exceptional.self_s", "s", _self("vojtalab.exceptional")),
    ("cli.emit.self_s", "s", _self("cli.emit")),
]


def per_layer(instances: list[dict]) -> dict:
    """Medians over the traced instances, plus the tracing overhead."""
    traced = [i["trace"] for i in instances if i.get("traced") and "trace" in i]
    plain = [i["wall_s"] for i in instances if not i.get("traced") and "wall_s" in i]
    walls = [i["wall_s"] for i in instances if i.get("traced") and "wall_s" in i]
    out = {
        name: _metric(statistics.median(read(t) for t in traced), unit)
        for name, unit, read in LAYER_METRICS
    }
    out["trace.overhead_s"] = _metric(statistics.median(walls) - statistics.median(plain), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (wl.PACKAGE_INIT, wl.L2_FIXTURE, wl.Y_FILE) if not os.path.isfile(p)]
    if missing:
        print(f"not a wproj source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(wl.SRC_DIR))  # for the canonicalize fixed-point check
    os.makedirs(wl.WORK_DIR, exist_ok=True)

    instances = run_loop(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, wrong = check_all(args.workload, args.seed, instances)
    if not any("wall_s" in i for i in instances):
        print("no instance finished; nothing was measured", file=sys.stderr)
        return 1
    metrics = per_layer(instances) if args.trace else end_to_end(instances)
    for inst in instances:
        if "wall_s" in inst:
            kind = "traced" if inst.get("traced") else "plain"
            print(f"# {inst['tag']} {kind}: setup {inst['setup_s']:.3f} s, "
                  f"wall {inst['wall_s']:.3f} s, peak RSS {inst['peak_rss_mb']:.1f} MiB")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(wl.WORK_DIR, f"result-{args.workload}-{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "instances": instances, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
