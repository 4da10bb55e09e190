"""One workload instance in a fresh interpreter, as a CLI user runs wproj.

    python3 perfbench/worker.py WORKLOAD SEED TRACE TAG

Set-up imports wproj from ./src, the modules it would otherwise import
lazily inside the timed section, and the instance's inputs; then the
instance runs once.  The worker writes the program's output to
.perfbench/TAG.out and its own measurements to .perfbench/TAG.json:
the monotonic time at which set-up ended (the runner took the time before
it started this process), the wall time of the timed section, the RSS
high-water mark read at its end, and with TRACE=1 the per-layer summary.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import workloads as wl

# search._scan_box_fast imports numpy on its first hypersurface scan.
LAZY_IMPORTS = {"l2-box": ("numpy",)}
# Read once in set-up, so that the timed section finds them in the page cache.
INPUT_FILES = {"l2-box": (wl.L2_FIXTURE,), "scan-111": (wl.Y_FILE,)}


def _flog(v) -> dict:
    return {"const": str(v.const), "coeffs": {str(p): str(c) for p, c in v.coeffs.items()}}


def main() -> int:
    name, seed, trace, tag = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    src = os.path.abspath(wl.SRC_DIR)
    sys.path.insert(0, src)
    import wproj
    import wproj.cli

    if not os.path.abspath(wproj.__file__).startswith(src + os.sep):
        print(f"wproj imported from {wproj.__file__}, not {src}", file=sys.stderr)
        return 2
    for mod in LAZY_IMPORTS.get(name, ()):
        __import__(mod)
    tracer = None
    if trace:  # before the workload binds any wproj name
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_path = os.path.join(wl.WORK_DIR, tag + ".out")
    meta_path = os.path.join(wl.WORK_DIR, tag + ".json")
    if name == "heights-wide":
        from wproj import (
            WPoint, canonicalize, classify, log_hwgcd_point, lwh, normalize, split_height_S,
        )

        w = classify(wl.HEIGHTS_WEIGHTS)
        S = set(wl.HEIGHTS_S)
        points = wl.heights_points(seed)

        def run():
            results = []
            for coords in points:
                try:
                    x = WPoint(w, coords)
                    h = lwh(x)
                    c = canonicalize(x)
                    g = log_hwgcd_point(x)
                    sh = split_height_S(normalize(x), S)
                except Exception:  # one failed point; the batch goes on
                    results.append({"coords": list(coords), "error": traceback.format_exc(limit=1)})
                    continue
                results.append({"coords": list(coords), "lwh": h, "canonical": list(c.coords),
                                "log_hwgcd": g, "in_S": sh.in_S, "out_S": sh.out_S})
            return results
    else:
        argv = wl.cli_argv(name, seed, out_path)
        for path in INPUT_FILES.get(name, ()):
            with open(path, "rb") as fh:
                fh.read()

        def run():
            return wproj.cli.main(argv)

    if tracer is not None:
        run = tracer.root(run)

    ready = time.perf_counter()
    error = None
    try:
        result = run()
    except Exception:
        result = None
        error = traceback.format_exc()
    wall = time.perf_counter() - ready
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    meta = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss_mb, "error": error}
    if name == "heights-wide":
        if result is not None:
            for r in result:
                for key in ("lwh", "log_hwgcd", "in_S", "out_S"):
                    if key in r:
                        r[key] = _flog(r[key])
            with open(out_path, "w") as fh:
                json.dump(result, fh)
    elif result != 0 and error is None:
        meta["error"] = f"exit code {result}"
    if tracer is not None:
        meta["trace"] = tracer.summary()
        tracer.write(os.path.join(wl.WORK_DIR, f"trace-{name}.npz"))
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
