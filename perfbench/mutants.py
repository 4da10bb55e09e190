"""Shows that every output check can fail.

    python3 perfbench/mutants.py

Runs one instance of each workload (seed 1), confirms that its output passes
its check, then feeds the check mutated copies of that output (a dropped
hit, a flipped margin sign, a perturbed lwh coefficient, ...) and confirms
that each one is rejected.  Exits 0 only if every original passes and every
mutant is rejected.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import checks
import workloads as wl
from run import run_instance

SEED = 1


# -- enum-p23 ----------------------------------------------------------------


def drop_point(doc):
    doc["points"].pop()


def wrong_height(doc):
    doc["points"][100]["wh_m_power"] += 1


def same_point_twice(doc):
    # (4 x0, 8 x1) is 2 * x: another representative of the same point
    x0, x1 = doc["points"][200]["coords"]
    doc["points"][201]["coords"] = [4 * x0, 8 * x1]


def above_bound(doc):
    doc["points"][-1]["coords"] = [1, 1000]


# -- l2-box ------------------------------------------------------------------


def drop_pin(doc):
    doc["points"] = [p for p in doc["points"] if tuple(p["coords"]) != wl.L2_PIN]


def drop_sampled_hit(doc, check):
    """Drop a hit, other than the pin, that the fibre sample reaches."""
    images = check.sample_images()
    for p in doc["points"]:
        coords = tuple(p["coords"])
        if coords != wl.L2_PIN and checks.veronese(coords, wl.L2_WEIGHTS) in images:
            doc["points"].remove(p)
            return
    raise AssertionError("the fibre sample reaches no hit")


def not_a_zero(doc):
    for p in doc["points"]:
        if tuple(p["coords"]) == wl.L2_PIN:
            p["coords"] = [-2, -8, 14, 2]


def wrong_box_count(doc):
    doc["phase1_candidates"] -= 1


# -- scan-111 ----------------------------------------------------------------


def _first_margin(doc):
    for rec in doc["records"]:
        if rec["margins"]:
            return rec["margins"][0]["margin"]
    raise AssertionError("no record has margins")


def flip_margin(doc):
    m = _first_margin(doc)
    m["coeffs"] = {p: str(-Fraction(c)) for p, c in m["coeffs"].items()}
    m["const"] = str(-Fraction(m["const"]))
    d = m["decimal"]
    m["decimal"] = d[1:] if d.startswith("-") else "-" + d


def perturb_gcd_term(doc):
    for rec in doc["records"]:
        if rec["lhs"] is not None:
            rec["lhs"]["coeffs"]["2"] = str(Fraction(rec["lhs"]["coeffs"].get("2", 0)) + 1)
            return


def cell_off_by_one(doc):
    doc["cells"][0]["violations"] += 1


def drop_exceptional(doc):
    """Drop an exceptional candidate, or list a record that is none."""
    exc = doc["exceptional_candidates"]
    if exc:
        exc.pop(0)
    else:
        exc.append({"alpha": doc["records"][0]["alpha"]})


# -- heights-wide ------------------------------------------------------------


def perturb_lwh(doc):
    coeffs = doc[0]["lwh"]["coeffs"]
    p = next(iter(coeffs))
    coeffs[p] = str(Fraction(coeffs[p]) + Fraction(1, 60))


def rescaled_canonical(doc):
    # 2 * x: the same point and Veronese image, but not canonical
    doc[0]["canonical"] = [c * 2**q for c, q in zip(doc[0]["canonical"], wl.HEIGHTS_WEIGHTS)]


def other_canonical(doc):
    doc[0]["canonical"][3] += 1


def wrong_hwgcd(doc):
    doc[0]["log_hwgcd"]["coeffs"]["2"] = "1"


def s_prime_in_out_s(doc):
    out = doc[0]["out_S"]["coeffs"]
    out["2"] = str(Fraction(out.get("2", 0)) + Fraction(1, 60))
    ins = doc[0]["in_S"]["coeffs"]
    ins["2"] = str(Fraction(ins.get("2", 0)) - Fraction(1, 60))


MUTANTS = {
    "enum-p23": [drop_point, wrong_height, same_point_twice, above_bound],
    "l2-box": [drop_pin, drop_sampled_hit, not_a_zero, wrong_box_count],
    "scan-111": [flip_margin, perturb_gcd_term, cell_off_by_one, drop_exceptional],
    "heights-wide": [perturb_lwh, rescaled_canonical, other_canonical, wrong_hwgcd,
                     s_prime_in_out_s],
}


def main() -> int:
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    sys.path.insert(0, os.path.abspath(wl.SRC_DIR))
    ok = True
    for name, mutants in MUTANTS.items():
        inst = run_instance(name, SEED, False, f"{name}-mutants")
        if inst.get("error"):
            print(f"{name}: the instance failed: {inst['error']}")
            ok = False
            continue
        with open(os.path.join(wl.WORK_DIR, inst["tag"] + ".out")) as fh:
            text = fh.read()
        check = checks.checker(name, SEED)
        problems = check(text)
        print(f"{name}: original output: {'passes' if not problems else problems[:3]}")
        ok &= not problems
        for mutate in mutants:
            doc = json.loads(text)
            if mutate is drop_sampled_hit:
                mutate(doc, check)
            else:
                mutate(doc)
            found = check(json.dumps(doc))
            verdict = f"rejected: {found[0]}" if found else "ACCEPTED"
            print(f"{name}: {mutate.__name__}: {verdict}")
            ok &= bool(found)
    print("every check rejects its mutants" if ok else "SOME CHECK FAILED TO REJECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
