"""Output checks made apart from the program.

Each checker recomputes what a workload's output must be from the
definitions (gcd counts, sympy's reading of the fixture text, mpmath at 60
digits, exact integer identities) and never from wproj's own height, gcd or
FormalLog code.  The one call into wproj is the fixed-point test of
``canonicalize`` in heights-wide, which is what that check is about.  Checks
run in the runner process after the timed section of each instance, so they
cannot warm the caches (sympy's factor cache, its prime sieve) of the
process that was timed.

A checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath

import workloads as wl

DIGITS = 60
# Prefix of a problem that is a raised exception rather than a wrong value.
RAISED = "raised"
MODULUS = 2**31 - 1
SIGN_FLOOR = mpmath.mpf("1e-30")


# ---------------------------------------------------------------------------
# definitions shared by the checks
# ---------------------------------------------------------------------------


def wh_m_power(coords, q) -> int:
    """wh(x)^m of an integral point, from the definition of the height.

    The archimedean factor is max_i |x_i|^{m/q_i}; at p the factor is
    p^{-min_i v_p(x_i) m/q_i}, and the product of those over p is
    1/gcd_i(|x_i|^{m/q_i}).
    """
    m = math.lcm(*q)
    ys = [abs(c) ** (m // qi) for c, qi in zip(coords, q)]
    return max(ys) // math.gcd(*ys)


def veronese(coords, q) -> tuple[int, ...]:
    """The reduced image (x_i^{m/q_i}) in P^n(Q), first nonzero entry > 0."""
    m = math.lcm(*q)
    ys = [c ** (m // qi) for c, qi in zip(coords, q)]
    g = math.gcd(*ys)
    ys = [y // g for y in ys]
    if next(y for y in ys if y != 0) < 0:
        ys = [-y for y in ys]
    return tuple(ys)


def wgcd_by_divisors(coords, q) -> int:
    """Largest d >= 1 with d^{q_i} | x_i for every nonzero x_i, by trial."""
    nz = [(abs(c), qi) for c, qi in zip(coords, q) if c != 0]
    top = min(_iroot(c, qi) for c, qi in nz)
    for d in range(top, 0, -1):
        if all(c % d**qi == 0 for c, qi in nz):
            return d
    raise AssertionError("unreachable: d = 1 divides everything")


def _iroot(n: int, k: int) -> int:
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def flog_product(doc: dict, scale: int = 1) -> Fraction:
    """prod_p p^{scale * c_p} of a serialized prime-log sum; exponents must
    be integers after scaling and the constant must be 0."""
    if Fraction(doc["const"]) != 0:
        raise ValueError(f"nonzero constant {doc['const']}")
    out = Fraction(1)
    for p, c in doc["coeffs"].items():
        e = Fraction(c) * scale
        if e.denominator != 1:
            raise ValueError(f"exponent {e} of {p} is not an integer")
        out *= Fraction(int(p)) ** int(e)
    return out


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


class LogTable:
    """log p at DIGITS digits, computed once per prime."""

    def __init__(self) -> None:
        self._logs: dict[int, mpmath.mpf] = {}

    def log(self, n: int) -> mpmath.mpf:
        v = self._logs.get(n)
        if v is None:
            with mpmath.workdps(DIGITS + 10):
                v = mpmath.log(n)
            self._logs[n] = v
        return v

    def value(self, doc: dict) -> mpmath.mpf:
        """The real value of a serialized prime-log sum."""
        with mpmath.workdps(DIGITS + 10):
            c = Fraction(doc["const"])
            total = mpmath.mpf(c.numerator) / c.denominator
            for p, coeff in doc["coeffs"].items():
                k = Fraction(coeff)
                total += self.log(int(p)) * k.numerator / k.denominator
            return total


# ---------------------------------------------------------------------------
# enum-p23
# ---------------------------------------------------------------------------


def p1_count(H: int) -> int:
    """Points of P^1(Q) of classical height <= H, by a gcd count.

    Coprime pairs 1 <= a, b <= H give 2 points each up to sign, and
    (0:1), (1:0) one each; this is 4 * sum_{n <= H} phi(n).
    """
    pairs = sum(1 for a in range(1, H + 1) for b in range(1, H + 1) if math.gcd(a, b) == 1)
    return 2 * pairs + 2


class EnumP23Check:
    def __init__(self) -> None:
        q, B = wl.P23_WEIGHTS, wl.P23_BOUND
        self.bound_m = B ** math.lcm(*q)
        # (x0 : x1) -> (x0^3 : x1^2) is a bijection P(2,3)(Q) -> P^1(Q)
        # carrying wh^6 to the classical height.
        self.expected = p1_count(math.floor(self.bound_m))

    def __call__(self, text: str) -> list[str]:
        doc = json.loads(text)
        q = wl.P23_WEIGHTS
        pts = doc["points"]
        problems = []
        if len(pts) != self.expected:
            problems.append(f"{len(pts)} points, expected {self.expected}")
        images = set()
        for p in pts:
            coords = tuple(p["coords"])
            whm = wh_m_power(coords, q)
            if whm != p["wh_m_power"] or whm > self.bound_m:
                problems.append(f"{coords}: wh^6 = {whm}, reported {p['wh_m_power']}")
            images.add(veronese(coords, q))
        if len(images) != len(pts):
            problems.append(f"{len(pts) - len(images)} points share a Veronese image")
        return problems

    def items(self, text: str) -> int:
        return len(json.loads(text)["points"])


# ---------------------------------------------------------------------------
# l2-box
# ---------------------------------------------------------------------------


def read_wpoly_terms(path: str):
    """Variable names and (coefficient, exponents) of a one-polynomial .wpoly
    file, read by sympy rather than by wproj.wpoly."""
    import sympy
    from sympy.parsing.sympy_parser import (
        implicit_multiplication_application,
        parse_expr,
        standard_transformations,
    )

    names, body = None, []
    with open(path) as fh:
        for line in fh:
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if s.lower().startswith("weights:"):
                names = [part.split("=")[0] for part in s.split(":", 1)[1].split()]
            else:
                body.append(s)
    symbols = sympy.symbols(names)
    expr = parse_expr(
        " ".join(body).replace("^", "**"),
        local_dict=dict(zip(names, symbols)),
        transformations=standard_transformations + (implicit_multiplication_application,),
    )
    poly = sympy.Poly(expr, *symbols)
    return names, [(int(c), tuple(int(e) for e in m)) for m, c in poly.terms()]


class L2BoxCheck:
    """Hits of phase 1 on the L2 box, checked against sympy's polynomial."""

    FIBRES_RANDOM = 4000

    def __init__(self, seed: int) -> None:
        self.q = wl.L2_WEIGHTS
        _, self.terms = read_wpoly_terms(wl.L2_FIXTURE)
        self.radii = [wl.L2_BOUND**qi for qi in self.q]
        self.bound_m = wl.L2_BOUND ** math.lcm(*self.q)
        self.seed = seed
        self._sample_images: set | None = None

    def f(self, point) -> int:
        total = 0
        for c, exps in self.terms:
            v = c
            for x, e in zip(point, exps):
                v *= x**e
            total += v
        return total

    def fibres(self) -> list[tuple[int, ...]]:
        """The seeded fibre sample: fibres run along the last (longest) axis.

        A seeded random draw of FIBRES_RANDOM fibres, plus every fibre with
        |x_2| <= 1, where the strata with vanishing coordinates lie.
        """
        rx, ry, rz, _ = self.radii
        rng = random.Random(self.seed)
        out = {
            (rng.randint(-rx, rx), rng.randint(-ry, ry), rng.randint(-rz, rz))
            for _ in range(self.FIBRES_RANDOM)
        }
        out.update(
            (a, b, c)
            for a in range(-rx, rx + 1)
            for b in range(-ry, ry + 1)
            for c in (-1, 0, 1)
        )
        return sorted(out)

    def sample_zeros(self) -> list[tuple[int, ...]]:
        """Every zero of f on the sampled fibres, by exact evaluation at each
        of the 2 * 2^10 + 1 values of the last coordinate.

        Each fibre's polynomial in the last coordinate is evaluated modulo
        the prime 2^31 - 1 in int64 (no product exceeds 2^62), which keeps
        every integer zero; the survivors are then confirmed over Z.
        """
        import numpy as np

        by_deg: dict[int, list] = {}
        for c, exps in self.terms:
            by_deg.setdefault(exps[3], []).append((c, exps[:3]))
        top = max(by_deg)
        rw = self.radii[3]
        ws = np.arange(-rw, rw + 1, dtype=np.int64)
        ws_mod = ws % MODULUS
        zeros = []
        for fib in self.fibres():
            coeffs = []
            for k in range(top, -1, -1):
                s = 0
                for c, exps in by_deg.get(k, ()):
                    v = c
                    for x, e in zip(fib, exps):
                        v *= x**e
                    s += v
                coeffs.append(s)
            acc = np.zeros_like(ws)
            for c in coeffs:
                acc = (acc * ws_mod + c % MODULUS) % MODULUS
            for j in np.nonzero(acc == 0)[0]:
                w = int(ws[j])
                v = 0
                for c in coeffs:
                    v = v * w + c
                if v == 0 and (any(fib) or w != 0):
                    zeros.append(fib + (w,))
        return zeros

    def sample_images(self) -> set:
        if self._sample_images is None:
            self._sample_images = {veronese(z, self.q) for z in self.sample_zeros()}
        return self._sample_images

    def __call__(self, text: str) -> list[str]:
        doc = json.loads(text)
        problems = []
        if doc["phase1_candidates"] != wl.l2_box_size():
            problems.append(
                f"{doc['phase1_candidates']} box candidates, expected {wl.l2_box_size()}"
            )
        hits = [tuple(p["coords"]) for p in doc["points"]]
        images = set()
        for p, h in zip(doc["points"], hits):
            if self.f(h) != 0:
                problems.append(f"{h}: f != 0")
            whm = wh_m_power(h, self.q)
            if whm != p["wh_m_power"] or whm > self.bound_m:
                problems.append(f"{h}: wh^60 = {whm}, reported {p['wh_m_power']}")
            images.add(veronese(h, self.q))
        if len(images) != len(hits):
            problems.append("two hits share a Veronese image")
        if wl.L2_PIN not in hits:
            problems.append(f"{wl.L2_PIN} is missing")
        missed = self.sample_images() - images
        if missed:
            problems.append(f"{len(missed)} zeros on sampled fibres match no hit")
        return problems

    def items(self, text: str) -> int:
        return wl.l2_box_size()


# ---------------------------------------------------------------------------
# scan-111
# ---------------------------------------------------------------------------


class _Terms:
    """One record's terms recomputed from alpha with mpmath, no FormalLog."""

    def __init__(self, alpha, logs: LogTable) -> None:
        a0, a1, a2 = alpha
        self.alpha = alpha
        values = [a0**2 - a1, a0**3 - a2]  # Y = V(x0^2 - x1, x0^3 - x2)
        self.on_subscheme = all(v == 0 for v in values)
        self.zero_coord = any(a == 0 for a in alpha)
        if self.on_subscheme:
            return
        self.g = math.gcd(*(abs(v) for v in values if v != 0))
        with mpmath.workdps(DIGITS + 10):
            self.lhs = logs.log(self.g) if self.g > 1 else mpmath.mpf(0)
            self.height = max(
                logs.log(abs(a)) / qi for a, qi in zip(alpha, wl.SCAN_WEIGHTS) if a != 0
            )
        if self.zero_coord:
            return
        n = abs(a0 * a1 * a2)
        for p in wl.SCAN_PRIMES:
            while n % p == 0:
                n //= p
        self.n_out = n
        m = math.lcm(*wl.SCAN_WEIGHTS)
        r = wl.SCAN_CODIM
        with mpmath.workdps(DIGITS + 10):
            self.sunit = logs.log(n) / m if n > 1 else mpmath.mpf(0)
            self.margins = {}
            for eps in wl.SCAN_EPS:
                for delta in wl.SCAN_DELTA:
                    val = self.height * _mp(eps) + self.sunit / _mp(r - 1 + delta) - self.lhs
                    self.margins[(eps, delta)] = self._sign(eps, delta, val)

    def _sign(self, eps, delta, val) -> tuple[int, mpmath.mpf]:
        if abs(val) > SIGN_FLOOR:
            return (1 if val > 0 else -1), val
        return self._exact_sign(eps, delta), val

    def _exact_sign(self, eps, delta) -> int:
        """Sign of eps*log H + log(n')/(m(r-1+delta)) - log g, exactly.

        With H = |a_i|^{1/q_i} at the argmax and D the common denominator of
        the three exponents, the sign is that of |a_i|^{D e1} n'^{D e2} - g^D.
        """
        m = math.lcm(*wl.SCAN_WEIGHTS)
        i = max(
            range(len(self.alpha)),
            key=lambda k: abs(self.alpha[k]) ** (m // wl.SCAN_WEIGHTS[k]),
        )
        e1 = eps / wl.SCAN_WEIGHTS[i]
        e2 = 1 / ((wl.SCAN_CODIM - 1 + delta) * m)
        D = math.lcm(e1.denominator, e2.denominator)
        left = abs(self.alpha[i]) ** int(D * e1) * self.n_out ** int(D * e2)
        right = self.g**D
        return (left > right) - (left < right)


class Scan111Check:
    TOL = mpmath.mpf("1e-45")

    def __init__(self) -> None:
        self.logs = LogTable()
        self._terms: dict[tuple, _Terms] = {}

    def terms(self, alpha) -> _Terms:
        t = self._terms.get(alpha)
        if t is None:
            t = self._terms[alpha] = _Terms(alpha, self.logs)
        return t

    def _close(self, doc, value, what, problems) -> None:
        if doc is None:
            problems.append(f"{what}: missing")
            return
        if abs(self.logs.value(doc) - value) > self.TOL * max(1, abs(value)):
            problems.append(f"{what}: {doc['decimal']} != {mpmath.nstr(value, 20)}")

    def __call__(self, text: str) -> list[str]:
        with mpmath.workdps(DIGITS + 10):  # negations and maxima round too
            return self._check(json.loads(text))

    def _check(self, doc: dict) -> list[str]:
        problems: list[str] = []
        q = wl.SCAN_WEIGHTS
        recs = doc["records"]
        if len(recs) != wl.SCAN_SAMPLES:
            problems.append(f"{len(recs)} records, expected {wl.SCAN_SAMPLES}")
        cells = {(e, d): [0, []] for e in wl.SCAN_EPS for d in wl.SCAN_DELTA}
        worst = {key: None for key in cells}
        exceptional = []
        zero_count = on_sub = 0
        for rec in recs:
            alpha = tuple(rec["alpha"])
            if any(abs(a) > wl.SCAN_RADIUS for a in alpha) or not any(alpha):
                problems.append(f"{alpha}: outside the sample box")
                continue
            if wgcd_by_divisors(alpha, q) != 1:
                problems.append(f"{alpha}: wgcd != 1")
            t = self.terms(alpha)
            if t.on_subscheme != rec["on_subscheme"]:
                problems.append(f"{alpha}: on_subscheme is wrong")
            if t.on_subscheme:
                on_sub += 1
                continue
            self._close(rec["lhs"], t.lhs, f"{alpha} gcd term", problems)
            self._close(rec["height_term"], t.height, f"{alpha} height term", problems)
            if t.zero_coord:
                zero_count += 1
                if rec["margins"] is not None:
                    problems.append(f"{alpha}: margins on a coordinate hyperplane")
                continue
            self._close(rec["sunit_term"], t.sunit, f"{alpha} S-unit term", problems)
            got = {
                (Fraction(m["eps"]), Fraction(m["delta"])): m["margin"]
                for m in rec["margins"] or ()
            }
            if set(got) != set(t.margins):
                problems.append(f"{alpha}: margin grid differs")
                continue
            negative_everywhere = True
            for key, (sign, val) in t.margins.items():
                self._close(got[key], val, f"{alpha} margin {key}", problems)
                reported = got[key]
                exact_zero = not reported["coeffs"] and Fraction(reported["const"]) == 0
                rsign = 0 if exact_zero else (-1 if reported["decimal"].startswith("-") else 1)
                if rsign != sign:
                    problems.append(f"{alpha} margin {key}: sign {rsign}, expected {sign}")
                cells[key][0] += 1
                if sign < 0:
                    cells[key][1].append(alpha)
                else:
                    negative_everywhere = False
                if worst[key] is None or -val > worst[key]:
                    worst[key] = -val
            if negative_everywhere:
                exceptional.append(alpha)
        if doc["zero_coordinate_count"] != zero_count:
            problems.append("zero_coordinate_count is wrong")
        if doc["on_subscheme_count"] != on_sub:
            problems.append("on_subscheme_count is wrong")
        reported_cells = {(Fraction(c["eps"]), Fraction(c["delta"])): c for c in doc["cells"]}
        if set(reported_cells) != set(cells):
            problems.append("cell grid differs")
            return problems
        for key, (considered, violating) in cells.items():
            c = reported_cells[key]
            if c["considered"] != considered or c["violations"] != len(violating):
                problems.append(
                    f"cell {key}: {c['considered']}/{c['violations']}, "
                    f"expected {considered}/{len(violating)}"
                )
            if [tuple(a) for a in c["violating_alphas"]] != sorted(violating):
                problems.append(f"cell {key}: violating tuples differ")
            if worst[key] is not None:
                self._close(c["empirical_C"], max(worst[key], 0), f"cell {key} C", problems)
        reported_exc = [tuple(c["alpha"]) for c in doc["exceptional_candidates"]]
        if reported_exc != sorted(exceptional):
            problems.append(
                f"{len(reported_exc)} exceptional candidates, expected {len(exceptional)}"
            )
        return problems

    def items(self, text: str) -> int:
        return wl.SCAN_SAMPLES


# ---------------------------------------------------------------------------
# heights-wide
# ---------------------------------------------------------------------------


class HeightsCheck:
    """Per point of the batch; a point fails on its first wrong quantity."""

    def __init__(self, seed: int) -> None:
        self.points = wl.heights_points(seed)
        self.q = wl.HEIGHTS_WEIGHTS
        self.m = math.lcm(*self.q)
        self._canon_fixed: dict[tuple, bool] = {}

    def _is_fixed_point(self, coords) -> bool:
        hit = self._canon_fixed.get(coords)
        if hit is None:
            from wproj.wpoint import WPoint, canonicalize
            from wproj.wspace import classify

            x = WPoint(classify(self.q), coords)
            hit = self._canon_fixed[coords] = canonicalize(x).coords == coords
        return hit

    def point_problem(self, coords, res) -> str | None:
        if "error" in res:
            return f"{RAISED}: {coords}: {res['error']}"
        if tuple(res["coords"]) != coords:
            return f"{coords}: result belongs to {res['coords']}"
        q, m = self.q, self.m
        try:
            if flog_product(res["lwh"], m) != wh_m_power(coords, q):
                return f"{coords}: lwh is not (1/m) log of the Veronese height"
            canon = tuple(res["canonical"])
            if veronese(canon, q) != veronese(coords, q):
                return f"{coords}: canonical form is another point"
            if not self._is_fixed_point(canon):
                return f"{coords}: canonical form is not a fixed point"
            g = wgcd_by_divisors(coords, q)
            if flog_product(res["log_hwgcd"]) != g:
                return f"{coords}: exp(log hwgcd) != wgcd {g}"
            norm = [c // g**qi for c, qi in zip(coords, q)]
            N = abs(math.prod(norm))
            total = {"const": "0", "coeffs": dict(res["out_S"]["coeffs"])}
            for p, c in res["in_S"]["coeffs"].items():
                total["coeffs"][p] = str(Fraction(total["coeffs"].get(p, 0)) + Fraction(c))
            if flog_product(total, m) != N:
                return f"{coords}: in_S + out_S != (1/m) log|N|"
            if Fraction(res["in_S"]["const"]) != 0:
                return f"{coords}: in_S has a constant"
            if any(int(p) in wl.HEIGHTS_S for p in res["out_S"]["coeffs"]):
                return f"{coords}: out_S has a prime of S"
        except ValueError as exc:
            return f"{coords}: {exc}"
        return None

    def __call__(self, text: str) -> list[str]:
        results = json.loads(text)
        if len(results) != len(self.points):
            return [f"{len(results)} results for {len(self.points)} points"] * len(self.points)
        out = []
        for coords, res in zip(self.points, results):
            problem = self.point_problem(coords, res)
            if problem:
                out.append(problem)
        return out

    def items(self, text: str) -> int:
        return len(self.points)


def checker(name: str, seed: int):
    if name == "enum-p23":
        return EnumP23Check()
    if name == "l2-box":
        return L2BoxCheck(seed)
    if name == "scan-111":
        return Scan111Check()
    if name == "heights-wide":
        return HeightsCheck(seed)
    raise ValueError(name)
