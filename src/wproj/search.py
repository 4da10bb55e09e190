"""Complete enumeration of bounded-weighted-height rational points and
hypersurface point search.

Completeness strategy (two phases).  Phase 1 scans the base box
|x_i| <= floor(B^{q_i}), which contains every point whose finite
local-height factors are trivial.  A canonical point can still satisfy
wh <= B outside that box when primes divide all of its nonzero
coordinates ("deflation": the finite places contribute p^{-c_p} with
c_p = min_i v_p(x_i)/q_i > 0).  Phase 2 enumerates per-prime valuation
patterns e with 0 < c = min e_i/q_i < 1/d_S (patterns proportional to the
weights are impossible in that range, so a positive budget gap always
exists and the admissible primes form a finite list), composing several
primes recursively over increasing p with a multiplicative budget.  Every
candidate is then verified exactly, canonicalized, and deduplicated, so
phase overlap is harmless and soundness never rests on the generator.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import sympy

from .exactnum import DomainError
from .wpoint import WPoint, _lex_key, _veronese_image, canonicalize
from .wpoly import WPoly, _eval_terms
from .wspace import WeightVector

_FAST_PATH_VOLUME = 5_000


@dataclass(frozen=True)
class SearchConfig:
    w: WeightVector
    bound: Fraction
    hypersurface: WPoly | None = None
    nonvanishing: frozenset[int] = frozenset()
    jobs: int = 1
    phase2: bool = True

    def __post_init__(self) -> None:
        if self.hypersurface is not None and self.hypersurface.weights != self.w.q:
            raise DomainError("hypersurface weights do not match the search weights")


@dataclass(frozen=True)
class SearchHit:
    point: WPoint
    wh_m: int
    vanishing: tuple[int, ...]


@dataclass
class SearchReport:
    config: SearchConfig
    hits: list[SearchHit]
    phase1_candidates: int
    phase2_candidates: int
    wall_time: float


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def _floor_pow(B: Fraction, e: int) -> int:
    v = B**e
    return v.numerator // v.denominator


def _nth_root_floor(n: int, k: int) -> int:
    if n < 0:
        raise ValueError
    r, _ = sympy.integer_nthroot(n, k)
    return int(r)


def _sort_key(hit_coords: tuple[int, ...], whm: int):
    return (whm, _lex_key(hit_coords))


# ---------------------------------------------------------------------------
# box scanning
# ---------------------------------------------------------------------------


def _scan_box_exact(terms, ranges) -> list[tuple[int, ...]]:
    out = []
    for tup in itertools.product(*ranges):
        if terms is None or _eval_terms(terms, tup) == 0:
            out.append(tup)
    return out


def _scan_box_fast(terms, ranges) -> list[tuple[int, ...]]:
    """Float prefilter along the longest axis, with exact confirmation.

    For exact zeros the float evaluation error is far below the threshold
    (relative ~1e-14 of the largest term), so no root is missed; flagged
    near-zeros are re-evaluated exactly.
    """
    import numpy as np

    axis = max(range(len(ranges)), key=lambda i: len(ranges[i]))
    wvals = np.array(ranges[axis], dtype=np.float64)
    wpow: dict[int, object] = {}
    grouped: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for coeff, exps in terms:
        rest = exps[:axis] + exps[axis + 1 :]
        grouped.setdefault(exps[axis], []).append((coeff, rest))
    for e in grouped:
        wpow[e] = wvals**e
    other_ranges = ranges[:axis] + ranges[axis + 1 :]
    out = []
    wmax = max((abs(v) for v in ranges[axis]), default=0)
    for combo in itertools.product(*other_ranges):
        acc = np.zeros_like(wvals)
        scale = 0.0
        overflow = False
        for e, sub in grouped.items():
            g = 0
            for coeff, rest in sub:
                v = coeff
                for x, ee in zip(combo, rest):
                    if ee:
                        v *= x**ee
                g += v
            if g:
                try:
                    gf = float(g)
                except OverflowError:
                    overflow = True
                    break
                acc += gf * wpow[e]
                scale = max(scale, abs(gf) * float(wmax) ** e)
        if overflow:
            # coefficients exceed float range on this fiber; evaluate exactly
            for wv in ranges[axis]:
                tup = combo[:axis] + (wv,) + combo[axis:]
                if _eval_terms(terms, tup) == 0:
                    out.append(tup)
            continue
        if scale == 0.0:
            # polynomial vanishes identically on this fiber
            for wv in ranges[axis]:
                out.append(combo[:axis] + (wv,) + combo[axis:])
            continue
        idx = np.nonzero(np.abs(acc) <= 1e-9 * scale)[0]
        for j in idx:
            wv = ranges[axis][int(j)]
            tup = combo[:axis] + (wv,) + combo[axis:]
            if _eval_terms(terms, tup) == 0:
                out.append(tup)
    return out


def _scan_chunk(args) -> tuple[list[tuple[int, ...]], int]:
    """Worker: scan a sub-box; returns (solutions, candidate count)."""
    terms, ranges = args
    volume = 1
    for r in ranges:
        volume *= len(r)
    if terms is not None and volume > _FAST_PATH_VOLUME:
        return _scan_box_fast(terms, ranges), volume
    return _scan_box_exact(terms, ranges), volume


def _scan_box(terms, ranges, jobs: int) -> tuple[list[tuple[int, ...]], int]:
    if any(len(r) == 0 for r in ranges):
        return [], 0
    if jobs <= 1 or len(ranges[0]) < 2:
        return _scan_chunk((terms, ranges))
    first = ranges[0]
    # one worker per nonempty chunk
    k = min(jobs, len(first))
    work = [(terms, [first[i::k]] + list(ranges[1:])) for i in range(k)]
    sols: list[tuple[int, ...]] = []
    count = 0
    with ProcessPoolExecutor(max_workers=k) as pool:
        for part, n in pool.map(_scan_chunk, work):
            sols.extend(part)
            count += n
    sols.sort()
    return sols, count


# ---------------------------------------------------------------------------
# phase 2: deflation profiles
# ---------------------------------------------------------------------------


def _c_candidates(qs: Sequence[int], ds: int) -> list[Fraction]:
    limit = Fraction(1, ds)
    out = set()
    for q in qs:
        a = 1
        while Fraction(a, q) < limit:
            out.add(Fraction(a, q))
            a += 1
    return sorted(out)


def _deflation_profiles(
    qs: Sequence[int],
    ds: int,
    budgets_m: Sequence[Fraction],
    m: int,
    p_min: int,
) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """All nonempty multi-prime deflation profiles (divisors, residual budgets).

    For a deflation level c only the minimal exponents e_i = ceil(q_i c)
    are needed: any point with higher p-valuation is a multiple of the
    minimal divisor and already lies inside the residual box.  Per node
    the largest admissible prime for each c is obtained directly by root
    extraction from the budgets, so only feasible (p, c) pairs are ever
    visited.
    """
    levels = []
    for c in _c_candidates(qs, ds):
        e = tuple(-((-q * c.numerator) // c.denominator) for q in qs)  # ceil
        cost = []
        for q, ei in zip(qs, e):
            mc = m * q * c
            assert mc.denominator == 1
            cost.append(m * ei - mc.numerator)
        levels.append((e, tuple(cost)))

    def p_max(cost: tuple[int, ...], budgets: Sequence[Fraction]) -> int:
        # largest p with p^cost_i <= budgets_i for every i; some cost_i > 0
        best = None
        for k, bud in zip(cost, budgets):
            if k == 0:
                continue
            if bud < 1:
                return 0
            r = _nth_root_floor(bud.numerator // bud.denominator, k)
            best = r if best is None else min(best, r)
        assert best is not None  # reduced weights exclude all-integral q*c
        return best

    if not levels:
        # all weights equal after reduction: no fractional deflation exists
        return
    global_max = max(p_max(cost, budgets_m) for _, cost in levels)
    if global_max < p_min:
        return
    primes = [int(p) for p in sympy.primerange(p_min, global_max + 1)]

    def rec(
        budgets: tuple[Fraction, ...], start: int
    ) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
        bounds = [p_max(cost, budgets) for _, cost in levels]
        cap = max(bounds)
        for idx in range(start, len(primes)):
            p = primes[idx]
            if p > cap:
                break
            for (e, cost), bnd in zip(levels, bounds):
                if p > bnd:
                    continue
                new_budgets = tuple(
                    bud / Fraction(p) ** k for bud, k in zip(budgets, cost)
                )
                divisors = tuple(p**ei for ei in e)
                yield divisors, new_budgets
                for sub_div, sub_bud in rec(new_budgets, idx + 1):
                    yield tuple(
                        d * s for d, s in zip(divisors, sub_div)
                    ), sub_bud

    yield from rec(tuple(budgets_m), 0)


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------


def _phase1_ranges(w: WeightVector, B: Fraction) -> list[list[int]]:
    out = []
    for q in w.q:
        r = _floor_pow(B, q)
        out.append(list(range(-r, r + 1)))
    return out


def _substituted_terms(poly: WPoly | None, support, divisors):
    """Restrict f to a support (others = 0) and absorb coordinate divisors."""
    if poly is None:
        return None
    terms = []
    for coeff, exps in poly.terms:
        if any(exps[i] > 0 for i in range(len(exps)) if i not in support):
            continue
        c = coeff
        sub = []
        for pos, i in enumerate(support):
            c *= divisors[pos] ** exps[i]
            sub.append(exps[i])
        terms.append((c, tuple(sub)))
    return terms


def _phase2_candidates(
    w: WeightVector,
    B: Fraction,
    poly: WPoly | None,
    jobs: int,
    nonvanishing: frozenset[int] = frozenset(),
) -> tuple[list[tuple[int, ...]], int]:
    """Deflation-phase candidates, all supports, actual coordinates.

    Each support is handled in its reduced weight system q_i/d with bound
    B^d (the rescaling law lwh_{d*q} = (1/d) lwh_q makes this exact): the
    smaller weight lcm keeps the exponent lattice of the deflation
    profiles small.
    """
    n = len(w.q)
    out: list[tuple[int, ...]] = []
    count = 0
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(2, n + 1)
    ):
        if not nonvanishing <= set(support):
            # every candidate here has a required-nonzero coordinate at 0
            continue
        d = math.gcd(*(w.q[i] for i in support))
        qs = [w.q[i] // d for i in support]
        Bred = B**d
        m = math.lcm(*qs)
        budgets_m = [Bred ** (m * q) for q in qs]
        for divisors, residual in _deflation_profiles(qs, 1, budgets_m, m, 2):
            radii = [_nth_root_floor(b.numerator // b.denominator, m) for b in residual]
            if any(r == 0 for r in radii):
                continue
            ranges = [
                [y for y in range(-r, r + 1) if y != 0] for r in radii
            ]
            terms = _substituted_terms(poly, support, divisors)
            sols, c = _scan_box(terms, ranges, jobs=1)
            count += c
            for y in sols:
                full = [0] * n
                for pos, i in enumerate(support):
                    full[i] = divisors[pos] * y[pos]
                out.append(tuple(full))
    return out, count


def _collect(
    config: SearchConfig, raw_candidates: Iterable[tuple[int, ...]]
) -> list[SearchHit]:
    """Exact wh filter, canonicalization, dedup, nonvanishing filter, sort."""
    w = config.w
    Bm = config.bound**w.m
    seen: dict[tuple[int, ...], tuple[WPoint, int]] = {}
    for coords in raw_candidates:
        if all(c == 0 for c in coords):
            continue
        whm = max(map(abs, _veronese_image(coords, w)))
        if whm > Bm:
            continue
        canon = canonicalize(WPoint(w, coords))
        if canon.coords not in seen:
            # hypersurface membership survives canonicalization (homogeneity),
            # but re-verify to keep soundness independent of that argument
            if config.hypersurface is not None and config.hypersurface.eval(
                canon.coords
            ) != 0:
                continue
            # wh is invariant under the scaling action: canon has wh^m = whm
            seen[canon.coords] = (canon, whm)
    hits = []
    for coords, (point, whm) in seen.items():
        if any(coords[i] == 0 for i in config.nonvanishing):
            continue
        vanishing = tuple(i for i, c in enumerate(coords) if c == 0)
        hits.append(SearchHit(point, whm, vanishing))
    hits.sort(key=lambda h: _sort_key(h.point.coords, h.wh_m))
    return hits


def search(config: SearchConfig) -> SearchReport:
    """Run the bounded-height search (with or without a hypersurface)."""
    import time

    t0 = time.monotonic()
    w, B = config.w, config.bound
    hits: list[SearchHit] = []
    p1_count = p2_count = 0
    if B >= 1:
        terms = config.hypersurface.terms if config.hypersurface else None
        sols, p1_count = _scan_box(terms, _phase1_ranges(w, B), config.jobs)
        raw = list(sols)
        if config.phase2:
            extra, p2_count = _phase2_candidates(
                w, B, config.hypersurface, config.jobs, config.nonvanishing
            )
            raw.extend(extra)
        hits = _collect(config, raw)
    return SearchReport(
        config=config,
        hits=hits,
        phase1_candidates=p1_count,
        phase2_candidates=p2_count,
        wall_time=time.monotonic() - t0,
    )


def enumerate_bounded(config: SearchConfig) -> list[WPoint]:
    """All canonical points of P_w(Q) with wh <= B, sorted canonically."""
    if config.hypersurface is not None:
        raise DomainError("enumerate_bounded takes no hypersurface; use search")
    return [h.point for h in search(config).hits]


def search_hypersurface(config: SearchConfig) -> list[SearchHit]:
    """Canonical points on V(f) with wh <= B, with exact wh^m and vanishing
    pattern per hit."""
    if config.hypersurface is None:
        raise DomainError("search_hypersurface requires a hypersurface")
    return search(config).hits


def brute_force_oracle(
    w: WeightVector, B: Fraction, box_radii: Sequence[int]
) -> set[tuple[int, ...]]:
    """Certification oracle: canonical forms of every in-box tuple with
    wh <= B.  Used to validate enumerate_bounded on small instances.

    Complete only inside its box: canonical points of height <= B can lie
    outside it.  For example (-3906, 242172) in P(2,3) has wh^6 = 63, so
    wh <= 2, yet lies outside the radius-B^{q_i * max q} box (64, 512)."""
    Bm = B**w.m
    out: set[tuple[int, ...]] = set()
    ranges = [range(-r, r + 1) for r in box_radii]
    for tup in itertools.product(*ranges):
        if all(c == 0 for c in tup):
            continue
        if max(map(abs, _veronese_image(tup, w))) <= Bm:
            out.add(canonicalize(WPoint(w, tup)).coords)
    return out
