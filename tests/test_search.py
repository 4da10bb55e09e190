import importlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wproj import (
    DomainError,
    WPoint,
    canonicalize,
    classify,
    parse_poly,
    wh_m_power,
)
from wproj.cli import main
from wproj.search import (
    _FAST_PATH_VOLUME,
    _SIEVE_PRIME,
    PackedHits,
    SearchConfig,
    SearchHit,
    _deflation_profiles,
    _floor_pow,
    _nth_root_floor,
    _phase1_ranges,
    _scan_box,
    _scan_chunk,
    _sign_axis,
    _substituted_terms,
    _support_terms,
    brute_force_oracle,
    enumerate_bounded,
    search,
    search_hypersurface,
)
from wproj.wpoint import _lex_key, _sign_flip, _sign_key, _veronese_image, wgcd_tuple
from wproj.wpoly import _eval_terms

# the package's ``search`` is the function
search_module = importlib.import_module("wproj.search")


def _coords(points):
    return [p.coords for p in points]


class TestEnumerateBounded:
    def test_classical_line_bound_two(self):
        w = classify([1, 1])
        pts = _coords(enumerate_bounded(SearchConfig(w, Fraction(2))))
        assert set(pts) == {
            (0, 1),
            (1, 0),
            (1, 1),
            (-1, 1),
            (1, 2),
            (-1, 2),
            (2, 1),
            (-2, 1),
        }
        assert len(pts) == 8
        # sorted by exact height first
        heights = [wh_m_power(WPoint(w, c)) for c in pts]
        assert heights == sorted(heights)

    def test_weights_23_bound_one(self):
        w = classify([2, 3])
        pts = _coords(enumerate_bounded(SearchConfig(w, Fraction(1))))
        assert set(pts) == {(0, 1), (1, 0), (1, 1), (-1, 1)}

    def test_bound_below_one_empty(self):
        for q in [(1, 1), (2, 3), (1, 2, 3)]:
            cfg = SearchConfig(classify(q), Fraction(1, 2))
            assert enumerate_bounded(cfg) == []

    def test_rejects_hypersurface(self):
        w = classify([1, 1])
        f = parse_poly("x0 x1", {"x0": 1, "x1": 1})
        with pytest.raises(DomainError):
            enumerate_bounded(SearchConfig(w, Fraction(2), hypersurface=f))


class TestSearchHypersurface:
    def test_coordinate_product(self):
        w = classify([1, 1])
        f = parse_poly("x0 x1", {"x0": 1, "x1": 1})
        hits = search_hypersurface(SearchConfig(w, Fraction(2), hypersurface=f))
        assert {h.point.coords for h in hits} == {(0, 1), (1, 0)}
        assert all(h.vanishing in ((0,), (1,)) for h in hits)

    def test_requires_hypersurface(self):
        with pytest.raises(DomainError):
            search_hypersurface(SearchConfig(classify([1, 1]), Fraction(2)))

    def test_weight_mismatch_rejected(self):
        f = parse_poly("x0 x1", {"x0": 1, "x1": 1})
        with pytest.raises(DomainError):
            SearchConfig(classify([2, 3]), Fraction(2), hypersurface=f)

    def test_nonvanishing_filter(self):
        w = classify([1, 1])
        f = parse_poly("x0 x1", {"x0": 1, "x1": 1})
        hits = search_hypersurface(
            SearchConfig(
                w, Fraction(2), hypersurface=f, nonvanishing=frozenset({0})
            )
        )
        assert {h.point.coords for h in hits} == {(1, 0)}


class TestSoundnessAndOracle:
    CASES = [
        ((2, 3), Fraction(2)),
        ((1, 2), Fraction(2)),
        ((1, 2, 3), Fraction(3, 2)),
    ]

    @pytest.mark.parametrize(
        "q,B",
        CASES
        + [
            ((2, 4, 6, 10), Fraction(9, 8)),
            ((2, 2, 3), Fraction(3, 2)),
            ((4, 6), Fraction(5, 4)),
        ],
    )
    def test_soundness(self, q, B):
        # hits are built without factoring: each must still be its own
        # canonical form, of wgcd 1 (also as cached), and listed once
        w = classify(q)
        Bm = B**w.m
        for phase2 in (True, False):
            hits = search(SearchConfig(w, B, phase2=phase2)).hits
            for h in hits:
                assert h.wh_m == wh_m_power(h.point)
                assert h.wh_m <= Bm
                assert canonicalize(h.point).coords == h.point.coords
                assert wgcd_tuple(h.point.coords, w.q) == 1 == h.point.cached_wgcd
                assert h.point == WPoint(w, h.point.coords)
            assert len({h.point.coords for h in hits}) == len(hits)

    @pytest.mark.parametrize("q,B", CASES)
    def test_contains_all_in_box_points(self, q, B):
        # every canonical class reachable from the reference box is found
        w = classify(q)
        radii = [
            (B ** (qi * max(q))).numerator // (B ** (qi * max(q))).denominator
            for qi in q
        ]
        oracle = brute_force_oracle(w, B, radii)
        found = {h.point.coords for h in search(SearchConfig(w, B)).hits}
        assert oracle <= found

    def test_full_equality_weights_12(self):
        w = classify([1, 2])
        B = Fraction(2)
        found = {h.point.coords for h in search(SearchConfig(w, B)).hits}
        # with coprime weights wgcd reduction leaves |x_i| <= B^{q_i} exactly,
        # so a box of radius B^{2 q_i} certifies completeness here
        oracle = brute_force_oracle(w, B, [4, 16])
        assert found == oracle

    def test_phase2_finds_deflated_points(self):
        # (-3906, 242172) = (-2*3^2*7*31, 2^2*3^2*7*31^2) has wh^6 = 63 <= 64
        # yet lies far outside the phase-1 box |x0| <= 4, |x1| <= 8
        w = classify([2, 3])
        assert wh_m_power(WPoint(w, (-3906, 242172))) == 63
        canon = canonicalize(WPoint(w, (-3906, 242172))).coords
        found = {h.point.coords for h in search(SearchConfig(w, Fraction(2))).hits}
        assert canon in found

    def test_phase2_flag_off_misses_them(self):
        w = classify([2, 3])
        canon = canonicalize(WPoint(w, (-3906, 242172))).coords
        found = {
            h.point.coords
            for h in search(SearchConfig(w, Fraction(2), phase2=False)).hits
        }
        assert canon not in found


class TestDeterminism:
    def test_same_output_across_worker_counts(self):
        w = classify([1, 2, 3])
        runs = []
        for jobs in (1, 2, 3):
            hits = search(SearchConfig(w, Fraction(3, 2), jobs=jobs)).hits
            runs.append([(h.point.coords, h.wh_m, h.vanishing) for h in hits])
        assert runs[0] == runs[1] == runs[2]

    def test_hypersurface_across_worker_counts(self):
        w = classify([1, 1, 1])
        f = parse_poly(
            "x0^2 + x1^2 - x2^2", {"x0": 1, "x1": 1, "x2": 1}
        )
        runs = []
        for jobs in (1, 4):
            hits = search(
                SearchConfig(w, Fraction(6), hypersurface=f, jobs=jobs)
            ).hits
            runs.append([h.point.coords for h in hits])
        assert runs[0] == runs[1]
        assert (3, 4, 5) in {tuple(sorted(abs(c) for c in h)) for h in runs[0]}

    def test_sieved_box_across_worker_counts(self):
        # the phase-1 box is 29^3 = 24,389 tuples and each worker's run of
        # x0 is still above _FAST_PATH_VOLUME, so the modular sieve runs in
        # the workers
        w = classify([1, 1, 1])
        f = parse_poly("x0^2 + x1^2 - x2^2", {"x0": 1, "x1": 1, "x2": 1})
        assert 14 * 29**2 > _FAST_PATH_VOLUME
        reports = [
            search(SearchConfig(w, Fraction(14), hypersurface=f, jobs=jobs))
            for jobs in (1, 2)
        ]
        one, two = ((_summary(r.hits), r.phase1_candidates, r.phase2_candidates)
                    for r in reports)
        assert one == two
        assert (len(one[0]), one[1]) == (20, 29**3)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        # with no worker the phase-1 box scan made no runs, and a search of
        # P(2,3) at 9/4 lost its 110 phase-1 points without an error
        with pytest.raises(DomainError, match="jobs"):
            SearchConfig(classify([2, 3]), Fraction(9, 4), jobs=jobs)


class TestBruteForceOracle:
    def test_radius_zero_empty(self):
        w = classify([2, 3])
        assert brute_force_oracle(w, Fraction(2), [0, 0]) == set()

    def test_bound_one_unit_box(self):
        w = classify([2, 3])
        out = brute_force_oracle(w, Fraction(1), [1, 1])
        assert out == {
            canonicalize(WPoint(w, c)).coords
            for c in itertools.product((-1, 0, 1), repeat=2)
            if c != (0, 0)
        }


class TestReportCounters:
    def test_phase1_candidate_count(self):
        w = classify([1, 2])
        rep = search(SearchConfig(w, Fraction(2)))
        # |x0| <= 2, |x1| <= 4: 5 * 9 candidates
        assert rep.phase1_candidates == 45
        assert rep.wall_time >= 0


class TestHits:
    def test_no_dict_and_the_same_values(self):
        w = classify([1, 2, 3])
        h = SearchHit(w, (0, -5, 0), 25)
        assert not hasattr(h, "__dict__")
        assert h.point == WPoint(w, (0, -5, 0))
        assert (h.coords, h.wh_m, h.vanishing) == ((0, -5, 0), 25, (0, 2))
        assert SearchHit(w, (1, 1, 1), 1).vanishing == ()

    @staticmethod
    def _peak_per_hit(config):
        # the tracemalloc peak of the whole search, over its hit count
        search(config)  # warm every import and cache
        tracemalloc.start()
        try:
            hits = search(config).hits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return len(hits), peak / len(hits)

    def test_bytes_per_hit(self):
        # a hit is one int key and its list slot, about 45 bytes here
        config = SearchConfig(classify([2, 3]), Fraction(9, 4))
        count, per_hit = self._peak_per_hit(config)
        assert count == 20_424
        assert per_hit <= 80

    def test_bytes_per_hit_three_weights(self):
        config = SearchConfig(classify([1, 2, 3]), Fraction(5, 2))
        count, per_hit = self._peak_per_hit(config)
        assert count == 75_165
        assert per_hit <= 80

    def test_report_hits_are_a_view(self):
        w = classify([2, 3])
        hits = search(SearchConfig(w, Fraction(2))).hits
        assert isinstance(hits, PackedHits) and len(hits) == 5040
        listed = list(hits)
        assert listed[0] == hits[0] == SearchHit(w, (0, 1), 1)
        assert hits[-1] == listed[-1] and hits[4000] == listed[4000]
        assert [(h.wh_m, h.coords) for h in listed] == list(hits.decoded())

    def test_slices_are_lists_of_hits(self):
        hits = search(SearchConfig(classify([2, 3]), Fraction(3, 2))).hits
        listed = list(hits)
        for a, b, step in [
            (0, 2, None), (-5, None, None), (None, -3, 2), (-2, -40, -3),
            (None, None, -1), (7, 3, None), (-1000, 1000, 7),
        ]:
            got = hits[a:b:step]
            assert type(got) is list and got == listed[a:b:step]


# coordinates with zeros, both signs of one magnitude and values above 2^64
_hit_coordinate = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**64) - 1, 2**70, -(2**70)]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def _hit_lists(draw):
    """(w, [(coords, wh_m)]): 2-4 weights, coordinates up to 2^70 and
    wh_m up to 2^80."""
    w = classify(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    coords = st.lists(_hit_coordinate, min_size=len(w.q), max_size=len(w.q))
    # a few wh^m values, so that many hits share one
    whm = st.one_of(st.integers(0, 3), st.integers(0, 2**80))
    pairs = draw(st.lists(st.tuples(coords.filter(any), whm), max_size=30))
    # and each hit again with its signs flipped
    pairs += [([-c for c in x], k) for x, k in pairs if draw(st.booleans())]
    return w, [(tuple(x), k) for x, k in pairs]


def _packed(w, pairs):
    """The pairs packed as they arrive, from the narrowest width: each
    larger coordinate repacks the keys before it."""
    points = PackedHits(w)
    for coords, wh_m in pairs:
        points.fit(max(map(abs, coords)))
        points.add(coords, wh_m)
    return points


def _sorted_pairs(pairs):
    return sorted(pairs, key=lambda p: (p[1], _lex_key(p[0])))


class TestPackedSortKey:
    @given(_hit_lists())
    @settings(max_examples=300, deadline=None)
    def test_same_order_as_the_pair_key(self, case):
        w, pairs = case
        points = _packed(w, pairs)
        points.keys.sort()
        assert [(c, k) for k, c in points.decoded()] == _sorted_pairs(pairs)

    @given(_hit_lists())
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_pack(self, case):
        w, pairs = case
        points = _packed(w, pairs)
        assert [(c, k) for k, c in points.decoded()] == pairs
        assert [(h.coords, h.wh_m) for h in points] == pairs
        assert all(points[i] == SearchHit(w, c, k) for i, (c, k) in enumerate(pairs))

    def test_repacks_at_least_double_the_width(self):
        w = classify([1, 1])
        points = PackedHits(w)
        widths = [points.width]
        for e in range(200):
            points.fit(2**e)
            points.add((2**e, -1), e)
            if points.width != widths[-1]:
                widths.append(points.width)
        assert all(b >= 2 * a for a, b in zip(widths, widths[1:]))
        assert len(widths) <= 9
        assert list(points.decoded()) == [(e, (2**e, -1)) for e in range(200)]

    def test_named_cases(self):
        w = classify([1, 1, 1])
        big = 2**64 + 1
        pairs = [
            ((big, 0, 1), 5),
            ((-big, 0, 1), 5),
            ((0, 0, -1), 5),
            ((0, 0, 1), 5),
            ((1, -1, 0), 5),
            ((1, 1, 0), 2**70),
            ((-1, 1, 0), 0),
        ]
        points = _packed(w, pairs)
        points.keys.sort()
        got = [(c, k) for k, c in points.decoded()]
        assert got == _sorted_pairs(pairs)
        assert [c for c, _ in got[1:5]] == [(0, 0, 1), (0, 0, -1), (1, -1, 0), (big, 0, 1)]

    def test_largest_digit_does_not_carry(self):
        # -max|c| in every place gives the largest key at its wh^m, which
        # must stay below the smallest key at the next wh^m
        points = _packed(classify([1, 1]), [((0, 1), 1), ((-1, -1), 0)])
        points.keys.sort()
        assert [k for k, _ in points.decoded()] == [0, 1]


# ---------------------------------------------------------------------------
# reference: the search as it was before it built canonical points directly.
# Phase 2 yields every multiple D*y of every profile; every candidate is
# canonicalized and deduplicated afterwards.
# ---------------------------------------------------------------------------


def _reference_profiles(qs, budgets_m, m):
    levels = []
    for c in sorted({Fraction(a, q) for q in qs for a in range(1, q)}):
        e = tuple(-((-q * c.numerator) // c.denominator) for q in qs)
        cost = []
        for q, ei in zip(qs, e):
            mc = m * q * c
            assert mc.denominator == 1
            cost.append(m * ei - mc.numerator)
        levels.append((e, tuple(cost)))

    def p_max(cost, budgets):
        best = None
        for k, bud in zip(cost, budgets):
            if k == 0:
                continue
            if bud < 1:
                return 0
            r = _nth_root_floor(bud.numerator // bud.denominator, k)
            best = r if best is None else min(best, r)
        return best

    if not levels:
        return
    global_max = max(p_max(cost, budgets_m) for _, cost in levels)
    if global_max < 2:
        return
    primes = [int(p) for p in sympy.primerange(2, global_max + 1)]

    def rec(budgets, start):
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
                    yield tuple(d * s for d, s in zip(divisors, sub_div)), sub_bud

    yield from rec(tuple(budgets_m), 0)


def _reference_substituted_terms(poly, support, divisors):
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


def _reference_phase2(w, B, poly, nonvanishing):
    n = len(w.q)
    out = []
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(2, n + 1)
    ):
        if not nonvanishing <= set(support):
            continue
        d = math.gcd(*(w.q[i] for i in support))
        qs = [w.q[i] // d for i in support]
        m = math.lcm(*qs)
        budgets_m = [(B**d) ** (m * q) for q in qs]
        for divisors, residual in _reference_profiles(qs, budgets_m, m):
            radii = [_nth_root_floor(b.numerator // b.denominator, m) for b in residual]
            if any(r == 0 for r in radii):
                continue
            ranges = [[y for y in range(-r, r + 1) if y != 0] for r in radii]
            terms = _reference_substituted_terms(poly, support, divisors)
            sols, _ = _scan_box(terms, ranges, 1)
            for y in sols:
                full = [0] * n
                for pos, i in enumerate(support):
                    full[i] = divisors[pos] * y[pos]
                out.append(tuple(full))
    return out


def _reference_collect(config, raw_candidates):
    w = config.w
    Bm = config.bound**w.m
    seen = {}
    for coords in raw_candidates:
        if all(c == 0 for c in coords):
            continue
        whm = max(map(abs, _veronese_image(coords, w)))
        if whm > Bm:
            continue
        canon = canonicalize(WPoint(w, coords))
        if canon.coords not in seen:
            if config.hypersurface is not None and config.hypersurface.eval(
                canon.coords
            ) != 0:
                continue
            seen[canon.coords] = (canon, whm)
    hits = []
    for coords, (point, whm) in seen.items():
        if any(coords[i] == 0 for i in config.nonvanishing):
            continue
        hits.append(SearchHit(w, point.coords, whm))
    hits.sort(key=lambda h: (h.wh_m, _lex_key(h.point.coords)))
    return hits


def _reference_search(config):
    w, B = config.w, config.bound
    if B < 1:
        return []
    terms = config.hypersurface.terms if config.hypersurface else None
    raw, _ = _scan_box(terms, _phase1_ranges(w, B), 1)
    if config.phase2:
        raw = raw + _reference_phase2(
            w, B, config.hypersurface, config.nonvanishing
        )
    return _reference_collect(config, raw)


def _summary(hits):
    return [(h.point.coords, h.wh_m, h.vanishing) for h in hits]


# hypersurfaces by weight vector: a monomial, a binomial and a trinomial,
# each weighted homogeneous
_POLYS = {
    (1, 2): ["x0^2 - x1", "x0 x1"],
    (2, 3): ["x0^3 - x1^2", "x0^3 + x1^2"],
    (1, 2, 3): ["x0^3 - x2", "x0 x1 - x2", "x0^6 + x1^3 - 2 x2^2"],
    (2, 2, 3): ["x0^3 - x2^2", "x0 - x1"],
    (2, 4, 6): ["x0^2 - x1", "x0 x1 - x2"],
    (1, 1, 2): ["x0 x1 - x2", "x0^2 + x1^2 - x2"],
    (4, 6): ["x0^3 - x1^2"],
}


@st.composite
def _search_configs(draw):
    q = draw(st.sampled_from(sorted(_POLYS) + [(1, 1), (1, 3), (2, 4, 6, 10), (1, 2, 3, 5)]))
    B = draw(st.sampled_from([Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(4, 3),
                              Fraction(3, 2), Fraction(7, 4), Fraction(2)]))
    w = classify(q)
    poly = None
    if q in _POLYS and draw(st.booleans()):
        names = {f"x{i}": qi for i, qi in enumerate(q)}
        poly = parse_poly(draw(st.sampled_from(_POLYS[q])), names)
    nonvanishing = frozenset(
        draw(st.sets(st.integers(0, len(q) - 1), max_size=len(q) - 1))
    )
    return SearchConfig(
        w, B, hypersurface=poly, nonvanishing=nonvanishing, phase2=draw(st.booleans())
    )


def _cost(config):
    """Phase-1 box volume times a weight-lcm factor: a cheap proxy that
    keeps the slow reference below about a second per example."""
    vol = 1
    for q in config.w.q:
        r = config.bound**q
        vol *= 2 * (r.numerator // r.denominator) + 1
    return vol * (config.bound ** config.w.m if config.phase2 else 1)


def _search_collecting_only_hits(config):
    """search(config), checking that ``_collect`` receives exactly the hits:
    as many candidates before the call as hits after it."""
    collect = search_module._collect
    sizes = []

    def counted(config, candidates):
        before = len(candidates)
        hits = collect(config, candidates)
        sizes.append((before, len(hits)))
        return hits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "_collect", counted)
        report = search(config)
    assert all(before == after for before, after in sizes), sizes
    return report


class TestAgainstReference:
    @given(_search_configs())
    @settings(max_examples=150, deadline=None)
    def test_same_hits_as_reference(self, config):
        assume(_cost(config) <= 20_000)
        hits = _search_collecting_only_hits(config).hits
        assert _summary(hits) == _summary(_reference_search(config))

    @pytest.mark.parametrize(
        "q,B,phase2",
        [
            ((2, 3), Fraction(2), True),
            ((2, 3), Fraction(2), False),
            ((2, 4, 6, 10), Fraction(9, 8), True),
            ((2, 2, 3), Fraction(3, 2), True),
            ((4, 6), Fraction(5, 4), True),
            ((1, 2, 3, 5), Fraction(5, 4), True),
        ],
    )
    def test_fixed_cases(self, q, B, phase2):
        config = SearchConfig(classify(q), B, phase2=phase2)
        hits = _search_collecting_only_hits(config).hits
        assert _summary(hits) == _summary(_reference_search(config))

    @pytest.mark.parametrize(
        "q,B,phase2,nonvanishing",
        [
            ((2, 3), Fraction(2), True, {0}),
            ((2, 3), Fraction(2), False, {1}),
            ((2, 4, 6, 10), Fraction(9, 8), True, {0, 3}),
            ((2, 2, 3), Fraction(3, 2), True, {2}),
        ],
    )
    def test_fixed_cases_requiring_nonzero(self, q, B, phase2, nonvanishing):
        config = SearchConfig(
            classify(q), B, nonvanishing=frozenset(nonvanishing), phase2=phase2
        )
        hits = _search_collecting_only_hits(config).hits
        assert _summary(hits) == _summary(_reference_search(config))


# ---------------------------------------------------------------------------
# one sign pattern per point: the sign axis and the half residual box
# ---------------------------------------------------------------------------


@st.composite
def _signed_supports(draw):
    """(qs, y, q, x): x = D*y with D > 0 and y zero-free on a support
    whose reduced weights are qs, placed among zero coordinates of the full
    weights q, which are d*qs on the support."""
    qs = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    assume(math.gcd(*qs) == 1)
    d = draw(st.integers(1, 3))
    y = draw(st.lists(st.integers(-50, 50).filter(bool), min_size=len(qs), max_size=len(qs)))
    D = draw(st.lists(st.integers(1, 20), min_size=len(qs), max_size=len(qs)))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(qs) + 1, max_size=len(qs) + 1))
    q, x = [], []
    for i in range(len(qs) + 1):
        q += [draw(st.integers(1, 12)) for _ in range(gaps[i])]
        x += [0] * gaps[i]
        if i < len(qs):
            q.append(d * qs[i])
            x.append(D[i] * y[i])
    return qs, y, tuple(q), tuple(x)


def _residual_box_volume(q, B):
    """Sum over supports and deflation profiles of prod 2 r_i, the volume
    of the residual boxes, by the Fraction-budget reference walk."""
    total = 0
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(len(q)), k) for k in range(2, len(q) + 1)
    ):
        d = math.gcd(*(q[i] for i in support))
        qs = [q[i] // d for i in support]
        m = math.lcm(*qs)
        budgets_m = [(B**d) ** (m * qi) for qi in qs]
        for _, residual in _reference_profiles(qs, budgets_m, m):
            radii = [_nth_root_floor(b.numerator // b.denominator, m) for b in residual]
            if all(radii):
                total += math.prod(2 * r for r in radii)
    return total


class TestHalfBox:
    @given(_signed_supports())
    @settings(max_examples=300, deadline=None)
    def test_sign_axis_decides_sign_key(self, case):
        qs, y, q, x = case
        j = _sign_axis(qs)
        assert (y[j] > 0) == (_sign_key(x) < _sign_key(_sign_flip(x, q)))

    @pytest.mark.parametrize(
        "qs,B",
        [
            ((2, 3), Fraction(9, 4)),
            ((2, 3), Fraction(5, 2)),
            ((1, 2, 3), Fraction(3, 2)),
            ((2, 3, 5), Fraction(5, 4)),
            ((1, 2, 3, 5), Fraction(5, 4)),
            ((3, 4), Fraction(5, 4)),
        ],
    )
    def test_integer_budgets_match_reference(self, qs, B):
        m = math.lcm(*qs)
        ref = [
            (div, tuple(b.numerator // b.denominator for b in bud))
            for div, bud in _reference_profiles(qs, [B ** (m * q) for q in qs], m)
        ]
        budgets = [_floor_pow(B, m * q) for q in qs]
        got = [(div, bud) for div, bud, _ in _deflation_profiles(qs, budgets, m)]
        assert ref and got == ref

    @pytest.mark.parametrize(
        "q,B,expected",
        [((2, 3), Fraction(2), 12068), ((2, 4, 6, 10), Fraction(9, 8), None),
         ((1, 2, 3), Fraction(3, 2), None)],
    )
    def test_phase2_count_is_full_box_volume(self, q, B, expected):
        count = search(SearchConfig(classify(q), B)).phase2_candidates
        assert count == _residual_box_volume(q, B)
        if expected is not None:
            assert count == expected

    @pytest.mark.parametrize(
        "q,B,phase2",
        [
            ((2, 3), Fraction(9, 4), True),
            ((2, 3), Fraction(2), False),
            ((2, 4, 6, 10), Fraction(9, 8), True),
            ((2, 2, 3), Fraction(3, 2), True),
            ((1, 2, 3, 5), Fraction(5, 4), True),
        ],
    )
    def test_every_collect_input_is_a_hit(self, monkeypatch, q, B, phase2):
        seen = []

        def counted(config, candidates):
            hits = collect(config, candidates)
            seen.append((len(candidates), len(hits)))
            return hits

        collect = search_module._collect
        monkeypatch.setattr(search_module, "_collect", counted)
        report = search(SearchConfig(classify(q), B, phase2=phase2))
        assert seen == [(len(report.hits), len(report.hits))]


def _p1_hit_count(N):
    """Sum over d <= N of mu(d) ((2 floor(N/d) + 1)^2 - 1)/2: the points of
    P^1(Q) of classical height at most N."""
    return sum(
        sympy.mobius(d) * (((2 * (N // d) + 1) ** 2 - 1) // 2) for d in range(1, N + 1)
    )


class TestP1Count:
    """With coprime weights, (x0 : x1) -> (x0^(m/q0) : x1^(m/q1)) maps
    P(q0, q1)(Q) bijectively onto P^1(Q) and wh^m to the classical height,
    so the hit count is _p1_hit_count(floor(B^m)), a count independent of
    the scan; most of these points come from phase 2."""

    @pytest.mark.parametrize(
        "q,B,expected",
        [
            ((1, 2), Fraction(3), 112),
            ((2, 3), Fraction(2), 5040),
            ((2, 3), Fraction(9, 4), 20424),
            ((3, 4), Fraction(3, 2), 20424),
            ((2, 5), Fraction(3, 2), 4000),
            ((3, 5), Fraction(5, 4), 968),
        ],
    )
    def test_hit_count(self, q, B, expected):
        w = classify(q)
        assert _p1_hit_count(_floor_pow(B, w.m)) == expected
        assert len(search(SearchConfig(w, B)).hits) == expected


class TestSubstitution:
    @pytest.mark.parametrize("q", sorted(_POLYS))
    def test_same_terms_as_reference(self, q):
        names = {f"x{i}": qi for i, qi in enumerate(q)}
        for text in _POLYS[q]:
            f = parse_poly(text, names)
            for k in range(2, len(q) + 1):
                for support in itertools.combinations(range(len(q)), k):
                    terms = _support_terms(f, support)
                    for divisors in itertools.product((1, 2, 12), repeat=k):
                        assert _substituted_terms(terms, divisors) == (
                            _reference_substituted_terms(f, support, divisors)
                        )

    @pytest.mark.parametrize(
        "q,B,poly,supports",
        [
            ((2, 3), Fraction(9, 4), "x0^3 - x1^2", 1),
            ((1, 2, 3), Fraction(3, 2), "x0 x1 - x2", 4),
        ],
    )
    def test_support_terms_once_per_support(self, monkeypatch, q, B, poly, supports):
        # which terms survive depends on the support alone, not the profile
        calls, profiles = [], []
        support_terms = search_module._support_terms
        walk = search_module._deflation_profiles

        def counted(*args):
            calls.append(args[1])
            return support_terms(*args)

        def walked(*args):
            for item in walk(*args):
                profiles.append(item)
                yield item

        monkeypatch.setattr(search_module, "_support_terms", counted)
        monkeypatch.setattr(search_module, "_deflation_profiles", walked)
        f = parse_poly(poly, {f"x{i}": qi for i, qi in enumerate(q)})
        search(SearchConfig(classify(q), B, hypersurface=f))
        assert len(calls) == len(set(calls)) == supports
        assert len(profiles) > supports


class TestResidualScan:
    @pytest.mark.parametrize(
        "q,B,poly",
        [
            ((2, 3), Fraction(9, 4), None),
            ((2, 3), Fraction(9, 4), "x0^3 - x1^2"),
            ((4, 6), Fraction(3, 2), "x0^3 + x1^2"),
        ],
    )
    def test_exact_profile_sees_only_tuples_outside_the_box(
        self, monkeypatch, q, B, poly
    ):
        # (c) comes first: D*y in the phase-1 box is dropped before (a), (b)
        w = classify(q)
        if poly is not None:
            poly = parse_poly(poly, {"x0": q[0], "x1": q[1]})
        box = [_floor_pow(B, qi) for qi in q]
        walk = search_module._deflation_profiles
        exact = search_module._exact_profile
        divisors = []  # of the profile being scanned
        seen = []

        def profiles(*args):
            for item in walk(*args):
                divisors[:] = item[0]
                yield item

        def recorded(y, profile):
            seen.append(tuple(d * v for d, v in zip(divisors, y)))
            return exact(y, profile)

        monkeypatch.setattr(search_module, "_deflation_profiles", profiles)
        monkeypatch.setattr(search_module, "_exact_profile", recorded)
        search(SearchConfig(w, B, hypersurface=poly))
        assert seen
        assert all(any(abs(v) > r for v, r in zip(x, box)) for x in seen)

    @pytest.mark.parametrize(
        "q,B",
        [
            ((2, 3), Fraction(9, 4)),
            ((2, 2, 3), Fraction(2)),
            ((2, 4, 6), Fraction(3, 2)),
            ((1, 2, 3, 5), Fraction(5, 4)),
            ((2, 4, 6, 10), Fraction(9, 8)),
        ],
    )
    def test_no_residual_box_lies_in_the_box(self, q, B):
        """Why phase 2 never skips a profile: at an index i tight for a
        profile prime p the radius is floor(M B^q_i / D_i) with M >= p, so
        it exceeds floor(B^q_i / D_i), the largest |y_i| inside the box."""
        box = [_floor_pow(B, qi) for qi in q]
        for support in itertools.chain.from_iterable(
            itertools.combinations(range(len(q)), k) for k in range(2, len(q) + 1)
        ):
            d = math.gcd(*(q[i] for i in support))
            qs = [q[i] // d for i in support]
            m = math.lcm(*qs)
            budgets = [_floor_pow(B**d, m * qi) for qi in qs]
            for divisors, residual, profile in _deflation_profiles(qs, budgets, m):
                radii = [_nth_root_floor(b, m) for b in residual]
                for _, tight in profile:
                    for i in tight:
                        assert radii[i] > box[support[i]] // divisors[i]


# ---------------------------------------------------------------------------
# the modular sieve of boxes above _FAST_PATH_VOLUME
# ---------------------------------------------------------------------------


@st.composite
def _sieve_boxes(draw):
    """(terms, ranges) of a box above _FAST_PATH_VOLUME with some zeros: a
    planted root, or a linear factor x_i - k x_j, or no terms at all."""
    n = draw(st.integers(2, 3))
    lo = 36 if n == 2 else 9  # (2 lo)^n > 5000 even without 0
    radii = [draw(st.integers(lo, lo + 6)) for _ in range(n)]
    zero_free = draw(st.booleans())  # phase 2 leaves 0 out
    ranges = [[v for v in range(-r, r + 1) if v or not zero_free] for r in radii]
    mode = draw(st.sampled_from(["planted", "line", "empty", "multiple of P"]))
    if mode == "empty":
        return [], ranges
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-(10**300), 10**300),
                st.tuples(*[st.integers(0, 4)] * n),
            ),
            min_size=1,
            max_size=4,
        )
    )
    if mode == "line":
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-3, 3))
        unit = [tuple(int(a == b) for a in range(n)) for b in range(n)]
        terms = [
            (c * f, tuple(map(sum, zip(e, unit[v]))))
            for c, e in terms
            for f, v in ((1, i), (-k, j))
        ]
    else:
        root = tuple(draw(st.sampled_from(r)) for r in ranges)
        terms.append((-_eval_terms(terms, root), (0,) * n))
        if mode == "multiple of P":  # every tuple survives the sieve
            terms = [(c * _SIEVE_PRIME, e) for c, e in terms]
    return terms, ranges


# f = 10^301 x (34x - 35y)(34x + 35y), and a power form of the same zeros;
# a float evaluation overflowed on both (nan and OverflowError)
_HUGE_P11 = [
    f"{1156 * 10**301} x^3 - {1225 * 10**301} x y^2",
    f"{34**100} x^200 - {35**100} x^100 y^100",
]


class TestModularSieve:
    def test_prime_with_int64_headroom(self):
        P = _SIEVE_PRIME
        assert sympy.isprime(P) and P < 2**26
        # a reduced residue plus 2^11 products of two residues
        assert (P - 1) + 2**11 * (P - 1) ** 2 < 2**63

    @given(_sieve_boxes())
    @settings(max_examples=40, deadline=None)
    def test_same_zeros_as_exact_scan(self, box):
        terms, ranges = box
        volume = math.prod(map(len, ranges))
        assert volume > _FAST_PATH_VOLUME
        expected = [
            t for t in itertools.product(*ranges) if _eval_terms(terms, t) == 0
        ]
        # the sieve lists the fibres of its longest axis in turn; the
        # ranges ascend, so sorting restores itertools.product order
        sols, count = _scan_chunk((terms, ranges))
        assert (sorted(sols), count) == (expected, volume)

    @pytest.mark.parametrize("text", _HUGE_P11, ids=["nan", "overflow"])
    def test_huge_coefficients(self, text, capsys, tmp_path):
        f = parse_poly(text, {"x": 1, "y": 1})
        hits = search(SearchConfig(classify([1, 1]), Fraction(35), hypersurface=f)).hits
        assert [h.point.coords for h in hits] == [(0, 1), (35, 34), (-35, 34)]
        poly = tmp_path / "f.wpoly"
        poly.write_text(f"weights: x=1 y=1\n\n{text}\n")
        code = main(["search", "--weights", "1,1", "--bound", "35", "--poly", str(poly)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert out.splitlines()[1:] == ["0:1  wh^1=1", "35:34  wh^1=35", "-35:34  wh^1=35"]
