"""The level map c_p = min_{x_i != 0} v_p(x_i)/q_i and everything read from
it: wgcd_tuple, canonicalize, the finite local heights, lwh, hgcd and the
phase-1 canonicity test.  Each is checked against a definition over all
primes of all coordinates, or against the per-prime loop it replaced,
kept here as a reference."""

import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wproj import INFINITE_PLACE, FormalLog, Place, WPoint, classify, hgcd, local_height, lwh
from wproj import exactnum
from wproj.exactnum import INFINITY, _int_valuation, factor, ord_plus
from wproj.wheight import _support_primes
from wproj.wpoint import _canonical_coords, _level, _levels, _sign_flip, _sign_key, _support_gcd, canonicalize, wgcd_tuple

WEIGHTS = [(1, 1), (2, 3), (1, 2, 3), (2, 4, 6, 10), (4, 6), (2, 2, 3)]

# a 50-digit semiprime: factoring it takes far longer than any test may
N = sympy.nextprime(10**24) * sympy.nextprime(2 * 10**25)


@st.composite
def tuples(draw):
    """Weights and a nonzero tuple with zeros, both signs and shared prime
    powers, so that levels of every size occur."""
    q = draw(st.sampled_from(WEIGHTS))
    base = draw(st.sampled_from([1, 2, 3, 6, 10, 12, 30, 49, 210]))
    coords = []
    for qi in q:
        if draw(st.integers(0, 3)) == 0:
            coords.append(0)
            continue
        c = base ** draw(st.integers(0, 2 * qi + 1)) * draw(st.integers(1, 60))
        coords.append(c if draw(st.booleans()) else -c)
    assume(any(coords))
    return q, tuple(coords)


def _levels_by_definition(coords, q):
    """{p: c_p} over every prime of every nonzero coordinate, keeping the
    positive levels, with valuations from sympy.factorint."""
    facs = [(sympy.factorint(abs(x)), qi) for x, qi in zip(coords, q) if x != 0]
    out = {}
    for p in sorted(set().union(*(f for f, _ in facs))):
        c = min(Fraction(f.get(p, 0), qi) for f, qi in facs)
        if c > 0:
            out[p] = c
    return out


def _wgcd_per_prime(coords, q):
    """The wgcd_tuple this module's levels replaced."""
    nz = [(abs(x), qi) for x, qi in zip(coords, q) if x != 0]
    g = math.gcd(*(x for x, _ in nz))
    if g == 1:
        return 1
    out = 1
    for p, _ in factor(g).factors:
        out *= p ** min(_int_valuation(x, p) // qi for x, qi in nz)
    return out


def _canonicalize_by_loop(coords, q):
    """The canonicalize this module's levels replaced: a while loop per prime."""
    ds = _support_gcd(coords, q)
    coords = list(coords)
    nz = [(i, abs(c)) for i, c in enumerate(coords) if c != 0]
    g = math.gcd(*(a for _, a in nz))
    for p, _ in (factor(g).factors if g > 1 else ()):
        while True:
            tnum = min(ds * _int_valuation(abs(coords[i]), p) // q[i] for i, _ in nz)
            if tnum <= 0:
                break
            for i, _ in nz:
                coords[i] //= p ** (q[i] * tnum // ds)
            nz = [(i, abs(coords[i])) for i, _ in nz]
    stage1 = tuple(coords)
    return min(stage1, _sign_flip(stage1, q), key=_sign_key)


def _lwh_over_support_primes(x):
    """The lwh this module's levels replaced: a local height per prime of
    every coordinate."""
    total = local_height(x, INFINITE_PLACE)
    for p in _support_primes(x.coords):
        total = total + local_height(x, Place(p))
    return total


def _ord_plus_oo_by_sign(a):
    v = -FormalLog.of_log(a)
    return v if v.sign() > 0 else FormalLog.zero()


def _hgcd_per_prime(a, b):
    """The hgcd this module's levels replaced: min(nu_p+(a), nu_p+(b)) per
    prime of either numerator or denominator."""
    a, b = Fraction(a), Fraction(b)
    total = FormalLog.zero()
    for p in _support_primes([a.numerator, a.denominator, b.numerator, b.denominator]):
        va = ord_plus(a, Place(p))
        vb = ord_plus(b, Place(p))
        v = vb if va is INFINITY else (va if vb is INFINITY else min(va, vb))
        if v:
            total = total + FormalLog.of_prime(p, v)
    va = INFINITY if a == 0 else _ord_plus_oo_by_sign(a)
    vb = INFINITY if b == 0 else _ord_plus_oo_by_sign(b)
    return total + (vb if va is INFINITY else (va if vb is INFINITY else min(va, vb)))


def _phase1_filter_by_canonicalize(x, w):
    """The phase-1 filter that the canonicity test replaced."""
    if math.gcd(*x) == 1:
        return _sign_key(x) < _sign_key(_sign_flip(x, w.q))
    return canonicalize(WPoint(w, x)).coords == x


def _same(got, ref):
    """Equal values with the same coefficient order, as the reports print."""
    assert got == ref
    assert list(got.coeffs.items()) == list(ref.coeffs.items())
    assert got.const == ref.const


class TestLevels:
    @settings(max_examples=300, deadline=None)
    @given(tuples())
    def test_match_definition(self, case):
        q, coords = case
        ref = _levels_by_definition(coords, q)
        got = _levels(coords, q)
        assert got == ref
        assert list(got) == sorted(got)
        for p in set(ref) | {2, 3, 5, 7}:
            assert _level(coords, q, p) == ref.get(p, 0)

    def test_examples(self):
        assert _levels((0, 8, -12), (1, 2, 3)) == {2: Fraction(2, 3)}
        assert _levels((4, 8), (2, 3)) == {2: Fraction(1)}
        assert _levels((5, 7), (1, 1)) == {}
        assert _level((0, 9, 27), (1, 2, 3), 3) == 1


class TestAgainstReplacedLoops:
    @settings(max_examples=300, deadline=None)
    @given(tuples())
    def test_wgcd_and_canonicalize(self, case):
        q, coords = case
        assert wgcd_tuple(coords, q) == _wgcd_per_prime(coords, q)
        assert canonicalize(WPoint(classify(q), coords)).coords == _canonicalize_by_loop(coords, q)

    @settings(max_examples=200, deadline=None)
    @given(tuples())
    def test_lwh_and_local_heights(self, case):
        q, coords = case
        x = WPoint(classify(q), coords)
        _same(lwh(x), _lwh_over_support_primes(x))
        for p, c in _levels(coords, q).items():
            _same(local_height(x, Place(p)), FormalLog.of_prime(p, -c))

    @settings(max_examples=300, deadline=None)
    @given(tuples())
    def test_phase1_filter(self, case):
        q, coords = case
        w = classify(q)
        keep = _canonical_coords(coords, q) == coords
        assert keep == _phase1_filter_by_canonicalize(coords, w)
        assert keep == (canonicalize(WPoint(w, coords)).coords == coords)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(max_denominator=10**4).filter(lambda v: abs(v) < 10**6),
        st.fractions(max_denominator=10**4).filter(lambda v: abs(v) < 10**6),
        st.sampled_from([1, 2, 12, 2**10, 720]),
    )
    def test_hgcd(self, a, b, k):
        # a shared factor k makes the finite part nonzero often
        a, b = a * k, b * k
        assume(a != 0 or b != 0)
        _same(hgcd(a, b), _hgcd_per_prime(a, b))


@pytest.fixture
def factor_rejects_N(monkeypatch):
    """factor, in every wproj module that binds it, raises on a multiple of N."""
    real = exactnum.factor

    def spy(n):
        if n % N == 0:
            raise AssertionError("factored a multiple of N")
        return real(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("wproj") and getattr(mod, "factor", None) is real:
            monkeypatch.setattr(mod, "factor", spy)


class TestNoNeedlessFactoring:
    def test_spy_is_installed(self, factor_rejects_N):
        with pytest.raises(AssertionError):
            FormalLog.of_log(N)

    def test_lwh_factors_only_gcd_and_archimedean_coordinate(self, factor_rejects_N):
        x = WPoint(classify([1, 1]), (2**200, N))
        assert lwh(x) == FormalLog.of_prime(2, 200)
        assert lwh(WPoint(classify([1, 1]), (-N, 2**200))) == FormalLog.of_prime(2, 200)

    def test_hgcd_of_large_integers(self, factor_rejects_N):
        assert hgcd(2**200, N) == FormalLog.zero()
        assert hgcd(6 * N, 2**200 * 3) == FormalLog.of_log(6)

    def test_ord_plus_at_infinity(self, factor_rejects_N):
        for a in (N, -N, Fraction(N, 3), Fraction(-7, 5), 1, -1):
            assert ord_plus(a, INFINITE_PLACE) == FormalLog.zero()
        assert ord_plus(Fraction(1, 6), INFINITE_PLACE) == FormalLog.of_log(6)
        assert ord_plus(Fraction(-2, 3), INFINITE_PLACE) == FormalLog.of_log(Fraction(3, 2))
        assert ord_plus(0, INFINITE_PLACE) is INFINITY
