import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wproj import (
    DomainError,
    WPoint,
    act,
    canonicalize,
    classify,
    equals,
    integralize,
    normalize,
    parse_point,
    veronese,
    wgcd,
    wgcd_tuple,
)
from wproj import exactnum, wpoint
from wproj.wpoint import _lex_key


def _full_veronese(coords, w):
    """Equality oracle: the image under ALL monomials of weighted degree m.

    The degree-m Veronese is a closed embedding of P_w, so this separates
    points; gcd reduction + leading-sign normalization make it a canonical
    classical-projective representative.  Independent of canonicalize.
    """
    m = w.m
    n = len(w.q)
    exps = []

    def rec(i, remaining, cur):
        if i == n:
            if remaining == 0:
                exps.append(tuple(cur))
            return
        e = 0
        while e * w.q[i] <= remaining:
            rec(i + 1, remaining - e * w.q[i], cur + [e])
            e += 1

    rec(0, m, [])
    img = []
    for ev in sorted(exps):
        v = 1
        for c, e in zip(coords, ev):
            v *= c**e
        img.append(v)
    g = math.gcd(*img)
    img = [v // g for v in img]
    for v in img:
        if v != 0:
            if v < 0:
                img = [-x for x in img]
            break
    return tuple(img)


class TestWPoint:
    def test_invariants(self):
        w = classify([2, 4])
        with pytest.raises(DomainError):
            WPoint(w, (0, 0))
        with pytest.raises(DomainError):
            WPoint(w, (1,))
        assert WPoint(w, (8, 16)).cached_wgcd == 2
        assert WPoint(w, (0, 4)).support() == (1,)

    def test_wgcd_factored_once_when_first_read(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return exactnum.factor(n)

        bindings = [k for k, v in vars(wpoint).items() if v is exactnum.factor]
        assert bindings
        for name in bindings:
            monkeypatch.setattr(wpoint, name, spy)
        w = classify([2, 3])
        x = WPoint(w, (8, 16))
        assert calls == []  # building a point factors nothing
        assert wgcd(x) == 2
        assert len(calls) == 1
        assert wgcd(x) == 2 and x.cached_wgcd == 2
        assert len(calls) == 1
        # the wgcd read or not, equal points compare equal and hash alike
        y, z = WPoint(w, (8, 16)), WPoint(w, (8, 16))
        assert x == y == z
        assert hash(x) == hash(y) == hash(z)
        assert len(calls) == 1


class TestIntegralize:
    def test_examples(self):
        w = classify([2, 4])
        assert integralize([Fraction(1, 2), Fraction(1, 4)], w).coords == (2, 4)
        assert integralize([3, 7], w).coords == (3, 7)
        w12 = classify([1, 2])
        assert integralize([Fraction(1, 3), 1], w12).coords == (1, 9)
        with pytest.raises(DomainError):
            integralize([0, 0], w)

    def test_minimality(self):
        # the chosen lambda is minimal: lambda/p breaks integrality for
        # every prime p | lambda
        import sympy

        rng = random.Random(17)
        w = classify([1, 2, 3])
        for _ in range(200):
            coords = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3)
            ]
            if all(c == 0 for c in coords):
                continue
            pt = integralize(coords, w)
            i = next(j for j, c in enumerate(coords) if c != 0)
            lam_q = Fraction(pt.coords[i]) / coords[i]
            assert lam_q.denominator == 1
            lam, exact = sympy.integer_nthroot(lam_q.numerator, w.q[i])
            assert exact
            assert all(
                (c * Fraction(lam) ** q).denominator == 1
                for c, q in zip(coords, w.q)
            )
            for p in sympy.primefactors(int(lam)):
                smaller = Fraction(int(lam), p)
                assert any(
                    (c * smaller**q).denominator != 1
                    for c, q in zip(coords, w.q)
                )


class TestWgcd:
    def test_examples(self):
        assert wgcd(WPoint(classify([2, 4]), (8, 16))) == 2
        assert wgcd(WPoint(classify([2, 4]), (1, 16))) == 1
        assert wgcd(WPoint(classify([1, 2, 3]), (12, 144, 1728))) == 12

    def test_divisor_definition_oracle(self):
        # largest g with g^{q_i} | x_i, by direct search
        rng = random.Random(31)
        w = classify([1, 2, 3])
        for _ in range(500):
            coords = tuple(rng.randint(-500, 500) for _ in range(3))
            if all(c == 0 for c in coords):
                continue
            g = wgcd_tuple(coords, w.q)
            assert all(c % g**q == 0 for c, q in zip(coords, w.q) if c != 0)
            for cand in range(g + 1, g + 10):
                assert not all(
                    c % cand**q == 0 for c, q in zip(coords, w.q) if c != 0
                ) or all(c == 0 for c in coords)

    def test_zero_coordinate_unconstrained(self):
        assert wgcd_tuple((0, 16), (2, 4)) == 2
        assert wgcd_tuple((0, 8), (2, 3)) == 2
        assert wgcd_tuple((1, 0, 64), (1, 2, 3)) == 1


class TestNormalize:
    def test_examples(self):
        w = classify([2, 4])
        assert normalize(WPoint(w, (8, 16))).coords == (2, 1)
        assert normalize(WPoint(w, (2, 1))).coords == (2, 1)
        w123 = classify([1, 2, 3])
        assert normalize(WPoint(w123, (12, 144, 1728))).coords == (1, 1, 1)

    def test_idempotent_and_wgcd_one(self):
        rng = random.Random(13)
        w = classify([2, 3])
        for _ in range(300):
            coords = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
            if coords == (0, 0):
                continue
            y = normalize(WPoint(w, coords))
            assert y.cached_wgcd == 1
            assert normalize(y).coords == y.coords


class TestCanonicalize:
    def test_examples(self):
        w = classify([2, 4, 6, 10])
        assert canonicalize(WPoint(w, (3, 9, 27, 243))).coords == (1, 1, 1, 1)
        assert canonicalize(WPoint(w, (-1, 1, -1, -1))).coords == (1, 1, 1, 1)

    def test_idempotent(self):
        rng = random.Random(19)
        for q in [(2, 3), (2, 4), (1, 2, 3), (2, 4, 6, 10)]:
            w = classify(q)
            for _ in range(200):
                coords = tuple(rng.randint(-50, 50) for _ in q)
                if all(c == 0 for c in coords):
                    continue
                c1 = canonicalize(WPoint(w, coords))
                assert canonicalize(c1).coords == c1.coords

    @pytest.mark.parametrize("q,radius", [((2, 3), 10), ((2, 4), 10), ((1, 2), 12)])
    def test_complete_invariant_oracle(self, q, radius):
        # canonical forms must classify exactly like the full Veronese image
        w = classify(q)
        by_oracle = {}
        for coords in itertools.product(range(-radius, radius + 1), repeat=len(q)):
            if all(c == 0 for c in coords):
                continue
            key = _full_veronese(coords, w)
            canon = canonicalize(WPoint(w, coords)).coords
            by_oracle.setdefault(key, set()).add(canon)
        for key, canons in by_oracle.items():
            assert len(canons) == 1, (key, canons)
        all_canons = [next(iter(c)) for c in by_oracle.values()]
        assert len(set(all_canons)) == len(all_canons)

    def test_complete_invariant_oracle_3coords(self):
        w = classify([1, 2, 3])
        by_oracle = {}
        for coords in itertools.product(range(-4, 5), repeat=3):
            if all(c == 0 for c in coords):
                continue
            key = _full_veronese(coords, w)
            canon = canonicalize(WPoint(w, coords)).coords
            by_oracle.setdefault(key, set()).add(canon)
        for key, canons in by_oracle.items():
            assert len(canons) == 1, (key, canons)
        canons = [next(iter(c)) for c in by_oracle.values()]
        assert len(set(canons)) == len(canons)


class TestLexKey:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3) | st.integers(-(10**20), 10**20), min_size=3, max_size=3),
            max_size=12,
        )
    )
    @example([[1, 0, 0], [-1, 0, 0], [0, 0, 0], [0, -1, 0], [0, 1, 0], [-1, -1, 1]])
    def test_same_order_as_pair_key(self, rows):
        # small values make equal magnitudes of opposite sign and zeros common
        def pair_key(coords):
            return tuple((abs(c), 0 if c >= 0 else 1) for c in coords)

        tuples = [tuple(r) for r in rows]
        assert sorted(tuples, key=_lex_key) == sorted(tuples, key=pair_key)
        for a in tuples:
            for b in tuples:
                assert (_lex_key(a) < _lex_key(b)) == (pair_key(a) < pair_key(b))


class TestEquals:
    def test_examples(self):
        w24 = classify([2, 4])
        assert equals(WPoint(w24, (4, 8)), WPoint(w24, (2, 1))) is False
        w = classify([2, 4, 6, 10])
        assert equals(WPoint(w, (3, 9, 27, 243)), WPoint(w, (1, 1, 1, 1)))
        with pytest.raises(DomainError):
            equals(WPoint(w24, (1, 1)), WPoint(classify([2, 3]), (1, 1)))

    def test_act_invariance(self):
        rng = random.Random(23)
        w = classify([1, 2, 3])
        for _ in range(300):
            coords = tuple(rng.randint(-30, 30) for _ in range(3))
            if all(c == 0 for c in coords):
                continue
            x = WPoint(w, coords)
            lam = rng.choice([-3, -2, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3)])
            try:
                y = act(lam, x)
            except DomainError:
                continue
            assert equals(x, y)


class TestAct:
    def test_action(self):
        w = classify([2, 4])
        assert act(2, WPoint(w, (1, 1))).coords == (4, 16)
        with pytest.raises(DomainError):
            act(0, WPoint(w, (1, 1)))
        with pytest.raises(DomainError):
            act(Fraction(1, 2), WPoint(w, (1, 1)))


class TestVeronese:
    def test_examples(self):
        w = classify([2, 4])
        assert veronese(WPoint(w, (4, 8))) == (2, 1)
        assert veronese(WPoint(w, (2, 1))) == (4, 1)
        assert veronese(WPoint(w, (1, 0))) == (1, 0)
        assert veronese(WPoint(w, (-1, 1))) == (1, 1)


class TestParsePoint:
    def test_examples(self):
        w = classify([2, 4])
        assert parse_point("1/2:1/4", w).coords == (2, 4)
        assert parse_point("4:8", w).coords == (4, 8)
        with pytest.raises(DomainError):
            parse_point("1:2:3", w)
        with pytest.raises(DomainError):
            parse_point("a:b", w)
