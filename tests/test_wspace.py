import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from wproj import (
    DomainError,
    WPoint,
    classify,
    is_singular,
    lwh,
    parse_weights,
    reduce_weights,
    well_formalize,
)
from wproj.wpoint import canonicalize


class TestClassify:
    def test_examples(self):
        w = classify([2, 4, 6, 10])
        assert (w.m, w.d, w.reduced, w.well_formed) == (60, 2, False, False)
        w = classify([1, 2, 3])
        assert (w.m, w.reduced, w.well_formed) == (6, True, True)
        w = classify([1, 1, 1, 1])
        assert (w.m, w.reduced, w.well_formed) == (1, True, True)

    def test_errors(self):
        with pytest.raises(DomainError):
            classify([3])
        with pytest.raises(DomainError):
            classify([1, 0])
        with pytest.raises(DomainError):
            classify([])

    def test_parse(self):
        assert parse_weights("2,4,6,10").q == (2, 4, 6, 10)
        with pytest.raises(DomainError):
            parse_weights("2,x")


class TestReduce:
    def test_examples(self):
        red, d = reduce_weights(classify([2, 4, 6, 10]))
        assert red.q == (1, 2, 3, 5) and d == 2
        red, d = reduce_weights(classify([1, 2, 3]))
        assert red.q == (1, 2, 3) and d == 1
        red, d = reduce_weights(classify([3, 6]))
        assert red.q == (1, 2) and d == 3

    def test_always_reduced(self):
        for q in itertools.product(range(1, 9), repeat=3):
            red, d = reduce_weights(classify(q))
            assert red.reduced
            assert tuple(x * d for x in red.q) == q

    def test_height_rescaling_law(self):
        # lwh with weights d*q equals (1/d) * lwh with weights q
        rng = random.Random(21)
        base = classify([1, 2, 3])
        for d in (2, 3, 5):
            scaled = classify([d * q for q in base.q])
            for _ in range(100):
                coords = tuple(rng.randint(-200, 200) for _ in range(3))
                if all(c == 0 for c in coords):
                    continue
                lhs = lwh(WPoint(scaled, coords))
                rhs = lwh(WPoint(base, coords)).scale(Fraction(1, d))
                assert lhs == rhs


class TestWellFormalize:
    def test_example_122(self):
        w2, steps, transform = well_formalize(classify([1, 2, 2]))
        assert w2.q == (1, 1, 1)
        assert steps == [(0, 2)]
        assert transform((3, 4, 5)) == (9, 4, 5)

    def test_already_well_formed(self):
        w2, steps, transform = well_formalize(classify([1, 2, 3, 5]))
        assert w2.q == (1, 2, 3, 5)
        assert steps == []
        assert transform((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_requires_reduced(self):
        with pytest.raises(DomainError):
            well_formalize(classify([2, 4, 6, 10]))

    def test_output_well_formed_exhaustive(self):
        seen = 0
        for q in itertools.product(range(1, 13), repeat=4):
            if math.gcd(*q) != 1:
                continue
            w2, steps, _ = well_formalize(classify(q))
            assert w2.well_formed
            seen += 1
        assert seen > 0
        for q in itertools.product(range(1, 7), repeat=5):
            if math.gcd(*q) != 1:
                continue
            w2, _, _ = well_formalize(classify(q))
            assert w2.well_formed

    def test_transform_respects_equivalence(self):
        # equivalent representatives stay equivalent after the coordinate map
        rng = random.Random(4)
        w = classify([1, 2, 2])
        w2, _, transform = well_formalize(w)
        for _ in range(200):
            coords = tuple(rng.randint(-9, 9) for _ in range(3))
            if all(c == 0 for c in coords):
                continue
            lam = rng.choice([-3, -2, -1, 2, 3])
            other = tuple(c * lam**q for c, q in zip(coords, w.q))
            a = canonicalize(WPoint(w2, transform(coords)))
            b = canonicalize(WPoint(w2, transform(other)))
            assert a.coords == b.coords


class TestSingular:
    def test_examples(self):
        w = classify([1, 2, 3, 5])
        assert is_singular(w, (0, 1, 0, 0)) is True
        assert is_singular(w, (1, 7, 0, 0)) is False
        assert is_singular(w, (5, 0, 0, 3)) is False
        assert is_singular(w, (0, 0, 1, 1)) is False
        assert is_singular(w, (0, 0, 1, 0)) is True

    def test_requires_well_formed(self):
        with pytest.raises(DomainError):
            is_singular(classify([2, 4, 6, 10]), (1, 1, 1, 1))

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            is_singular(classify([1, 2, 3]), (0, 0, 0))

    def test_classical_space_nonsingular(self):
        w = classify([1, 1, 1])
        for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 4)]:
            assert is_singular(w, coords) is False

    def test_matches_primefactors_definition(self):
        # gcd of the support weights > 1 against: some prime p | m divides
        # every weight on the support
        rng = random.Random(31)
        checked = 0
        while checked < 500:
            w = classify([rng.randint(1, 30) for _ in range(rng.randint(2, 5))])
            if not w.well_formed:
                continue
            coords = [rng.choice([0, 0, 1, -7]) for _ in w.q]
            if not any(coords):
                continue
            support = [i for i, c in enumerate(coords) if c != 0]
            expect = any(
                all(w.q[i] % p == 0 for i in support)
                for p in sympy.primefactors(w.m)
            )
            assert is_singular(w, coords) is expect
            checked += 1
