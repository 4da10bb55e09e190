import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wproj.exactnum import (
    INFINITE_PLACE,
    INFINITY,
    DomainError,
    FormalLog,
    Place,
    factor,
    ord_at,
    ord_plus,
)


def _trial_division(n: int):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestFactor:
    def test_examples(self):
        assert factor(60).factors == ((2, 2), (3, 1), (5, 1))
        assert factor(60).unit == 1
        assert factor(1) == factor(1)
        assert factor(1).factors == ()
        assert factor(97).factors == ((97, 1),)
        assert factor(-12).unit == -1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor(0)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(10_000):
            n = rng.randint(-(10**12), 10**12)
            if n == 0:
                continue
            f = factor(n)
            assert f.value() == n
            primes = [p for p, _ in f.factors]
            assert primes == sorted(primes)
            assert len(set(primes)) == len(primes)
            assert all(e >= 1 for _, e in f.factors)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert list(factor(n).factors) == _trial_division(n)


class TestPlace:
    def test_validation(self):
        assert Place(2).is_finite
        assert not INFINITE_PLACE.is_finite
        with pytest.raises(DomainError):
            Place(4)
        with pytest.raises(DomainError):
            Place(1)


class TestFormalLog:
    def test_of_log_factors(self):
        assert FormalLog.of_log(6).coeffs == {2: 1, 3: 1}
        assert FormalLog.of_log(Fraction(1, 2)).coeffs == {2: -1}
        assert FormalLog.of_log(-10).coeffs == {2: 1, 5: 1}
        with pytest.raises(DomainError):
            FormalLog.of_log(0)

    def test_combine_examples(self):
        half_log4 = FormalLog.of_log(4).scale(Fraction(1, 2))
        assert half_log4 == FormalLog.of_log(2)
        assert FormalLog.of_log(2) + FormalLog.of_log(3) == FormalLog.of_log(6)
        assert FormalLog.of_log(6) - FormalLog.of_log(2) == FormalLog.of_log(3)
        assert FormalLog.zero() + FormalLog.of_log(4).scale(
            Fraction(1, 2)
        ) == FormalLog.of_log(2)

    def test_compare_examples(self):
        assert FormalLog.of_log(3).compare(FormalLog.of_log(2)) > 0
        assert (
            FormalLog.of_log(9).scale(Fraction(1, 2)).compare(FormalLog.of_log(3))
            == 0
        )
        # log 2 + log 3 vs log 5: 6 > 5
        assert FormalLog.of_log(6).compare(FormalLog.of_log(5)) > 0

    def test_close_comparison_certified(self):
        # 2^1000000 barely exceeds e^693147: tight but decidable
        a = FormalLog.of_prime(2, 1_000_000)
        b = FormalLog.of_const(693_147)
        assert a.compare(b) > 0
        assert FormalLog.of_prime(2, 693_147).compare(
            FormalLog.of_const(480_453)
        ) < 0

    def test_sign(self):
        assert (FormalLog.of_log(2) - FormalLog.of_log(3)).sign() == -1
        assert FormalLog.zero().sign() == 0
        assert FormalLog.of_const(Fraction(-1, 3)).sign() == -1

    def test_min_max(self):
        a, b = FormalLog.of_log(2), FormalLog.of_log(3)
        assert min(a, b) == a
        assert max(a, b) == b
        # ties keep the first argument
        c = FormalLog.of_log(9).scale(Fraction(1, 2))
        d = FormalLog.of_log(3)
        assert max(c, d) is c and min(c, d) is c

    def test_floor_of_quotient(self):
        assert FormalLog.of_log(32).floor_of_quotient(2) == 1  # 5 log2 / 2 = 1.73
        assert FormalLog.of_log(32).floor_of_quotient(1) == 3  # 5 log2 = 3.46
        assert FormalLog.of_const(Fraction(7, 2)).floor_of_quotient(2) == 1
        assert FormalLog.zero().floor_of_quotient(3) == 0
        assert (-FormalLog.of_log(2)).floor_of_quotient(1) == -1
        with pytest.raises(DomainError):
            FormalLog.of_log(2).floor_of_quotient(0)

    def test_decimal_and_float(self):
        v = FormalLog.of_log(2)
        assert abs(v.to_float() - math.log(2)) < 1e-14
        assert v.decimal(15).startswith("0.693147180559945")

    @given(
        st.fractions(
            min_value=Fraction(1, 1000), max_value=1000
        ).filter(lambda f: f != 0)
    )
    # no deadline: the first factorization of a large generated numerator
    # can take sympy's Pollard rho ~0.6 s, and sympy caches it afterwards
    @settings(max_examples=200, deadline=None)
    def test_of_log_numeric(self, a):
        assert abs(FormalLog.of_log(a).to_float() - math.log(abs(a))) < 1e-12

    def test_total_order_consistency(self):
        rng = random.Random(11)
        vals = [
            FormalLog.of_log(Fraction(rng.randint(1, 50), rng.randint(1, 50)))
            for _ in range(30)
        ]
        for a in vals[:10]:
            for b in vals[10:20]:
                assert a.compare(b) == -b.compare(a)
                for c in vals[20:]:
                    if a.compare(b) <= 0 and b.compare(c) <= 0:
                        assert a.compare(c) <= 0


class TestValuations:
    def test_ord_examples(self):
        assert ord_at(12, Place(2)) == 2
        assert ord_at(Fraction(4, 9), Place(3)) == -2
        assert ord_at(1, Place(7)) == 0
        with pytest.raises(DomainError):
            ord_at(0, Place(2))

    def test_ord_infinite_place(self):
        assert ord_at(Fraction(1, 2), INFINITE_PLACE) == FormalLog.of_log(2)
        assert ord_at(2, INFINITE_PLACE) == -FormalLog.of_log(2)

    def test_ord_plus_examples(self):
        assert ord_plus(Fraction(4, 3), Place(2)) == 2
        assert ord_plus(Fraction(4, 3), Place(3)) == 0
        assert ord_plus(5, INFINITE_PLACE) == FormalLog.zero()
        assert ord_plus(Fraction(1, 2), INFINITE_PLACE) == FormalLog.of_log(2)
        assert ord_plus(0, Place(2)) is INFINITY
        assert ord_plus(0, INFINITE_PLACE) is INFINITY

    def test_ord_additivity(self):
        rng = random.Random(3)
        for _ in range(300):
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for p in (2, 3, 5, 7):
                assert ord_at(a * b, Place(p)) == ord_at(a, Place(p)) + ord_at(
                    b, Place(p)
                )

    def test_product_formula(self):
        rng = random.Random(5)
        for _ in range(1000):
            a = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
            finite = FormalLog.zero()
            for p, _ in factor(a.numerator).factors:
                finite = finite + FormalLog.of_prime(p, ord_at(a, Place(p)))
            for p, _ in factor(a.denominator).factors:
                if p not in finite.coeffs:
                    finite = finite + FormalLog.of_prime(p, ord_at(a, Place(p)))
            # sum of finite ord*log p  equals  log|a|; archimedean closes to 0
            assert finite == FormalLog.of_log(a)

