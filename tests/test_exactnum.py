import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from wproj import exactnum
from wproj.exactnum import (
    INFINITE_PLACE,
    INFINITY,
    DomainError,
    FormalLog,
    Place,
    _log_mpf,
    _log_term,
    _nth_root_floor,
    _primes_upto,
    _strong_lucas,
    factor,
    isprime,
    ord_at,
    ord_plus,
)

# rationals from 10^-60 to 10^60 in magnitude, of either sign
_WIDE_FRACTIONS = st.builds(
    lambda n, k, den: Fraction(n * 10**k, den) if k >= 0 else Fraction(n, den * 10**-k),
    st.integers(-(10**20), 10**20).filter(bool),
    st.integers(-60, 60),
    st.integers(1, 10**12),
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


# -- the integer kernel, against sympy as the independent oracle -------------

# psi_k, the least strong pseudoprime to each of the first k prime bases,
# for k = 1..13 (OEIS A014233; psi_12 and psi_13 from Sorenson and Webster)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
PSI_13 = PSI[-1]
# Carmichael numbers: Fermat pseudoprimes to every coprime base
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 1436697831295441,
    60977817398996785, 7156857700403137441, 1791562810662585767521,
    87674969936234821377601, 6553130926752006031481761,
)
# strong Lucas pseudoprimes for Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309)
# the numerator that once took sympy's rho 0.6 s: factors up to 1.8e12
NUMERATOR_37 = 5318260088998847786179945824255999999
# two primes far above what Brent's rho reaches within its budget
P_BIG, Q_BIG = 10**15 + 37, 3 * 10**15 + 37


def _sympy_factors(n: int) -> tuple:
    return tuple(sorted((int(p), e) for p, e in sympy.factorint(abs(n)).items()))


class TestFactorOracle:
    @given(st.integers(-(10**24), 10**24).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_matches_factorint(self, n):
        f = factor(n)
        assert f.factors == _sympy_factors(n)
        assert f.unit == (-1 if n < 0 else 1)

    def test_numerator_37(self):
        assert factor(NUMERATOR_37).factors == _sympy_factors(NUMERATOR_37)

    def test_prime_powers_and_repeated_factors(self):
        for n in (1009**2, 1009**3 * 1013, 7919**4 * 2**10, (10**6 + 3) ** 2 * 999983):
            assert factor(n).factors == _sympy_factors(n)

    def test_beyond_the_budget_falls_back(self, monkeypatch):
        calls = []
        factorint = sympy.factorint
        monkeypatch.setattr(
            sympy, "factorint", lambda m: calls.append(m) or factorint(m)
        )
        n = 4 * P_BIG * Q_BIG
        assert sympy.isprime(P_BIG) and sympy.isprime(Q_BIG)
        assert factor(n).factors == ((2, 2), (P_BIG, 1), (Q_BIG, 1))
        assert calls == [P_BIG * Q_BIG]


class TestIsPrimeOracle:
    def test_data(self):
        # each psi_k is a strong pseudoprime to the first k prime bases
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        for k, psi in enumerate(PSI, 1):
            assert not sympy.isprime(psi)
            assert all(sympy.ntheory.primetest.mr(psi, [a]) for a in bases[:k])
        # Korselt: squarefree, and p - 1 divides n - 1 for every p | n
        for n in CARMICHAEL:
            fac = sympy.factorint(n)
            assert len(fac) > 1 and set(fac.values()) == {1}
            assert all((n - 1) % (p - 1) == 0 for p in fac)

    @pytest.mark.parametrize("n", PSI + CARMICHAEL + STRONG_LUCAS_PSEUDOPRIMES)
    def test_pseudoprimes(self, n):
        assert isprime(n) is False
        for m in (n - 2, n - 1, n + 1, n + 2):
            assert isprime(m) == sympy.isprime(m)

    def test_small(self):
        assert [n for n in range(-5, 5000) if isprime(n)] == list(sympy.primerange(0, 5000))

    def test_at_and_above_psi_13(self):
        for n in range(PSI_13 - 200, PSI_13 + 2000):
            assert isprime(n) == sympy.isprime(n), n

    @given(st.integers(2, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        assert isprime(n) == sympy.isprime(n)

    @given(st.integers(1, 10**30).map(lambda k: 2 * k + 1))
    @settings(max_examples=300, deadline=None)
    def test_strong_lucas_matches_sympy(self, n):
        assert _strong_lucas(n) == is_strong_lucas_prp(n)

    @pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
    def test_strong_lucas_pseudoprimes(self, n):
        assert _strong_lucas(n) and is_strong_lucas_prp(n)

    @pytest.mark.parametrize("key", [561, PSI_13])
    def test_composite_keys_rejected(self, key):
        with pytest.raises(DomainError):
            Place(key)
        with pytest.raises(DomainError):
            FormalLog({key: 1})
        with pytest.raises(DomainError):
            FormalLog.of_prime(key)


class TestRootsAndSieve:
    @given(st.integers(1, 40).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, 2 ** (300 // k)))
    ))
    @settings(max_examples=500, deadline=None)
    def test_nth_root_matches_integer_nthroot(self, kr):
        k, r = kr
        for n in (r**k - 1, r**k, r**k + 1):
            if n >= 0:
                assert _nth_root_floor(n, k) == sympy.integer_nthroot(n, k)[0]

    def test_nth_root_rejects_negative(self):
        with pytest.raises(ValueError):
            _nth_root_floor(-1, 3)

    @given(st.integers(-3, 10**5))
    @settings(max_examples=100, deadline=None)
    def test_sieve_matches_primerange(self, n):
        assert _primes_upto(n) == list(sympy.primerange(2, n + 1))


class TestFormalLog:
    def test_of_log_factors(self):
        assert FormalLog.of_log(6).coeffs == {2: 1, 3: 1}
        assert FormalLog.of_log(Fraction(1, 2)).coeffs == {2: -1}
        assert FormalLog.of_log(-10).coeffs == {2: 1, 5: 1}
        with pytest.raises(DomainError):
            FormalLog.of_log(0)

    def test_of_log_of_a_unit_factors_nothing(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factor({n}) called")

        monkeypatch.setattr(exactnum, "factor", refuse)
        for unit in (1, -1, Fraction(-1), Fraction(1)):
            assert FormalLog.of_log(unit) == FormalLog.zero()

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

    @staticmethod
    def _reference_decimal(v: FormalLog, digits: int) -> str:
        # decimal() as it was, in an mpmath context
        with mpmath.workdps(digits + 10):
            prec = mpmath.mp.prec
            total = mpmath.mpf(v.const.numerator) / v.const.denominator
            for p, c in v.coeffs.items():
                total += _log_mpf(p, prec) * mpmath.mpf(c.numerator) / c.denominator
            return mpmath.nstr(total, digits, strip_zeros=False)

    @given(
        st.dictionaries(st.sampled_from([2, 3, 5, 7, 97]), _WIDE_FRACTIONS, max_size=3),
        # zero, constants beyond 10^40 and below 10^-40 (exponent notation)
        st.one_of(st.just(Fraction(0)), _WIDE_FRACTIONS),
        st.sampled_from([5, 15, 17, 30]),
    )
    @settings(max_examples=300, deadline=None)
    def test_decimal_matches_mpmath_context(self, coeffs, const, digits):
        v = FormalLog(coeffs, const)
        assert v.decimal(digits) == self._reference_decimal(v, digits)

    def test_decimal_same_with_a_cold_or_warm_term_cache(self):
        assert isinstance(_log_term.cache_info().maxsize, int)
        values = [
            FormalLog({2: Fraction(-7, 3), 3: 5, 97: Fraction(1, 10**30)}, Fraction(1, 7)),
            FormalLog({2: Fraction(-7, 3), 5: Fraction(2, 3)}),
            FormalLog({2: Fraction(10**40, 3)}, -(10**41)),
        ]
        for digits in (5, 15, 30):
            _log_term.cache_clear()
            cold = [v.decimal(digits) for v in values]
            assert _log_term.cache_info().hits == 1  # 2: -7/3 at one precision
            warm = [v.decimal(digits) for v in values]
            assert warm == cold == [self._reference_decimal(v, digits) for v in values]

    @given(
        st.fractions(
            min_value=Fraction(1, 1000), max_value=1000
        ).filter(lambda f: f != 0)
    )
    # no deadline: a generated numerator with two prime factors near 10^12
    # takes Brent's rho a good fraction of a second
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


# small coefficients and multipliers, so that sums often cancel
_SMALL = st.sampled_from(
    [Fraction(k) for k in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
)
_MULTIPLIERS = st.one_of(
    st.sampled_from([-1, 0, 1, 2]),
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 3), Fraction(-5, 4)]),
)
_TERMS = st.builds(
    FormalLog,
    st.dictionaries(st.sampled_from([2, 3, 5, 7]), _SMALL, max_size=4),
    st.one_of(st.just(0), _SMALL),
)


def _chain(pairs) -> FormalLog:
    """sum of k * F, left to right, over a dict of Fractions: each pair is
    scaled term by term and added into the running sum, which appends a
    new key and drops one whose sum cancels.  Independent of FormalLog's
    arithmetic, which is all ``lincomb``."""
    coeffs: dict[int, Fraction] = {}
    const = Fraction(0)
    for k, f in pairs:
        k = Fraction(k)
        if k == 0:
            continue
        const += k * f.const
        for p, c in f.coeffs.items():
            s = coeffs.get(p)
            if s is None:
                coeffs[p] = k * c
                continue
            s += k * c
            if s:
                coeffs[p] = s
            else:
                del coeffs[p]
    return FormalLog(coeffs, const)


class TestLincomb:
    @staticmethod
    def _same(got: FormalLog, want: FormalLog) -> None:
        assert got == want
        # decimal() adds the terms in this order
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert type(got.const) is Fraction
        assert all(type(c) is Fraction and c for c in got.coeffs.values())

    @given(st.lists(st.tuples(_MULTIPLIERS, _TERMS), max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_chain(self, pairs):
        self._same(FormalLog.lincomb(pairs), _chain(pairs))

    def test_a_key_that_cancels_and_reappears_goes_last(self):
        a = FormalLog({2: 1, 3: 1})
        b = FormalLog.of_prime(2)
        pairs = [(1, a), (-1, b), (1, b)]
        got = FormalLog.lincomb(pairs)
        self._same(got, _chain(pairs))
        assert list(got.coeffs) == [3, 2]

    def test_constants_zero_and_negative_multipliers(self):
        h = FormalLog({3: Fraction(1, 2), 2: 1}, Fraction(5, 3))
        s = FormalLog({5: 2}, -1)
        pairs = [(Fraction(1, 4), h), (0, s), (Fraction(-4, 5), s), (-1, h)]
        got = FormalLog.lincomb(pairs)
        self._same(got, _chain(pairs))
        want = {3: Fraction(-3, 8), 2: Fraction(-3, 4), 5: Fraction(-8, 5)}
        assert got == FormalLog(want, Fraction(-9, 20))
        assert FormalLog.lincomb([]) == FormalLog.zero()
        assert FormalLog.lincomb([(0, h)]).is_zero()


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



ROOT = pathlib.Path(__file__).resolve().parent.parent

# Each case hung or crashed before keys were checked: the first two looped
# forever (log 4 - 2 log 2 is formally nonzero but really 0), the third
# ended in an OverflowError from mpmath (log 1 = 0).
NON_PRIME_KEY_CASES = [
    "(FormalLog({4: 1}) - FormalLog({2: 2})).sign()",
    "(FormalLog({4: 1}) - FormalLog({2: 2})).floor_of_quotient(1)",
    "FormalLog({1: 1}).sign()",
    "FormalLog.of_prime(4)",
    "FormalLog.of_prime(1, 3)",
]


class TestPrimeKeys:
    def test_non_prime_keys_rejected(self):
        # one subprocess for all cases, so that a hang fails the test
        # instead of stalling the run; it prints one line per case
        script = "from wproj.exactnum import DomainError, FormalLog\n" + "".join(
            f"try:\n    {expr}\n    print('returned')\n"
            "except DomainError:\n    print('DomainError')\n"
            for expr in NON_PRIME_KEY_CASES
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired as exc:
            done = (exc.stdout or b"").count(b"\n")
            pytest.fail(f"{NON_PRIME_KEY_CASES[done]} did not finish within 10 s")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["DomainError"] * len(NON_PRIME_KEY_CASES)

    def test_prime_keys_accepted(self):
        assert FormalLog({2: 1, 3: 0}).coeffs == {2: 1}
        assert FormalLog.of_prime(7, 0).is_zero()


# -- the float rung --------------------------------------------------------

REF_DPS = 400


def _reference(v: FormalLog) -> mpmath.mpf:
    """The value at 400 significant digits, with no interval or float code."""
    with mpmath.workdps(REF_DPS):
        total = mpmath.mpf(v.const.numerator) / v.const.denominator
        for p, c in v.coeffs.items():
            total += mpmath.log(p) * mpmath.mpf(c.numerator) / c.denominator
        return +total


def _ref_sign(v: FormalLog) -> int:
    r = _reference(v)
    return (r > 0) - (r < 0)


def _ref_floor(v: FormalLog, q: int) -> int:
    with mpmath.workdps(REF_DPS):
        return int(mpmath.floor(_reference(v) / q))


def _approx_const(coeffs: dict, digits: int) -> Fraction:
    """A rational that agrees with sum c_p log p to about `digits`
    significant digits: subtracting it leaves a value far below the float
    rung's relative resolution of about 2**-49."""
    with mpmath.workdps(digits + 10):
        total = mpmath.fsum(mpmath.log(p) * mpmath.mpf(c.numerator) / c.denominator
                            for p, c in coeffs.items())
        return Fraction(mpmath.nstr(total, digits + 5, min_fixed=-mpmath.inf,
                                    max_fixed=mpmath.inf))


PRIMES = [2, 3, 5, 7, 11, 13, 101, 7919, 1000003]


@st.composite
def formal_logs(draw):
    keys = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=5))
    scale = draw(st.sampled_from([Fraction(1), Fraction(10**30), Fraction(1, 10**30)]))
    coeffs = {
        p: draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
        * scale
        for p in keys
    }
    coeffs = {p: c for p, c in coeffs.items() if c}
    const = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
    if coeffs and draw(st.booleans()):
        # cancel the log part to 20-40 digits: below the rung's resolution
        const = -_approx_const(coeffs, draw(st.integers(20, 40)))
    return FormalLog(coeffs, const)


class TestFloatRung:
    @given(formal_logs())
    @settings(max_examples=200, deadline=None)
    def test_sign_matches_reference(self, v):
        assert v.sign() == _ref_sign(v)

    @given(formal_logs(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_floor_of_quotient_matches_reference(self, v, q):
        assert v.floor_of_quotient(q) == _ref_floor(v, q)

    @staticmethod
    def _precisions(monkeypatch):
        seen = []
        real = FormalLog._interval

        def spy(self, prec):
            seen.append(prec)
            return real(self, prec)

        monkeypatch.setattr(FormalLog, "_interval", spy)
        return seen

    # name, value, sign: each defeats the 53-bit bound and is settled by mpmath
    ADVERSARIAL = [
        # convergents p/q of log 3 / log 2: q log 3 - p log 2 is tiny
        ("convergent-1e7", FormalLog({3: 10781274, 2: -17087915}), -1),
        ("convergent-4e8", FormalLog({3: 397573379, 2: -630138897}), -1),
        ("convergent-6e9", FormalLog({3: 6189245291, 2: -9809721694}), 1),
        # a coefficient too large for a float
        ("huge-coefficient", FormalLog({2: Fraction(10**400, 3), 3: -1}), 1),
        # coefficients that convert to 0.0
        ("tiny-coefficients",
         FormalLog({2: Fraction(1, 10**400), 3: Fraction(-1, 10**400)}), -1),
        # log 2 minus its nearest double, given in decimal and exactly
        ("log2-decimal", FormalLog({2: 1}, -Fraction("0.6931471805599453")), 1),
        ("log2-double", FormalLog({2: 1}, -Fraction(0.6931471805599453)), 1),
    ]

    @pytest.mark.parametrize(
        "v, expected", [c[1:] for c in ADVERSARIAL], ids=[c[0] for c in ADVERSARIAL]
    )
    def test_undecided_values_reach_mpmath(self, v, expected, monkeypatch):
        assert _ref_sign(v) == expected
        seen = self._precisions(monkeypatch)
        assert v.sign() == expected
        assert seen[:2] == [53, 106]
        # the float rung gives up on huge-coefficient and tiny-coefficients
        # with (-inf, inf), which the floor must pass over: math.floor of an
        # infinity raises
        for q in (1, 2):
            assert v.floor_of_quotient(q) == _ref_floor(v, q)

    def test_floor_near_an_integer_reaches_mpmath(self, monkeypatch):
        # log 2 - fl(log 2) is about 2.3e-17: floor 0, float enclosure [-e, e]
        v = FormalLog({2: 1}, -Fraction(0.6931471805599453))
        seen = self._precisions(monkeypatch)
        assert v.floor_of_quotient(1) == 0
        assert seen[:2] == [53, 106]
        seen.clear()
        assert (-v).floor_of_quotient(1) == -1
        assert seen[:2] == [53, 106]

    def test_subnormal_coefficient_reaches_mpmath(self, monkeypatch):
        # (3 log 2 - 2 log 3) * 2**-1074 < 0.  As subnormal floats both
        # terms round to 2 * 2**-1074 in size and the bound underflows to 0,
        # so only giving up on such coefficients keeps the float floor from
        # reading 0.
        v = FormalLog({2: Fraction(3, 2**1074), 3: Fraction(-2, 2**1074)})
        seen = self._precisions(monkeypatch)
        assert v.floor_of_quotient(1) == -1 == _ref_floor(v, 1)
        assert seen[:2] == [53, 106]

    def test_wide_margin_settled_by_the_rung(self, monkeypatch):
        # an earlier convergent: about -1.8e-5 against a bound near 1.2e-10
        v = FormalLog({3: 15601, 2: -24727})
        seen = self._precisions(monkeypatch)
        assert v.sign() == -1 == _ref_sign(v)
        assert seen == [53]
