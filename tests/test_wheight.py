import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wproj import (
    INFINITE_PLACE,
    DomainError,
    FormalLog,
    Place,
    WPoint,
    act,
    classical_height_log,
    classify,
    hgcd,
    hwgcd_mult,
    local_height,
    log_hwgcd_point,
    log_hwgcd_tuple,
    lwh,
    normalize,
    split_height_S,
    wgcd_tuple,
    wh_m_power,
)
from wproj.wheight import _support_primes


def _random_point(rng, w, radius=100):
    while True:
        coords = tuple(rng.randint(-radius, radius) for _ in w.q)
        if any(c != 0 for c in coords):
            return WPoint(w, coords)


def _support_primes_of_product(coords):
    """Reference: the primes of the product of the nonzero values."""
    prod = 1
    for c in coords:
        if c != 0:
            prod *= abs(c)
    return [] if prod == 1 else sorted(sympy.primefactors(prod))


def _hwgcd_by_definition(xs, q):
    """Reference: prod_p p^{min_i floor(max(v_p(x_i), 0) / q_i)} over x_i != 0,
    with v_p read from sympy's factorizations of numerator and denominator."""
    nz = [(abs(x), qi) for x, qi in zip(xs, q) if x != 0]
    primes = set()
    for x, _ in nz:
        primes |= set(sympy.factorint(x.numerator)) | set(sympy.factorint(x.denominator))
    out = 1
    for p in primes:
        vals = []
        for x, qi in nz:
            v = sympy.factorint(x.numerator).get(p, 0)
            v -= sympy.factorint(x.denominator).get(p, 0)
            vals.append(max(v, 0) // qi)
        out *= p ** min(vals)
    return out


def _split_height_of_product(x, S, divisor):
    """Reference: (1/m) log of the S-part and the prime-to-S part of the
    product N of the divisor coordinates."""
    N = 1
    for i in divisor:
        N *= abs(x.coords[i])
    out = N
    for p in S:
        while out % p == 0:
            out //= p
    k = Fraction(1, x.w.m)

    def log_scaled(n):
        return FormalLog.of_log(n).scale(k) if n > 1 else FormalLog.zero()

    return log_scaled(N // out), log_scaled(out)


_WEIGHTS = [(1, 2, 3), (2, 4, 6, 10), (1, 1), (2, 3)]

# integers rich in repeated small primes, so that weighted gcds above 1 occur
_SMOOTH_INTS = st.builds(
    lambda s, b, e, r: s * b**e * r,
    st.sampled_from([1, -1]),
    st.sampled_from([2, 3, 6, 10]),
    st.integers(0, 12),
    st.integers(0, 50),
)


@st.composite
def _rational_tuples(draw):
    q = draw(st.sampled_from(_WEIGHTS))
    xs = [
        Fraction(draw(_SMOOTH_INTS), draw(st.sampled_from([1, 1, 2, 9, 25, 7**3])))
        for _ in q
    ]
    if all(x == 0 for x in xs):
        xs[0] = Fraction(1)
    return xs, classify(q)


@st.composite
def _split_cases(draw):
    """A normalized point with nonzero coordinates, a divisor multiset and
    S empty, holding some small primes, or holding every prime of N."""
    w = classify(draw(st.sampled_from(_WEIGHTS)))
    coords = [draw(_SMOOTH_INTS.filter(bool)) for _ in w.q]
    x = normalize(WPoint(w, tuple(coords)))
    divisor = draw(st.lists(st.integers(0, len(w.q) - 1), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["empty", "some", "all"]))
    if kind == "empty":
        S = set()
    elif kind == "some":
        S = set(draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=3)))
    else:
        S = {p for c in x.coords for p in sympy.primefactors(abs(c))} | {13}
    return x, S, divisor


class TestLocalHeight:
    def test_examples(self):
        w = classify([2, 4])
        x = WPoint(w, (4, 8))
        assert local_height(x, Place(2)) == FormalLog.of_prime(2, Fraction(-3, 4))
        assert local_height(x, Place(5)) == FormalLog.zero()
        assert local_height(x, INFINITE_PLACE) == FormalLog.of_log(2)


class TestLwh:
    def test_examples(self):
        w = classify([2, 4])
        assert lwh(WPoint(w, (4, 8))) == FormalLog.of_log(2).scale(Fraction(1, 4))
        assert lwh(WPoint(w, (1, 1))) == FormalLog.zero()
        w123 = classify([1, 2, 3])
        assert lwh(WPoint(w123, (3, 1, 1))) == FormalLog.of_log(3)

    def test_nonnegative(self):
        rng = random.Random(2)
        for q in [(1, 2, 3), (2, 3), (2, 4, 6, 10)]:
            w = classify(q)
            for _ in range(200):
                assert lwh(_random_point(rng, w)).sign() >= 0

    def test_invariant_under_act(self):
        rng = random.Random(8)
        w = classify([1, 2, 3])
        for _ in range(1000):
            x = _random_point(rng, w, 50)
            lam = rng.choice([-5, -2, 2, 3, 7, Fraction(1, 2), Fraction(2, 3)])
            try:
                y = act(lam, x)
            except DomainError:
                continue
            assert lwh(x) == lwh(y)

    def test_invariant_under_normalize(self):
        rng = random.Random(12)
        w = classify([2, 3])
        for _ in range(300):
            x = _random_point(rng, w, 3000)
            assert lwh(x) == lwh(normalize(x))

    def test_support_primes_match_product_reference(self):
        rng = random.Random(23)
        cases = [[], [0, 0], [1, -1], [0, 12, -18], [2**40, 3**25, 0, 1]]
        for _ in range(200):
            n = rng.randint(1, 4)
            cases.append(
                [rng.choice([0, 1, rng.randint(-(10**6), 10**6)]) for _ in range(n)]
            )
        for values in cases:
            assert _support_primes(values) == _support_primes_of_product(values)


class TestWhMPower:
    def test_examples(self):
        w = classify([2, 4])
        assert wh_m_power(WPoint(w, (4, 8))) == 2
        assert wh_m_power(WPoint(w, (1, 0))) == 1
        assert wh_m_power(WPoint(w, (2, 1))) == 4

    def test_veronese_identity(self):
        # m * lwh(x) = log(wh_m_power(x)), exactly
        rng = random.Random(6)
        for q in [(1, 2, 3), (2, 4, 6, 10), (2, 3), (1, 1, 1)]:
            w = classify(q)
            for _ in range(500):
                x = _random_point(rng, w, 60)
                assert lwh(x).scale(w.m) == FormalLog.of_log(wh_m_power(x))


class TestHgcd:
    def test_examples(self):
        assert hgcd(12, 18) == FormalLog.of_log(6)
        assert hgcd(12345, 1) == FormalLog.zero()
        assert hgcd(Fraction(4, 3), Fraction(2, 9)) == FormalLog.of_log(2)

    def test_zero_arguments(self):
        assert hgcd(0, 12) == FormalLog.of_log(12)
        assert hgcd(Fraction(1, 2), 0) == FormalLog.of_log(2)  # nu+ at 2 and oo
        with pytest.raises(DomainError):
            hgcd(0, 0)

    def test_equals_log_gcd_on_integers(self):
        rng = random.Random(14)
        for _ in range(1000):
            a = rng.randint(-(10**4), 10**4)
            b = rng.randint(-(10**4), 10**4)
            if a == 0 or b == 0:
                continue
            assert hgcd(a, b) == FormalLog.of_log(math.gcd(a, b))


class TestHwgcd:
    def test_examples(self):
        w = classify([2, 4])
        assert hwgcd_mult((8, 16), w) == 2
        assert hwgcd_mult((4, 8), w) == 1
        assert hwgcd_mult((1, 123456), w) == 1

    def test_log_examples(self):
        w = classify([2, 4])
        assert log_hwgcd_point(WPoint(w, (8, 16))) == FormalLog.of_log(2)
        w123 = classify([1, 2, 3])
        assert log_hwgcd_point(
            WPoint(w123, (12, 144, 1728))
        ) == FormalLog.of_prime(2, 2) + FormalLog.of_prime(3, 1)
        assert log_hwgcd_point(WPoint(w123, (1, 4, 8))) == FormalLog.zero()

    def test_mult_matches_finite_log_part(self):
        rng = random.Random(16)
        w = classify([1, 2, 3])
        for _ in range(500):
            x = _random_point(rng, w, 2000)
            assert FormalLog.of_log(hwgcd_mult(x.coords, w)) == log_hwgcd_point(x)

    @given(_rational_tuples())
    @settings(max_examples=300, deadline=None)
    def test_mult_is_wgcd_of_numerators(self, case):
        # max(v_p(a/b), 0) = v_p(a) for a/b in lowest terms
        xs, w = case
        g = wgcd_tuple([x.numerator for x in xs], w.q)
        assert hwgcd_mult(xs, w) == g == _hwgcd_by_definition(xs, w.q)

    def test_rational_tuple_archimedean_floor(self):
        w = classify([2, 3])
        # nu_oo+(1/8)/2 = 3log2/2 -> floor 1; nu_oo+(1/27)/3 = log27/3 -> 1
        v = log_hwgcd_tuple((Fraction(1, 8), Fraction(1, 27)), w)
        assert v == FormalLog.of_const(1)
        # integers floor to 0 at the archimedean place
        assert log_hwgcd_tuple((8, 16), classify([2, 4])) == FormalLog.of_log(2)


class TestSplitHeight:
    def test_examples(self):
        w = classify([1, 2, 3])
        x = WPoint(w, (6, 2, 1))
        sh = split_height_S(x, {2})
        assert sh.out_S == FormalLog.of_log(3).scale(Fraction(1, 6))
        sh0 = split_height_S(x, set())
        assert sh0.out_S == FormalLog.of_log(12).scale(Fraction(1, 6))
        assert sh0.in_S == FormalLog.zero()
        sh_all = split_height_S(x, {2, 3})
        assert sh_all.out_S == FormalLog.zero()

    def test_total_is_full_sum(self):
        rng = random.Random(18)
        w = classify([1, 2, 3])
        for _ in range(200):
            coords = tuple(rng.randint(1, 60) for _ in range(3))
            x = normalize(WPoint(w, coords))
            if any(c == 0 for c in x.coords):
                continue
            N = 1
            for c in x.coords:
                N *= abs(c)
            sh = split_height_S(x, {2, 5})
            expect = (
                FormalLog.of_log(N).scale(Fraction(1, 6))
                if N > 1
                else FormalLog.zero()
            )
            assert sh.total() == expect

    @given(_split_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_product_reference(self, case):
        # same values and the same sorted-prime coefficient order, hence the
        # same decimal renderings, as factoring the product N
        x, S, divisor = case
        sh = split_height_S(x, S, divisor)
        ref_in, ref_out = _split_height_of_product(x, S, divisor)
        for got, ref in ((sh.in_S, ref_in), (sh.out_S, ref_out)):
            assert got == ref
            assert list(got.coeffs) == list(ref.coeffs)
        assert sh.total().decimal(30) == (ref_in + ref_out).decimal(30)

    def test_divisor_subset(self):
        w = classify([1, 2, 3])
        x = WPoint(w, (6, 2, 1))
        sh = split_height_S(x, set(), divisor=[0])
        assert sh.out_S == FormalLog.of_log(6).scale(Fraction(1, 6))

    def test_errors(self):
        w = classify([1, 2, 3])
        with pytest.raises(DomainError):
            split_height_S(WPoint(w, (0, 2, 1)), set())  # zero on -K_X support
        with pytest.raises(DomainError):
            split_height_S(WPoint(w, (1, 4, 8)), set(), divisor=[])
        with pytest.raises(DomainError):
            # not normalized: wgcd = 2
            split_height_S(WPoint(classify([2, 4]), (8, 16)), set())

    @pytest.mark.parametrize("divisor", [[7], [-1], [0, 2], [-3, 0]])
    def test_divisor_index_out_of_range(self, divisor):
        x = WPoint(classify([1, 2]), (3, 5))
        with pytest.raises(DomainError, match=r"0\.\.1"):
            split_height_S(x, {3}, divisor=divisor)


class TestClassicalDegeneration:
    def test_heights_match(self):
        rng = random.Random(20)
        w = classify([1, 1, 1])
        for _ in range(1000):
            x = _random_point(rng, w, 500)
            assert lwh(x) == classical_height_log(x.coords)

    def test_log_hwgcd_is_log_gcd(self):
        rng = random.Random(22)
        w = classify([1, 1, 1])
        for _ in range(300):
            x = _random_point(rng, w, 500)
            g = math.gcd(*x.coords)
            expect = FormalLog.of_log(g) if g > 1 else FormalLog.zero()
            assert log_hwgcd_point(x) == expect
