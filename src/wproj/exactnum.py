"""Exact integer/rational arithmetic foundation.

Everything downstream (heights, gcds, the scan harness) is built on three
things defined here: prime factorizations, places of Q, and ``FormalLog`` --
an exact representation of  c + sum_p c_p * log p  with rational c, c_p.
No height in this package is ever a float: decimals are renderings, and the
one float evaluation (the first rung of FormalLog's comparisons) decides
nothing without a proven error bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import mpmath

Rational = Union[int, Fraction]

#: Sentinel for +infinity valuations (ord_plus of 0).
INFINITY = math.inf


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


class ParseError(DomainError):
    """Malformed input text: bad syntax, the wrong number of entries, or a
    polynomial that is not weighted homogeneous."""


# ---------------------------------------------------------------------------
# Prime factorization
# ---------------------------------------------------------------------------


def _nth_root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 0 and k >= 1, exactly."""
    if n < 0:
        raise ValueError("n-th root of a negative integer")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton's step from x = 2^ceil(bits/k) > n^(1/k): while x is above
    # floor(n^(1/k)) the step decreases it, and by AM-GM it never goes below
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes on a bytearray."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


# Miller-Rabin to the first k prime bases is correct for every n < psi_k
# (_PSI[k - 1]), psi_k being the least strong pseudoprime to all of them
# (Jaeschke 1993 up to psi_8; Jiang and Deng, Math. Comp. 83 (2014) for
# psi_9 to psi_11; Sorenson and Webster, Math. Comp. 86 (2017) for psi_12
# and psi_13).  Above psi_13 isprime is the Baillie-PSW test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Miller-Rabin to base a for odd n, n - 1 = d * 2^s with d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test for odd n > 2, with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35 (1980))."""
    if math.isqrt(n) ** 2 == n:  # no D would be found
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:  # 1 < gcd(D, n) < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k and Q^k mod n, up the bits of d from k = 1 (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1: U = (U + V)/2, V = (D U + V)/2, halved mod odd n
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether n is prime: deterministic Miller-Rabin below psi_13 =
    3,317,044,064,679,887,385,961,981, and Baillie-PSW (Miller-Rabin to
    base 2 and a strong Lucas test) above it, which no known composite
    passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor below 43
        return True
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for k, psi in enumerate(_PSI, 1):
        if n < psi:
            return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES[:k])
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas(n)


# factor divides out the primes below _TRIAL_BOUND, so a cofactor below
# its square is 1 or a prime
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = _primes_upto(_TRIAL_BOUND)
# Pollard's rho finds a prime factor p in about sqrt(p) steps of its map, so
# this budget (about a second per 40-digit cofactor) splits off prime
# factors up to about 10^11 with near certainty
_BRENT_STEPS = 1 << 20
_BRENT_BATCH = 128


def _brent(n: int) -> int | None:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho (Brent, BIT 20 (1980)) on x -> x^2 + c for c = 1, 2, ...;
    None if none turns up within _BRENT_STEPS steps of the map in all."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps >= _BRENT_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_BRENT_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _BRENT_BATCH
            steps += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@dataclass(frozen=True)
class PrimeFactorization:
    """Sign and sorted (prime, exponent) pairs reconstructing an integer."""

    unit: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.unit
        for p, e in self.factors:
            n *= p**e
        return n


def factor(n: int) -> PrimeFactorization:
    """Factor a nonzero integer into sign times prime powers, exactly.

    Trial division by the primes below 1000, then ``isprime`` and Brent's
    rho on what is left.  A cofactor that rho cannot split within its
    budget (two prime factors both above about 10^11) goes to
    ``sympy.factorint`` (ECM among others), imported only then.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    unit = -1 if n < 0 else 1
    n = abs(n)
    fac: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                n //= p
                e += 1
            fac[p] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or isprime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        g = _brent(m)
        if g is not None:
            pending += (g, m // g)
            continue
        import sympy  # the last resort; nothing else in wproj imports sympy

        for p, e in sympy.factorint(m).items():
            fac[int(p)] = fac.get(int(p), 0) + e
    return PrimeFactorization(unit=unit, factors=tuple(sorted(fac.items())))


# ---------------------------------------------------------------------------
# Places of Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q: finite(p) for a prime p, or the archimedean place."""

    p: int | None  # None means the infinite place

    def __post_init__(self) -> None:
        if self.p is not None and not isprime(self.p):
            raise DomainError(f"finite place requires a prime, got {self.p}")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __repr__(self) -> str:
        return f"Place({self.p})" if self.p is not None else "Place(oo)"


INFINITE_PLACE = Place(None)


# ---------------------------------------------------------------------------
# FormalLog
# ---------------------------------------------------------------------------


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_ZERO = Fraction(0)

# The precision of the float rung at the bottom of FormalLog's ladder.
_FLOAT_PREC = 53

# The float rung gives up on a nonzero rational below this magnitude; see
# FormalLog._interval for why every rounding then stays in the normal range.
_FLOAT_TINY = 2.0**-960

_WHOLE_LINE = (-math.inf, math.inf)


@functools.cache
def _log_enclosure(p: int) -> tuple[float, float]:
    """(L, w) with L <= log p <= L + w: the lower end of mpmath's 53-bit
    interval enclosure of log p, and the interval's width.

    Both ends of a 53-bit enclosure are doubles, so the conversions are
    exact, and so is the width (Sterbenz: hi <= 2 lo since log p >= log 2).
    Not math.log, which is not guaranteed to be correctly rounded.
    """
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = _FLOAT_PREC
        lo_raw, hi_raw = iv.log(p)._mpi_
    finally:
        iv.prec = old
    lo, hi = (float(Fraction(*mpmath.libmp.to_rational(e))) for e in (lo_raw, hi_raw))
    return lo, hi - lo


@functools.cache
def _log_mpf(p: int, prec: int) -> mpmath.mpf:
    """mpmath.log(p) at a binary working precision.  decimal() renders
    thousands of values over a handful of primes, and the value depends on
    nothing else, so it is computed once per (p, precision)."""
    with mpmath.workprec(prec):
        return mpmath.log(p)


@functools.lru_cache(maxsize=1 << 12)
def _log_term(p: int, num: int, den: int, prec: int) -> tuple:
    """The raw libmp value of (num/den)*log p that decimal() adds: log p at
    the binary precision, times num, then divided by den, each rounded to
    nearest.  A scan report renders tens of thousands of such terms and
    most of them repeat, while few whole values do.  Keyed by ints, since
    hashing a Fraction costs more than the lookup saves."""
    lib = mpmath.libmp
    rnd = lib.round_nearest
    term = lib.mpf_mul(_log_mpf(p, prec)._mpf_, lib.from_int(num, prec, rnd), prec, rnd)
    return lib.mpf_div(term, lib.from_int(den), prec, rnd)


@functools.total_ordering
class FormalLog:
    """Exact value  const + sum_p coeffs[p] * log p  with rational parts.

    Every key of ``coeffs`` must be a prime: the public constructors raise
    DomainError on any other key.  The primes' logs together with 1 are
    then linearly independent over Q, so equality of represented real
    values is coefficient-wise equality, and a formal difference that is
    not identically zero represents a nonzero real.

    Strict ordering (``sign``) and ``floor_of_quotient`` are decided on a
    ladder of enclosing intervals (``_interval``).  Its first rung is a
    53-bit float evaluation with a proven error bound; when that interval
    does not decide, mpmath interval arithmetic takes over at 106 bits and
    doubles the precision until it does.  The ladder terminates because
    the represented value is nonzero, or irrational when a floor is asked.
    """

    __slots__ = ("coeffs", "const")

    def __init__(
        self,
        coeffs: Mapping[int, Rational] | None = None,
        const: Rational = 0,
    ) -> None:
        pruned: dict[int, Fraction] = {}
        if coeffs:
            for p, c in coeffs.items():
                p = int(p)
                Place(p)  # rejects a key that is not a prime
                c = _as_fraction(c)
                if c != 0:
                    pruned[p] = c
        self.coeffs = pruned
        self.const = _as_fraction(const)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_pruned(
        cls, coeffs: dict[int, Fraction], const: Fraction = _ZERO
    ) -> "FormalLog":
        """Wrap coefficients that are already nonzero Fractions on prime
        keys, and a Fraction constant, as they are: no conversion, pruning
        or primality test.  For the arithmetic below and for callers whose
        keys come from ``factor`` or a ``Place``."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        return self

    @classmethod
    def zero(cls) -> "FormalLog":
        return cls()

    @classmethod
    def of_log(cls, alpha: Rational) -> "FormalLog":
        """log|alpha| for a nonzero rational, as an exact prime-log sum."""
        alpha = _as_fraction(alpha)
        if alpha == 0:
            raise DomainError("log of 0")
        if abs(alpha) == 1:  # log 1 = 0, with nothing to factor
            return cls.zero()
        # numerator and denominator are coprime: no prime appears twice
        coeffs = {p: Fraction(e) for p, e in factor(alpha.numerator).factors}
        for p, e in factor(alpha.denominator).factors:
            coeffs[p] = Fraction(-e)
        return cls._from_pruned(coeffs)

    @classmethod
    def of_prime(cls, p: int, coefficient: Rational = 1) -> "FormalLog":
        return cls({p: coefficient})

    @classmethod
    def of_const(cls, c: Rational) -> "FormalLog":
        return cls(None, c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FormalLog") -> "FormalLog":
        return FormalLog.lincomb(((1, self), (1, other)))

    def __sub__(self, other: "FormalLog") -> "FormalLog":
        return FormalLog.lincomb(((1, self), (-1, other)))

    def __neg__(self) -> "FormalLog":
        return FormalLog.lincomb(((-1, self),))

    def scale(self, k: Rational) -> "FormalLog":
        return FormalLog.lincomb(((k, self),))

    __mul__ = scale
    __rmul__ = scale

    @classmethod
    def lincomb(cls, pairs: Iterable[tuple[Rational, "FormalLog"]]) -> "FormalLog":
        """sum of k * F over the (k, F) pairs, in one pass: the one place
        where coefficients are combined.

        The keys of ``coeffs`` are in the order in which they enter the
        running sum along the pairs: a key whose sum cancels to zero leaves
        it, and a later pair that brings the key back enters it again at
        the end.  ``decimal()`` adds the terms in that order.  Each key's
        sum is an integer numerator and denominator until the end, so at
        most one Fraction is built per key; a key that one pair with
        k = 1 or k = -1 brings keeps that pair's coefficient c, or -c,
        which needs no gcd.
        """
        # p -> (numerator, denominator, c while the sum is the one term ±c)
        acc: dict[int, tuple[int, int, Fraction | None]] = {}
        const_n, const_d = 0, 1
        for k, f in pairs:
            if not k:
                continue
            kn, kd = k.numerator, k.denominator
            unit = kd == 1 and (kn == 1 or kn == -1)
            if f.const:
                c = f.const
                const_n = const_n * kd * c.denominator + kn * c.numerator * const_d
                const_d *= kd * c.denominator
            for p, c in f.coeffs.items():
                n, d = kn * c.numerator, kd * c.denominator
                s = acc.get(p)
                if s is None:
                    acc[p] = (n, d, c if unit else None)
                    continue
                n, d = s[0] * d + n * s[1], s[1] * d
                if n:
                    acc[p] = (n, d, None)
                else:
                    del acc[p]
        return cls._from_pruned(
            {
                p: Fraction(n, d) if c is None else c if n == c.numerator else -c
                for p, (n, d, c) in acc.items()
            },
            Fraction(const_n, const_d) if const_n else _ZERO,
        )

    # -- comparisons --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalLog):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def sign(self) -> int:
        """Certified sign of the represented real value (-1, 0, +1)."""
        if not self.coeffs:
            return -1 if self.const < 0 else (1 if self.const > 0 else 0)
        for lo, hi in self._ladder():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def compare(self, other: "FormalLog") -> int:
        if self == other:
            return 0
        return (self - other).sign()

    # total_ordering builds <=, > and >= from __lt__ and __eq__
    def __lt__(self, other: "FormalLog") -> bool:
        return self.compare(other) < 0

    def _ladder(self) -> Iterator[tuple]:
        """The enclosures ``_interval`` gives of the value, from the float
        rung up, doubling the precision each time, for as long as the caller
        asks.  The float rung's (-inf, inf) is among them when it gives up."""
        prec = _FLOAT_PREC
        while True:
            yield self._interval(prec)
            prec *= 2

    def _interval(self, prec: int) -> tuple[float, float] | tuple[Fraction, Fraction]:
        """(lo, hi) with lo <= value <= hi, at the given binary precision.

        At prec > _FLOAT_PREC the ends are the exact rational ends of
        mpmath's interval arithmetic at that precision.  At prec ==
        _FLOAT_PREC they are floats, from a float evaluation whose error
        bound is proven here.

        Write u = 2**-53 and k = len(coeffs), fl(.) for round-to-nearest,
        x0 = fl(const) and a_p = fl(c_p) (``Fraction.__float__`` is an
        int/int true division, which CPython rounds correctly), (L_p, w_p)
        = ``_log_enclosure(p)``, so L_p <= log p <= L_p + w_p, and
        t_p = fl(a_p * L_p).  The rung computes, in floats and in order,

            s   = x0 + t_1 + ... + t_k          (left to right)
            A   = |x0| + |t_1| + ... + |t_k|
            W   = |a_1| w_1 + ... + |a_k| w_k
            err = (4k + 8) * 2**-52 * A + 2 W

        and returns (fl(s - err), fl(s + err)).  It returns (-inf, inf)
        instead when a conversion overflows, when s is not finite, or when
        a nonzero const or c_p converts to a float below 2**-960 in
        magnitude (0 and subnormals included).  Otherwise every a_p, x0
        and t_p (L_p >= log 2 > 1/2), every |a_p| w_p (w_p, a nonzero gap
        between doubles near L_p, is at least 2**-53) and the first term
        of err are normal, so each conversion and product obeys
        fl(x) = x/(1 + d) with |d| <= u (Higham, *Accuracy and Stability
        of Numerical Algorithms*, (2.5)), and each addition obeys
        fl(a + b) = (a + b)(1 + d), which holds with underflow too
        because a subnormal sum is exact.

        Bound.  Let V be the value and A, W the exact reals of the
        formulas above on the computed terms.
          (1) |x0 - const| <= u|x0|; and, writing c_p log p - a_p L_p =
              (c_p - a_p) log p + a_p (log p - L_p) with |c_p - a_p| <=
              u|a_p|, log p <= L_p + w_p and |a_p L_p| <= (1 + u)|t_p|,
              |t_p - c_p log p| <= (2u + u^2)|t_p| + (1 + u)|a_p| w_p.
          (2) Recursive summation of k + 1 terms errs by at most
              gamma_k A, gamma_k = ku/(1 - ku) <= 2ku (Higham, (4.4)).
          (3) Rounding s -+ err moves it by at most u(|s| + err), and
              |s| <= (1 + gamma_k) A.
        So fl(s - err) <= V <= fl(s + err) as soon as
              (1 - u) err >= (gamma_k + 3u + u gamma_k + u^2) A + (1 + u) W,
        which (2k + 4) u A + (1 + u) W covers.  The computed err is made of
        sums and products of nonnegative doubles, each term passing through
        at most k + 2 roundings, and of scalings by 2 and by the exact
        double (4k + 8) * 2**-52, so
              (1 - u) err >= (1 - u)^(k+3) ((8k + 16) u A + 2 W),
        which is at least 0.999 ((8k + 16) u A + 2 W) for k <= 2**40 and
        so exceeds the requirement on both terms.  Hence every decision
        taken on these floats (lo > 0, hi < 0, floor(lo) == floor(hi)) is
        a decision about V.
        """
        if prec == _FLOAT_PREC:
            try:
                s = float(self.const)
                if self.const and abs(s) < _FLOAT_TINY:
                    return _WHOLE_LINE
                mag = abs(s)
                width = 0.0
                for p, c in self.coeffs.items():
                    a = float(c)
                    if abs(a) < _FLOAT_TINY:
                        return _WHOLE_LINE
                    log_p, w = _log_enclosure(p)
                    t = a * log_p
                    s += t
                    mag += abs(t)
                    width += abs(a) * w
            except OverflowError:
                return _WHOLE_LINE
            if not math.isfinite(s):
                return _WHOLE_LINE
            err = (4 * len(self.coeffs) + 8) * 2.0**-52 * mag + 2.0 * width
            return s - err, s + err
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec
            total = iv.mpf(self.const.numerator) / iv.mpf(self.const.denominator)
            for p, c in self.coeffs.items():
                total += iv.log(p) * iv.mpf(c.numerator) / iv.mpf(c.denominator)
            lo_raw, hi_raw = total._mpi_
        finally:
            iv.prec = old
        # exact rationals: mpmath.mpf(raw) would round the ends to the
        # working precision, which can move them across an integer
        return (
            Fraction(*mpmath.libmp.to_rational(lo_raw)),
            Fraction(*mpmath.libmp.to_rational(hi_raw)),
        )

    def floor_of_quotient(self, q: int) -> int:
        """floor(value / q) for a positive integer q, exactly certified.

        If the value has any prime-log component it is irrational, so the
        quotient can never sit on an integer and interval narrowing resolves
        the floor.  A pure-constant value floors as a rational.
        """
        if q <= 0:
            raise DomainError("q must be positive")
        if not self.coeffs:
            return math.floor(self.const / q)
        scaled = self.scale(Fraction(1, q))  # exact; intervals stay conservative
        for lo, hi in scaled._ladder():
            if lo > -math.inf and hi < math.inf:  # else the float rung gave up
                flo = math.floor(lo)
                if flo == math.floor(hi):
                    return flo

    # -- renderings ---------------------------------------------------------

    def to_float(self) -> float:
        return float(self.decimal(17))

    def decimal(self, digits: int = 15) -> str:
        """Decimal rendering with the requested significant digits.

        The operations of ``mpmath.workdps(digits + 10)`` on raw libmp
        values, each rounded to nearest at its binary precision, then
        ``nstr``'s formatting: the same bytes, without entering an mpmath
        context per call.  The terms are added in the order of ``coeffs``;
        each rounded c*log p comes from the bounded cache ``_log_term``."""
        lib = mpmath.libmp
        prec, rnd = lib.dps_to_prec(digits + 10), lib.round_nearest
        # mpf(n) rounds n to the working precision; an int divisor does not
        num, den = self.const.numerator, self.const.denominator
        total = lib.mpf_div(lib.from_int(num, prec, rnd), lib.from_int(den), prec, rnd)
        for p, c in self.coeffs.items():
            term = _log_term(p, c.numerator, c.denominator, prec)
            total = lib.mpf_add(total, term, prec, rnd)
        return lib.to_str(total, digits, strip_zeros=False)

    def symbolic(self) -> str:
        """Human-readable exact form, e.g. '(1/4)*log(2) + log(3)'."""
        parts = []
        if self.const != 0:
            parts.append(str(self.const))
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            if c == 1:
                parts.append(f"log({p})")
            else:
                parts.append(f"({c})*log({p})")
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        """JSON-friendly exact representation."""
        return {
            "const": str(self.const),
            "coeffs": {str(p): str(c) for p, c in sorted(self.coeffs.items())},
            "decimal": self.decimal(15),
        }

    def __repr__(self) -> str:
        return f"FormalLog({self.symbolic()})"


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord_at(alpha: Rational, place: Place) -> int | FormalLog:
    """Additive valuation at a place.

    Finite p: the exponent of p in alpha.  Infinite place: -log|alpha| as a
    FormalLog, the sign convention under which ord_plus measures proximity
    to 0 at every place.
    """
    alpha = _as_fraction(alpha)
    if alpha == 0:
        raise DomainError("valuation of 0; use ord_plus for the oo sentinel")
    if place.is_finite:
        p = place.p
        return _int_valuation(alpha.numerator, p) - _int_valuation(alpha.denominator, p)
    return -FormalLog.of_log(alpha)


def ord_plus(alpha: Rational, place: Place):
    """Clamped valuation max(ord, 0); total, with ord_plus(0) = +infinity.

    Returns a nonnegative int at finite places, a FormalLog at the infinite
    place, or the INFINITY sentinel for alpha = 0.
    """
    alpha = _as_fraction(alpha)
    if alpha == 0:
        return INFINITY
    if place.is_finite:
        return max(ord_at(alpha, place), 0)
    # -log|alpha| > 0 exactly when |alpha| < 1; nothing is factored otherwise
    return ord_at(alpha, place) if abs(alpha) < 1 else FormalLog.zero()

