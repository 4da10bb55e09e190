"""Exact integer/rational arithmetic foundation.

Everything downstream (heights, gcds, the scan harness) is built on three
things defined here: prime factorizations, places of Q, and ``FormalLog`` --
an exact representation of  c + sum_p c_p * log p  with rational c, c_p.
No height in this package is ever a float; decimals are renderings only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import mpmath
import sympy

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

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def factor(n: int) -> PrimeFactorization:
    """Factor a nonzero integer into sign times prime powers.

    Backed by sympy's factorint (trial division, Pollard rho/p-1, ECM),
    which is deterministic and exact for the desk-scale inputs used here.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    unit = -1 if n < 0 else 1
    fac = sympy.factorint(abs(n))
    factors = tuple(sorted((int(p), int(e)) for p, e in fac.items()))
    return PrimeFactorization(unit=unit, factors=factors)


# ---------------------------------------------------------------------------
# Places of Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q: finite(p) for a prime p, or the archimedean place."""

    p: int | None  # None means the infinite place

    def __post_init__(self) -> None:
        if self.p is not None and not sympy.isprime(self.p):
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


class FormalLog:
    """Exact value  const + sum_p coeffs[p] * log p  with rational parts.

    The primes' logs together with 1 are linearly independent over Q, so
    equality of represented real values is coefficient-wise equality.
    Strict ordering is decided by interval arithmetic at doubling precision;
    it terminates because a formal difference that is not identically zero
    represents a nonzero real.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(
        self,
        coeffs: Mapping[int, Rational] | None = None,
        const: Rational = 0,
    ) -> None:
        pruned: dict[int, Fraction] = {}
        if coeffs:
            for p, c in coeffs.items():
                c = _as_fraction(c)
                if c != 0:
                    pruned[int(p)] = c
        object.__setattr__(self, "coeffs", pruned)
        object.__setattr__(self, "const", _as_fraction(const))
        object.__setattr__(self, "_hash", None)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FormalLog":
        return cls()

    @classmethod
    def of_log(cls, alpha: Rational) -> "FormalLog":
        """log|alpha| for a nonzero rational, as an exact prime-log sum."""
        alpha = _as_fraction(alpha)
        if alpha == 0:
            raise DomainError("log of 0")
        coeffs: dict[int, Fraction] = {}
        for p, e in factor(alpha.numerator).factors:
            coeffs[p] = coeffs.get(p, Fraction(0)) + e
        for p, e in factor(alpha.denominator).factors:
            coeffs[p] = coeffs.get(p, Fraction(0)) - e
        return cls(coeffs)

    @classmethod
    def of_prime(cls, p: int, coefficient: Rational = 1) -> "FormalLog":
        return cls({p: coefficient})

    @classmethod
    def of_const(cls, c: Rational) -> "FormalLog":
        return cls(None, c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FormalLog") -> "FormalLog":
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return FormalLog(coeffs, self.const + other.const)

    def __sub__(self, other: "FormalLog") -> "FormalLog":
        return self + (-other)

    def __neg__(self) -> "FormalLog":
        return FormalLog({p: -c for p, c in self.coeffs.items()}, -self.const)

    def scale(self, k: Rational) -> "FormalLog":
        k = _as_fraction(k)
        if k == 0:
            return FormalLog()
        return FormalLog({p: k * c for p, c in self.coeffs.items()}, k * self.const)

    __mul__ = scale
    __rmul__ = scale

    # -- comparisons --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalLog):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((tuple(sorted(self.coeffs.items())), self.const))
            object.__setattr__(self, "_hash", h)
        return h

    def sign(self) -> int:
        """Certified sign of the represented real value (-1, 0, +1)."""
        if not self.coeffs:
            return -1 if self.const < 0 else (1 if self.const > 0 else 0)
        prec = 64
        while True:
            lo, hi = self._interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def compare(self, other: "FormalLog") -> int:
        if self == other:
            return 0
        return (self - other).sign()

    def __lt__(self, other: "FormalLog") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "FormalLog") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "FormalLog") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "FormalLog") -> bool:
        return self.compare(other) >= 0

    def _interval(self, prec: int) -> tuple[mpmath.mpf, mpmath.mpf]:
        """Enclosing interval of the real value at the given binary precision."""
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
        # endpoints as plain mpf values, exactly (no re-rounding)
        return mpmath.mpf(lo_raw), mpmath.mpf(hi_raw)

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
        prec = 64
        while True:
            lo, hi = scaled._interval(prec)
            flo = mpmath.floor(lo)
            fhi = mpmath.floor(hi)
            if flo == fhi:
                return int(flo)
            prec *= 2

    # -- renderings ---------------------------------------------------------

    def to_float(self) -> float:
        return float(self.decimal(17))

    def decimal(self, digits: int = 15) -> str:
        """Decimal rendering with the requested significant digits."""
        with mpmath.workdps(digits + 10):
            total = mpmath.mpf(self.const.numerator) / self.const.denominator
            for p, c in self.coeffs.items():
                total += mpmath.log(p) * mpmath.mpf(c.numerator) / c.denominator
            return mpmath.nstr(total, digits, strip_zeros=False)

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
    v = ord_at(alpha, place)
    return v if v.sign() > 0 else FormalLog.zero()

