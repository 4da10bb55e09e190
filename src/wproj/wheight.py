"""Height functions: local/global weighted heights, S-split heights,
weighted gcds (multiplicative and logarithmic), and the generalized gcd."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import (
    INFINITE_PLACE,
    DomainError,
    FormalLog,
    Place,
    Rational,
    factor,
    ord_plus,
)
from .wpoint import WPoint, _level, _levels, _veronese_powers, _wh_m, wgcd_tuple
from .wspace import WeightVector


def _support_primes(values: Iterable[int]) -> list[int]:
    """Sorted primes dividing some nonzero value, each value factored alone."""
    return sorted({p for v in values if v != 0 for p, _ in factor(v).factors})


def local_height(x: WPoint, place: Place) -> FormalLog:
    """log max_i |x_i|_v^{1/q_i} at one place, exactly."""
    if place.is_finite:
        # a Place holds a prime, so the key needs no second primality test
        v = _level(x.coords, x.w.q, place.p)
        return FormalLog._from_pruned({place.p: -v} if v else {})
    powers = [abs(v) for v in _veronese_powers(x.coords, x.w)]
    i = powers.index(max(powers))
    return FormalLog.of_log(abs(x.coords[i])).scale(Fraction(1, x.w.q[i]))


def lwh(x: WPoint) -> FormalLog:
    """Logarithmic weighted height: the archimedean local height minus
    sum_p c_p log p over ``_levels``, so only the gcd of the coordinates
    and the one coordinate of the archimedean term are factored."""
    finite = {p: -c for p, c in _levels(x.coords, x.w.q).items()}
    return local_height(x, INFINITE_PLACE) + FormalLog._from_pruned(finite)


def wh_m_power(x: WPoint) -> int:
    """The exact integer wh(x)^m, via the classical height of the Veronese
    image: max |coordinate| after gcd reduction."""
    return _wh_m(x.coords, x.w)


def hgcd(alpha: Rational, beta: Rational) -> FormalLog:
    """Generalized logarithmic gcd: sum over places of min(nu+(a), nu+(b)).
    In lowest terms nu_p+(a) = v_p(a.numerator), so the finite places give
    log gcd(a.numerator, b.numerator); gcd(0, n) = |n| as nu_p+(0) = oo."""
    a, b = Fraction(alpha), Fraction(beta)
    if a == 0 and b == 0:
        raise DomainError("hgcd(0, 0) is undefined")
    finite = FormalLog.of_log(math.gcd(a.numerator, b.numerator))
    # min(nu+(a), nu+(b)) at oo is nu+ of the larger magnitude
    return finite + ord_plus(max(abs(a), abs(b)), INFINITE_PLACE)


def hwgcd_mult(coords: Sequence[Rational], w: WeightVector) -> int:
    """Generalized weighted gcd over finite places:
    prod_p p^{min_i floor(nu_p+(x_i)/q_i)}; zero coordinates unconstrained.

    In lowest terms nu_p+(a/b) = max(v_p(a/b), 0) = v_p(a), so this is the
    weighted gcd of the numerators."""
    return wgcd_tuple([Fraction(c).numerator for c in coords], w.q)


def log_hwgcd_point(x: WPoint) -> FormalLog:
    """Generalized logarithmic weighted gcd of the stored representative.

    Finite part: sum_p min_i floor(v_p(x_i)/q_i) * log p.  Archimedean
    term: min_i floor(nu_oo+(x_i)/q_i), identically 0 on integer
    representatives since nonzero integers have nu_oo+ = 0.
    """
    # archimedean floor is 0: every nonzero integer has |x| >= 1
    return FormalLog.of_log(x.cached_wgcd)


def log_hwgcd_tuple(coords: Sequence[Rational], w: WeightVector) -> FormalLog:
    """log hwgcd of a rational tuple, archimedean floor term included.

    The archimedean term min_i floor(nu_oo+(x_i)/q_i) is an exact integer,
    carried on the constant (log e) component of FormalLog.
    """
    xs = [Fraction(c) for c in coords]
    if all(c == 0 for c in xs):
        raise DomainError("all-zero tuple")
    total = FormalLog.of_log(hwgcd_mult(xs, w))
    arch = None
    for c, qi in zip(xs, w.q):
        if c == 0:
            continue
        v = ord_plus(c, INFINITE_PLACE)
        k = v.floor_of_quotient(qi)
        arch = k if arch is None else min(arch, k)
    if arch:
        total = total + FormalLog.of_const(arch)
    return total


@dataclass(frozen=True)
class SplitHeight:
    """A place-split divisor height: contributions inside and outside S."""

    in_S: FormalLog
    out_S: FormalLog

    def total(self) -> FormalLog:
        return self.in_S + self.out_S


def split_height_S(
    x: WPoint, S: Iterable[int], divisor: Sequence[int] | None = None
) -> SplitHeight:
    """S-split height for a multiset of coordinate hyperplanes H_i.

    divisor lists coordinate indices in 0..n-1 (default: all, i.e. -K_X).
    The per-place local term is (1/m) sum_i v_p(x_i) log p over the
    divisor; the archimedean nu+ term vanishes on integer coordinates, so
    in_S + out_S = (1/m) log|N| for N the product of the divisor
    coordinates, and out_S = (1/m) log |N|'_S exactly.  Each coordinate is
    factored on its own; N is never formed.
    """
    S = set(S)
    for p in S:
        Place(p)  # rejects an entry that is not a prime
    if x.cached_wgcd != 1:
        raise DomainError("split_height_S expects a normalized point")
    n = len(x.coords)
    idx = list(range(n)) if divisor is None else list(divisor)
    if not idx:
        raise DomainError("empty divisor")
    if any(not 0 <= i < n for i in idx):
        raise DomainError(f"divisor coordinate indices must lie in 0..{n - 1}")
    exps: dict[int, int] = {}  # v_p(N) = sum_i v_p(x_i)
    for i in idx:
        if x.coords[i] == 0:
            raise DomainError(
                f"coordinate {i} vanishes on the divisor support: infinite height"
            )
        for p, e in factor(x.coords[i]).factors:
            exps[p] = exps.get(p, 0) + e
    k = Fraction(1, x.w.m)
    primes = sorted(exps)
    # keys from factor are primes and every exponent is positive
    return SplitHeight(
        in_S=FormalLog._from_pruned({p: exps[p] * k for p in primes if p in S}),
        out_S=FormalLog._from_pruned({p: exps[p] * k for p in primes if p not in S}),
    )


def classical_height_log(coords: Sequence[int]) -> FormalLog:
    """Classical logarithmic projective height of an integer tuple."""
    g = math.gcd(*coords)
    if g == 0:
        raise DomainError("all-zero tuple")
    return FormalLog.of_log(max(abs(c) for c in coords) // g)
