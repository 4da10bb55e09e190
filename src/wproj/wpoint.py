"""Points of P_w(Q): integral representatives, wgcd, normalization,
canonical forms under the rational scaling action, and the Veronese map."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import DomainError, ParseError, Rational, _int_valuation, factor
from .wspace import WeightVector


@dataclass(frozen=True)
class WPoint:
    """An integer-coordinate representative of a point of P_w(Q)."""

    w: WeightVector
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.w.q):
            raise DomainError("coordinate/weight length mismatch")
        if not any(self.coords):
            raise DomainError("all-zero point")
        if any(not isinstance(x, int) for x in self.coords):
            raise DomainError("WPoint coordinates must be integers")

    @functools.cached_property
    def cached_wgcd(self) -> int:
        """``wgcd_tuple`` of the coordinates, computed when first read."""
        return wgcd_tuple(self.coords, self.w.q)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.coords) if x != 0)

    def __str__(self) -> str:
        return "[" + ":".join(str(x) for x in self.coords) + "]"


def _vanishing(coords: Sequence[int]) -> tuple[int, ...]:
    """The indices of the zero coordinates, the complement of the support."""
    if 0 not in coords:  # most points, and a quicker test than the scan
        return ()
    return tuple(i for i, c in enumerate(coords) if c == 0)


def integralize(coords: Sequence[Rational], w: WeightVector) -> WPoint:
    """Scale rational coordinates by the minimal positive lambda into Z.

    Per prime p the required exponent of lambda is
    max_i ceil(max(-ord_p(x_i), 0) / q_i).
    """
    xs = [Fraction(x) for x in coords]
    if all(x == 0 for x in xs):
        raise DomainError("all-zero point")
    lam = 1
    denoms = math.lcm(*(x.denominator for x in xs))
    for p, _ in factor(denoms).factors:
        e = 0
        for x, q in zip(xs, w.q):
            if x == 0:
                continue
            vp = _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
            if vp < 0:
                e = max(e, -(vp // q))  # ceil(-vp / q)
        lam *= p**e
    return _scaled(lam, xs, w)


def _scaled(lam: Rational, coords: Sequence[Rational], w: WeightVector) -> WPoint:
    """The point (lambda^{q_i} x_i), whose coordinates must be integers."""
    out = []
    for c, q in zip(coords, w.q):
        val = c * lam**q
        if val.denominator != 1:
            raise DomainError(
                f"non-integral coordinate {val} under lambda={lam}; integralize first"
            )
        out.append(val.numerator)
    return WPoint(w, tuple(out))


def _level(coords: Sequence[int], q: Sequence[int], p: int) -> Fraction:
    """The level c_p = min_{x_i != 0} v_p(x_i)/q_i of a tuple at a prime p."""
    return min(Fraction(_int_valuation(x, p), qi) for x, qi in zip(coords, q) if x)


def _levels(coords: Sequence[int], q: Sequence[int]) -> dict[int, Fraction]:
    """{p: c_p} over the primes with c_p > 0, in increasing order.

    c_p > 0 exactly when p divides every nonzero coordinate, so only the gcd
    of the nonzero coordinates is factored."""
    g = math.gcd(*coords)
    if g <= 1:
        return {}
    return {p: _level(coords, q, p) for p, _ in factor(g).factors}


def wgcd_tuple(coords: Sequence[int], q: Sequence[int]) -> int:
    """Largest g with g^{q_i} | x_i for all i; zero coordinates unconstrained.

    Computed by the floor formula: the product over primes p of
    p^{floor(c_p)}, c_p the level from ``_levels``.
    """
    if not any(coords):
        raise DomainError("all-zero tuple")
    return math.prod(p ** math.floor(c) for p, c in _levels(coords, q).items())


def wgcd(x: WPoint) -> int:
    return x.cached_wgcd


def normalize(x: WPoint) -> WPoint:
    """Divide out wgcd: coordinates x_i / g^{q_i}; result has wgcd 1."""
    g = x.cached_wgcd
    if g == 1:
        return x
    return WPoint(x.w, tuple(c // g**q for c, q in zip(x.coords, x.w.q)))


def _support_gcd(coords: Sequence[int], q: Sequence[int]) -> int:
    return math.gcd(*(qi for c, qi in zip(coords, q) if c != 0))


def _sign_flip(coords: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The other sign pattern of a point; ds is the weight gcd on its support.

    Admissible lambda are eps * prod p^{t_p} with t_p in (1/ds)Z and eps a
    root of unity with every eps^{q_i} rational; the sign patterns realized
    on the support form the cyclic group generated by ((-1)^{q_i/ds})_i,
    which has order 2 (some q_i/ds is odd).
    """
    ds = _support_gcd(coords, q)
    return tuple(-c if (qi // ds) % 2 else c for c, qi in zip(coords, q))


def _lex_key(coords: Sequence[int]) -> tuple[int, ...]:
    # magnitudes compare first; at equal magnitude positive before negative
    return tuple(2 * abs(c) + (c < 0) for c in coords)


def _sign_key(coords: Sequence[int]) -> tuple:
    """Orbit tie-break: last nonzero coordinate positive wins, then lex."""
    last = max(i for i, c in enumerate(coords) if c != 0)
    return (coords[last] < 0, _lex_key(coords))


def _canonical_coords(coords: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The coordinates of the unique orbit representative of a nonzero
    integer tuple under the full rational scaling action.

    Stage 1 divides, per prime p, by p^{q_i t_p} with
    t_p = floor(ds * c_p) / ds, c_p the level from ``_levels`` and ds the
    gcd of the weights on the tuple's support (zero coordinates impose no
    constraint on lambda, so the support lattice is the right one); the
    level left at p is c_p - t_p < 1/ds, so one pass suffices.
    Stage 2 picks the ``_sign_key`` minimum of the two sign patterns
    reachable by roots of unity.  Idempotent; equivalent inputs agree.
    """
    ds = _support_gcd(coords, q)
    for p, c in _levels(coords, q).items():
        t = math.floor(ds * c)
        if t:
            coords = [v // p ** (qi * t // ds) for v, qi in zip(coords, q)]
    stage1 = tuple(coords)
    return min(stage1, _sign_flip(stage1, q), key=_sign_key)


def canonicalize(x: WPoint) -> WPoint:
    """Unique orbit representative under the full rational scaling action:
    the point with coordinates ``_canonical_coords``."""
    return WPoint(x.w, _canonical_coords(x.coords, x.w.q))


def equals(x: WPoint, y: WPoint) -> bool:
    """Same point of P_w(Q)?  Decided via canonical forms."""
    if x.w.q != y.w.q:
        raise DomainError("points live in different weighted spaces")
    return canonicalize(x).coords == canonicalize(y).coords


def act(lam: Rational, x: WPoint) -> WPoint:
    """The scaling action lambda * x = (lambda^{q_i} x_i); must stay integral."""
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    return _scaled(lam, x.coords, x.w)


def _veronese_powers(coords: Sequence[int], w: WeightVector) -> list[int]:
    """The powers x_i^{m/q_i}; their absolute values order the
    |x_i|^{1/q_i} exactly."""
    return [c ** (w.m // q) for c, q in zip(coords, w.q)]


def _veronese_image(coords: Sequence[int], w: WeightVector) -> list[int]:
    """The classical projective image (x_i^{m/q_i}), gcd-reduced.  Its
    largest absolute value is wh(x)^m, the classical height of the image."""
    raw = _veronese_powers(coords, w)
    g = math.gcd(*raw)
    return [c // g for c in raw]


def _wh_m(coords: Sequence[int], w: WeightVector) -> int:
    """The exact integer wh(x)^m of a nonzero integer tuple: the classical
    height of its Veronese image, max |x_i^{m/q_i}| / gcd, with no reduced
    list built."""
    raw = _veronese_powers(coords, w)
    return max(map(abs, raw)) // math.gcd(*raw)


def veronese(x: WPoint) -> tuple[int, ...]:
    """phi_m: the gcd-reduced Veronese image, sign-normalized so the first
    nonzero coordinate is positive."""
    out = _veronese_image(x.coords, x.w)
    for c in out:
        if c != 0:
            if c < 0:
                out = [-v for v in out]
            break
    return tuple(out)


def parse_coords(text: str, w: WeightVector) -> list[Fraction]:
    """Colon-separated rational coordinates, one per weight, e.g. '1/2:4:8'."""
    try:
        coords = [Fraction(part) for part in text.split(":")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed coordinates {text!r}") from exc
    if len(coords) != len(w.q):
        raise ParseError(
            f"{text!r} has {len(coords)} coordinates but the weights have {len(w.q)}"
        )
    return coords


def parse_point(text: str, w: WeightVector) -> WPoint:
    """The point with coordinates ``parse_coords(text, w)``, integralized."""
    return integralize(parse_coords(text, w), w)
