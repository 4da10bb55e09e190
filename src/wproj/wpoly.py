"""Weighted homogeneous polynomials: parsing, validation, exact evaluation,
and subscheme-associated height functions."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactnum import (
    INFINITE_PLACE,
    DomainError,
    FormalLog,
    ParseError,
    Place,
    _int_valuation,
)
from .wheight import _support_primes, local_height
from .wpoint import WPoint, _level


def _eval_terms(terms, point) -> int:
    """Exact value of sum coeff * prod x_i^{e_i} over (coeff, exponents) terms."""
    total = 0
    for coeff, exps in terms:
        v = coeff
        for x, e in zip(point, exps):
            if e:
                v *= x**e
        total += v
    return total


def _monomial_str(names, exps) -> str:
    body = " ".join(
        (n if e == 1 else f"{n}^{e}") for n, e in zip(names, exps) if e > 0
    )
    return body or "1"


@dataclass(frozen=True)
class WPoly:
    """A weighted homogeneous polynomial with integer coefficients.

    Terms are (coefficient, exponent vector), sorted in graded
    reverse-lexicographic order, no duplicates, no zero coefficients.
    """

    vars: tuple[str, ...]
    weights: tuple[int, ...]
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    degree: int

    def eval(self, point: Sequence[int]) -> int:
        if len(point) != len(self.vars):
            raise DomainError(
                f"expected {len(self.vars)} values, got {len(point)}"
            )
        return _eval_terms(self.terms, point)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, (coeff, exps) in enumerate(self.terms):
            mag, body = abs(coeff), _monomial_str(self.vars, exps)
            if mag != 1:
                body = str(mag) if body == "1" else f"{mag} {body}"
            if k == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


def _grevlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


_IDENT = r"[A-Za-z_]\w*"
_TOKEN = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<ident>{_IDENT})|(?P<op>[-+*^]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse(text: str, weights: dict[str, int]) -> WPoly:
    """Parse polynomial text against a name -> weight table.

    Grammar: poly := ['-'] term (('+'|'-') term)*;  term := [integer]
    factor*;  factor := ident ('^' uint)?;  juxtaposition (whitespace or
    '*') is product, and a '*' stands between a coefficient or factor and
    a following factor.  Rejects inhomogeneous input, listing the
    offending monomials with their weighted degrees.
    """
    names = tuple(weights)
    index = {n: i for i, n in enumerate(names)}
    qs = tuple(weights[n] for n in names)

    tokens = _tokenize(text)
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(text))

    terms: list[tuple[int, list[int]]] = []
    sign = 1
    kind, val, pos = peek()
    if kind == "op" and val in "+-":
        sign = -1 if val == "-" else 1
        i += 1
    while True:
        # one term
        coeff = sign
        exps = [0] * len(names)
        saw_factor = False
        kind, val, pos = peek()
        if kind == "int":
            coeff *= int(val)
            saw_factor = True
            i += 1
        while True:
            kind, val, pos = peek()
            if kind == "op" and val == "*":
                i += 1
                kind, val, after = peek()
                if not saw_factor or kind != "ident":
                    raise ParseError(f"'*' at position {pos} needs a factor on each side")
                pos = after
            if kind != "ident":
                break
            if val not in index:
                raise ParseError(f"unknown variable {val!r} at position {pos}")
            vi = index[val]
            i += 1
            e = 1
            kind2, val2, pos2 = peek()
            if kind2 == "op" and val2 == "^":
                i += 1
                kind3, val3, pos3 = peek()
                if kind3 != "int":
                    raise ParseError(f"expected exponent at position {pos3}")
                e = int(val3)
                i += 1
            exps[vi] += e
            saw_factor = True
        if not saw_factor:
            raise ParseError(f"expected a term at position {pos}")
        terms.append((coeff, exps))
        kind, val, pos = peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        else:
            raise ParseError(f"expected '+' or '-' at position {pos}")

    # combine duplicates, canonical order
    combined: dict[tuple[int, ...], int] = {}
    for coeff, exps in terms:
        key = tuple(exps)
        combined[key] = combined.get(key, 0) + coeff
    clean = [(c, e) for e, c in combined.items() if c != 0]
    clean.sort(key=lambda t: _grevlex_key(t[1]))
    if not clean:
        raise ParseError("zero polynomial")

    degrees = {sum(e * q for e, q in zip(exps, qs)) for _, exps in clean}
    if len(degrees) != 1:
        bad = ", ".join(
            f"{_monomial_str(names, exps)} (degree {sum(e * q for e, q in zip(exps, qs))})"
            for _, exps in clean
        )
        raise ParseError(f"not weighted homogeneous: {bad}")
    return WPoly(vars=names, weights=qs, terms=tuple(clean), degree=degrees.pop())


# ---------------------------------------------------------------------------
# .wpoly files: a 'weights:' header line plus one polynomial per stanza
# ---------------------------------------------------------------------------


def parse_wpoly_file(text: str) -> tuple[dict[str, int], list[WPoly]]:
    weights: dict[str, int] | None = None
    stanzas: list[str] = []
    current: list[str] = []
    # the end of the text closes the last stanza, as a blank line does
    for line in [*text.splitlines(), ""]:
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped.lower().startswith("weights:"):
            if weights is not None:
                raise ParseError("duplicate weights header")
            weights = {}
            for part in stripped[len("weights:") :].split():
                name, _, qtext = part.partition("=")
                try:
                    q = int(qtext)
                except ValueError:
                    raise ParseError(f"bad weights entry {part!r}") from None
                if not re.fullmatch(_IDENT, name):
                    # no polynomial could name it
                    raise ParseError(f"variable name {name!r} is not an identifier")
                if name in weights:
                    raise ParseError(f"variable {name!r} named twice in the weights header")
                if q < 1:
                    raise DomainError("weights must be positive integers")
                weights[name] = q
            continue
        if not stripped:
            if current:
                stanzas.append(" ".join(current))
                current = []
            continue
        current.append(stripped)
    if weights is None:
        raise ParseError("missing 'weights:' header")
    if not stanzas:
        raise ParseError("no polynomials in file")
    return weights, [parse(s, weights) for s in stanzas]


# ---------------------------------------------------------------------------
# Subscheme heights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubschemeSpec:
    """Defining polynomials of a subscheme, with caller-asserted codimension.

    The codimension is not computed (no Groebner machinery in scope); it is
    echoed into every report that depends on it.
    """

    polys: tuple[WPoly, ...]
    asserted_codim: int

    def __post_init__(self) -> None:
        if not self.polys:
            raise DomainError("need at least one polynomial")
        if self.asserted_codim < 1:
            raise DomainError("codimension must be >= 1")
        v0 = self.polys[0].vars
        if any(f.vars != v0 or f.weights != self.polys[0].weights for f in self.polys):
            raise DomainError("polynomials must share variables and weights")


def _log_gcd_values(values: Sequence[int]) -> FormalLog | None:
    """log gcd of the nonzero values; None when every value is 0."""
    nonzero = [abs(v) for v in values if v != 0]
    if not nonzero:
        return None
    return FormalLog.of_log(math.gcd(*nonzero))


def _local_height_Y_values(
    spec: SubschemeSpec, x: WPoint, values: Sequence[int], place: Place
) -> FormalLog | None:
    """local_height_Y from the values f_j(x), evaluated once by the caller."""
    terms = [(f.degree, v) for f, v in zip(spec.polys, values) if v != 0]
    if not terms:
        return None
    if place.is_finite:
        p = place.p
        c = _level(x.coords, x.w.q, p)
        return FormalLog.of_prime(
            p, min(_int_valuation(abs(v), p) - d * c for d, v in terms)
        )
    # archimedean: -log(|f_j| / max_i |x_i|^{d_j/q_i})
    log_max = local_height(x, INFINITE_PLACE)
    return min(FormalLog.lincomb(((d, log_max), (-1, FormalLog.of_log(v)))) for d, v in terms)


def local_height_Y(spec: SubschemeSpec, x: WPoint, place: Place) -> FormalLog | None:
    """Local height of x relative to the subscheme, at one place:
    min_j { -log( |f_j(x)|_v / max_i |x_i|_v^{d_j/q_i} ) }.

    Returns None (the infinite sentinel) when every f_j vanishes at x.
    """
    values = [f.eval(x.coords) for f in spec.polys]
    return _local_height_Y_values(spec, x, values, place)


def _finite_height_Y(spec: SubschemeSpec, x: WPoint, values: Sequence[int]) -> FormalLog:
    """Sum of the finite local subscheme heights, from the values f_j(x)."""
    # at a prime of neither gcd, c_p = 0 and some nonzero f_j(x) is prime to p
    primes = _support_primes([math.gcd(*values), math.gcd(*x.coords)])
    return FormalLog.lincomb(
        (1, _local_height_Y_values(spec, x, values, Place(p))) for p in primes
    )


def global_height_Y(spec: SubschemeSpec, x: WPoint) -> FormalLog:
    """Sum of local subscheme heights over all places; infinite on Y."""
    values = [f.eval(x.coords) for f in spec.polys]
    if all(v == 0 for v in values):
        raise DomainError("point lies on the subscheme: infinite height")
    arch = _local_height_Y_values(spec, x, values, INFINITE_PLACE)
    return arch + _finite_height_Y(spec, x, values)


def log_gcd_Y(
    spec: SubschemeSpec,
    alpha: Sequence[int],
    require_unit_content: bool = True,
) -> FormalLog:
    """log gcd(|f_1(alpha)|, ..., |f_t(alpha)|) for an integer tuple.

    When gcd(alpha) = 1 this equals the sum of finite-place subscheme
    heights exactly.  With require_unit_content the hypothesis is enforced;
    otherwise the caller accepts the identity only up to a bounded error.
    """
    if require_unit_content and math.gcd(*alpha) != 1:
        raise DomainError("coordinates must have gcd 1 (or pass require_unit_content=False)")
    lhs = _log_gcd_values([f.eval(alpha) for f in spec.polys])
    if lhs is None:
        raise DomainError("all defining polynomials vanish")
    return lhs


def log_gcd_residual(spec: SubschemeSpec, x: WPoint) -> FormalLog:
    """log_gcd_Y minus the finite-place local height sum.

    Identically zero when gcd(coords) = 1; under the weaker wgcd = 1
    hypothesis the identity only holds up to a bounded error, and this is
    that error, reported rather than asserted away.
    """
    values = [f.eval(x.coords) for f in spec.polys]
    lhs = _log_gcd_values(values)
    if lhs is None:
        raise DomainError("point lies on the subscheme")
    return lhs - _finite_height_Y(spec, x, values)
