"""Weight vectors: classification, reduction, well-formalization, singular locus."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .exactnum import DomainError, ParseError


@dataclass(frozen=True)
class WeightVector:
    """Weights (q_0, ..., q_n) with their lcm m, gcd d, and classification."""

    q: tuple[int, ...]
    m: int
    d: int
    reduced: bool
    well_formed: bool

    def __str__(self) -> str:
        return ",".join(str(qi) for qi in self.q)


def classify(q: Sequence[int]) -> WeightVector:
    """Build a WeightVector, validating and computing all classification data."""
    q = tuple(int(x) for x in q)
    if len(q) < 2:
        raise DomainError("need at least two weights")
    if any(x < 1 for x in q):
        raise DomainError("weights must be positive integers")
    m = math.lcm(*q)
    d = math.gcd(*q)
    # well-formed: every n-element sub-tuple has gcd 1
    wf = all(math.gcd(*(q[:i] + q[i + 1 :])) == 1 for i in range(len(q)))
    return WeightVector(q=q, m=m, d=d, reduced=(d == 1), well_formed=wf)


def parse_weights(text: str) -> WeightVector:
    """Parse a comma-separated weight list, e.g. '2,4,6,10'."""
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"malformed weight list {text!r}") from exc
    return classify(parts)


def reduce_weights(w: WeightVector) -> tuple[WeightVector, int]:
    """Divide out the common factor d of the weights.

    Point coordinates are unchanged under this isomorphism; logarithmic
    heights rescale as lwh_{d*q} = (1/d) * lwh_q.
    """
    d = w.d
    return classify([qi // d for qi in w.q]), d


def well_formalize(
    w: WeightVector,
) -> tuple[WeightVector, list[tuple[int, int]], Callable[[Sequence], tuple]]:
    """Make reduced weights well-formed, recording the coordinate map.

    While some index i has d' = gcd of the other weights > 1, divide the
    other weights by d' and raise the i-th coordinate to the d'-th power.
    Always picks the smallest admissible index, giving a deterministic
    normal form.  Returns (new weights, steps, point transform).
    """
    if not w.reduced:
        raise DomainError("well_formalize expects reduced weights; reduce first")
    q = list(w.q)
    steps: list[tuple[int, int]] = []
    while True:
        for i in range(len(q)):
            others = q[:i] + q[i + 1 :]
            dp = math.gcd(*others)
            if dp > 1:
                for j in range(len(q)):
                    if j != i:
                        q[j] //= dp
                steps.append((i, dp))
                break
        else:
            break

    def transform(coords: Sequence) -> tuple:
        xs = list(coords)
        for i, dp in steps:
            xs[i] = xs[i] ** dp
        return tuple(xs)

    return classify(q), steps, transform


def is_singular(w: WeightVector, coords: Sequence[int]) -> bool:
    """Membership in the singular locus of a well-formed weighted space.

    True iff some prime p | m divides q_i for every index i with x_i != 0,
    that is, iff the gcd of the weights on the support exceeds 1 (a prime
    dividing that gcd divides some q_i, hence m).
    """
    if not w.well_formed:
        raise DomainError("singular-locus test requires well-formed weights")
    if all(x == 0 for x in coords):
        raise DomainError("all-zero point")
    return math.gcd(*(qi for qi, x in zip(w.q, coords) if x != 0)) > 1
