"""Complete enumeration of bounded-weighted-height rational points and
hypersurface point search.

Canonical forms.  A nonzero integral x with support T, and d_T the gcd of
the weights on T, is the representative ``wpoint.canonicalize`` returns
for its point exactly when
  (i) its level c_p = min_{i in T} v_p(x_i)/q_i is below 1/d_T at every
      prime p (otherwise lambda = p^{-1/d_T} keeps x integral), and
  (ii) x is the ``_sign_key`` minimum of its two sign patterns.
The search builds only such tuples, each once, so no candidate is
canonicalized, deduplicated or factored.

Every candidate is a hit.  The required-nonzero rule
(``SearchConfig.nonvanishing``) skips each support that lacks a required
index before anything on it is built, so ``_collect`` only confirms wh
exactly and sorts.

Completeness strategy (one walk per support).  Each support is handled in
its reduced weights with bound B^{d_T}.  The primes p with c_p > 0, which
divide every nonzero coordinate, and their levels are a point's deflation
profile; canonicity puts each level in (0, 1), and x = D*y for the
profile's coordinate divisors D and a residual tuple y.  The finite places
contribute p^{-c_p} to the height, so the residual box, where y lies, grows
with the profile.  ``_deflation_profiles`` walks the profiles as a tree over
increasing primes with a multiplicative budget (patterns proportional to
the weights are impossible in (0, 1), so a positive budget gap always
exists and the admissible primes form a finite list).  Its root is the
empty profile: D = 1, the residual radii are the box radii floor(B^{q_i}),
and its points are the tuples of gcd 1 in the box.  ``_scan_box`` scans the
root of every support and ``_phase2_candidates`` walks the nonempty
profiles.  A support of one coordinate i has the one point e_i, which is
not scanned.  The sign rule (ii) fixes the sign of one coordinate per
support, so only that half of each residual box is scanned.  ``search``
proves that every canonical point of height at most B is then built exactly
once, from its own profile.

Box mode (``phase2=False``, ``--no-phase2``) is the same walk restricted to
the box |x_i| <= floor(B^{q_i}): the walk stops at a profile with some D_i
above the box radius, and each residual radius is floor(box_i / D_i).

Hits.  A point is one int from the moment it is built until it is
written: the key wh^m followed by the digits 2|c_i| + (c_i < 0) of its
coordinates, each ``PackedHits.width`` bits wide.  Every profile packs its
points D*y into one ``PackedHits`` as they arrive, so no list of tuples or
``SearchHit`` is built; ``_collect`` sorts the ints in place, which is the
order of (wh^m, ``_lex_key``), and the writers decode each key to text.
Every point is alive until it is written, so the keys are a search's peak
memory.  A ``SearchHit`` is built only when a caller reads one from
``SearchReport.hits``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, lt, mul

from ._fanout import fan_out
from .exactnum import DomainError, _nth_root_floor, _primes_upto
from .wpoint import WPoint, _vanishing, _wh_m, canonicalize
from .wpoly import WPoly, _eval_terms
from .wspace import WeightVector

# boxes above this volume go to the modular sieve: its set-up costs about
# as much as exact evaluation of a few dozen tuples
_FAST_PATH_VOLUME = 64
# the largest prime below 2^26, and the entries in one block of the sieve
_SIEVE_PRIME = 67_108_859
_SIEVE_BLOCK = 1 << 14
# keys decoded together by _decode
_DECODE_BLOCK = 1 << 10


@dataclass(frozen=True)
class SearchConfig:
    w: WeightVector
    bound: Fraction
    hypersurface: WPoly | None = None
    nonvanishing: frozenset[int] = frozenset()
    jobs: int = 1
    phase2: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise DomainError("jobs must be a positive integer")
        n = len(self.w.q)
        if any(not 0 <= i < n for i in self.nonvanishing):
            raise DomainError(f"nonvanishing coordinate indices must lie in 0..{n - 1}")
        if self.bound < 0:
            raise DomainError("the bound must be nonnegative")
        if self.hypersurface is not None and self.hypersurface.weights != self.w.q:
            raise DomainError("hypersurface weights do not match the search weights")


@dataclass(frozen=True, slots=True)
class SearchHit:
    """One point of a search, as ``SearchReport.hits`` hands it out: its
    canonical coordinates and its exact wh^m, with the search's shared
    weight vector.  No ``__dict__``; ``point`` and ``vanishing`` are built
    when asked for."""

    w: WeightVector
    coords: tuple[int, ...]
    wh_m: int

    @property
    def point(self) -> WPoint:
        return WPoint(self.w, self.coords)

    @property
    def vanishing(self) -> tuple[int, ...]:
        return _vanishing(self.coords)


def _pack(coords: Iterable[int], wh_m: int, width: int) -> int:
    """The key of a point: wh_m, then 2|c| + (c < 0) per coordinate, each
    in ``width`` bits."""
    k = wh_m
    for c in coords:
        k = k << width | (c << 1 if c >= 0 else -c << 1 | 1)
    return k


def _decode(
    keys: Sequence[int], width: int, n: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(wh_m, coords) of each key of n digits, ``width`` bits each.  The
    keys are decoded a block at a time and one coordinate position at a
    time, so each step is one list comprehension over the block."""
    mask = (1 << width) - 1
    shifts = range(width * (n - 1), -1, -width)
    top = width * n
    for lo in range(0, len(keys), _DECODE_BLOCK):
        block = keys[lo : lo + _DECODE_BLOCK]
        columns = [
            [-(d >> 1) if d & 1 else d >> 1 for d in [k >> s & mask for k in block]]
            for s in shifts
        ]
        yield from zip([k >> top for k in block], zip(*columns))


class PackedHits(Sequence):
    """The points of one search, one int each: every profile packs into one
    ``PackedHits``, which ``_collect`` sorts.

    A key is wh^m followed by the digits 2|c_i| + (c_i < 0), ``width`` bits
    each.  Every digit is below 2^width and every key has the same number of
    digits, so the ints order exactly as the pairs (wh^m, ``_lex_key``(coords))
    do.  ``fit`` widens the digits before a larger coordinate is added,
    repacking every key once and at least doubling the width, so a search
    repacks O(log) times.  Reading an item builds its ``SearchHit``;
    ``decoded`` gives (wh_m, coords) without one."""

    __slots__ = ("w", "width", "keys")

    def __init__(self, w: WeightVector, limit: int = 0) -> None:
        self.w = w
        # the width of the digit of -limit, the largest one of |c| <= limit
        self.width = (2 * limit + 1).bit_length()
        self.keys: list[int] = []

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int | slice) -> SearchHit | list[SearchHit]:
        if isinstance(i, slice):
            return [self._hit(k) for k in self.keys[i]]
        return self._hit(self.keys[i])

    def __iter__(self) -> Iterator[SearchHit]:
        w = self.w
        for wh_m, coords in self.decoded():
            yield SearchHit(w, coords, wh_m)

    def _hit(self, key: int) -> SearchHit:
        ((wh_m, coords),) = _decode((key,), self.width, len(self.w.q))
        return SearchHit(self.w, coords, wh_m)

    def decoded(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(wh_m, coords) of each point, in the order of ``keys``."""
        return _decode(self.keys, self.width, len(self.w.q))

    def add(self, coords: Sequence[int], wh_m: int) -> None:
        """Pack a point; ``fit`` must have made room for its coordinates."""
        self.keys.append(_pack(coords, wh_m, self.width))

    def fit(self, limit: int) -> None:
        """Make room for coordinates with |c| <= limit."""
        need = (2 * limit + 1).bit_length()
        if need > self.width:
            self._repack(max(need, 2 * self.width))

    def _repack(self, width: int) -> None:
        keys = self.keys
        points = _decode(keys, self.width, len(self.w.q))
        self.width = width
        # each key is read before its slot is written
        for j, (wh_m, coords) in enumerate(points):
            keys[j] = _pack(coords, wh_m, width)


@dataclass
class SearchReport:
    config: SearchConfig
    hits: PackedHits
    phase1_candidates: int
    phase2_candidates: int
    wall_time: float


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def _floor_pow(B: Fraction, e: int) -> int:
    v = B**e
    return v.numerator // v.denominator


# ---------------------------------------------------------------------------
# box scanning
# ---------------------------------------------------------------------------


def _scan_box_fast(terms, ranges) -> list[tuple[int, ...]]:
    """Sieve modulo P = _SIEVE_PRIME along the longest axis, then confirm
    over Z: an integer zero is zero mod P, so no root is missed.  Residues
    are below 2^26 and (P-1) + 2^11 (P-1)^2 < 2^63, so int64 sums of 2^11
    products cannot overflow between reductions."""
    import numpy as np

    P = _SIEVE_PRIME
    axis = max(range(len(ranges)), key=lambda i: len(ranges[i]))
    xs = ranges[axis]
    others = ranges[:axis] + ranges[axis + 1 :]
    shape = tuple(len(r) for r in others)
    split = [
        (exps[axis], coeff % P, exps[:axis] + exps[axis + 1 :]) for coeff, exps in terms
    ]

    def powers(values, exps):
        # v^e mod P per value, for the exponents that occur
        return {e: np.array([pow(v, e, P) for v in values], dtype=np.int64) for e in exps}

    tables = [powers(r, {rest[k] for _, _, rest in split}) for k, r in enumerate(others)]
    # fibre coefficients g_e mod P over the grid of the other axes, in
    # itertools.product order
    n_fibres = math.prod(shape)
    fibre = {e: np.zeros(n_fibres, dtype=np.int64) for e, _, _ in split}
    for e, c, rest in split:
        g = np.array(c, dtype=np.int64)
        for table, k in zip(tables, rest):
            g = g[..., None] * table[k] % P
        fibre[e] += g.reshape(-1)
        fibre[e] %= P
    rows = [(fibre[e], xp) for e, xp in powers(xs, fibre).items()]
    step = max(1, _SIEVE_BLOCK // len(xs))
    out = []
    for f0 in range(0, n_fibres, step):
        acc = np.zeros((min(step, n_fibres - f0), len(xs)), dtype=np.int64)
        for i, (g, xp) in enumerate(rows, 1):
            acc += np.multiply.outer(g[f0 : f0 + step], xp)
            if i % 2048 == 0:
                acc %= P
        fi, pos = np.divmod(np.flatnonzero(acc % P == 0), len(xs))
        idx = [a.tolist() for a in np.unravel_index(fi + f0, shape)]
        for s, j in enumerate(pos.tolist()):
            tup = [r[i[s]] for r, i in zip(others, idx)]
            tup.insert(axis, xs[j])
            tup = tuple(tup)
            if _eval_terms(terms, tup) == 0:
                out.append(tup)
    return out


def _scan_chunk(args) -> tuple[Iterable[tuple[int, ...]], int]:
    """Worker: the zeros of the terms in a box; returns (zeros, box volume).
    With no terms (None) every tuple is one, listed lazily, so only the
    calling process may run that."""
    terms, ranges = args
    volume = math.prod(map(len, ranges))
    if terms is None:
        return itertools.product(*ranges), volume
    if volume > _FAST_PATH_VOLUME:
        return _scan_box_fast(terms, ranges), volume
    return [t for t in itertools.product(*ranges) if _eval_terms(terms, t) == 0], volume


# ---------------------------------------------------------------------------
# deflation profiles
# ---------------------------------------------------------------------------


def _deflation_profiles(
    qs: Sequence[int], budgets_m: Sequence[int], m: int, box: bool = False
) -> Iterator[tuple]:
    """All nonempty multi-prime deflation profiles of the reduced weights
    qs: (divisors, floored residual budgets, and per prime p of the profile
    the pair (p, tight)), in preorder over increasing primes.

    Budgets are carried as their floors: floor(floor(b)/p^k) = floor(b/p^k),
    and the admissibility test and the residual radii read only floors.

    The levels are the c = a/q_i in (0, 1).  For a level c only the minimal
    exponents e_i = ceil(q_i c) are needed: a point of level c at p is a
    multiple of the minimal divisor.  ``tight`` lists the indices i with q_i c an integer, the only
    ones where e_i = q_i c, so the level of D*y at p is exactly c when p
    divides none of y's tight coordinates.  A pair (p, c) is admissible
    when p^cost_i <= budget_i for every i, so that every budget_i // p^cost_i
    stays at least 1; that fails for every larger prime once it fails for
    one, so a node drops the level there.  Each profile carries its
    divisors and pairs down the tree and is built once.

    In box mode the budgets are the box radii floor(B^{q_i}) and a pair
    costs p^{e_i}, so a profile's budgets are floor(box_i / D_i), a profile
    is walked only while every D_i <= box_i, and the sieve stops at the box
    bound.
    """
    levels = []
    for c in sorted({Fraction(a, q) for q in qs for a in range(1, q)}):
        e = tuple(-((-q * c.numerator) // c.denominator) for q in qs)  # ceil
        cost = []
        for q, ei in zip(qs, e):
            mc = m * q * c
            assert mc.denominator == 1
            cost.append(ei if box else m * ei - mc.numerator)
        tight = tuple(i for i, q in enumerate(qs) if (q * c).denominator == 1)
        levels.append((e, tuple(cost), tight))
    if not levels:
        # all weights equal after reduction: no fractional deflation exists
        return
    # the sieve reaches the largest prime admissible at the root: the
    # largest p with p^cost_i <= budget_i wherever cost_i > 0 (reduced
    # weights exclude an all-zero cost)
    primes = _primes_upto(
        max(
            min(_nth_root_floor(b, k) for b, k in zip(budgets_m, cost) if k)
            for _, cost, _ in levels
        )
    )

    def rec(
        budgets: tuple[int, ...], divisors: tuple[int, ...], profile: tuple, start: int
    ) -> Iterator[tuple]:
        alive = levels
        for idx in range(start, len(primes)):
            p = primes[idx]
            kept = []
            for level in alive:
                e, cost, tight = level
                if any(map(lt, budgets, map(pow, itertools.repeat(p), cost))):
                    continue  # and for every larger prime
                sub_budgets = tuple(
                    map(floordiv, budgets, map(pow, itertools.repeat(p), cost))
                )
                kept.append(level)
                sub_divisors = tuple(
                    map(mul, divisors, map(pow, itertools.repeat(p), e))
                )
                sub_profile = profile + ((p, tight),)
                yield sub_divisors, sub_budgets, sub_profile
                yield from rec(sub_budgets, sub_divisors, sub_profile, idx + 1)
            if not kept:
                return
            alive = kept

    yield from rec(tuple(budgets_m), (1,) * len(qs), (), 0)


# ---------------------------------------------------------------------------
# the search itself: one walk per support
# ---------------------------------------------------------------------------


def _axis(r: int) -> list[int]:
    """The nonzero values of |y| <= r, the negative ones first."""
    return [*range(-r, 0), *range(1, r + 1)]


def _half_box(axes: list[list[int]], j: int) -> list[list[int]]:
    """The axes of a residual box with y_j > 0: the positive half of axis j."""
    return [a[len(a) // 2 :] if i == j else a for i, a in enumerate(axes)]


def _phase1_ranges(w: WeightVector, B: Fraction) -> list[list[int]]:
    """The root's axes, the nonzero values of |x_i| <= floor(B^{q_i}).  They
    are lists, so a box too large for memory fails here, before any scan."""
    return [_axis(_floor_pow(B, q)) for q in w.q]


def _support_terms(poly: WPoly, support) -> list[tuple[int, tuple[int, ...]]]:
    """The terms of f restricted to a support (the other coordinates 0):
    those with no exponent off the support, with their exponents on it."""
    return [
        (coeff, tuple(exps[i] for i in support))
        for coeff, exps in poly.terms
        if not any(e for i, e in enumerate(exps) if i not in support)
    ]


def _substituted_terms(terms, divisors):
    """Terms of f on a support with the coordinate divisors absorbed: each
    coefficient times prod D_i^{e_i}."""
    return [
        (math.prod(map(pow, divisors, exps), start=coeff), exps)
        for coeff, exps in terms
    ]


def _sign_axis(qs: Sequence[int]) -> int:
    """The position whose sign ``_sign_key`` reads first between the two
    sign patterns of a zero-free tuple in the reduced weights qs: the last
    one if its weight is odd (the flip changes the last sign), else the
    first odd weight (the first place the flip changes)."""
    if qs[-1] % 2:
        return len(qs) - 1
    return next(i for i, q in enumerate(qs) if q % 2)


def _supports(config: SearchConfig) -> Iterator[tuple]:
    """(support, reduced weights, sign axis, terms of f on it or None) of
    each support of two or more coordinates holding every required-nonzero
    index; a support that lacks one has no hit."""
    w, poly = config.w, config.hypersurface
    for k in range(2, len(w.q) + 1):
        for support in itertools.combinations(range(len(w.q)), k):
            if config.nonvanishing <= set(support):
                d = math.gcd(*(w.q[i] for i in support))
                qs = [w.q[i] // d for i in support]
                terms = None if poly is None else _support_terms(poly, support)
                yield support, qs, _sign_axis(qs), terms


def _exact_profile(y: tuple[int, ...], profile) -> bool:
    """Conditions (a) and (b) of ``search``: D*y has level exactly c at
    each profile prime and level 0 at every other prime."""
    g = math.gcd(*y)
    for p, tight in profile:
        for i in tight:
            if y[i] % p:
                break
        else:
            return False
        while g % p == 0:
            g //= p
    return g == 1


def _add_points(
    out: PackedHits, w: WeightVector, support, divisors, profile, tuples
) -> None:
    """Pack x = D*y, zero off the support, with its wh^m for each residual
    tuple y of the profile that meets (a) and (b): the one way a point is
    built."""
    n = len(w.q)
    for y in tuples:
        if _exact_profile(y, profile):
            x = [0] * n
            for i, v in zip(support, map(mul, divisors, y)):
                x[i] = v
            out.add(x, _wh_m(x, w))


def _scan_box(
    config: SearchConfig, supports: list[tuple], out: PackedHits
) -> tuple[PackedHits, int]:
    """``out``, after the root profile of every support has packed into it
    its points, and the volume of the box |x_i| <= floor(B^{q_i}).

    The root has D = 1 and the box radii as residual radii, so its points
    are the tuples of gcd 1 in each support's half box.  A support {i} has
    the one point e_i, with wh 1.  With a hypersurface the workers return
    the zeros of f on runs of the half boxes' first axes: run i of every
    support for each i < ``config.jobs`` in turn, so that each worker takes
    a like share of every support.
    """
    w, poly = config.w, config.hypersurface
    n = len(w.q)
    axes = _phase1_ranges(w, config.bound)
    for i in range(n):
        e = tuple(int(k == i) for k in range(n))
        if config.nonvanishing <= {i} and (poly is None or _eval_terms(poly.terms, e) == 0):
            _add_points(out, w, (i,), (1,), (), [(1,)])
    # with no hypersurface every tuple is a zero, listed lazily in this
    # process: a worker would only list tuples
    jobs = 1 if poly is None else config.jobs
    runs = []
    for i in range(jobs):
        for support, _, j, terms in supports:
            first, *rest = _half_box([axes[k] for k in support], j)
            run = first[len(first) * i // jobs : len(first) * (i + 1) // jobs]
            if run:
                runs.append((support, terms, [run, *rest]))
    zeros = fan_out(_scan_chunk, [(terms, ranges) for _, terms, ranges in runs], jobs)
    for (support, _, _), (ys, _) in zip(runs, zeros):
        _add_points(out, w, support, (1,) * len(support), (), ys)
    return out, math.prod(len(a) + 1 for a in axes)


def _phase2_candidates(
    config: SearchConfig, supports: list[tuple], out: PackedHits
) -> tuple[PackedHits, int]:
    """``out``, after the nonempty deflation profiles of every support have
    packed into it their points, and the volume of their residual boxes (0
    in box mode, whose candidates the box volume counts).

    Each support is handled in its reduced weight system q_i/d with bound
    B^d (the rescaling law lwh_{d*q} = (1/d) lwh_q makes this exact): the
    smaller weight lcm keeps the exponent lattice of the deflation
    profiles small.  With w_i the weight of coordinate i and
    X_i = B^{w_i} / D_i, the residual radius is floor(M_i X_i) for the
    product M_i of p^{q_i c} over the profile's pairs (p, c); M_i >= 1, so it
    is at least floor(box_i / D_i), the radius in box mode.
    """
    w, B, box = config.w, config.bound, not config.phase2
    count = 0
    for support, qs, j, terms in supports:
        m = math.lcm(*qs)
        # the budgets (B^d)^{k q_i/d}: the m-th powers of the residual radii,
        # or in box mode the box radii themselves
        k = 1 if box else m
        budgets = [_floor_pow(B, k * w.q[i]) for i in support]
        for divisors, residual, profile in _deflation_profiles(qs, budgets, m, box):
            radii = [_nth_root_floor(b, k) for b in residual]
            if not box:
                count += math.prod(2 * r for r in radii)
            out.fit(max(map(mul, divisors, radii)))
            sub = None if terms is None else _substituted_terms(terms, divisors)
            tuples, _ = _scan_chunk((sub, _half_box([_axis(r) for r in radii], j)))
            _add_points(out, w, support, divisors, profile, tuples)
    return out, count


def _collect(config: SearchConfig, candidates: PackedHits) -> PackedHits:
    """The hits, sorted: ``candidates``, with its keys sorted in place.

    Every candidate is a hit: canonical, with each required-nonzero
    coordinate nonzero, on the hypersurface and built once.  The box radius
    and the residual radii keep wh within the bound too, which the largest
    key confirms exactly; a key above it would be dropped from the list.
    """
    w = config.w
    keys = candidates.keys
    # wh^m is an integer, so comparing it with floor(B^m) is exact: a key
    # has wh^m above floor(B^m) iff it is at least the first key above it
    above = (_floor_pow(config.bound, w.m) + 1) << candidates.width * len(w.q)
    if max(keys, default=0) >= above:
        keys[:] = [k for k in keys if k < above]
    keys.sort()
    return candidates


def search(config: SearchConfig) -> SearchReport:
    """Run the bounded-height search (with or without a hypersurface).

    Each canonical point x with wh(x) <= B (on V(f), if given, nonzero at
    every required index, and in box mode inside the box) is built exactly
    once, and nothing else is built: every candidate is a hit.  Let T be
    its support.  If T = {i}, then x = e_i: in the reduced weight 1 every
    level v_p(x_i) is below 1, so |x_i| = 1, and (ii) makes it positive.
    ``_scan_box`` builds it, with wh 1, when f(e_i) = 0.  Otherwise let P(x)
    be the pairs (p, c_p(x)) with c_p(x) > 0, levels taken in the reduced
    weights q_i/d_T, where canonicity puts them in (0, 1); each is some
    a/q_i, the ratio at an index attaining the minimum.  The walk of T
    visits the profile P = P(x) once: the root P = () in ``_scan_box``, any
    other in ``_phase2_candidates``, whose primes increase along the
    recursion.  It builds x = D*y from y = x/D, which is integral since
    v_p(x_i) >= q_i c_p forces v_p(x_i) >= e_i = ceil(q_i c_p); at the root
    D = 1.  y lies in the residual box: in the reduced weights, with bound
    B^{d_T}, integral x has height max_i |x_i|^{1/q_i} prod_p p^{-c_p}, so
    wh(x) <= B is exactly |y_i| <= residual radius_i for every i, and at
    the root the residual radii are the box radii floor(B^{q_i}).
    x is kept when
      (a) gcd(y) with the profile primes divided out is 1: a prime outside
          P dividing every y_i would give x a positive level there;
      (b) at each (p, c) of P some tight index i (q_i c an integer) has
          p not dividing y_i: the index attaining c_p(x) has
          v_p(x_i) = q_i c_p = e_i.
    Conversely, for any profile P and y meeting (a) and (b), x = D*y has
    level at least c at each (p, c) of P, since e_i >= q_i c, exactly c by
    (b), and 0 elsewhere by (a).  So P = P(x) and y = x/D: no other profile
    or residual tuple builds x again, and x is canonical up to its sign
    pattern.  The other sign pattern eps*x has the same valuations and lies
    on V(f) as well (f is weighted homogeneous), so exactly one of the two
    is the ``_sign_key`` minimum, and the walk builds only that one: with
    j = ``_sign_axis``(q_T) it scans y_j > 0 alone.  Indeed D > 0, so x_i
    has the sign of y_i, and no y_i is 0, so ``_sign_flip`` negates exactly
    the positions of T with odd reduced weight.  ``_sign_key`` first
    compares the sign of the last nonzero coordinate, which the flip changes
    iff the last reduced weight is odd; then j is that position and the
    minimum has x_j > 0.  Otherwise the last signs agree and ``_lex_key``
    decides at the first position the flip changes, the first odd reduced
    weight, which is j; at equal magnitude the positive value comes first,
    so again the minimum has x_j > 0.

    Box mode keeps the points with every |x_i| <= box_i = floor(B^{q_i});
    each has wh(x) <= B, as the finite factors p^{-c_p} are at most 1.  y
    has no zero, so x = D*y is in the box iff every |y_i| <=
    floor(box_i / D_i), and no y is once some D_i > box_i.  D_i only grows
    down the tree and with p, so ``_deflation_profiles`` drops such a
    profile with its subtree and every larger prime.
    """
    import time

    t0 = time.monotonic()
    w, B = config.w, config.bound
    hits = PackedHits(w)
    p1_count = p2_count = 0
    if B >= 1:
        # the box radius floor(B^q_i) is largest at the largest weight
        candidates = PackedHits(w, _floor_pow(B, max(w.q)))
        supports = list(_supports(config))
        candidates, p1_count = _scan_box(config, supports, candidates)
        candidates, p2_count = _phase2_candidates(config, supports, candidates)
        hits = _collect(config, candidates)
    return SearchReport(
        config=config,
        hits=hits,
        phase1_candidates=p1_count,
        phase2_candidates=p2_count,
        wall_time=time.monotonic() - t0,
    )


def enumerate_bounded(config: SearchConfig) -> list[WPoint]:
    """All canonical points of P_w(Q) with wh <= B, sorted canonically."""
    if config.hypersurface is not None:
        raise DomainError("enumerate_bounded takes no hypersurface; use search")
    return [h.point for h in search(config).hits]


def search_hypersurface(config: SearchConfig) -> PackedHits:
    """Canonical points on V(f) with wh <= B, with exact wh^m and vanishing
    pattern per hit."""
    if config.hypersurface is None:
        raise DomainError("search_hypersurface requires a hypersurface")
    return search(config).hits


def brute_force_oracle(
    w: WeightVector, B: Fraction, box_radii: Sequence[int]
) -> set[tuple[int, ...]]:
    """Certification oracle: canonical forms of every in-box tuple with
    wh <= B.  Used to validate enumerate_bounded on small instances.

    Complete only inside its box: canonical points of height <= B can lie
    outside it.  For example (-3906, 242172) in P(2,3) has wh^6 = 63, so
    wh <= 2, yet lies outside the radius-B^{q_i * max q} box (64, 512)."""
    Bm = B**w.m
    out: set[tuple[int, ...]] = set()
    ranges = [range(-r, r + 1) for r in box_radii]
    for tup in itertools.product(*ranges):
        if all(c == 0 for c in tup):
            continue
        if _wh_m(tup, w) <= Bm:
            out.add(canonicalize(WPoint(w, tup)).coords)
    return out
