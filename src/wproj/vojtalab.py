"""Empirical harness for the gcd-bound inequality

    gcd(f_1(a), ..., f_t(a))  <=  (max_i |a_i|^{1/q_i})^eps
                                  * (|a_0 ... a_n|'_S)^{1/(m(r-1+delta))}

over sampled normalized integer tuples.  The bound is conjectural for
general (eps, delta); this module measures it: per-grid-cell violation
counts, the minimal empirical additive constant C, delta estimates, and
candidates for the exceptional zero locus.  Measurement, not proof.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from ._fanout import fan_out
from .exactnum import INFINITE_PLACE, DomainError, FormalLog, Place
from .wheight import local_height, split_height_S
from .wpoint import WPoint, _vanishing, wgcd_tuple
from .wpoly import SubschemeSpec, _log_gcd_values
from .wspace import WeightVector

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScanConfig:
    spec: SubschemeSpec
    w: WeightVector
    S: frozenset[int]
    epsilon_grid: tuple[Fraction, ...]
    delta_grid: tuple[Fraction, ...]
    box_radii: tuple[int, ...]
    samples: int
    seed: int
    require_coprime: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.spec.asserted_codim < 2:
            raise DomainError("the gcd bound requires codimension >= 2")
        if not self.epsilon_grid or not self.delta_grid:
            raise DomainError("epsilon and delta grids must be nonempty")
        if any(e <= 0 for e in self.epsilon_grid) or any(
            d <= 0 for d in self.delta_grid
        ):
            raise DomainError("grid values must be positive")
        if self.spec.polys[0].weights != self.w.q:
            raise DomainError("polynomial weights do not match the scan weights")
        if len(self.box_radii) != len(self.w.q):
            raise DomainError("box radii / weights length mismatch")
        if any(r < 1 for r in self.box_radii):
            raise DomainError("box radii must be positive")
        if self.samples < 1:
            raise DomainError("need at least one sample")
        for p in self.S:
            Place(p)  # rejects an entry that is not a prime


@dataclass(frozen=True)
class ScanRecord:
    """One sampled tuple with everything recomputable from it and the config.

    sunit_term is None when a coordinate vanishes (the S-unit divisor term
    is only defined off the coordinate hyperplanes); margins is None in the
    same case and when the tuple lies on the subscheme (lhs infinite).
    """

    alpha: tuple[int, ...]
    on_subscheme: bool
    lhs: FormalLog | None
    height_term: FormalLog | None
    sunit_term: FormalLog | None
    margins: tuple[tuple[Fraction, Fraction, FormalLog], ...] | None

    def margin_at(self, eps: Fraction, delta: Fraction) -> FormalLog | None:
        if self.margins is None:
            return None
        for e, d, m in self.margins:
            if e == eps and d == delta:
                return m
        return None


@dataclass(frozen=True)
class CellSummary:
    eps: Fraction
    delta: Fraction
    considered: int
    violations: int
    violating_alphas: tuple[tuple[int, ...], ...]
    empirical_C: FormalLog | None  # max over records of lhs - rhs, clamped at 0


@dataclass(frozen=True)
class ScanReport:
    """A scan's records and cells.  Its JSON text, a pure function of the
    config, comes from one serializer, ``json_chunks``, in pieces;
    ``to_json`` joins them."""

    config: ScanConfig
    records: tuple[ScanRecord, ...]
    cells: tuple[CellSummary, ...]
    zero_coordinate_count: int
    on_subscheme_count: int

    def cell(self, eps: Fraction, delta: Fraction) -> CellSummary:
        for c in self.cells:
            if c.eps == eps and c.delta == delta:
                return c
        raise DomainError(f"no grid cell ({eps}, {delta})")

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps(report, sort_keys=True, separators=(",",
        ":")) in pieces: everything up to the "records" list, one piece per
        record, rendered only when it is asked for, then the rest.  Neither
        the whole text nor a dict per record is ever held at once."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "weights": list(self.config.w.q),
                "polynomials": [str(f) for f in self.config.spec.polys],
                "asserted_codim": self.config.spec.asserted_codim,
                "S": sorted(self.config.S),
                "epsilon_grid": [str(e) for e in self.config.epsilon_grid],
                "delta_grid": [str(d) for d in self.config.delta_grid],
                "box_radii": list(self.config.box_radii),
                "samples": self.config.samples,
                "seed": self.config.seed,
                "require_coprime": self.config.require_coprime,
            },
            "zero_coordinate_count": self.zero_coordinate_count,
            "on_subscheme_count": self.on_subscheme_count,
            "records": [],
            "cells": [
                {
                    "eps": str(c.eps),
                    "delta": str(c.delta),
                    "considered": c.considered,
                    "violations": c.violations,
                    "violating_alphas": [list(a) for a in c.violating_alphas],
                    "empirical_C": _flog_dict(c.empirical_C),
                }
                for c in self.cells
            ],
            "exceptional_candidates": [
                {
                    "alpha": list(c.alpha),
                    "zero_coordinates": list(c.zero_coordinates),
                    "coordinate_gcd": c.coordinate_gcd,
                    "equal_coordinate_pairs": [list(p) for p in c.equal_pairs],
                }
                for c in exceptional_candidates(self)
            ],
        }
        # the records go where "records" sorts among the keys; a JSON string
        # cannot hold the unescaped quotes of the marker
        head, _, tail = _dumps(doc).partition('"records":[]')
        yield head + '"records":['
        sep = ""
        for r in self.records:
            yield sep + _record_json(r)
            sep = ","
        yield "]" + tail

    def to_json(self) -> str:
        """Deterministic serialization: a pure function of the config."""
        return "".join(self.json_chunks())


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _flog_dict(v: FormalLog | None) -> dict | None:
    return None if v is None else v.as_dict()


def _record_json(r: ScanRecord) -> str:
    return _dumps(
        {
            "alpha": list(r.alpha),
            "on_subscheme": r.on_subscheme,
            "lhs": _flog_dict(r.lhs),
            "height_term": _flog_dict(r.height_term),
            "sunit_term": _flog_dict(r.sunit_term),
            "margins": None
            if r.margins is None
            else [
                {"eps": str(e), "delta": str(d), "margin": m.as_dict()}
                for e, d, m in r.margins
            ],
        }
    )


# ---------------------------------------------------------------------------
# sampling and per-record computation
# ---------------------------------------------------------------------------


def _sample_tuples(config: ScanConfig) -> list[tuple[int, ...]]:
    """Uniform tuples in the box, rejected until wgcd = 1 (and gcd = 1 when
    the strict filter is on).  Sequential by design: the sample stream must
    not depend on the worker count."""
    rng = random.Random(config.seed)
    out = []
    q = config.w.q
    while len(out) < config.samples:
        alpha = tuple(rng.randint(-r, r) for r in config.box_radii)
        if all(a == 0 for a in alpha):
            continue
        if wgcd_tuple(alpha, q) != 1:
            continue
        if config.require_coprime and math.gcd(*alpha) != 1:
            continue
        out.append(alpha)
    return out


def _margin_grid(config: ScanConfig) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(eps, delta, 1/(r - 1 + delta)) per grid cell, eps-major: the order of
    each record's margins and of the report's cells."""
    r = config.spec.asserted_codim
    return tuple(
        (eps, delta, 1 / (r - 1 + delta))
        for eps in config.epsilon_grid
        for delta in config.delta_grid
    )


def _make_record(
    config: ScanConfig,
    alpha: tuple[int, ...],
    grid: tuple[tuple[Fraction, Fraction, Fraction], ...],
) -> ScanRecord:
    """The record of one tuple; `grid` is ``_margin_grid(config)``, made once
    per scan."""
    lhs = _log_gcd_values([f.eval(alpha) for f in config.spec.polys])
    if lhs is None:
        return ScanRecord(alpha, True, None, None, None, None)
    x = WPoint(config.w, alpha)
    height_term = local_height(x, INFINITE_PLACE)
    if any(a == 0 for a in alpha):
        return ScanRecord(alpha, False, lhs, height_term, None, None)
    # the sampler keeps only tuples of wgcd 1, as split_height_S requires
    sunit = split_height_S(x, config.S).out_S
    # margin = rhs - lhs = eps*H + S/(r - 1 + delta) - lhs
    margins = tuple(
        (eps, delta, FormalLog.lincomb(((eps, height_term), (k, sunit), (-1, lhs))))
        for eps, delta, k in grid
    )
    return ScanRecord(alpha, False, lhs, height_term, sunit, margins)


def scan(config: ScanConfig) -> ScanReport:
    alphas = _sample_tuples(config)
    grid = _margin_grid(config)
    records = fan_out(
        functools.partial(_make_record, config, grid=grid), alphas, config.jobs
    )

    zero_count = sum(
        1 for r in records if not r.on_subscheme and any(a == 0 for a in r.alpha)
    )
    on_sub = sum(1 for r in records if r.on_subscheme)
    cells = []
    # a record's margin for a cell sits at the cell's index in the grid
    for i, (eps, delta, _) in enumerate(grid):
        considered = 0
        violating = []
        # empirical_C = max(0, max of lhs - rhs): only violations, where
        # lhs - rhs > 0, can raise it above 0.  One sign per record, and
        # one comparison per violation; ties keep the first maximum.
        worst: FormalLog | None = None
        for rec in records:
            if rec.margins is None:
                continue
            m = rec.margins[i][2]
            considered += 1
            if m.sign() < 0:
                violating.append(rec.alpha)
                neg = -m  # lhs - rhs
                if worst is None or neg > worst:
                    worst = neg
        if considered and worst is None:
            worst = FormalLog.zero()
        cells.append(
            CellSummary(
                eps=eps,
                delta=delta,
                considered=considered,
                violations=len(violating),
                violating_alphas=tuple(sorted(violating)),
                empirical_C=worst,
            )
        )
    return ScanReport(
        config=config,
        records=tuple(records),
        cells=tuple(cells),
        zero_coordinate_count=zero_count,
        on_subscheme_count=on_sub,
    )


# ---------------------------------------------------------------------------
# estimation and exceptional-set mining
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaEstimate:
    eps: Fraction
    delta: Fraction | None  # None: no grid delta meets the threshold
    violating_alphas: tuple[tuple[int, ...], ...]


def estimate_delta(
    report: ScanReport, allowed_violation_fraction: Fraction
) -> list[DeltaEstimate]:
    """Per eps, the smallest grid delta whose violation fraction is within
    the threshold (scanned in ascending delta order)."""
    if not report.records:
        raise DomainError("empty report")
    out = []
    for eps in report.config.epsilon_grid:
        chosen: Fraction | None = None
        violating: tuple[tuple[int, ...], ...] = ()
        for delta in sorted(report.config.delta_grid):
            cell = report.cell(eps, delta)
            if cell.considered == 0:
                continue
            frac = Fraction(cell.violations, cell.considered)
            if frac <= allowed_violation_fraction:
                chosen = delta
                violating = cell.violating_alphas
                break
        out.append(DeltaEstimate(eps=eps, delta=chosen, violating_alphas=violating))
    return out


@dataclass(frozen=True)
class ExceptionalCandidate:
    """A tuple violating the bound at every grid cell, with structural hints
    toward the polynomial whose zero set would absorb it."""

    alpha: tuple[int, ...]
    zero_coordinates: tuple[int, ...]
    coordinate_gcd: int
    equal_pairs: tuple[tuple[int, int], ...]


def exceptional_candidates(report: ScanReport) -> list[ExceptionalCandidate]:
    # the cells decided every margin; equal alphas have equal margins
    violating = [set(c.violating_alphas) for c in report.cells]
    out = []
    for rec in report.records:
        if not all(rec.alpha in v for v in violating):
            continue
        n = len(rec.alpha)
        pairs = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rec.alpha[i] == rec.alpha[j]
        )
        out.append(
            ExceptionalCandidate(
                alpha=rec.alpha,
                zero_coordinates=_vanishing(rec.alpha),
                coordinate_gcd=math.gcd(*rec.alpha),
                equal_pairs=pairs,
            )
        )
    out.sort(key=lambda c: c.alpha)
    return out
