import math
from fractions import Fraction

import pytest

from wproj import (
    DomainError,
    FormalLog,
    SubschemeSpec,
    classify,
    parse_poly,
)
from wproj.vojtalab import (
    ScanConfig,
    estimate_delta,
    exceptional_candidates,
    scan,
)

W123 = {"x0": 1, "x1": 2, "x2": 3}


def _spec_x1_x2():
    return SubschemeSpec((parse_poly("x1", W123), parse_poly("x2", W123)), 2)


def _config(**kw):
    base = dict(
        spec=_spec_x1_x2(),
        w=classify([1, 2, 3]),
        S=frozenset(),
        epsilon_grid=(Fraction(1, 2),),
        delta_grid=(Fraction(1, 2),),
        box_radii=(20, 20, 20),
        samples=50,
        seed=42,
    )
    base.update(kw)
    return ScanConfig(**base)


class TestConfigValidation:
    def test_codim_below_two_rejected(self):
        with pytest.raises(DomainError):
            _config(spec=SubschemeSpec((parse_poly("x1", W123),), 1))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            _config(epsilon_grid=())
        with pytest.raises(DomainError):
            _config(delta_grid=())

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(DomainError):
            _config(epsilon_grid=(Fraction(0),))

    def test_weight_mismatch_rejected(self):
        with pytest.raises(DomainError):
            _config(w=classify([1, 2, 5]))

    def test_box_length_mismatch(self):
        with pytest.raises(DomainError):
            _config(box_radii=(20, 20))


class TestRecordValues:
    def test_hand_derived_example(self):
        # alpha = (1, 2, 2), Z = {x1, x2} in P(1,2,3), S = {}:
        # lhs = log gcd(2, 2) = log 2
        # height = log max(1, 2^{1/2}, 2^{1/3}) = (1/2) log 2
        # sunit = (1/6) log|1*2*2| = (1/3) log 2
        # margin(1/2, 1/2) = (1/4)log2 + (2/3)(1/3)log2 - log2 = -(19/36)log2
        cfg = _config()
        from wproj.vojtalab import _make_record, _margin_grid

        rec = _make_record(cfg, (1, 2, 2), _margin_grid(cfg))
        assert rec.lhs == FormalLog.of_log(2)
        assert rec.height_term == FormalLog.of_log(2).scale(Fraction(1, 2))
        assert rec.sunit_term == FormalLog.of_log(2).scale(Fraction(1, 3))
        m = rec.margin_at(Fraction(1, 2), Fraction(1, 2))
        assert m == FormalLog.of_log(2).scale(Fraction(-19, 36))

    def test_trivial_gcd_nonnegative_margins(self):
        report = scan(_config(samples=200, seed=7))
        for rec in report.records:
            if rec.margins is None:
                continue
            if rec.lhs == FormalLog.zero():
                assert all(m.sign() >= 0 for _, _, m in rec.margins)

    def test_lhs_matches_independent_gcd(self):
        cfg = _config(samples=100, seed=3)
        report = scan(cfg)
        for rec in report.records:
            if rec.on_subscheme:
                continue
            vals = [f.eval(rec.alpha) for f in cfg.spec.polys]
            g = math.gcd(*[abs(v) for v in vals if v != 0])
            expect = FormalLog.of_log(g) if g > 1 else FormalLog.zero()
            assert rec.lhs == expect

    def test_zero_coordinate_excluded_from_sunit(self):
        cfg = _config(samples=300, seed=11)
        report = scan(cfg)
        saw_zero = False
        for rec in report.records:
            if rec.on_subscheme:
                continue
            if any(a == 0 for a in rec.alpha):
                saw_zero = True
                assert rec.sunit_term is None and rec.margins is None
            else:
                assert rec.sunit_term is not None
        assert saw_zero
        assert report.zero_coordinate_count == sum(
            1
            for r in report.records
            if not r.on_subscheme and any(a == 0 for a in r.alpha)
        )

    def test_sampler_respects_filters(self):
        cfg = _config(samples=100, seed=5, require_coprime=True)
        w = cfg.w
        for rec in scan(cfg).records:
            from wproj import wgcd_tuple

            assert wgcd_tuple(rec.alpha, w.q) == 1
            assert math.gcd(*rec.alpha) == 1


class TestMonotonicity:
    def test_margins_monotone_in_eps_and_delta(self):
        cfg = _config(
            samples=120,
            seed=9,
            epsilon_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
            delta_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        )
        report = scan(cfg)
        eg, dg = cfg.epsilon_grid, cfg.delta_grid
        for rec in report.records:
            if rec.margins is None:
                continue
            for d in dg:
                vals = [rec.margin_at(e, d) for e in eg]
                for a, b in zip(vals, vals[1:]):
                    assert (b - a).sign() >= 0  # nondecreasing in eps
            for e in eg:
                vals = [rec.margin_at(e, d) for d in dg]
                for a, b in zip(vals, vals[1:]):
                    assert (b - a).sign() <= 0  # nonincreasing in delta


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self):
        # 61 samples do not split evenly over 2 or 3 workers
        for samples in (60, 61):
            reports = [
                scan(_config(samples=samples, seed=42, jobs=j)).to_json()
                for j in (1, 2, 3)
            ]
            assert reports[0] == reports[1] == reports[2], samples

    def test_byte_identical_across_runs(self):
        a = scan(_config(samples=60, seed=42)).to_json()
        b = scan(_config(samples=60, seed=42)).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = scan(_config(samples=60, seed=1)).to_json()
        b = scan(_config(samples=60, seed=2)).to_json()
        assert a != b


class TestEstimateDelta:
    def test_threshold_one_gives_smallest_delta(self):
        cfg = _config(
            samples=80,
            delta_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        )
        report = scan(cfg)
        for est in estimate_delta(report, Fraction(1)):
            assert est.delta == Fraction(1, 4)

    def test_no_violations_gives_smallest_delta(self):
        # eps large enough that the height term alone dominates every lhs
        cfg = _config(
            samples=80,
            epsilon_grid=(Fraction(100),),
            delta_grid=(Fraction(1, 4), Fraction(1)),
        )
        report = scan(cfg)
        assert all(c.violations == 0 for c in report.cells)
        (est,) = estimate_delta(report, Fraction(0))
        assert est.delta == Fraction(1, 4)
        assert est.violating_alphas == ()

    def test_threshold_zero_skips_violating_delta(self):
        cfg = _config(
            samples=400,
            seed=13,
            epsilon_grid=(Fraction(1, 100),),
            delta_grid=(Fraction(1, 4), Fraction(50)),
        )
        report = scan(cfg)
        lo = report.cell(Fraction(1, 100), Fraction(1, 4))
        hi = report.cell(Fraction(1, 100), Fraction(50))
        (est,) = estimate_delta(report, Fraction(0))
        if lo.violations > 0 and hi.violations == 0:
            assert est.delta == Fraction(50)
        elif lo.violations == 0:
            assert est.delta == Fraction(1, 4)

    def test_empty_report_rejected(self):
        report = scan(_config(samples=1))
        object.__setattr__(report, "records", ())
        with pytest.raises(DomainError):
            estimate_delta(report, Fraction(0))


class TestExceptionalCandidates:
    def test_no_violations_empty(self):
        cfg = _config(samples=80, epsilon_grid=(Fraction(100),))
        report = scan(cfg)
        assert exceptional_candidates(report) == []

    def test_candidates_reverify_negative(self):
        from wproj.vojtalab import _make_record, _margin_grid

        cfg = _config(
            samples=500,
            seed=21,
            epsilon_grid=(Fraction(1, 100),),
            delta_grid=(Fraction(1, 100),),
        )
        report = scan(cfg)
        cands = exceptional_candidates(report)
        for c in cands:
            fresh = _make_record(cfg, c.alpha, _margin_grid(cfg))
            assert all(m.sign() < 0 for _, _, m in fresh.margins)
            assert c.coordinate_gcd == math.gcd(*c.alpha)

    def test_diagonal_family_flagged(self):
        # tuples with alpha_1 = alpha_2 share that common factor in both
        # subscheme polynomials, inflating lhs; under a tiny eps they violate
        from wproj.vojtalab import _make_record, _margin_grid

        cfg = _config(
            epsilon_grid=(Fraction(1, 1000),), delta_grid=(Fraction(1, 1000),)
        )
        rec = _make_record(cfg, (1, 840, 840), _margin_grid(cfg))
        assert all(m.sign() < 0 for _, _, m in rec.margins)
        # scan over a box seeded to include diagonal structure
        report = scan(cfg)
        for c in exceptional_candidates(report):
            if c.alpha[1] == c.alpha[2]:
                assert (1, 2) in c.equal_pairs

    def test_read_from_cells_without_sign_calls(self, monkeypatch):
        # a 2 x 2 grid whose cells disagree, over a sample that repeats
        # an alpha: the candidates are the records negative at every margin
        cfg = _config(
            samples=300,
            seed=17,
            epsilon_grid=(Fraction(1, 100), Fraction(1, 10)),
            delta_grid=(Fraction(1, 100), Fraction(1, 2)),
        )
        report = scan(cfg)
        expected = sorted(
            rec.alpha
            for rec in report.records
            if rec.margins is not None
            and all(m.sign() < 0 for _, _, m in rec.margins)
        )
        assert len({c.violations for c in report.cells}) == 4
        assert len(expected) > len(set(expected))
        calls = []
        real_sign = FormalLog.sign
        monkeypatch.setattr(
            FormalLog, "sign", lambda self: calls.append(1) or real_sign(self)
        )
        cands = exceptional_candidates(report)
        assert [c.alpha for c in cands] == expected
        assert calls == []


class TestCellSummaries:
    def test_empirical_c_clamped_nonnegative(self):
        report = scan(_config(samples=120, seed=17))
        for cell in report.cells:
            if cell.empirical_C is not None:
                assert cell.empirical_C.sign() >= 0

    def test_violation_counts_match_records(self):
        cfg = _config(samples=150, seed=19)
        report = scan(cfg)
        for cell in report.cells:
            manual = [
                rec.alpha
                for rec in report.records
                if rec.margins is not None
                and rec.margin_at(cell.eps, cell.delta).sign() < 0
            ]
            assert cell.violations == len(manual)
            assert cell.violating_alphas == tuple(sorted(manual))
