import math
import random
from fractions import Fraction

import pytest

from wproj import (
    INFINITE_PLACE,
    DomainError,
    FormalLog,
    ParseError,
    Place,
    SubschemeSpec,
    WPoint,
    WPoly,
    classify,
    global_height_Y,
    local_height_Y,
    log_gcd_Y,
    log_gcd_residual,
    parse_poly,
    parse_wpoly_file,
)

W123 = {"x0": 1, "x1": 2, "x2": 3}


def _spec_x1_x2():
    return SubschemeSpec((parse_poly("x1", W123), parse_poly("x2", W123)), 2)


class TestParse:
    def test_basic(self):
        f = parse_poly("x0^2 + x1", {"x0": 1, "x1": 2})
        assert f.degree == 2
        assert len(f.terms) == 2

    def test_inhomogeneous(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x0 + x1", {"x0": 1, "x1": 2})
        msg = str(exc.value)
        assert "degree 1" in msg and "degree 2" in msg

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_poly("x0 y", {"x0": 1})

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_poly("x0 + %", {"x0": 1})
        with pytest.raises(ParseError, match="position"):
            parse_poly("x0^", {"x0": 1})

    def test_products_and_coefficients(self):
        f = parse_poly("3 x0 * x1 - 2x0^3", {"x0": 1, "x1": 2})
        assert f.degree == 3
        assert f.eval((1, 1)) == 1
        g = parse_poly("-x0 x1 + 4x0^3", {"x0": 1, "x1": 2})
        assert g.eval((2, 3)) == -6 + 32
        assert parse_poly("2 * x0", {"x0": 1}).terms == ((2, (1,)),)
        assert parse_poly("x*y", {"x": 1, "y": 1}).terms == ((1, (1, 1)),)

    @pytest.mark.parametrize(
        "text,pos",
        [("x0 *", 3), ("* x0", 0), ("2 + * x0", 4), ("2 *", 2), ("x0 * * x1", 3)],
        ids=["trailing", "leading", "after-plus", "after-coefficient", "doubled"],
    )
    def test_star_must_join_two_factors(self, text, pos):
        with pytest.raises(ParseError, match=rf"'\*' at position {pos}\b"):
            parse_poly(text, {"x0": 1, "x1": 1})

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParseError, match="zero"):
            parse_poly("x0 - x0", {"x0": 1})

    def test_duplicate_monomials_combine(self):
        f = parse_poly("x0 x1 + x1 x0", W123)
        assert f.terms == ((2, (1, 1, 0)),)

    def test_l2_polynomial(self, l2_poly):
        assert l2_poly.degree == 30
        assert len(l2_poly.terms) == 34
        assert l2_poly.weights == (2, 4, 6, 10)

    def test_roundtrip(self, l2_poly):
        again = parse_poly(
            str(l2_poly), dict(zip(l2_poly.vars, l2_poly.weights))
        )
        assert again == l2_poly
        f = parse_poly("x0^2 - 3 x1", {"x0": 1, "x1": 2})
        assert parse_poly(str(f), {"x0": 1, "x1": 2}) == f


class TestEval:
    def test_basic(self):
        f = parse_poly("x1", W123)
        assert f.eval((1, 4, 0)) == 4
        with pytest.raises(DomainError):
            f.eval((1, 2))

    def test_l2_at_degenerate_point(self, l2_poly):
        assert l2_poly.eval((1, 0, 0, 0)) == 0

    def test_l2_against_independent_parser(self, l2_text, l2_poly):
        # independent oracle: sympy's own parser and substitution
        import sympy
        from sympy.parsing.sympy_parser import (
            implicit_multiplication_application,
            parse_expr,
            standard_transformations,
        )

        body = " ".join(
            line
            for line in l2_text.splitlines()
            if line.strip() and not line.startswith(("#", "weights:"))
        )
        expr = parse_expr(
            body.replace("^", "**"),
            transformations=standard_transformations
            + (implicit_multiplication_application,),
        )
        rng = random.Random(77)
        syms = sympy.symbols("x y z w")
        for _ in range(25):
            pt = tuple(rng.randint(-9, 9) for _ in range(4))
            expect = int(expr.subs(dict(zip(syms, pt))))
            assert l2_poly.eval(pt) == expect

    def test_homogeneity(self, l2_poly):
        rng = random.Random(33)
        for _ in range(50):
            pt = tuple(rng.randint(-5, 5) for _ in range(4))
            lam = rng.randint(-3, 3)
            if lam == 0:
                continue
            scaled = tuple(c * lam**q for c, q in zip(pt, l2_poly.weights))
            assert l2_poly.eval(scaled) == lam**30 * l2_poly.eval(pt)


class TestWpolyFile:
    def test_parse_file(self, l2_text):
        weights, polys = parse_wpoly_file(l2_text)
        assert weights == {"x": 2, "y": 4, "z": 6, "w": 10}
        assert len(polys) == 1

    def test_multiple_stanzas_and_comments(self):
        text = """# comment
weights: a=1 b=2

a^2 + b
# another comment

a^4
+ b^2
"""
        weights, polys = parse_wpoly_file(text)
        assert len(polys) == 2
        assert polys[1].degree == 4

    def test_errors(self):
        with pytest.raises(ParseError, match="weights"):
            parse_wpoly_file("a^2\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_wpoly_file("weights: a=1\nweights: a=2\n\na\n")
        with pytest.raises(ParseError, match="no polynomials"):
            parse_wpoly_file("weights: a=1\n")

    def test_variable_named_twice(self):
        with pytest.raises(ParseError, match="'x' named twice"):
            parse_wpoly_file("weights: x=1 x=2\n\nx\n")

    def test_name_not_an_identifier(self):
        for name in ("", "1x", "x-y"):
            with pytest.raises(ParseError, match="not an identifier"):
                parse_wpoly_file(f"weights: {name}=1 y=1\n\ny\n")

    def test_weight_below_one(self):
        for header in ("weights: x=0 y=0", "weights: x=1 y=-1"):
            with pytest.raises(DomainError, match="positive") as info:
                parse_wpoly_file(header + "\n\nx\n")
            assert not isinstance(info.value, ParseError)

    def test_non_integer_weight_entry(self):
        for header in ("weights: a=x", "weights: a", "weights: a="):
            with pytest.raises(ParseError, match="bad weights entry"):
                parse_wpoly_file(header + "\n\na\n")


class TestSubschemeHeights:
    def test_local_examples(self):
        spec = _spec_x1_x2()
        w = classify([1, 2, 3])
        x = WPoint(w, (1, 4, 8))
        assert local_height_Y(spec, x, Place(2)) == FormalLog.of_prime(2, 2)
        assert local_height_Y(spec, x, Place(5)) == FormalLog.zero()
        assert local_height_Y(spec, x, INFINITE_PLACE) == FormalLog.zero()

    def test_infinite_sentinel(self):
        spec = _spec_x1_x2()
        w = classify([1, 2, 3])
        assert local_height_Y(spec, WPoint(w, (1, 0, 0)), Place(2)) is None

    def test_global_examples(self):
        spec = _spec_x1_x2()
        w = classify([1, 2, 3])
        assert global_height_Y(spec, WPoint(w, (1, 4, 8))) == FormalLog.of_prime(
            2, 2
        )
        assert global_height_Y(spec, WPoint(w, (1, 6, 6))) == FormalLog.of_log(6)
        assert global_height_Y(spec, WPoint(w, (1, 1, 1))) == FormalLog.zero()
        with pytest.raises(DomainError):
            global_height_Y(spec, WPoint(w, (1, 0, 0)))

    def test_log_gcd_examples(self):
        spec = _spec_x1_x2()
        assert log_gcd_Y(spec, (1, 4, 8)) == FormalLog.of_log(4)
        assert log_gcd_Y(spec, (1, 1, 5)) == FormalLog.zero()
        assert log_gcd_Y(spec, (1, 0, 8)) == FormalLog.of_log(8)
        with pytest.raises(DomainError):
            log_gcd_Y(spec, (1, 0, 0))
        with pytest.raises(DomainError):
            log_gcd_Y(spec, (2, 4, 8))  # content 2 under the strict hypothesis
        assert log_gcd_Y(spec, (2, 4, 8), require_unit_content=False) == (
            FormalLog.of_log(4)
        )

    def _finite_sum(self, spec, x):
        import sympy

        prod = 1
        for f in spec.polys:
            v = f.eval(x.coords)
            if v != 0:
                prod *= abs(v)
        for c in x.coords:
            if c != 0:
                prod *= abs(c)
        total = FormalLog.zero()
        for p in sympy.primefactors(prod):
            total = total + local_height_Y(spec, x, Place(p))
        return total

    def test_pwhp_exact_identity_coordinate_subscheme(self):
        # with gcd(coords) = 1 the finite local sum equals log gcd(f_j(a))
        rng = random.Random(41)
        spec = _spec_x1_x2()
        w = classify([1, 2, 3])
        done = 0
        while done < 300:
            coords = tuple(rng.randint(-300, 300) for _ in range(3))
            if all(c == 0 for c in coords) or math.gcd(*coords) != 1:
                continue
            if all(f.eval(coords) == 0 for f in spec.polys):
                continue
            x = WPoint(w, coords)
            assert self._finite_sum(spec, x) == log_gcd_Y(spec, coords)
            assert log_gcd_residual(spec, x) == FormalLog.zero()
            done += 1

    def test_pwhp_exact_identity_random_forms(self):
        rng = random.Random(43)
        w = classify([1, 2, 3])
        names = list(W123)
        done = 0
        while done < 100:
            d = rng.choice([4, 6, 8, 12])
            polys = []
            for _ in range(2):
                terms = []
                for _ in range(rng.randint(1, 4)):
                    # random monomial of weighted degree d
                    e1 = rng.randint(0, d // 2)
                    e2 = rng.randint(0, (d - 2 * e1) // 3)
                    e0 = d - 2 * e1 - 3 * e2
                    c = rng.randint(-9, 9)
                    if c:
                        terms.append(f"{c} x0^{e0} x1^{e1} x2^{e2}")
                if not terms:
                    continue
                try:
                    polys.append(parse_poly(" + ".join(terms), W123))
                except ParseError:
                    continue
            if len(polys) != 2:
                continue
            spec = SubschemeSpec(tuple(polys), 2)
            coords = tuple(rng.randint(-50, 50) for _ in range(3))
            if all(c == 0 for c in coords) or math.gcd(*coords) != 1:
                continue
            if all(f.eval(coords) == 0 for f in polys):
                continue
            x = WPoint(w, coords)
            assert self._finite_sum(spec, x) == log_gcd_Y(spec, coords)
            done += 1

    def test_each_polynomial_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = WPoly.eval

        def counted(self, point):
            calls.append(self)
            return evaluate(self, point)

        monkeypatch.setattr(WPoly, "eval", counted)
        spec = SubschemeSpec(
            (parse_poly("x1^3 - x2^2", W123), parse_poly("x0 x2 + 5 x1^2", W123)), 2
        )
        w = classify([1, 2, 3])
        for coords in [(1, 4, 8), (6, -10, 15), (2, 3, 7), (12, 144, 1728)]:
            for fn in (global_height_Y, log_gcd_residual):
                calls.clear()
                fn(spec, WPoint(w, coords))
                assert calls == list(spec.polys), (fn.__name__, coords)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SubschemeSpec((), 2)
        with pytest.raises(DomainError):
            SubschemeSpec((parse_poly("x0", {"x0": 1}),), 0)
        with pytest.raises(DomainError):
            SubschemeSpec(
                (parse_poly("x0", {"x0": 1}), parse_poly("a", {"a": 2})), 1
            )
