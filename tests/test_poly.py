import math

import numpy as np
import pytest

from l1sos import ParseError, Polynomial, parse_json, parse_text, to_json_dict, to_text
from l1sos.poly import from_json_dict, grlex_key

from conftest import random_polynomial


def x_(n, i):
    return Polynomial.variable(n, i)


class TestArithmetic:
    def test_add_cancellation(self):
        x = x_(1, 0)
        assert (x**2 + 1) + (-(x**2)) == Polynomial.constant(1, 1.0)

    def test_add_identity(self):
        f = Polynomial(2, {(1, 2): 3.5, (0, 0): -1.0})
        assert f + Polynomial.zero(2) == f

    def test_add_merges_terms(self):
        x1x2 = Polynomial.monomial(2, (1, 1))
        assert x1x2 + x1x2 == Polynomial.monomial(2, (1, 1), 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2) + Polynomial.zero(3)
        with pytest.raises(ValueError):
            Polynomial.zero(2) * Polynomial.zero(3)

    def test_zero_coefficients_scrubbed(self):
        f = Polynomial(1, {(2,): 0.0, (1,): 1.0})
        assert (1,) in f.terms and (2,) not in f.terms

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1.0})  # wrong arity
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1.0})  # negative exponent
        with pytest.raises(ValueError):
            Polynomial(0, {})


class TestL1Norm:
    def test_motzkin_like(self, motzkin):
        # coefficients 1, 1, -1, 1/27
        assert motzkin.l1_norm() == pytest.approx(3.0 + 1.0 / 27.0, abs=1e-15)

    def test_zero(self):
        assert Polynomial.zero(3).l1_norm() == 0.0

    def test_affine(self):
        x = x_(1, 0)
        assert (-3.0 * x + 2.0).l1_norm() == 5.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_polynomial(rng, 2, 4)
            g = random_polynomial(rng, 2, 4)
            assert (f + g).l1_norm() <= f.l1_norm() + g.l1_norm() + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = random_polynomial(rng, 3, 3)
            c = float(rng.standard_normal())
            assert (c * f).l1_norm() == pytest.approx(abs(c) * f.l1_norm(), rel=1e-12)


class TestEvaluate:
    def test_motzkin_minimizer(self, motzkin):
        p = math.sqrt(1.0 / 3.0)
        assert abs(motzkin.evaluate([p, p])) <= 1e-12

    def test_motzkin_at_ones(self, motzkin):
        assert motzkin.evaluate([1.0, 1.0]) == pytest.approx(28.0 / 27.0, rel=1e-15)

    def test_origin_gives_constant_term(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_polynomial(rng, 2, 5)
            assert f.evaluate([0.0, 0.0]) == f.coefficient((0, 0))

    def test_linearity_in_f(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            f = random_polynomial(rng, 2, 4)
            g = random_polynomial(rng, 2, 4)
            p = rng.uniform(-2, 2, size=2)
            lhs = (f + g).evaluate(p)
            rhs = f.evaluate(p) + g.evaluate(p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).evaluate([1.0])


class TestTextFormat:
    def test_parse_headerless(self):
        f = parse_text("1.0 2 2\n-1.0 0 0")
        assert f == Polynomial(2, {(2, 2): 1.0, (0, 0): -1.0})

    def test_parse_with_header_and_comments(self):
        f = parse_text("# comment\nn 2\n1.0 2 2  # trailing\n\n-1.0 0 0\n")
        assert f == Polynomial(2, {(2, 2): 1.0, (0, 0): -1.0})

    def test_serialize_zero(self):
        text = to_text(Polynomial.zero(2))
        assert text == "n 2\n"
        assert parse_text(text) == Polynomial.zero(2)

    def test_duplicate_monomial_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_text("n 1\n1.0 2\n2.0 2\n")
        assert err.value.line == 3

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_text("n 2\n1.0 2\n")

    def test_malformed_coefficient(self):
        with pytest.raises(ParseError) as err:
            parse_text("oops 1 2\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_coefficient_reports_line(self, coeff):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_text(f"1.0 2 0\n{coeff} 0 0\n")
        assert err.value.line == 2

    def test_header_after_terms(self):
        with pytest.raises(ParseError):
            parse_text("1.0 2\nn 1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_text("# nothing here\n")

    def test_round_trip_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = random_polynomial(rng, 3, 5)
            assert parse_text(to_text(f)) == f

    def test_round_trip_awkward_floats(self):
        f = Polynomial(2, {(0, 0): 1.0 / 3.0, (5, 0): -1e-17, (1, 1): 2.0**-40})
        assert parse_text(to_text(f)) == f


class TestJsonFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            f = random_polynomial(rng, 2, 6)
            assert from_json_dict(to_json_dict(f)) == f

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            from_json_dict({"n": 1, "terms": [{"c": 1.0, "e": [2]}, {"c": 2.0, "e": [2]}]})

    @pytest.mark.parametrize("coeff", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_coefficient_names_term(self, coeff):
        text = f'{{"n": 1, "terms": [{{"c": 1.0, "e": [2]}}, {{"c": {coeff}, "e": [0]}}]}}'
        with pytest.raises(ParseError, match=r"non-finite.*term 1"):
            parse_json(text)

    def test_bad_json_text(self):
        with pytest.raises(ParseError):
            parse_json("{not json")


def test_grlex_order():
    monos = sorted([(0, 2), (2, 0), (1, 1), (0, 0), (1, 0), (0, 1)], key=grlex_key)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
