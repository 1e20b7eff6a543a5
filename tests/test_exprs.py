"""Whitelist parser for right-hand-side expression strings."""

import math

import numpy as np
import pytest

from reachflow.exprs import ExprError, parse_expr, parse_field


class TestParseExpr:
    def test_arithmetic(self):
        f = parse_expr("2*x + y/4 - 1", ["x", "y"])
        assert f({"x": 3.0, "y": 8.0}) == pytest.approx(7.0)

    def test_power_and_unary(self):
        f = parse_expr("-x**3 + (+x)", ["x"])
        assert f({"x": 2.0}) == pytest.approx(-6.0)

    def test_functions(self):
        f = parse_expr("sin(x) + cos(x) + exp(x)", ["x"])
        assert f({"x": 0.3}) == pytest.approx(
            math.sin(0.3) + math.cos(0.3) + math.exp(0.3)
        )

    def test_unknown_variable_position(self):
        with pytest.raises(ExprError, match=r"unknown variable 'z' at column 5"):
            parse_expr("x + z", ["x"])

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unsupported function 'sqrt'"):
            parse_expr("sqrt(x)", ["x"])

    def test_call_shape_checked(self):
        with pytest.raises(ExprError, match="exactly one argument"):
            parse_expr("sin(x, x)", ["x"])
        with pytest.raises(ExprError, match="plain calls"):
            parse_expr("sin(x=1)", ["x"])

    def test_attribute_access_rejected(self):
        with pytest.raises(ExprError, match="unsupported syntax Attribute"):
            parse_expr("x.real", ["x"])

    def test_comparison_rejected(self):
        with pytest.raises(ExprError, match="unsupported syntax Compare"):
            parse_expr("x < 1", ["x"])

    def test_subscript_rejected(self):
        with pytest.raises(ExprError, match="unsupported syntax"):
            parse_expr("x[0]", ["x"])

    def test_non_numeric_constant_rejected(self):
        with pytest.raises(ExprError, match="real numbers"):
            parse_expr("'a'", ["x"])
        with pytest.raises(ExprError, match="real numbers"):
            parse_expr("True", ["x"])

    def test_syntax_error_reported_with_position(self):
        with pytest.raises(ExprError, match="invalid expression"):
            parse_expr("x +", ["x"])

    def test_modulo_rejected(self):
        with pytest.raises(ExprError, match="unsupported operator Mod"):
            parse_expr("x % 2", ["x"])
        with pytest.raises(ExprError, match="unsupported operator Invert at column 1"):
            parse_expr("~x", ["x"])

    def test_source_must_be_a_string(self):
        with pytest.raises(ExprError, match="^expression must be a string$"):
            parse_expr(3, ["x"])


class TestParseField:
    def test_vector_field(self):
        f = parse_field(["y", "-x - 0.5*y"], ["x", "y"])
        assert f(np.array([1.0, 2.0])) == pytest.approx([2.0, -2.0])

    def test_length_mismatch(self):
        with pytest.raises(ExprError, match="2 variables but 1 expressions"):
            parse_field(["y"], ["x", "y"])

    def test_duplicate_names(self):
        with pytest.raises(ExprError, match="unique"):
            parse_field(["x", "x"], ["x", "x"])

    def test_reserved_and_invalid_names(self):
        with pytest.raises(ExprError, match="invalid variable name 'sin'"):
            parse_field(["sin"], ["sin"])
        with pytest.raises(ExprError, match="invalid variable name '2x'"):
            parse_field(["1"], ["2x"])

    def test_feeds_nonlinear_reachability(self):
        from reachflow.hybridize import NonlinearSystem, linearize
        from reachflow.setgeom import Box

        f = parse_field(["-x**3"], ["x"])
        sys = NonlinearSystem(f=f, dim=1, hessian_bound=lambda lo, hi: 6.0 * abs(hi[0]))
        lin = linearize(sys, Box([0.9], [1.1]))
        assert lin.a[0, 0] == pytest.approx(-3.0, abs=1e-5)
