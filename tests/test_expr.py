import math

import numpy as np
import pytest

import qgeom as qg
from qgeom.expr import Dual, parameters_used


class TestParsing:
    def test_valid_product(self):
        ast = qg.parse_expression("sin(theta)*cos(phi)", ("theta", "phi"))
        assert parameters_used(ast) == {"theta", "phi"}

    def test_power_right_associative(self):
        ast = qg.parse_expression("2^3^2", ())
        assert qg.evaluate(ast, {}) == 512.0

    def test_unknown_identifier_named(self):
        with pytest.raises(qg.ParseError, match="thetta"):
            qg.parse_expression("sin(thetta)", ("theta",))

    def test_power_binds_tighter_than_unary_minus(self):
        assert qg.evaluate(qg.parse_expression("-2^2", ()), {}) == -4.0

    def test_signed_exponent(self):
        assert qg.evaluate(qg.parse_expression("2^-3", ()), {}) == 0.125

    def test_precedence_and_left_associativity(self):
        assert qg.evaluate(qg.parse_expression("2+3*4", ()), {}) == 14.0
        assert qg.evaluate(qg.parse_expression("8/4/2", ()), {}) == 1.0
        assert qg.evaluate(qg.parse_expression("8-4-2", ()), {}) == 2.0

    def test_scientific_notation(self):
        assert qg.evaluate(qg.parse_expression("1.5e-3 + .5", ()), {}) == 0.0015 + 0.5

    @pytest.mark.parametrize("src", ["(2+3", "2+", "", "  ", ")", "2 + * 3", "2 3"])
    def test_malformed(self, src):
        with pytest.raises(qg.ParseError):
            qg.parse_expression(src, ("x",))

    @pytest.mark.parametrize("src, name", [(3, "int"), (2.5, "float"), (None, "NoneType")])
    def test_non_string_is_named(self, src, name):
        with pytest.raises(qg.ParseError, match=f"expression must be a string, not {name}"):
            qg.parse_expression(src, ("x",))

    def test_unknown_function(self):
        with pytest.raises(qg.ParseError, match="foo"):
            qg.parse_expression("foo(2)", ())

    def test_error_carries_offset(self):
        with pytest.raises(qg.ParseError) as err:
            qg.parse_expression("1 + bogus", ("x",))
        assert err.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(qg.ParseError):
            qg.parse_expression("2 @ 3", ())


class TestEvaluation:
    def test_sin_at_half_pi(self):
        ast = qg.parse_expression("sin(theta)", ("theta",))
        assert qg.evaluate(ast, {"theta": math.pi / 2}) == 1.0

    def test_polynomial(self):
        ast = qg.parse_expression("lambda1^2 + 1", ("lambda1",))
        assert qg.evaluate(ast, {"lambda1": 3.0}) == 10.0

    def test_division_by_zero(self):
        ast = qg.parse_expression("1/lambda1", ("lambda1",))
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"lambda1": 0.0})

    def test_log_domain(self):
        ast = qg.parse_expression("log(x)", ("x",))
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"x": -1.0})
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"x": 0.0})

    def test_sqrt_domain(self):
        ast = qg.parse_expression("sqrt(x)", ("x",))
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"x": -4.0})

    def test_overflow_raises_not_inf(self):
        ast = qg.parse_expression("exp(x)", ("x",))
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"x": 1e4})

    def test_fractional_power_of_negative(self):
        ast = qg.parse_expression("x^0.5", ("x",))
        with pytest.raises(qg.EvaluationError):
            qg.evaluate(ast, {"x": -2.0})

    def test_unbound_parameter(self):
        ast = qg.parse_expression("x + y", ("x", "y"))
        with pytest.raises(qg.InputError):
            qg.evaluate(ast, {"x": 1.0})

    def test_deterministic_and_pure(self):
        ast = qg.parse_expression("sin(x)*x^2", ("x",))
        first = qg.evaluate(ast, {"x": 0.7})
        second = qg.evaluate(ast, {"x": 0.7})
        assert first == second


class TestDerivatives:
    def test_square(self):
        ast = qg.parse_expression("lambda1^2", ("lambda1",))
        assert qg.evaluate_with_derivative(ast, {"lambda1": 3.0}, "lambda1") == (9.0, 6.0)

    def test_sin_at_zero(self):
        ast = qg.parse_expression("sin(theta)", ("theta",))
        v, d = qg.evaluate_with_derivative(ast, {"theta": 0.0}, "theta")
        assert v == 0.0 and d == 1.0

    def test_other_direction_is_zero(self):
        ast = qg.parse_expression("sin(theta)", ("theta", "phi"))
        _, d = qg.evaluate_with_derivative(ast, {"theta": 1.0, "phi": 2.0}, "phi")
        assert d == 0.0

    def test_chain_rule_composition(self):
        ast = qg.parse_expression("sin(cos(x))", ("x",))
        v, d = qg.evaluate_with_derivative(ast, {"x": 0.6}, "x")
        assert v == pytest.approx(math.sin(math.cos(0.6)), abs=1e-15)
        assert d == pytest.approx(-math.cos(math.cos(0.6)) * math.sin(0.6), abs=1e-15)

    def test_quotient_rule(self):
        ast = qg.parse_expression("x / (1 + x^2)", ("x",))
        v, d = qg.evaluate_with_derivative(ast, {"x": 2.0}, "x")
        assert v == pytest.approx(0.4)
        assert d == pytest.approx((1 - 4) / 25)

    def test_integer_power_of_negative_base(self):
        ast = qg.parse_expression("x^3", ("x",))
        v, d = qg.evaluate_with_derivative(ast, {"x": -2.0}, "x")
        assert v == -8.0 and d == 12.0

    def test_varying_exponent(self):
        ast = qg.parse_expression("2^x", ("x",))
        v, d = qg.evaluate_with_derivative(ast, {"x": 3.0}, "x")
        assert v == 8.0
        assert d == pytest.approx(8.0 * math.log(2.0), rel=1e-15)

    def test_abs(self):
        ast = qg.parse_expression("abs(x)", ("x",))
        assert qg.evaluate_with_derivative(ast, {"x": -3.0}, "x") == (3.0, -1.0)
        assert qg.evaluate_with_derivative(ast, {"x": 3.0}, "x") == (3.0, 1.0)


def _random_ast_source(rng, params, depth=0):
    """Random smooth expression text (no log/sqrt/div, so every point is safe)."""
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return f"{rng.uniform(-2, 2):.6f}"
        return params[rng.integers(len(params))]
    kind = rng.integers(5)
    a = _random_ast_source(rng, params, depth + 1)
    b = _random_ast_source(rng, params, depth + 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"sin({a})"
    return f"cos({a})"


class TestDerivativeOracle:
    def test_500_random_asts_match_central_difference(self):
        rng = np.random.default_rng(11)
        params = ("a", "b", "c")
        checked = 0
        while checked < 500:
            src = _random_ast_source(rng, params)
            ast = qg.parse_expression(src, params)
            point = {p: float(rng.uniform(-2, 2)) for p in params}
            direction = params[rng.integers(len(params))]
            _, dual = qg.evaluate_with_derivative(ast, point, direction)
            h = 1e-6
            up = dict(point, **{direction: point[direction] + h})
            down = dict(point, **{direction: point[direction] - h})
            fd = (qg.evaluate(ast, up) - qg.evaluate(ast, down)) / (2 * h)
            assert abs(dual - fd) <= 1e-6 * max(1.0, abs(dual)), src
            checked += 1


class TestRoundTrip:
    def test_parse_print_parse(self):
        rng = np.random.default_rng(12)
        params = ("a", "b")
        for _ in range(100):
            src = _random_ast_source(rng, params)
            ast = qg.parse_expression(src, params)
            printed = qg.format_expression(ast)
            reparsed = qg.parse_expression(printed, params)
            point = {p: float(rng.uniform(-3, 3)) for p in params}
            v1 = qg.evaluate(ast, point)
            v2 = qg.evaluate(reparsed, point)
            assert abs(v1 - v2) <= 1e-15 * max(1.0, abs(v1))

    @pytest.mark.parametrize("src", [
        "2^-3 / (x - 4)",
        "-x^2 + sqrt(abs(x))",
        "exp(-x) * log(x + 5)",
        "tan(x/7) - 1.5e-2",
    ])
    def test_every_operator_round_trips(self, src):
        ast = qg.parse_expression(src, ("x",))
        printed = qg.format_expression(ast)
        reparsed = qg.parse_expression(printed, ("x",))
        for x in (0.3, 1.7, 2.9):
            assert qg.evaluate(ast, {"x": x}) == qg.evaluate(reparsed, {"x": x})


class TestDual:
    def test_product_rule(self):
        a = Dual(2.0, 3.0)
        b = Dual(5.0, 7.0)
        p = a * b
        assert p.value == 10.0
        assert p.deriv == 3.0 * 5.0 + 2.0 * 7.0

    def test_scalar_interop(self):
        x = Dual(2.0, 1.0)
        assert (1.0 + x).deriv == 1.0
        assert (3.0 * x).deriv == 3.0
        assert (1.0 / x).deriv == pytest.approx(-0.25)
        assert (2.0 - x).value == 0.0


@pytest.mark.parametrize("src, message, offset", [
    ("2 +", "empty operand at end of input", 3),
    ("2 + \t", "empty operand at end of input", 5),
    ("(2+3", "unbalanced parentheses: expected ')'", 4),
    ("(2+3  ", "unbalanced parentheses: expected ')'", 6),
    ("(2 3) + 1", "unbalanced parentheses: expected ')'", 4),
    ("sin(x 2)", "unbalanced parentheses: expected ')'", 7),
    ("2 3", "unexpected token '3' after expression", 2),
    ("2 + * 3", "empty operand before '*'", 4),
    ("  \t@", "unexpected character '@'", 3),
    ("(x + 1 # 2", "unexpected character '#'", 7),
])
def test_parse_errors_name_the_token_and_its_offset(src, message, offset):
    with pytest.raises(qg.ParseError) as err:
        qg.parse_expression(src, ("x",))
    assert str(err.value) == f"{message} (byte offset {offset})" and err.value.offset == offset


@pytest.mark.parametrize("src, bare", [("2 ", "2"), (" x\n", "x"), ("\t-x ^ 2 ", "-x^2"),
                                       ("sin ( x ) ", "sin(x)")])
def test_whitespace_around_tokens_is_skipped(src, bare):
    assert qg.parse_expression(src, ("x",)) == qg.parse_expression(bare, ("x",))


def test_unknown_binary_operator_is_a_malformed_node():
    node = qg.expr.BinaryOp("%", qg.expr.Constant(1.0), qg.expr.Constant(2.0))
    with pytest.raises(qg.InputError, match=r"^malformed AST node BinaryOp\(op='%'"):
        qg.evaluate(node, {})
