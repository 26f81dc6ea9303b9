import ast
import math
import sys

import numpy as np
import pytest

from logstab.expr import (
    MAX_DEPTH,
    MAX_TERMS,
    ExprSyntaxError,
    NonDifferentiableError,
    compile_expression,
    differentiate,
    free_variables,
    parse_expression,
    to_source,
)


def evaluate(text, **env):
    names = sorted(env)
    fn = compile_expression(parse_expression(text), names)
    return fn(*(env[n] for n in names))


class TestParseAndEval:
    def test_precedence(self):
        assert evaluate("2 + 3 * 4^2") == 50.0

    def test_power_right_associative(self):
        assert evaluate("2^3^2") == 512.0

    def test_unary_minus_binds_tighter_than_sum(self):
        assert evaluate("-2^2 + 1") == -3.0  # -(2^2) + 1

    def test_division_chain(self):
        assert evaluate("12 / 2 / 3") == 2.0

    def test_functions_and_constants(self):
        assert evaluate("sin(pi/2) + cos(0) + exp(0)") == pytest.approx(3.0)
        assert evaluate("log(e)") == pytest.approx(1.0)
        assert evaluate("sqrt(abs(-9))") == pytest.approx(3.0)
        assert evaluate("pow(2, 10)") == 1024.0

    def test_scientific_numbers(self):
        assert evaluate("1e-3 + 2.5E2") == pytest.approx(250.001)

    def test_variables(self):
        assert evaluate("x1 * t - x2", x1=3.0, x2=1.0, t=2.0) == 5.0

    def test_free_variables(self):
        node = parse_expression("x1 + sin(x2 * t) - pi")
        assert free_variables(node) == {"x1", "x2", "t"}

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("")
        with pytest.raises(ExprSyntaxError):
            parse_expression("1 +")
        with pytest.raises(ExprSyntaxError):
            parse_expression("sin(1, 2)")
        with pytest.raises(ExprSyntaxError):
            parse_expression("foo(1)")
        err = pytest.raises(ExprSyntaxError, parse_expression, "1 + (2 * 3")
        assert err.value.pos >= 4

    def test_undeclared_symbol_rejected_at_compile(self):
        with pytest.raises(ExprSyntaxError):
            compile_expression(parse_expression("x1 + y"), ["x1", "t"])

    # Python's parser accepts every one of these; the grammar accepts none
    @pytest.mark.parametrize(
        "text",
        [
            "0x10",
            "1_0",
            "1j",
            "x**2",
            "a.b",
            "sin(x=1)",
            "sin(*x)",
            "(1, 2)",
            "x if t else 1",
            "x < 1",
            "not x",
            "x % 2",
            "x // 2",
            "~x",
            "True",
            "'s'",
            "[x]",
            "lambda: 1",
            "\uff58 + t",  # fullwidth x, which Python reads as x
            "(sin)(x)",
            "sin(x,)",
            "x # comment",
            "...",
        ],
    )
    def test_python_syntax_outside_the_grammar_rejected(self, text):
        with pytest.raises(ExprSyntaxError):
            compile_expression(parse_expression(text), ["x", "t"])

    def test_argument_hiding_a_function_rejected(self):
        with pytest.raises(ExprSyntaxError, match="would hide a name"):
            compile_expression(parse_expression("sin(sin)"), ["sin"])

    def test_error_position_is_in_the_users_text(self):
        # Python reports the unclosed '(' at index 7 of "x**2 + (1"
        err = pytest.raises(ExprSyntaxError, parse_expression, "x^2 + (1")
        assert err.value.pos == 6
        err = pytest.raises(ExprSyntaxError, parse_expression, "x^2 +")
        assert err.value.pos == 5  # the end of the text

    @pytest.mark.parametrize("text", [" x + 1", "\tx", " \t x^2"])
    def test_leading_whitespace_is_not_indentation(self, text):
        assert ast.dump(parse_expression(text)) == ast.dump(parse_expression(text.strip()))

    def test_error_position_after_leading_whitespace_is_in_the_users_text(self):
        err = pytest.raises(ExprSyntaxError, parse_expression, "  x +")
        assert err.value.pos == 5  # the end of the text
        err = pytest.raises(ExprSyntaxError, parse_expression, "  x ^ 2 + (1")
        assert err.value.pos == 10

    def test_depth_limit(self):
        # nested general powers give the deepest derivative, about four times the depth
        at_limit = "(" * (MAX_DEPTH - 1) + "x" + ")^x" * (MAX_DEPTH - 1)
        derivative = compile_expression(differentiate(parse_expression(at_limit), "x"), ["x"])
        assert np.isfinite(derivative(1.01))
        with pytest.raises(ExprSyntaxError, match="nested more than"):
            parse_expression(f"({at_limit})^x")

    def test_parser_overflow_is_reported_as_depth(self):
        # Python's own parser runs out of stack on these unary minuses before the depth check sees a tree
        err = pytest.raises(ExprSyntaxError, parse_expression, "-" * 5000 + "x")
        assert str(err.value) == f"expression nested more than {MAX_DEPTH} levels deep (at position 0)"


class TestSumChains:
    """A flat chain of sums and differences is one level deep, capped at MAX_TERMS terms."""

    def test_chain_length_limit(self):
        assert evaluate(" - ".join(["x"] * MAX_TERMS), x=1.0) == 2.0 - MAX_TERMS
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_TERMS} terms"):
            parse_expression(" + ".join(["x"] * (MAX_TERMS + 1)))

    def test_products_count_per_factor(self):
        parse_expression(" * ".join(["x"] * MAX_DEPTH))
        with pytest.raises(ExprSyntaxError, match="nested more than"):
            parse_expression(" * ".join(["x"] * (MAX_DEPTH + 1)))

    def test_deep_first_term_differentiates_renders_and_compiles_in_150_frames(self):
        # the first term sits at the bottom of the left-nested chain; only a
        # renderer that loops along the chain keeps its derivative shallow
        deep = "x"
        for _ in range(MAX_DEPTH - 3):
            deep = f"pow({deep}, x)"
        node = parse_expression(" + ".join([deep] + ["x"] * (MAX_TERMS - 1)))
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            derivative = differentiate(node, "x")
            text = to_source(derivative)
            fn = compile_expression(derivative, ["x"])
        finally:
            sys.setrecursionlimit(limit)
        assert text.count(" + ") >= MAX_TERMS - 1
        assert fn(1.0) == pytest.approx(MAX_TERMS)  # every term has slope 1 at x = 1


CORPUS = [
    "x^3 - 2*x + 1",
    "sin(x) * cos(2*x)",
    "exp(-x^2)",
    "log(x^2 + 1)",
    "sqrt(x^2 + 4)",
    "x / (1 + x^2)",
    "pow(x, 4) - pow(2, x)",
    "sin(exp(x)) + x^2 / (3 - cos(x))",
    "(x + 1)^(x / 4)",
]


class TestDifferentiate:
    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_central_differences(self, text):
        node = parse_expression(text)
        f = compile_expression(node, ["x"])
        df = compile_expression(differentiate(node, "x"), ["x"])
        rng = np.random.default_rng(abs(hash(text)) % 2**32)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(0.3, 2.5)
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert df(x) == pytest.approx(fd, rel=2e-8, abs=1e-7)

    def test_partial_derivatives(self):
        node = parse_expression("x1^2 * x2 + t * x1")
        d1 = compile_expression(differentiate(node, "x1"), ["x1", "x2", "t"])
        d2 = compile_expression(differentiate(node, "x2"), ["x1", "x2", "t"])
        assert d1(2.0, 3.0, 5.0) == pytest.approx(17.0)  # 2*x1*x2 + t
        assert d2(2.0, 3.0, 5.0) == pytest.approx(4.0)  # x1^2

    def test_constant_derivative_is_zero(self):
        node = differentiate(parse_expression("pi * 4 - 2"), "x")
        fn = compile_expression(node, ["x"])
        assert fn(123.0) == 0.0

    def test_structurally_zero_partial_is_the_constant_zero(self):
        # the negated coefficients must not leave -0.0 * x1 or -0.0 * cos(x2) behind
        assert to_source(differentiate(parse_expression("-2*x1 - 3*sin(x2)"), "x3")) == "0.0"
        assert to_source(differentiate(parse_expression("-cos(x1) - (1 + t^2)*x2"), "x3")) == "0.0"

    def test_negated_constant_derivative_folds(self):
        assert to_source(differentiate(parse_expression("-x"), "x")) == "-1.0"
        assert to_source(differentiate(parse_expression("-2*x"), "x")) == "-2.0"

    @pytest.mark.parametrize("text, want", [("2*x + 3*x", "5.0"), ("2*x*3", "6.0"), ("x^0", "0.0")])
    def test_constant_derivatives_fold(self, text, want):
        assert to_source(differentiate(parse_expression(text), "x")) == want

    def test_abs_is_non_differentiable(self):
        with pytest.raises(NonDifferentiableError):
            differentiate(parse_expression("abs(x)"), "x")

    @pytest.mark.parametrize("text", CORPUS + ["a - (b - c) / (d * e) * -(f + g)", "-(a * b) - -c + (a - b) * (c + d)"])
    def test_source_parses_back_to_the_tree_of_ast_unparse(self, text):
        node = parse_expression(text)
        names = sorted(free_variables(node))
        for tree in [node] + [differentiate(node, v) for v in names]:
            assert ast.dump(ast.parse(to_source(tree))) == ast.dump(ast.parse(ast.unparse(tree)))

    def test_source_round_trip(self):
        node = parse_expression("-(x + 2) * sin(t)^2 + pow(x, 3)")
        again = parse_expression(to_source(node))
        f1 = compile_expression(node, ["x", "t"])
        f2 = compile_expression(again, ["x", "t"])
        for x, t in [(0.5, 1.0), (-2.0, 3.0)]:
            assert f1(x, t) == pytest.approx(f2(x, t), abs=1e-15)


class TestCompileLists:
    """A list, or a list of lists, of expressions compiles to one function."""

    NAMES = ["x1", "x2", "t"]

    def test_list_and_nested_list_keep_their_shape(self):
        row = [parse_expression(e) for e in ("x1 + t", "x2 * x1", "2")]
        vector = compile_expression(row, self.NAMES)
        matrix = compile_expression([row, row[::-1]], self.NAMES)
        assert vector(2.0, 3.0, 0.5) == [2.5, 6.0, 2.0]
        assert matrix(2.0, 3.0, 0.5) == [[2.5, 6.0, 2.0], [2.0, 6.0, 2.5]]

    def test_one_undefined_entry_makes_every_entry_nan(self):
        row = [parse_expression(e) for e in ("x1", "log(x2)")]
        vector = compile_expression(row, self.NAMES)
        matrix = compile_expression([row, row], self.NAMES)
        out = vector(1.0, -1.0, 0.0)
        assert len(out) == 2 and all(math.isnan(v) for v in out)
        out = matrix(1.0, -1.0, 0.0)
        assert [len(r) for r in out] == [2, 2] and all(math.isnan(v) for r in out for v in r)
        assert vector(1.0, 1.0, 0.0) == [1.0, 0.0]

    def test_division_by_zero_is_nan(self):
        fn = compile_expression([parse_expression("-x1 + exp(-1/x2)"), parse_expression("-x2")], self.NAMES)
        assert all(math.isnan(v) for v in fn(1.0, 0.0, 0.0))

    def test_symbols_are_checked_over_every_entry(self):
        with pytest.raises(ExprSyntaxError, match="unknown symbol"):
            compile_expression([[parse_expression("x1")], [parse_expression("y")]], self.NAMES)
        with pytest.raises(ExprSyntaxError, match="would hide a name"):
            compile_expression([parse_expression("pow + 1")], ["pow"])

    def test_numpy_namespace_takes_columns_and_keeps_math_for_floats(self):
        rows = [parse_expression(e) for e in ("x1*sin(x2) + pow(t, 3)", "exp(-t)/3", "2")]
        stack = compile_expression(rows, self.NAMES, "numpy")
        point = compile_expression(rows, self.NAMES)
        xs = np.array([[1.0, 2.0], [-0.5, 3.0], [4.0, -1.0]])
        out = stack(xs[:, 0], xs[:, 1], 0.7)
        assert out[0].tolist() == [point(*x, 0.7)[0] for x in xs]
        # entries in t alone stay Python floats with math's bits
        assert type(out[1]) is float and type(out[2]) is float
        assert out[1:] == point(1.0, 2.0, 0.7)[1:]

    @pytest.mark.parametrize(
        "text, t, error",
        [("log(x2)", 0.0, FloatingPointError), ("exp(x1^2)", 0.0, FloatingPointError), ("x1/t", 0.0, FloatingPointError),
         ("x1 + 1/t", 0.0, ZeroDivisionError), ("x1 + log(t - 1)", 0.0, ValueError), ("exp(-x1*1e3)", 0.0, FloatingPointError)],
        ids=["invalid", "overflow", "division by zero", "division by zero in t", "log in t", "underflow"],
    )
    def test_numpy_namespace_raises_where_an_entry_is_undefined(self, text, t, error):
        stack = compile_expression([parse_expression("x1"), parse_expression(text)], self.NAMES, "numpy")
        with pytest.raises(error):
            stack(np.array([30.0, 1.0]), np.array([-1.0, 1.0]), t)

    def test_numpy_namespace_names_are_checked_too(self):
        with pytest.raises(ExprSyntaxError, match="would hide a name"):
            compile_expression([parse_expression("_errstate + 1")], ["_errstate"], "numpy")
