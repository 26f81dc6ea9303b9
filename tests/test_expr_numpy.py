"""Property tests: the numpy and vector namespaces of compile_expression against the math namespace.

The two evaluate the same printed text. Arithmetic is IEEE in both, and a
subtree of Python floats (constants, t) runs on math in both. So a stack
differs from the per-point function only where a function of the state runs
on numpy instead of math. Each such function agrees with math to <= 2 ulp
(the first test), and a tree's stack is exactly the per-point tree with
numpy's value taken at each of them (the second). Within a tree a 1-ulp
difference can grow by cancellation, as exp(x1) - 1 near 0 shows, so no
ulp bound is claimed for whole trees. Where the per-point function is not
finite, a system's stack fails as its rows do (the third). The vector
namespace, which takes math's function at every entry of an array, gives
the math namespace's bits at every t of a vector wherever it returns (the
fourth).
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstab.config import build_system, parse_config
from logstab.errors import EvaluationError
from logstab.expr import FUNCTIONS_1, compile_expression, parse_expression, to_source
from logstab.system import eval_field, jacobian

from conftest import without_stacks

NAMES = ["x1", "x2", "t"]
finite = st.floats(allow_nan=False, allow_infinity=False)
coordinates = st.floats(-10.0, 10.0)
constants = st.one_of(st.sampled_from(["0", "1", "2", "0.5", "3.25", "pi", "e"]), st.floats(0.0, 100.0).map(repr))


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
        children.map(lambda c: f"-({c})"),
        st.tuples(st.sampled_from(FUNCTIONS_1), children).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(children, children).map(lambda p: f"pow({p[0]}, {p[1]})"),
    )


expressions = st.recursive(st.one_of(st.sampled_from(NAMES), constants), _combine, max_leaves=10)
stacks = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=12).map(np.array)
times = st.floats(0.0, 5.0)


def _within_two_ulp(got: float, want: float) -> bool:
    return abs(got - want) <= 2 * math.ulp(max(abs(got), abs(want)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FUNCTIONS_1 + ("pow",)), finite, finite, st.sampled_from(["x1, x2", "x1, 2.5", "2.5, x1"]))
def test_each_function_of_the_state_agrees_with_math_to_two_ulp(fn, a, b, pow_args):
    """One function at one state: numpy's value within 2 ulp of math's, an underflow, or an error where math has none."""
    text, names = (f"pow({pow_args})", ["x1", "x2"]) if fn == "pow" else (f"{fn}(x1)", ["x1"])
    tree, args = parse_expression(text), (a, b)[: len(names)]
    want = compile_expression(tree, names)(*args)
    try:
        got = float(compile_expression(tree, names, "numpy")(*(np.array([v]) for v in args))[0])
    except FloatingPointError as exc:
        got = exc
    if not math.isfinite(want):  # math raised
        assert isinstance(got, FloatingPointError), (text, args, got)
    elif isinstance(got, FloatingPointError):  # only an underflow, where math keeps a subnormal or 0
        assert "underflow" in str(got) and abs(want) < 2.3e-308, (text, args, got, want)
    else:
        assert _within_two_ulp(got, want), (text, args, got, want)


class _OfState(float):
    """A float that depends on the state: arithmetic keeps the mark, and _STATE_NAMESPACE's functions take numpy for it."""


for _op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "neg", "abs"):
    setattr(_OfState, f"__{_op}__", lambda self, *other, op=f"__{_op}__": _OfState(getattr(float, op)(self, *other)))


def _on_state(fn):
    """``fn`` as the stack calls it: math's on floats, numpy's on a 1-row column for each argument of the state.

    An argument that is not of the state stays a Python float, as it does in
    the stack: np.power(column, 2.0) and np.power(column, [2.0]) can round
    differently.
    """
    by_math, by_numpy = getattr(math, fn), getattr(np, "power" if fn == "pow" else fn)

    def call(*args):
        if not any(isinstance(a, _OfState) for a in args):
            return by_math(*args)
        with np.errstate(all="raise"):
            return _OfState(by_numpy(*(np.array([float(a)]) if isinstance(a, _OfState) else a for a in args))[0])

    return call


_STATE_NAMESPACE = {fn: _on_state(fn) for fn in FUNCTIONS_1 + ("pow",) if fn != "abs"}


@settings(max_examples=300, deadline=None)
@given(expressions, stacks, times)
@example("pow(x1, 2)", np.array([[9.999999999999998, 0.0]]), 0.0)  # a float exponent: see _on_state
def test_a_stack_is_the_per_point_tree_with_numpy_at_the_state(text, xs, t):
    tree = parse_expression(text)
    stack = compile_expression(tree, NAMES, "numpy")
    try:
        values = np.broadcast_to(stack(xs[:, 0], xs[:, 1], t), len(xs))
    except (ArithmeticError, ValueError):
        return  # the stack goes row by row: the third test
    source = to_source(tree)
    for x, value in zip(xs, values):
        want = eval(source, {**_STATE_NAMESPACE, "abs": abs}, {"x1": _OfState(x[0]), "x2": _OfState(x[1]), "t": t})
        assert value == want or (math.isnan(value) and math.isnan(want)), (source, x, t)


def _outcome(call):
    """The values of ``call()``, or the text, x and t of the EvaluationError it raises."""
    try:
        return call()
    except EvaluationError as exc:
        return str(exc), None if exc.x is None else exc.x.tolist(), exc.t


@settings(max_examples=200, deadline=None)
@given(expressions, expressions, stacks, times)
def test_a_system_stack_fails_as_its_rows_do(f1, f2, xs, t):
    sys = build_system(parse_config(f"[system]\ntype = expression\ndim = 2\nf1 = {f1}\nf2 = {f2}\n"))
    rows = without_stacks(sys)
    for evaluate in (eval_field, jacobian):
        want = _outcome(lambda: evaluate(rows, xs, t))
        got = _outcome(lambda: evaluate(sys, xs, t))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.shape == want.shape


# the forcing ratio's grid on [0, 20], where numpy's power and exp are not math's
RATIO_GRID = np.geomspace(0.02, 20.0, 200)


@settings(max_examples=300, deadline=None)
@given(expressions, coordinates, coordinates, st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12).map(np.array))
@example("pow(t, 3)", 0.0, 0.0, RATIO_GRID)
@example("0.5 + exp(-t)*sin(t) - sqrt(t)*log(t)", 0.0, 0.0, RATIO_GRID)
@example("2", 1.0, -1.0, RATIO_GRID)
def test_a_vector_of_t_has_the_math_bits_at_every_t(text, x1, x2, ts):
    """Where the vector namespace returns, its value at each t is the math namespace's, bit for bit."""
    tree = parse_expression(text)
    try:
        got = compile_expression(tree, NAMES, "vector")(x1, x2, ts)
    except (ArithmeticError, ValueError):
        return  # the caller goes time by time
    per_t = compile_expression(tree, NAMES)
    want = np.array([per_t(x1, x2, t) for t in ts.tolist()])
    assert np.broadcast_to(got, ts.shape).tobytes() == want.tobytes(), (text, x1, x2)
