import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logstab.certify import (
    Domain,
    SamplingPlan,
    check_demidovich,
    check_forcing_ratio,
    classify_rate_integral,
    estimate_contraction_rate,
)
from logstab.errors import DimensionError, EvaluationError, InvalidInputError
from logstab.integrate import check_transition_bounds
from logstab.linalg import NormKind
from logstab.system import (
    QuadratureRule,
    SystemSpec,
    averaged_jacobian,
    averaged_jacobian_residual,
    eval_field,
    eval_rhs,
    jacobian,
)

from logstab.demos import build_example1, delta_admissible

from conftest import spy


@pytest.fixture
def linear_system():
    a = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 0.0, -2.0]])
    return a, SystemSpec(dim=3, f=lambda x, t: a @ x, jac=lambda x, t: a)


class TestEvalRhs:
    def test_demo_system_vanishes_at_origin(self, fig1_system):
        # sin(0) = 0 and all linear terms vanish; delta(0) = (0, 0) too
        assert np.allclose(eval_rhs(fig1_system, np.zeros(2), 0.0), np.zeros(2), atol=1e-15)

    def test_demo_field_by_direct_substitution(self):
        # phi constant -6, x = (pi/2, 0): f = (-3*pi + 1, 5*pi/2)
        sys = build_example1(phi=lambda t: -6.0)
        out = eval_rhs(sys, np.array([np.pi / 2.0, 0.0]), 0.0)
        assert out[0] == pytest.approx(-3.0 * np.pi + 1.0, abs=1e-14)
        assert out[1] == pytest.approx(5.0 * np.pi / 2.0, abs=1e-14)

    def test_linear_system_definition(self, linear_system):
        a, sys = linear_system
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        assert np.allclose(eval_rhs(sys, x, 0.3), a @ x, atol=1e-14)

    def test_system_without_delta_keeps_none_and_its_rhs_is_the_field(self, linear_system):
        _, sys = linear_system
        assert sys.delta is None
        x = np.random.default_rng(2).normal(size=3)
        assert eval_rhs(sys, x, 0.3).tobytes() == eval_field(sys, x, 0.3).tobytes()

    def test_dimension_mismatch(self, fig1_system):
        with pytest.raises(DimensionError):
            eval_rhs(fig1_system, np.zeros(3), 0.0)

    def test_non_finite_output_reports_location(self):
        sys = SystemSpec(dim=1, f=lambda x, t: np.array([np.inf]))
        with pytest.raises(EvaluationError) as err:
            eval_rhs(sys, np.array([1.0]), 2.0)
        assert err.value.t == 2.0


class TestUserOutputChecks:
    """Each check of a user callable's output: its message, and the x and t it carries."""

    X = np.array([1.0, 2.0])

    @pytest.mark.parametrize(
        "spec, call, message, has_x",
        [
            ({"f": lambda x, t: np.zeros(3)}, eval_rhs, r"^f returned shape \(3,\), expected \(2,\) at x=\[1\.0, 2\.0\], t=0\.5$", True),
            ({"f": lambda x, t: np.array([0.0, np.nan])}, eval_rhs, r"^f returned non-finite values at x=\[1\.0, 2\.0\], t=0\.5$", True),
            (
                {"f": lambda x, t: np.zeros(2), "delta": lambda t: np.zeros((2, 1))},
                eval_rhs,
                r"^delta returned shape \(2, 1\), expected \(2,\) at t=0\.5$",
                False,
            ),
            (
                {"f": lambda x, t: np.zeros(2), "delta": lambda t: np.array([np.inf, 0.0])},
                eval_rhs,
                r"^delta returned non-finite values at t=0\.5$",
                False,
            ),
            (
                {"f": lambda x, t: np.zeros(2), "jac": lambda x, t: np.zeros(2)},
                jacobian,
                r"^jac returned shape \(2,\), expected \(2, 2\) at x=\[1\.0, 2\.0\], t=0\.5$",
                True,
            ),
            (
                {"f": lambda x, t: np.zeros(2), "jac": lambda x, t: np.full((2, 2), np.nan)},
                jacobian,
                r"^jac returned non-finite values at x=\[1\.0, 2\.0\], t=0\.5$",
                True,
            ),
        ],
        ids=["f shape", "f non-finite", "delta shape", "delta non-finite", "jac shape", "jac non-finite"],
    )
    def test_message_and_location(self, spec, call, message, has_x):
        with pytest.raises(EvaluationError, match=message) as err:
            call(SystemSpec(dim=2, **spec), self.X, 0.5)
        assert err.value.t == 0.5
        if has_x:
            assert np.array_equal(err.value.x, self.X)
        else:
            assert err.value.x is None


X = np.array([1.0, 2.0])
BOX = Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 0.0, 1.0)
ONE_SLICE = SamplingPlan(n_space=2, n_time=1)  # the box's four corners at t = 0, [-1, -1] first


def _decay(x, t):
    return -x


# id: (the callable's name in messages, the shape of a good output, a call that evaluates the callable fn,
# the x and t its first evaluation is named at)
USER_CALLABLES = {
    "f": ("f", (2,), lambda fn: eval_rhs(SystemSpec(dim=2, f=fn), X, 0.5), X, 0.5),
    "jac in the certificate sweep": (
        "jac",
        (2, 2),
        lambda fn: estimate_contraction_rate(SystemSpec(dim=2, f=_decay, jac=fn), BOX, NormKind.l2(), ONE_SLICE),
        [-1.0, -1.0],
        0.0,
    ),
    "jac in the Demidovich sweep": (
        "jac",
        (2, 2),
        lambda fn: check_demidovich(SystemSpec(dim=2, f=_decay, jac=fn), np.eye(2), BOX, ONE_SLICE),
        [-1.0, -1.0],
        0.0,
    ),
    "finite-difference J": ("f", (2,), lambda fn: jacobian(SystemSpec(dim=2, f=fn), X, 0.5), X, 0.5),
    # the ratio's log-spaced grid on [0, 4] starts at 4e-3
    "delta": (
        "delta",
        (2,),
        lambda fn: check_forcing_ratio(SystemSpec(dim=2, f=_decay, delta=fn), lambda t: 1.0, 0.0, 4.0),
        None,
        0.004,
    ),
    "alpha in the rate integral": ("alpha", (), lambda fn: classify_rate_integral(fn, 0.0, 4.0), None, 0.0),
    "alpha in the forcing ratio": (
        "alpha",
        (),
        lambda fn: check_forcing_ratio(SystemSpec(dim=2, f=_decay), fn, 0.0, 4.0),
        None,
        0.004,
    ),
    "alpha in the certificate's dominance": (
        "alpha",
        (),
        lambda fn: estimate_contraction_rate(SystemSpec(dim=2, f=_decay), BOX, NormKind.l2(), ONE_SLICE, alpha_fn=fn),
        None,
        0.0,
    ),
    "A": ("A", (2, 2), lambda fn: check_transition_bounds(fn, NormKind.l2(), 0.0, 1.0), None, 0.0),
}


def _bad_output(kind: str, shape: tuple):
    if kind == "non-finite":
        return np.full(shape, np.nan)
    if kind == "wrong shape":
        return np.zeros(shape + (2,))
    if kind == "complex":
        return np.full(shape, 1.0 + 1.0j)  # a cast to float would keep the real part
    out = np.zeros(shape).astype(object)
    out.flat[-1] = "x"
    return out.tolist()  # [[0.0, 0.0], [0.0, "x"]] for a matrix, "x" for a scalar


@pytest.mark.parametrize("kind", ["non-finite", "wrong shape", "non-numeric", "complex"])
@pytest.mark.parametrize("callable_id", USER_CALLABLES)
def test_every_user_callable_fails_one_way(callable_id, kind):
    name, shape, evaluate, x, t = USER_CALLABLES[callable_id]
    bad, calls = _bad_output(kind, shape), []

    def fn(*args):
        calls.append(args)
        return bad

    with pytest.raises(EvaluationError) as err:
        evaluate(fn)
    if callable_id == "finite-difference J" and kind != "non-finite":
        # f's output is checked row by row where f was evaluated, at the first perturbed state;
        # a non-finite value is reported at the state whose Jacobian needed it
        x = calls[0][0]
    problem = {
        "non-finite": "non-finite values",
        "wrong shape": f"shape {shape + (2,)}, expected {shape}",
        "non-numeric": "non-numeric output",
        "complex": "non-numeric output",
    }[kind]
    where = f"t={t}" if x is None else f"x={np.asarray(x).tolist()}, t={t}"
    assert str(err.value) == f"{name} returned {problem} at {where}"
    assert err.value.t == t
    assert err.value.x is None if x is None else err.value.x.tolist() == np.asarray(x).tolist()


class TestJacobian:
    def test_linear_field_constant_jacobian(self, linear_system):
        a, sys = linear_system
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert np.allclose(jacobian(sys, rng.normal(size=3), rng.uniform()), a, atol=1e-14)

    def test_demo_jacobian_at_origin(self, fig1_system):
        assert np.allclose(
            jacobian(fig1_system, np.zeros(2), 0.0), [[-5.0, 0.0], [5.0, -3.0]], atol=1e-14
        )

    def test_finite_difference_agrees_with_analytic(self, fig1_system):
        fd_sys = SystemSpec(dim=2, f=fig1_system.f, delta=fig1_system.delta)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-10.0, 10.0, size=2)
            t = rng.uniform(0.0, 2.0)
            diff = np.abs(jacobian(fd_sys, x, t) - jacobian(fig1_system, x, t)).max()
            worst = max(worst, diff)
        assert worst < 1e-7


class TestQuadratureRule:
    def test_gauss_legendre_weights_sum_to_one(self):
        for n in (1, 2, 4, 8, 16, 32):
            rule = QuadratureRule.gauss_legendre(n)
            assert abs(rule.weights.sum() - 1.0) <= 1e-14
            assert np.all((rule.nodes >= 0.0) & (rule.nodes <= 1.0))

    def test_rejects_bad_rules(self):
        with pytest.raises(InvalidInputError):
            QuadratureRule(nodes=[0.5, 1.5], weights=[0.5, 0.5])
        with pytest.raises(InvalidInputError):
            QuadratureRule(nodes=[0.25, 0.75], weights=[0.4, 0.4])
        with pytest.raises(InvalidInputError):
            QuadratureRule.gauss_legendre(0)

    @pytest.mark.parametrize("node", [np.nan, -0.5, 1.5, np.inf])
    def test_rejects_a_node_outside_the_unit_interval(self, node):
        # the test is written so that NaN fails it
        with pytest.raises(InvalidInputError, match=r"^quadrature nodes must lie in \[0, 1\]$"):
            QuadratureRule(nodes=[node], weights=[1.0])

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # in its own process: the default rule is built on first use, so importing the package and CLI skips it
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, logstab, logstab.cli; print('numpy.polynomial' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


class TestAveragedJacobian:
    def test_linear_field_exact(self, linear_system):
        a, sys = linear_system
        rng = np.random.default_rng(4)
        avg = averaged_jacobian(sys, rng.normal(size=3), rng.normal(size=3), 0.0)
        assert np.allclose(avg, a, atol=1e-14)

    def test_scalar_quadratic_hand_value(self):
        # f(x) = x^2: the segment average of 2*xi*x over xi in [0,1] is x,
        # so from 0 to 3 the averaged slope is 3 and 3*3 = f(3) - f(0)
        sys = SystemSpec(dim=1, f=lambda x, t: x * x, jac=lambda x, t: np.array([[2.0 * x[0]]]))
        avg = averaged_jacobian(sys, np.array([0.0]), np.array([3.0]), 0.0)
        assert avg[0, 0] == pytest.approx(3.0, abs=1e-13)

    def test_zero_length_segment_is_pointwise_jacobian(self, fig1_system):
        x = np.array([0.7, -1.2])
        avg = averaged_jacobian(fig1_system, x, x, 0.5)
        assert np.allclose(avg, jacobian(fig1_system, x, 0.5), atol=1e-13)

    def test_origin_anchored_average_reproduces_field_difference(self, fig1_system):
        rng = np.random.default_rng(5)
        zero = np.zeros(2)
        for _ in range(1000):
            x = rng.uniform(-10.0, 10.0, size=2)
            t = rng.uniform(0.0, 2.0)
            avg = averaged_jacobian(fig1_system, zero, x, t)
            diff = fig1_system.f(x, t) - fig1_system.f(zero, t)
            assert np.abs(avg @ x - diff).max() < 1e-10


class TestResidual:
    def test_linear_residual_vanishes(self, linear_system):
        _, sys = linear_system
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = averaged_jacobian_residual(sys, rng.normal(size=3), rng.normal(size=3), 0.0)
            assert r < 1e-14

    def test_demo_segments_converge_spectrally(self, fig1_system):
        rng = np.random.default_rng(7)
        rule = QuadratureRule.gauss_legendre(16)
        worst = 0.0
        for _ in range(1000):
            x_star = rng.uniform(-10.0, 10.0, size=2)
            x = rng.uniform(-10.0, 10.0, size=2)
            t = rng.uniform(0.0, 2.0)
            worst = max(worst, averaged_jacobian_residual(fig1_system, x_star, x, t, rule))
        assert worst < 1e-10

    def test_cubic_field_exact_with_two_nodes(self):
        # J of x^3 is 3x^2: quadratic along the segment, inside the
        # exactness degree 2*2 - 1 = 3 of the two-point rule
        sys = SystemSpec(dim=1, f=lambda x, t: x**3, jac=lambda x, t: np.array([[3.0 * x[0] ** 2]]))
        rule = QuadratureRule.gauss_legendre(2)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x_star = rng.uniform(-2.0, 2.0, size=1)
            x = rng.uniform(-2.0, 2.0, size=1)
            assert averaged_jacobian_residual(sys, x_star, x, 0.0, rule) < 1e-14


def _with_stack(fn, stack):
    fn.stack = stack
    return fn


class TestStackContract:
    """eval_field and jacobian on a stack (N, n): one call of the callable's stack, or one call per row."""

    def test_row_loop_matches_per_point_calls(self, linear_system):
        _, sys = linear_system
        xs = np.random.default_rng(9).normal(size=(7, 3))
        assert eval_field(sys, xs, 0.3).tolist() == [eval_field(sys, x, 0.3).tolist() for x in xs]
        assert jacobian(sys, xs, 0.3).tolist() == [jacobian(sys, x, 0.3).tolist() for x in xs]

    def test_demo_native_stacks_match_its_per_point_functions(self):
        sys = build_example1(delta=delta_admissible)
        rng = np.random.default_rng(10)
        for t in rng.uniform(0.0, 2.0, size=4):
            xs = rng.uniform(-10.0, 10.0, size=(200, 2))
            assert eval_field(sys, xs, t).tolist() == [sys.f(x, t).tolist() for x in xs]
            assert jacobian(sys, xs, t).tolist() == [sys.jac(x, t).tolist() for x in xs]

    def test_row_loop_calls_the_per_point_callable_of_the_moment(self):
        sys = SystemSpec(dim=1, f=lambda x, t: -x, jac=lambda x, t: np.array([[-1.0]]))
        jac_calls, f_calls = spy(sys, "jac"), spy(sys, "f")
        jacobian(sys, np.zeros((5, 1)), 0.0)
        eval_field(sys, np.zeros((4, 1)), 0.0)
        assert (len(jac_calls), len(f_calls)) == (5, 4)

    @pytest.mark.parametrize("how", ["dataclasses.replace", "assignment"])
    def test_a_replaced_callable_takes_its_stack_with_it(self, how):
        # the demo's f and jac carry native stacks; g and k carry none, so a stack is theirs row by row
        g, k = (lambda x, t: -2.0 * x), (lambda x, t: -2.0 * np.eye(2))
        sys = build_example1()
        if how == "assignment":
            sys.f, sys.jac = g, k
        else:
            sys = dataclasses.replace(sys, f=g, jac=k)
        f_calls, jac_calls = spy(sys, "f"), spy(sys, "jac")
        xs = np.random.default_rng(8).normal(size=(3, 2))
        assert eval_field(sys, xs, 0.0).tolist() == (-2.0 * xs).tolist()
        assert jacobian(sys, xs, 0.0).tolist() == [(-2.0 * np.eye(2)).tolist()] * 3
        assert (len(f_calls), len(jac_calls)) == (3, 3)
        # without jac, the finite differences of a stack evaluate g too
        fd = dataclasses.replace(sys, jac=None)
        assert np.allclose(jacobian(fd, xs, 0.0), -2.0 * np.eye(2), rtol=0.0, atol=1e-9)
        assert len(f_calls) == 3 + 2 * 2 * 3

    def test_replaced_system_keeps_its_native_stacks(self):
        sys = dataclasses.replace(build_example1(), name="copy")
        stack_calls = spy(sys.f, "stack")
        eval_field(sys, np.zeros((3, 2)), 0.0)
        assert len(stack_calls) == 1

    @pytest.mark.parametrize("shape", [(0, 2), (3, 3), (2, 2, 2), ()])
    def test_states_of_the_wrong_shape_rejected(self, shape):
        sys = build_example1()
        with pytest.raises(DimensionError):
            jacobian(sys, np.zeros(shape), 0.0)
        with pytest.raises(DimensionError):
            eval_field(sys, np.zeros(shape), 0.0)

    def test_stacked_output_of_the_wrong_shape_names_no_state(self):
        jac = _with_stack(lambda x, t: -np.eye(2), lambda xs, t: -xs)
        sys = SystemSpec(dim=2, f=lambda x, t: -x, jac=jac)
        with pytest.raises(EvaluationError, match=r"^jac returned shape \(3, 2\), expected \(3, 2, 2\) at a stack of shape \(3, 2\), t=0\.5$") as err:
            jacobian(sys, np.zeros((3, 2)), 0.5)
        assert err.value.x is None and err.value.t == 0.5

    def test_per_point_output_of_the_wrong_shape_names_its_point(self):
        sys = SystemSpec(dim=2, f=lambda x, t: np.zeros(3))
        xs = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(EvaluationError, match=r"^f returned shape \(3,\), expected \(2,\) at x=\[1\.0, 2\.0\], t=0\.5$") as err:
            eval_field(sys, xs, 0.5)
        assert err.value.x.tolist() == [1.0, 2.0] and err.value.t == 0.5

    @pytest.mark.parametrize("native", [False, True], ids=["row by row", "native"])
    def test_first_non_finite_row_names_its_state(self, native):
        jac = lambda x, t: np.array([[np.nan if x[0] > 0.5 else -1.0]])
        if native:
            jac = _with_stack(jac, lambda xs, t: np.where(xs[:, :, None] > 0.5, np.nan, -1.0))
        sys = SystemSpec(dim=1, f=lambda x, t: -x, jac=jac)
        xs = np.array([[0.0], [0.4], [2.0], [1.0]])
        with pytest.raises(EvaluationError, match=r"^jac returned non-finite values at x=\[2\.0\], t=0\.5$") as err:
            jacobian(sys, xs, 0.5)
        assert err.value.x.tolist() == [2.0] and err.value.t == 0.5

    @pytest.mark.parametrize("stacked", [False, True], ids=["one state", "stack"])
    def test_finite_difference_failure_names_the_state_whose_jacobian_needed_it(self, stacked):
        # f is NaN beyond x = 0.5; the perturbed rows of 0.4 stay below it, those of 1.0 do not
        sys = SystemSpec(dim=1, f=lambda x, t: np.array([np.nan if x[0] > 0.5 else -x[0]]))
        x = np.array([[0.0], [0.4], [1.0], [2.0]]) if stacked else np.array([1.0])
        with pytest.raises(EvaluationError, match=r"^f returned non-finite values at x=\[1\.0\], t=0\.5$") as err:
            jacobian(sys, x, 0.5)
        assert err.value.x.tolist() == [1.0] and err.value.t == 0.5


class TestNonFiniteState:
    """Non-finite output at a non-finite state is the caller's error: InvalidInputError names the state."""

    CUBIC = SystemSpec(dim=2, f=lambda x, t: -(x**3), jac=lambda x, t: np.diag(-3.0 * x**2))

    @pytest.mark.parametrize(
        "call, x, bad",
        [
            (eval_field, [np.nan, 1.0], "[nan, 1.0]"),
            (eval_rhs, [np.nan, 1.0], "[nan, 1.0]"),
            (jacobian, [1.0, np.inf], "[1.0, inf]"),
            (lambda sys, x, t: jacobian(dataclasses.replace(sys, jac=None), x, t), [np.nan, 1.0], "[nan, 1.0]"),
            (jacobian, [[0.0, 1.0], [1.0, np.nan], [np.nan, 0.0]], "[1.0, nan]"),
            (eval_field, [[0.0, 1.0], [1.0, np.nan], [np.nan, 0.0]], "[1.0, nan]"),
        ],
        ids=["eval_field", "eval_rhs", "analytic jacobian", "finite differences", "jacobian stack", "field stack"],
    )
    def test_the_state_is_named(self, call, x, bad):
        with pytest.raises(InvalidInputError, match=f"^state x={re.escape(bad)} has non-finite entries$"):
            call(self.CUBIC, np.array(x), 0.5)

    @pytest.mark.parametrize(
        "x, bad",
        [
            ([np.inf, 1.0], "[inf, 1.0]"),
            ([np.nan, 1.0], "[nan, 1.0]"),
            ([[0.0, 1.0], [np.inf, 1.0]], "[inf, 1.0]"),
            ([[0.0, 1.0], [1.0, np.nan], [np.inf, 0.0]], "[1.0, nan]"),
        ],
        ids=["state inf", "state nan", "stack inf", "stack nan"],
    )
    def test_finite_differences_test_the_states_before_calling_f(self, x, bad):
        # an inf state makes an inf step, whose product with the identity is NaN and a numpy warning
        calls = []
        sys = SystemSpec(dim=2, f=lambda x, t: calls.append(x) or np.sin(x))
        with pytest.raises(InvalidInputError, match=f"^state x={re.escape(bad)} has non-finite entries$"):
            jacobian(sys, np.array(x), 0.5)
        assert calls == []

    def test_finite_output_at_a_non_finite_state_passes(self):
        # the per-sample path tests no state: only a failed output looks at it
        sys = SystemSpec(dim=2, f=lambda x, t: np.zeros(2), jac=lambda x, t: -np.eye(2))
        assert np.array_equal(jacobian(sys, np.array([np.nan, 1.0]), 0.0), -np.eye(2))


class TestOneStackedCall:
    """Spies on the SystemSpec callables: which consumers make one stacked call."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["one state", "stack of 5"])
    def test_finite_differences_of_a_stack_make_one_stacked_f_call(self, stacked):
        sys = SystemSpec(dim=2, f=build_example1().f)
        point_calls = spy(sys, "f")
        stack_calls = spy(sys.f, "stack")
        x = np.random.default_rng(11).normal(size=(5, 2) if stacked else 2)
        j = jacobian(sys, x, 0.5)
        assert [args[0].shape for args in stack_calls] == [(2 * 2 * (5 if stacked else 1), 2)]
        assert not point_calls
        assert j.shape == ((5, 2, 2) if stacked else (2, 2))

    def test_finite_differences_of_a_stack_match_one_state_at_a_time(self):
        native = build_example1()
        rng = np.random.default_rng(12)
        xs = rng.uniform(-10.0, 10.0, size=(50, 2))
        for f in (native.f, lambda x, t: native.f(x, t)):  # with its native stack, and row by row
            sys = SystemSpec(dim=2, f=f)
            assert jacobian(sys, xs, 0.7).tolist() == [jacobian(sys, x, 0.7).tolist() for x in xs]

    def test_averaged_jacobian_makes_one_stacked_jac_call(self):
        sys = build_example1(delta=delta_admissible)
        point_calls = spy(sys, "jac")
        stack_calls = spy(sys.jac, "stack")
        x_star, x = np.array([0.5, -1.0]), np.array([3.0, 2.0])
        avg = averaged_jacobian(sys, x_star, x, 0.4)
        assert len(stack_calls) == 1 and stack_calls[0][0].shape == (16, 2) and not point_calls
        rule, want = QuadratureRule.gauss_legendre(16), np.zeros((2, 2))
        for xi, w in zip(rule.nodes, rule.weights):  # the per-node sum, in node order
            want += w * sys.jac(x_star + xi * (x - x_star), 0.4)
        assert avg.tolist() == want.tolist()
