import numpy as np
import pytest

from logstab.errors import DimensionError, EvaluationError, InvalidInputError
from logstab.system import (
    QuadratureRule,
    SystemSpec,
    averaged_jacobian,
    averaged_jacobian_residual,
    eval_rhs,
    jacobian,
)

from logstab.demos import build_example1


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
            ({"f": lambda x, t: np.zeros(3)}, eval_rhs, r"^f returned shape \(3,\), expected \(2,\)$", True),
            ({"f": lambda x, t: np.array([0.0, np.nan])}, eval_rhs, r"^f returned non-finite values at t=0\.5$", True),
            (
                {"f": lambda x, t: np.zeros(2), "delta": lambda t: np.zeros((2, 1))},
                eval_rhs,
                r"^delta returned shape \(2, 1\), expected \(2,\)$",
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
                r"^jac returned shape \(2,\), expected \(2, 2\)$",
                True,
            ),
            (
                {"f": lambda x, t: np.zeros(2), "jac": lambda x, t: np.full((2, 2), np.nan)},
                jacobian,
                r"^jac returned non-finite values at t=0\.5$",
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
