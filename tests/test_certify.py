import math

import numpy as np
import pytest

import logstab.certify as certify_module
from logstab.certify import (
    CONVERGENT_INTEGRAL,
    DIVERGENT_INTEGRAL,
    Domain,
    RATIO_PERSISTS,
    RATIO_VANISHES,
    SamplingPlan,
    check_demidovich,
    check_forcing_ratio,
    classify_rate_integral,
    estimate_contraction_rate,
    sample_states,
    verify_incremental_bound,
    verify_origin_convergence,
)
from logstab.errors import DimensionError, EvaluationError, InvalidInputError, InvalidRateError
from logstab.expr import compile_expression, parse_expression
from logstab.integrate import IntegratorConfig, Trajectory, check_transition_bounds, integrate
from logstab.linalg import NormKind, sym_eig_max
from logstab.lognorm import log_norm
from logstab.system import SystemSpec, jacobian

from conftest import planar_demo_mu_l2, random_spd, spy
from logstab.config import build_system, parse_config
from logstab.demos import build_example1, default_rate, delta_admissible


def _demo_system(source):
    """The demo field built three ways: natively stacked, from expressions, and from plain callables."""
    native = build_example1(delta=delta_admissible)
    if source == "builtin":
        return native
    if source == "expression":
        return build_system(parse_config(DEMO_EXPRESSION))
    # wrappers carry no stack: a stack is evaluated row by row
    return SystemSpec(dim=2, f=lambda x, t: native.f(x, t), jac=lambda x, t: native.jac(x, t), delta=native.delta)


DEMO_EXPRESSION = "[system]\ntype = expression\ndim = 2\nf1 = (-6 - t^3)*x1 + sin(x1)\nf2 = 5*x1 + (2 + (-6 - t^3))*x2 + sin(x2)\n"


def constant_jacobian_system(a):
    a = np.asarray(a, dtype=float)
    return SystemSpec(dim=a.shape[0], f=lambda x, t: a @ x, jac=lambda x, t: a)


def box(dim, half, t_lo=0.0, t_hi=2.0):
    return Domain(-half * np.ones(dim), half * np.ones(dim), t_lo, t_hi)


class TestSampling:
    @pytest.mark.parametrize("scheme", ["uniform_grid", "latin_hypercube", "uniform_random"])
    def test_samples_stay_in_domain(self, scheme):
        dom = Domain(np.array([-1.0, 2.0]), np.array([1.0, 5.0]), 0.0, 1.0)
        plan = SamplingPlan(n_space=9, n_time=3, scheme=scheme, seed=1)
        pts = sample_states(dom, plan)
        assert np.all(pts >= dom.lower) and np.all(pts <= dom.upper)
        expected = 81 if scheme == "uniform_grid" else 9
        assert pts.shape == (expected, 2)

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            Domain(np.array([1.0]), np.array([0.0]), 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Domain(np.array([0.0]), np.array([1.0]), 1.0, 1.0)

    @pytest.mark.parametrize(
        "lower, upper, t_lo, t_hi, message",
        [
            ([-np.inf, 0.0], [1.0, 1.0], 0.0, 1.0, "^lower has non-finite entries$"),
            ([0.0, 0.0], [1.0, np.inf], 0.0, 1.0, "^upper has non-finite entries$"),
            ([0.0, np.nan], [1.0, 1.0], 0.0, 1.0, "^lower has non-finite entries$"),
            ([0.0, 0.0], [1.0, 1.0], np.nan, 1.0, "need finite t_lo < t_hi"),
            ([0.0, 0.0], [1.0, 1.0], 0.0, np.nan, "need finite t_lo < t_hi"),
            ([0.0, 0.0], [1.0, 1.0], 0.0, np.inf, "need finite t_lo < t_hi"),
        ],
    )
    def test_domain_rejects_non_finite_bounds(self, lower, upper, t_lo, t_hi, message):
        with pytest.raises(InvalidInputError, match=message):
            Domain(np.array(lower), np.array(upper), t_lo, t_hi)


def test_reports_with_a_domain_compare_by_value():
    sys, plan = build_example1(delta=delta_admissible), SamplingPlan(n_space=5, n_time=2)
    reports = {
        "domain": lambda dom: dom,
        "certificate": lambda dom: estimate_contraction_rate(sys, dom, NormKind.l2(), plan, alpha_fn=default_rate),
        "demidovich": lambda dom: check_demidovich(sys, np.eye(2), dom, plan),
    }
    for name, report in reports.items():
        assert report(box(2, 2.0)) == report(box(2, 2.0)), name
        assert report(box(2, 2.0)) != report(box(2, 3.0)), name  # a changed bound
        assert report(box(2, 2.0)) != report(box(2, 2.0, t_hi=3.0)), name
    assert box(2, 2.0) != box(3, 2.0)  # arrays of another shape
    assert box(2, 2.0) != "a box"


def _counted(calls, value):
    """A callable of t, or of (x, t), that records each call and returns ``value``."""
    return lambda *args: calls.append(args) or value


@pytest.mark.parametrize(
    "name, value, call",
    [
        ("n_space", 2.5, lambda calls, v: SamplingPlan(n_space=v)),
        ("n_space", True, lambda calls, v: SamplingPlan(n_space=v)),
        ("n_time", 0, lambda calls, v: SamplingPlan(n_time=v)),
        ("seed", -1, lambda calls, v: SamplingPlan(seed=v)),
        ("seed", 1.0, lambda calls, v: SamplingPlan(seed=v)),
        ("n_pairs", 2.5, lambda calls, v: check_transition_bounds(_counted(calls, -np.eye(2)), NormKind.l2(), 0.0, 1.0, n_pairs=v)),
        ("n_states", True, lambda calls, v: check_transition_bounds(_counted(calls, -np.eye(2)), NormKind.l2(), 0.0, 1.0, n_states=v)),
        ("seed", 2.5, lambda calls, v: check_transition_bounds(_counted(calls, -np.eye(2)), NormKind.l2(), 0.0, 1.0, seed=v)),
        ("n_samples", 10.5, lambda calls, v: check_forcing_ratio(
            SystemSpec(dim=1, f=_counted(calls, np.zeros(1))), _counted(calls, 1.0), 1.0, 10.0, n_samples=v)),
        ("n_samples", 9, lambda calls, v: check_forcing_ratio(
            SystemSpec(dim=1, f=_counted(calls, np.zeros(1))), _counted(calls, 1.0), 1.0, 10.0, n_samples=v)),
        ("n_output", 2.5, lambda calls, v: verify_incremental_bound(
            SystemSpec(dim=1, f=_counted(calls, np.zeros(1))), [([1.0], [2.0])], 0.0, 1.0, 0.5, n_output=v)),
        ("max_steps", 2.5, lambda calls, v: IntegratorConfig(max_steps=v)),
        ("n_doublings", True, lambda calls, v: classify_rate_integral(_counted(calls, 1.0), 0.0, 8.0, v)),
    ],
)
def test_count_arguments_must_be_integers_before_any_work(name, value, call):
    calls = []
    with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer >= \d+, got {value!r}$"):
        call(calls, value)
    assert calls == []


def test_count_arguments_take_numpy_integers():
    assert SamplingPlan(n_space=np.int64(3), seed=np.uint8(0)).n_space == 3
    assert IntegratorConfig(max_steps=np.int32(7)).max_steps == 7


class TestContractionRate:
    def test_scalar_decay_certifies(self):
        cert = estimate_contraction_rate(
            constant_jacobian_system([[-1.0]]), box(1, 3.0), NormKind.l2(), SamplingPlan(n_space=5)
        )
        assert cert.verdict == "certified_on_domain"
        assert cert.mu_sup == pytest.approx(-1.0, abs=1e-14)
        assert cert.alpha0_estimate == pytest.approx(1.0, abs=1e-14)

    def test_expanding_system_refused(self):
        cert = estimate_contraction_rate(
            constant_jacobian_system([[1.0]]), box(1, 3.0), NormKind.l2(), SamplingPlan(n_space=5)
        )
        assert cert.verdict == "not_certified"
        assert cert.mu_sup == pytest.approx(1.0, abs=1e-14)
        assert cert.alpha0_estimate is None

    def test_marginal_system_refused(self):
        # mu_sup == 0 must not certify: the inequality is strict
        cert = estimate_contraction_rate(
            constant_jacobian_system([[0.0]]), box(1, 1.0), NormKind.l2(), SamplingPlan(n_space=3)
        )
        assert cert.verdict == "not_certified"

    def test_demo_supremum_and_dominance(self, fig1_system):
        dom = box(2, 10.0)
        plan = SamplingPlan(n_space=41, n_time=5, scheme="uniform_grid")
        cert = estimate_contraction_rate(fig1_system, dom, NormKind.l2(), plan, alpha_fn=default_rate)
        # grid contains the maximizer (0, 0) at t = 0, so the sampled sup is
        # the hand-maximized closed-form value
        assert cert.mu_sup == pytest.approx(planar_demo_mu_l2(np.zeros(2), 0.0), abs=1e-12)
        # there J = [[-5, 0], [5, -3]], whose l2 log norm -4 + sqrt(7.25) the 2x2 closed form gives to 1 ulp
        exact = -4.0 + math.sqrt(7.25)
        assert abs(cert.mu_sup - exact) <= math.ulp(exact)
        assert cert.alpha0_estimate == pytest.approx(4.0 - 0.5 * np.sqrt(29.0), abs=1e-12)
        assert cert.dominance_ok
        assert cert.argmax_time == 0.0

    def test_deterministic_given_seed(self, fig1_system):
        dom = box(2, 5.0)
        plan = SamplingPlan(n_space=40, n_time=3, scheme="latin_hypercube", seed=123)
        a = estimate_contraction_rate(fig1_system, dom, NormKind.l2(), plan)
        b = estimate_contraction_rate(fig1_system, dom, NormKind.l2(), plan)
        assert a.mu_sup == b.mu_sup
        assert a.alpha_samples == b.alpha_samples

    def test_jacobian_failure_reports_sample_point(self):
        def bad_jac(x, t):
            if x[0] > 0.5:
                return np.array([[np.nan]])
            return np.array([[-1.0]])

        sys = SystemSpec(dim=1, f=lambda x, t: -x, jac=bad_jac)
        from logstab.errors import EvaluationError

        with pytest.raises(EvaluationError) as err:
            estimate_contraction_rate(sys, box(1, 2.0), NormKind.l2(), SamplingPlan(n_space=5))
        assert err.value.x is not None and err.value.x[0] > 0.5

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda sys, dom, plan: estimate_contraction_rate(sys, dom, NormKind.l2(), plan),
            lambda sys, dom, plan: check_demidovich(sys, np.eye(1), dom, plan),
        ],
        ids=["certificate", "demidovich"],
    )
    def test_both_sweeps_name_x_and_t_of_a_failing_jacobian(self, sweep):
        # the 5-point grid on [-2, 2] reaches x = 1 first; t is the window's start
        jac = lambda x, t: np.array([[np.nan if x[0] > 0.5 else -1.0]])
        with pytest.raises(EvaluationError, match=r"^jac returned non-finite values at x=\[1\.0\], t=0\.0$") as err:
            sweep(SystemSpec(dim=1, f=lambda x, t: -x, jac=jac), box(1, 2.0), SamplingPlan(n_space=5))
        assert err.value.x.tolist() == [1.0] and err.value.t == 0.0

    def test_per_slice_suprema_decrease_with_rate(self, fig1_system):
        # the demo rate grows like t^3, so later slices must report lower sups
        dom = box(2, 10.0)
        plan = SamplingPlan(n_space=21, n_time=4, scheme="uniform_grid")
        cert = estimate_contraction_rate(fig1_system, dom, NormKind.l2(), plan)
        sups = [s for _, s in cert.alpha_samples]
        assert all(b < a for a, b in zip(sups, sups[1:]))


class TestDemidovich:
    def test_diagonal_negative_definite(self):
        rep = check_demidovich(
            constant_jacobian_system(np.diag([-1.0, -2.0])), np.eye(2), box(2, 2.0), SamplingPlan(n_space=5)
        )
        assert rep.passed
        assert rep.max_eigenvalue == pytest.approx(-1.0, abs=1e-13)
        assert rep.sign_agreement_ok

    def test_weight_dependence(self):
        # fails with the identity weight but passes with diag(1, 16):
        # (P J + J^T P)/2 = [[-1, 2], [2, -16]], det 12 > 0, trace < 0
        j = np.array([[-1.0, 4.0], [0.0, -1.0]])
        sys = constant_jacobian_system(j)
        plan = SamplingPlan(n_space=3)
        rep_identity = check_demidovich(sys, np.eye(2), box(2, 1.0), plan)
        assert not rep_identity.passed
        assert rep_identity.max_eigenvalue == pytest.approx(1.0, abs=1e-13)
        rep_weighted = check_demidovich(sys, np.diag([1.0, 16.0]), box(2, 1.0), plan)
        assert rep_weighted.passed
        assert rep_weighted.max_eigenvalue == pytest.approx((-17.0 + np.sqrt(241.0)) / 2.0, abs=1e-12)
        assert rep_identity.sign_agreement_ok and rep_weighted.sign_agreement_ok

    def test_weight_of_wrong_size_rejected(self):
        sys = constant_jacobian_system(np.diag([-1.0, -2.0]))
        with pytest.raises(DimensionError, match="weight is 3x3 but the dimension is 2"):
            check_demidovich(sys, np.eye(3), box(2, 1.0), SamplingPlan(n_space=3))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_per_sample_loop(self, fig1_system, seed):
        p = random_spd(np.random.default_rng(seed), 2)
        domain, plan = box(2, 10.0), SamplingPlan(n_space=21, n_time=3)
        rep = check_demidovich(fig1_system, p, domain, plan)
        kind = NormKind.weighted(p)
        max_eig, signs_agree = -np.inf, True
        for t in np.linspace(0.0, 2.0, 3):
            for x in sample_states(domain, plan):
                j = jacobian(fig1_system, x, t)
                lam = sym_eig_max(0.5 * (p @ j + j.T @ p))
                mu = log_norm(j, kind)
                max_eig = max(max_eig, lam)
                if (abs(lam) > 1e-12 or abs(mu) > 1e-12) and np.sign(lam) != np.sign(mu):
                    signs_agree = False
        assert rep.max_eigenvalue == pytest.approx(max_eig, rel=1e-12, abs=1e-12)
        assert rep.sign_agreement_ok == signs_agree
        assert rep.passed == (max_eig < 0.0)
        assert rep.n_samples == 21 * 21 * 3

    @pytest.mark.parametrize("source", ["builtin", "expression", "plain callables"])
    def test_one_jacobian_call_per_time_slice(self, monkeypatch, source):
        sys = _demo_system(source)
        point_calls = spy(sys, "jac")
        stack_calls = spy(sys.jac, "stack") if source == "builtin" else []
        slices = []

        def counted(system, x, t):
            slices.append(np.shape(x))
            return jacobian(system, x, t)

        monkeypatch.setattr(certify_module, "jacobian", counted)
        plan = SamplingPlan(n_space=9, n_time=4)
        rep = check_demidovich(sys, np.eye(2), box(2, 10.0), plan)
        assert slices == [(81, 2)] * 4
        # the builtin system's native stack takes a slice in one call; the others are evaluated row by row
        assert len(stack_calls) == (4 if source == "builtin" else 0)
        assert len(point_calls) == (0 if source == "builtin" else rep.n_samples)

    def test_native_stacks_give_the_row_by_row_report(self):
        sys, rows = _demo_system("builtin"), _demo_system("plain callables")
        p = random_spd(np.random.default_rng(13), 2)
        plan = SamplingPlan(n_space=200, n_time=3, scheme="latin_hypercube", seed=14)
        rep, want = check_demidovich(sys, p, box(2, 10.0), plan), check_demidovich(rows, p, box(2, 10.0), plan)
        assert rep.max_eigenvalue == pytest.approx(want.max_eigenvalue, rel=1e-12, abs=1e-12)
        assert (rep.passed, rep.sign_agreement_ok, rep.n_samples) == (want.passed, want.sign_agreement_ok, 600)

    def test_stacked_jacobian_of_the_wrong_shape_names_the_stack(self):
        jac = lambda x, t: -np.eye(2)
        jac.stack = lambda xs, t: -xs
        sys = SystemSpec(dim=2, f=lambda x, t: -x, jac=jac)
        pattern = r"^jac returned shape \(25, 2\), expected \(25, 2, 2\) at a stack of shape \(25, 2\), t=0\.0$"
        with pytest.raises(EvaluationError, match=pattern) as err:
            check_demidovich(sys, np.eye(2), box(2, 1.0), SamplingPlan(n_space=5))
        assert err.value.x is None and err.value.t == 0.0

    def test_demo_field_passes_with_identity_weight(self, fig1_system):
        rep = check_demidovich(fig1_system, np.eye(2), box(2, 10.0), SamplingPlan(n_space=21, n_time=3))
        assert rep.passed
        assert rep.sign_agreement_ok
        # identity weight reproduces the euclidean log-norm signs, so the
        # certificate route must agree
        cert = estimate_contraction_rate(
            fig1_system, box(2, 10.0), NormKind.l2(), SamplingPlan(n_space=21, n_time=3)
        )
        assert (cert.mu_sup < 0.0) == rep.passed


class TestForcingRatio:
    def test_admissible_perturbation_vanishes(self, fig1_system):
        rep = check_forcing_ratio(fig1_system, default_rate, 0.0, 20.0)
        assert rep.verdict == RATIO_VANISHES
        assert rep.trend_slope < -0.1

    def test_borderline_perturbation_persists(self, fig2_system):
        rep = check_forcing_ratio(fig2_system, default_rate, 0.0, 20.0)
        assert rep.verdict == RATIO_PERSISTS
        assert rep.final_ratio == pytest.approx(4.0, abs=0.05)

    def test_constant_ratio_persists(self):
        sys = SystemSpec(dim=2, f=lambda x, t: np.zeros(2), delta=lambda t: np.array([1.0, 0.0]))
        rep = check_forcing_ratio(sys, lambda t: 1.0, 0.0, 100.0)
        assert rep.verdict == RATIO_PERSISTS
        assert rep.final_ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_forcing_vanishes(self):
        sys = SystemSpec(dim=1, f=lambda x, t: -x)
        rep = check_forcing_ratio(sys, lambda t: 1.0, 0.0, 10.0)
        assert rep.verdict == RATIO_VANISHES

    def test_nonpositive_rate_rejected(self, fig1_system):
        with pytest.raises(InvalidRateError):
            check_forcing_ratio(fig1_system, lambda t: -1.0, 0.0, 10.0)

    @pytest.mark.parametrize("t_lo, t_hi", [(np.nan, 20.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 20.0)])
    def test_non_finite_window_rejected(self, fig2_system, t_lo, t_hi):
        # a NaN t_lo once slipped past "t_hi <= t_lo" and the run returned ratio_persists
        with pytest.raises(InvalidInputError, match="need finite t_lo < t_hi"):
            check_forcing_ratio(fig2_system, default_rate, t_lo, t_hi)

    def test_window_before_zero_has_no_log_spaced_grid(self, fig2_system):
        with pytest.raises(InvalidInputError, match=r"^a log-spaced grid needs t_hi > 0, got \[-5\.0, -1\.0\]$"):
            check_forcing_ratio(fig2_system, default_rate, -5.0, -1.0)

    @pytest.mark.parametrize("t_lo", [0.0, -5.0])
    def test_grid_start_that_underflows_to_zero_rejected(self, fig2_system, t_lo):
        # t_hi / 1000 of a subnormal t_hi is 0, where no log-spaced grid starts
        with pytest.raises(InvalidInputError, match=r"first point t_hi / 1000 underflows to 0"):
            check_forcing_ratio(fig2_system, default_rate, t_lo, 1e-322)

    def test_window_through_zero_starts_at_a_thousandth_of_t_hi(self, fig2_system):
        rep = check_forcing_ratio(fig2_system, default_rate, -5.0, 10.0)
        assert rep.ratio_samples[0][0] == pytest.approx(0.01, rel=1e-15)
        assert rep.ratio_samples[-1][0] == pytest.approx(10.0, rel=1e-15)
        # the part of the window at or below zero is not sampled, so [0, 10] gives the same report
        assert rep == check_forcing_ratio(fig2_system, default_rate, 0.0, 10.0)


class TestIncrementalBound:
    def test_scalar_decay_equality_case(self):
        # |x - x*| = e^{-t} |x0 - x0*| exactly; violations are pure roundoff
        sys = constant_jacobian_system([[-1.0]])
        rep = verify_incremental_bound(sys, [(np.array([1.0]), np.array([2.0]))], 0.0, 5.0, 1.0)
        assert rep.passed
        assert rep.worst_violation <= rep.tolerance

    def test_expanding_counterexample_fails(self):
        sys = constant_jacobian_system([[1.0]])
        rep = verify_incremental_bound(sys, [(np.array([1.0]), np.array([2.0]))], 0.0, 3.0, 0.5)
        assert not rep.passed
        assert rep.worst_violation > 1.0

    def test_demo_pairs_within_bound(self, fig1_system):
        rng = np.random.default_rng(13)
        pairs = [(rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2)) for _ in range(3)]
        rep = verify_incremental_bound(fig1_system, pairs, 0.0, 4.0, 0.5, NormKind.l2())
        assert rep.passed, f"violation {rep.worst_violation:.2e} > tol {rep.tolerance:.2e}"

    def test_certificate_soundness_chain(self, fig1_system):
        # rate certified on the box, then the bound it promises holds for
        # pairs drawn from that box
        cert = estimate_contraction_rate(
            fig1_system, box(2, 5.0), NormKind.l2(), SamplingPlan(n_space=31, n_time=5)
        )
        assert cert.verdict == "certified_on_domain"
        rng = np.random.default_rng(17)
        pairs = [(rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2)) for _ in range(3)]
        rep = verify_incremental_bound(fig1_system, pairs, 0.0, 4.0, cert.alpha0_estimate, NormKind.l2())
        assert rep.passed

    def test_alpha0_must_be_positive(self, fig1_system):
        with pytest.raises(InvalidInputError):
            verify_incremental_bound(fig1_system, [(np.zeros(2), np.ones(2))], 0.0, 1.0, 0.0)

    def test_nan_alpha0_is_rejected_before_any_integration(self, monkeypatch, fig1_system):
        calls = []
        monkeypatch.setattr(certify_module, "integrate", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidInputError, match=r"^alpha0 must be a finite positive number, got nan$"):
            verify_incremental_bound(fig1_system, [(np.zeros(2), np.ones(2))], 0.0, 1.0, float("nan"))
        assert not calls

    def test_tolerance_is_the_largest_budget_of_a_pair(self, monkeypatch, fig1_system):
        runs = []

        def recorded(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(certify_module, "integrate", recorded)
        rng = np.random.default_rng(21)
        pairs = [(rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2)) for _ in range(4)]
        rep = verify_incremental_bound(fig1_system, pairs, 0.0, 3.0, 0.5)
        assert len(runs) == 8  # two integrations per pair
        budgets = [1e-6 + 10.0 * (a.error_estimate + b.error_estimate) for a, b in zip(runs[::2], runs[1::2])]
        assert rep.tolerance == max(budgets)


class TestRateIntegral:
    def test_harmonic_like_rate_diverges(self):
        rep = classify_rate_integral(lambda t: 1.0 / (1.0 + t), 0.0, 100.0)
        assert rep.verdict == DIVERGENT_INTEGRAL

    def test_integrable_rate_converges(self):
        rep = classify_rate_integral(lambda t: 1.0 / (1.0 + t) ** 2, 0.0, 100.0)
        assert rep.verdict == CONVERGENT_INTEGRAL

    def test_constant_rate_diverges(self):
        rep = classify_rate_integral(lambda t: 0.7, 0.0, 50.0)
        assert rep.verdict == DIVERGENT_INTEGRAL

    def test_partial_totals_recorded(self):
        rep = classify_rate_integral(lambda t: 1.0, 0.0, 8.0, n_doublings=3)
        assert rep.partial_totals == pytest.approx([1.0, 2.0, 4.0, 8.0], abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, integral, horizon",
        [
            (lambda t: 1.0 / (1.0 + t), math.log1p, 2.0),
            (lambda t: math.exp(-t), lambda t: -math.expm1(-t), 2.0),
            (lambda t: 0.5 + t**3, lambda t: 0.5 * t + t**4 / 4.0, 100.0),
        ],
        ids=["1/(1+t)", "exp(-t)", "0.5+t^3"],
    )
    def test_partial_totals_match_closed_forms(self, alpha, integral, horizon):
        # Simpson is exact on a cubic; on the smooth rates the window is short enough that the h^4 error
        # of 128 panels per doubling stays below 1e-12 (about 4e-13 on [1, 2])
        rep = classify_rate_integral(alpha, 0.0, horizon)
        ends = [horizon / 2**k for k in range(8, -1, -1)]
        assert rep.partial_totals == pytest.approx([integral(t) for t in ends], rel=1e-12, abs=0.0)
        assert rep.increments == np.diff(rep.partial_totals, prepend=0.0).tolist()

    @pytest.mark.parametrize(
        "alpha, verdict",
        [
            (lambda t: 1.0 / (1.0 + t), DIVERGENT_INTEGRAL),
            (lambda t: 1.0 / (1.0 + t) ** 2, CONVERGENT_INTEGRAL),
            (lambda t: 0.7, DIVERGENT_INTEGRAL),
            (lambda t: math.exp(-t), CONVERGENT_INTEGRAL),
            (lambda t: 0.5 + t**3, DIVERGENT_INTEGRAL),
        ],
        ids=["1/(1+t)", "1/(1+t)^2", "0.7", "exp(-t)", "0.5+t^3"],
    )
    def test_verdict_holds_under_more_doublings_and_a_doubled_horizon(self, alpha, verdict):
        for horizon in (100.0, 200.0):
            for n_doublings in range(6, 11):
                rep = classify_rate_integral(alpha, 0.0, horizon, n_doublings)
                assert rep.verdict == verdict, (horizon, n_doublings)

    def test_alpha_is_evaluated_once_per_simpson_node(self):
        ts = []
        classify_rate_integral(lambda t: ts.append(t) or 1.0, 0.0, 8.0, n_doublings=3)
        # four doubling segments of 128 panels, each of two intervals, and the closing node
        assert len(ts) == 4 * 256 + 1
        assert ts == sorted(set(ts)) and (ts[0], ts[-1]) == (0.0, 8.0)

    @pytest.mark.parametrize("t0, horizon", [(0.0, np.nan), (0.0, np.inf), (np.nan, 100.0), (-np.inf, 100.0)])
    def test_non_finite_window_rejected(self, t0, horizon):
        with pytest.raises(InvalidInputError, match="need finite t0 < horizon"):
            classify_rate_integral(lambda t: 1.0 / (1.0 + t), t0, horizon)

    @pytest.mark.parametrize(
        "n_doublings, message",
        [
            (-1, "must be an integer >= 1, got -1$"),
            (-2, "must be an integer >= 1, got -2$"),
            (0, "must be an integer >= 1, got 0$"),
            (2.5, "must be an integer >= 1, got 2.5$"),
            (True, "must be an integer >= 1, got True$"),
            (1100, r"^1100 doublings of \[0\.0, 100\.0\] leave a first segment too short to move t0$"),
        ],
    )
    def test_bad_n_doublings_rejected_before_alpha_is_evaluated(self, n_doublings, message):
        ts = []
        with pytest.raises(InvalidInputError, match=message):
            classify_rate_integral(lambda t: ts.append(t) or 1.0, 0.0, 100.0, n_doublings)
        assert ts == []

    def test_first_segment_must_move_t0(self):
        # 100 / 2**1080 is subnormal but positive, so 0 + it > 0; at t0 = 1 it is lost to rounding
        assert classify_rate_integral(lambda t: 1.0, 0.0, 100.0, 1080).partial_totals[-1] == pytest.approx(100.0)
        with pytest.raises(InvalidInputError, match="too short to move t0"):
            classify_rate_integral(lambda t: 1.0, 1.0, 100.0, 60)

    def test_undefined_rate_names_t(self):
        # log(t - 1) evaluates to NaN for t < 1
        alpha = compile_expression(parse_expression("log(t - 1)"), ["t"])
        with pytest.raises(EvaluationError, match=r"^alpha returned non-finite values at t=0\.0$") as err:
            classify_rate_integral(alpha, 0.0, 100.0)
        assert err.value.t == 0.0


class TestOriginConvergence:
    def test_demo_run_converges(self, fig1_trajectory):
        rep = verify_origin_convergence(fig1_trajectory, NormKind.l2(), tol=0.01)
        assert rep.converged
        assert rep.tail_max < 0.01

    def test_constant_zero_trajectory(self):
        times = np.linspace(0.0, 1.0, 50)
        traj = Trajectory(times, np.zeros((50, 2)))
        rep = verify_origin_convergence(traj, tol=1e-6)
        assert rep.converged

    def test_shifted_target(self):
        times = np.linspace(0.0, 1.0, 60)
        states = np.column_stack([np.zeros(60), 4.0 + 0.001 * np.exp(-5 * times)])
        rep = verify_origin_convergence(Trajectory(times, states), target=np.array([0.0, 4.0]), tol=0.05)
        assert rep.converged

    def test_target_of_the_wrong_length_rejected(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 101), np.zeros((101, 2)))
        with pytest.raises(DimensionError, match=r"^target has shape \(3,\), expected \(2,\)$"):
            verify_origin_convergence(traj, target=[0, 0, 0])

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -0.01])
    def test_tol_must_be_positive(self, tol):
        traj = Trajectory(np.linspace(0.0, 1.0, 101), np.zeros((101, 2)))
        with pytest.raises(InvalidInputError, match=r"^tol must be a finite positive number, got "):
            verify_origin_convergence(traj, tol=tol)

    def test_too_short_trajectory_rejected(self):
        traj = Trajectory(np.linspace(0, 1, 20), np.zeros((20, 1)))
        with pytest.raises(InvalidInputError):
            verify_origin_convergence(traj)
