import numpy as np
import pytest

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
from logstab.integrate import Trajectory
from logstab.linalg import NormKind, sym_eig_max
from logstab.lognorm import log_norm
from logstab.system import SystemSpec, jacobian

from conftest import planar_demo_mu_l2, random_spd
from logstab.demos import default_rate


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
        with pytest.raises(DimensionError, match="3x3 but system has dim 2"):
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

    def test_undefined_rate_names_t(self):
        # log(t - 1) evaluates to NaN for t < 1
        alpha = compile_expression(parse_expression("log(t - 1)"), ["t"])
        with pytest.raises(EvaluationError, match="non-finite at t=0") as err:
            classify_rate_integral(alpha, 0.0, 100.0)
        assert err.value.t == 0.0


class TestOriginConvergence:
    def test_demo_run_converges(self, fig1_trajectory):
        rep = verify_origin_convergence(fig1_trajectory, NormKind.l2(), tail_fraction=0.2, tol=0.01)
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

    def test_too_short_trajectory_rejected(self):
        traj = Trajectory(np.linspace(0, 1, 20), np.zeros((20, 1)))
        with pytest.raises(InvalidInputError):
            verify_origin_convergence(traj, tail_fraction=0.2)
