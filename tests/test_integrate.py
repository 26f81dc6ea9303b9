import numpy as np
import pytest

from logstab.errors import DimensionError, DivergedError, InvalidInputError
from logstab.integrate import (
    FundamentalTrajectory,
    IntegratorConfig,
    Trajectory,
    check_transition_bounds,
    integrate,
    integrate_fundamental,
)
from logstab.linalg import NormKind, cond_2, induced_matrix_norm, solve, vec_norm
from logstab.lognorm import log_norm_pair
from logstab.system import SystemSpec

from conftest import random_spd


def rk4_endpoint_error(sys, x0, tf, exact, step):
    cfg = IntegratorConfig(method="rk4", step=step, max_step=1e9)
    traj = integrate(sys, x0, 0.0, tf, cfg)
    return np.abs(traj.states[-1] - exact).max()


class TestIntegrate:
    def test_exponential_decay(self, decay_system):
        traj = integrate(decay_system, np.array([1.0]), 0.0, 1.0)
        assert traj.states[0, 0] == 1.0
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_harmonic_oscillator_period(self, harmonic_system):
        traj = integrate(harmonic_system, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi)
        assert np.abs(traj.states[-1] - [1.0, 0.0]).max() < 1e-6

    def test_demo_scenario_settles_small(self, fig1_trajectory):
        assert np.abs(fig1_trajectory.states[-1]).max() < 0.01

    def test_times_strictly_increase(self, fig1_trajectory):
        assert np.all(np.diff(fig1_trajectory.times) > 0.0)
        assert np.all(np.isfinite(fig1_trajectory.states))

    def test_dense_output_accuracy(self, decay_system):
        ts = np.linspace(0.0, 1.0, 37)
        traj = integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=ts)
        assert np.abs(traj.states[:, 0] - np.exp(-ts)).max() < 1e-7
        assert np.array_equal(traj.times, ts)

    def test_bad_sample_times_rejected(self, decay_system):
        with pytest.raises(InvalidInputError):
            integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=[0.5, 0.25])
        with pytest.raises(InvalidInputError):
            integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=[0.5, 1.5])

    def test_blowup_raises_diverged_with_last_time(self):
        # dx/dt = x^2 from 1 has a pole at t = 1
        sys = SystemSpec(dim=1, f=lambda x, t: x * x)
        with pytest.raises(DivergedError) as err:
            integrate(sys, np.array([1.0]), 0.0, 2.0)
        assert 0.0 <= err.value.last_time <= 1.05

    def test_step_budget_exhaustion(self, decay_system):
        cfg = IntegratorConfig(max_steps=3)
        with pytest.raises(DivergedError):
            integrate(decay_system, np.array([1.0]), 0.0, 10.0, cfg)

    def test_rejects_reversed_window(self, decay_system):
        with pytest.raises(InvalidInputError):
            integrate(decay_system, np.array([1.0]), 1.0, 0.0)

    def test_rk4_order_on_decay(self, decay_system):
        exact = np.array([np.exp(-1.0)])
        ratio = rk4_endpoint_error(decay_system, np.array([1.0]), 1.0, exact, 0.1) / rk4_endpoint_error(
            decay_system, np.array([1.0]), 1.0, exact, 0.05
        )
        assert 12.0 <= ratio <= 20.0

    def test_rk4_order_on_harmonic(self, harmonic_system):
        exact = np.array([np.cos(2.0), -np.sin(2.0)])
        x0 = np.array([1.0, 0.0])
        ratio = rk4_endpoint_error(harmonic_system, x0, 2.0, exact, 0.05) / rk4_endpoint_error(
            harmonic_system, x0, 2.0, exact, 0.025
        )
        assert 12.0 <= ratio <= 20.0


class TestFundamental:
    def test_constant_diagonal(self):
        a = np.diag([-1.0, -2.0])
        fund = integrate_fundamental(lambda t: a, 0.0, 1.0)
        assert np.allclose(fund.matrices[0], np.eye(2))
        assert np.abs(fund.matrices[-1] - np.diag([np.exp(-1.0), np.exp(-2.0)])).max() < 1e-8

    def test_rotation_generator(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fund = integrate_fundamental(lambda t: a, 0.0, np.pi / 2.0)
        assert np.abs(fund.matrices[-1] - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-7

    def test_liouville_determinant_formula(self):
        # det Phi(t) = exp(int trace A); trace integral evaluated analytically
        rng = np.random.default_rng(9)
        a0 = rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3))
        a2 = rng.normal(size=(3, 3))

        def a_fn(t):
            return a0 + t * a1 + t * t * a2

        fund = integrate_fundamental(a_fn, 0.0, 1.0)
        tr_int = np.trace(a0) + 0.5 * np.trace(a1) + np.trace(a2) / 3.0
        expected = np.exp(tr_int)
        got = np.linalg.det(fund.matrices[-1])
        assert got == pytest.approx(expected, rel=1e-6)


    @pytest.mark.parametrize("case", ["upper_triangular", "random_4x4"])
    def test_every_column_matches_matrix_exponential(self, case):
        # columns 2..n share column 1's grid, so none carries a resampling error
        if case == "upper_triangular":
            a = np.array([[-1.0, 3.0], [0.0, -2.0]])
        else:
            a = np.random.default_rng(7).normal(size=(4, 4))
        fund = integrate_fundamental(lambda t: a, 0.0, 2.0)
        lam, v = np.linalg.eig(a)
        v_inv = np.linalg.inv(v)
        exact = np.real(np.stack([(v * np.exp(lam * t)) @ v_inv for t in fund.times]))
        col_err = np.abs(fund.matrices - exact).max(axis=(0, 1))
        assert col_err.max() < 1e-9, col_err

    def test_sample_times_resample_the_one_run(self):
        ts = np.linspace(0.0, 1.0, 11)
        fund = integrate_fundamental(lambda t: np.diag([-1.0, -2.0]), 0.0, 1.0, sample_times=ts)
        assert np.array_equal(fund.times, ts)
        assert np.array_equal(fund.matrices[0], np.eye(2))
        exact = np.stack([np.diag([np.exp(-t), np.exp(-2.0 * t)]) for t in ts])
        # Hermite dense output, same bound as test_dense_output_accuracy
        assert np.abs(fund.matrices - exact).max() < 1e-7

    def test_shape_change_mid_run_raises_dimension_error(self):
        with pytest.raises(DimensionError, match=r"shape \(3, 3\) at t=0\.5"):
            integrate_fundamental(lambda t: -np.eye(3 if t > 0.5 else 2), 0.0, 1.0)

    def test_non_finite_a_mid_run_raises_diverged(self):
        def a_fn(t):
            return -np.eye(2) if t <= 0.5 else np.full((2, 2), np.nan)

        with pytest.raises(DivergedError) as err:
            integrate_fundamental(a_fn, 0.0, 1.0)
        assert err.value.last_time == pytest.approx(0.5, abs=1e-6)


def looped_transition_check(a_fn, kind, t0, tf, n_pairs, n_states, seed):
    """Per-pair and per-state reference for check_transition_bounds, same rng draw order."""
    fund = integrate_fundamental(a_fn, t0, tf)
    times = fund.times
    m = times.size
    mids = 0.5 * (times[:-1] + times[1:])
    mu = np.array([log_norm_pair(a_fn(t), kind) for t in times])
    mu_mid = np.array([log_norm_pair(a_fn(t), kind) for t in mids])
    steps = (np.diff(times) / 6.0)[:, None] * (mu[:-1] + 4.0 * mu_mid + mu[1:])
    ints = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    rng = np.random.default_rng(seed)
    worst_up = worst_lo = worst_sup = worst_slo = -np.inf
    max_cond = 1.0
    for _ in range(n_pairs):
        i_tau = int(rng.integers(0, m))
        i_t = int(rng.integers(i_tau, m))
        max_cond = max(max_cond, cond_2(fund.matrices[i_tau]))
        prop = solve(fund.matrices[i_tau].T, fund.matrices[i_t].T).T
        norm_val = induced_matrix_norm(prop, kind)
        upper = np.exp(ints[i_t, 0] - ints[i_tau, 0])
        lower = np.exp(-(ints[i_t, 1] - ints[i_tau, 1]))
        worst_up = max(worst_up, (norm_val - upper) / upper)
        worst_lo = max(worst_lo, (lower - norm_val) / lower)
    t_idx = rng.integers(0, m, size=max(1, n_pairs // 2))
    for _ in range(n_states):
        x0 = rng.normal(size=fund.dim)
        x0n = vec_norm(x0, kind)
        for i_t in t_idx:
            xtn = vec_norm(fund.matrices[i_t] @ x0, kind)
            upper = x0n * np.exp(ints[i_t, 0])
            lower = x0n * np.exp(-ints[i_t, 1])
            worst_sup = max(worst_sup, (xtn - upper) / upper)
            worst_slo = max(worst_slo, (lower - xtn) / lower)
    return np.array([worst_up, worst_lo, worst_sup, worst_slo, max_cond])


class TestTransitionBounds:
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_stacked_check_matches_per_pair_loop(self, tag):
        # pins that the stacked check samples the same pairs and states as a loop would
        rng = np.random.default_rng(2024 + len(tag))
        for trial, n in enumerate((2, 3, 4)):
            kind = NormKind.weighted(random_spd(rng, n)) if tag == "weighted" else NormKind(tag)
            coeffs = [rng.normal(size=(n, n)) for _ in range(3)]

            def a_fn(t, c=coeffs):
                return c[0] + t * c[1] + t * t * c[2]

            rep = check_transition_bounds(a_fn, kind, 0.0, 1.0, n_pairs=20, n_states=5, seed=trial)
            got = np.array([
                rep.worst_upper_violation,
                rep.worst_lower_violation,
                rep.worst_state_upper_violation,
                rep.worst_state_lower_violation,
                rep.max_condition,
            ])
            want = looped_transition_check(a_fn, kind, 0.0, 1.0, 20, 5, trial)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (got, want)

    def test_empty_sampling_rejected(self):
        a = np.diag([-1.0, -2.0])
        with pytest.raises(InvalidInputError):
            check_transition_bounds(lambda t: a, NormKind.l2(), 0.0, 1.0, n_pairs=0)
        with pytest.raises(InvalidInputError):
            check_transition_bounds(lambda t: a, NormKind.l2(), 0.0, 1.0, n_states=0)

    def test_constant_diagonal_l2_is_tight(self):
        # mu[diag(-1,-2)] = -1 and ||Phi(t)Phi(tau)^-1|| = e^{-(t-tau)}: the
        # upper envelope is attained, slack 0 within 1e-7
        rep = check_transition_bounds(lambda t: np.diag([-1.0, -2.0]), NormKind.l2(), 0.0, 1.0)
        assert rep.passed
        assert abs(rep.worst_upper_violation) < 1e-7
        assert rep.worst_lower_violation <= rep.tolerance

    def test_skew_symmetric_equality_case(self):
        # both mu[A] and mu[-A] vanish, all envelopes equal 1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = check_transition_bounds(lambda t: a, NormKind.l2(), 0.0, 2.0)
        assert rep.passed
        assert abs(rep.worst_upper_violation) < 1e-6
        assert abs(rep.worst_lower_violation) < 1e-6

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_random_polynomial_systems(self, tag):
        rng = np.random.default_rng(abs(hash(tag)) % 2**32)
        for trial in range(5):
            n = int(rng.integers(2, 5))
            kind = NormKind.weighted(random_spd(rng, n)) if tag == "weighted" else NormKind(tag)
            coeffs = [0.7 * rng.normal(size=(n, n)) for _ in range(3)]

            def a_fn(t, c=coeffs):
                return c[0] + t * c[1] + t * t * c[2]

            rep = check_transition_bounds(a_fn, kind, 0.0, 1.0, n_pairs=20, seed=trial)
            assert rep.passed, (
                f"{tag} trial {trial}: violations "
                f"{rep.worst_upper_violation:.2e}/{rep.worst_lower_violation:.2e} "
                f"state {rep.worst_state_upper_violation:.2e}/{rep.worst_state_lower_violation:.2e} "
                f"tol {rep.tolerance:.2e}"
            )


class TestTrajectoryContainer:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(InvalidInputError):
            Trajectory(np.array([0.0, 1.0]), np.full((2, 1), np.nan))
        with pytest.raises(InvalidInputError):
            FundamentalTrajectory(np.array([0.0]), np.array([[[2.0]]]))

    def test_empty_trajectory_allowed(self):
        traj = Trajectory(np.zeros(0), np.zeros((0, 2)))
        assert traj.dim == 2
