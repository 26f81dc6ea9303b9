import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from logstab.demos import build_example1, delta_admissible, delta_borderline
from logstab.errors import ConditioningError, DimensionError, DivergedError, EvaluationError, InvalidInputError
from logstab.integrate import (
    _NDF_ALPHA,
    _NDF_HERMITE,
    METHODS,
    FundamentalTrajectory,
    IntegratorConfig,
    Trajectory,
    _Run,
    _fold_correction,
    _hermite_sample,
    _ndf_newton,
    _r_matrix,
    _rescale_differences,
    _simpson_points,
    check_transition_bounds,
    integrate,
    integrate_fundamental,
)
from logstab.linalg import NormKind, cond_2, induced_matrix_norm, solve, vec_norm
from logstab.lognorm import log_norm_pair
from logstab.system import SystemSpec, _fd_jacobian, eval_rhs

from conftest import random_spd, spy

integrate_module = importlib.import_module("logstab.integrate")
system_module = importlib.import_module("logstab.system")


def without_switch(monkeypatch, run):
    """run() with both of auto's stiffness tests disabled, so that auto is DOP853 throughout."""
    with monkeypatch.context() as patch:
        patch.setattr(integrate_module, "STIFF_THETA", np.inf)
        patch.setattr(integrate_module, "STIFF_COST_RATIO", np.inf)
        return run()


# the demo's starts at the corners and centre of [-5, 5]^2 and at the paper's (-2, 5)
DEMO_STARTS = ([5.0, 5.0], [-5.0, -5.0], [5.0, -5.0], [-5.0, 5.0], [-2.0, 5.0], [0.0, 0.0])


def rk4_endpoint_error(sys, x0, tf, exact, step):
    cfg = IntegratorConfig(method="rk4", step=step, max_step=1e9)
    traj = integrate(sys, x0, 0.0, tf, cfg)
    return np.abs(traj.states[-1] - exact).max()


def nan_on_call(k):
    """x' = -x whose field is NaN on its k-th call only."""
    calls = []

    def f(x, t):
        calls.append(t)
        return np.full(1, np.nan) if len(calls) == k else -x

    return SystemSpec(dim=1, f=f)


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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("t0, tf", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)])
    def test_rejects_non_finite_window(self, decay_system, method, t0, tf):
        # a NaN end fails every comparison, so it must not pass a "tf <= t0" test
        with pytest.raises(InvalidInputError, match="need finite t0 < tf"):
            integrate(decay_system, np.array([1.0]), t0, tf, IntegratorConfig(method=method))

    @pytest.mark.parametrize("knob", ["step", "max_step", "rel_tol", "abs_tol", "max_steps"])
    def test_config_rejects_nan(self, knob):
        # NaN fails every comparison, so a NaN knob must not pass a "<= 0" test
        with pytest.raises(InvalidInputError, match=r"must be (a positive number|a finite positive number|an integer >= 1), got nan$"):
            IntegratorConfig(**{knob: np.nan})
        assert IntegratorConfig(max_step=np.inf).max_step == np.inf

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

    @pytest.mark.parametrize("method", METHODS)
    def test_error_estimate_is_none_only_for_rk4(self, decay_system, method):
        # RK4 takes fixed steps and estimates no local error, so it must not report zero
        cfg = IntegratorConfig(method=method)
        traj = integrate(decay_system, np.array([1.0]), 0.0, 1.0, cfg)
        fund = integrate_fundamental(lambda t: -np.eye(2), 0.0, 1.0, cfg)
        if method == "rk4":
            assert traj.error_estimate is None and fund.error_estimate is None
        else:
            assert traj.error_estimate > 0.0 and fund.error_estimate > 0.0
        assert Trajectory(traj.times, traj.states).error_estimate is None  # a trajectory built by hand has none

    @pytest.mark.parametrize("method", METHODS)
    def test_list_outputs_are_summed_elementwise(self, method):
        as_lists = SystemSpec(dim=2, f=lambda x, t: [-x[0], -x[1]], delta=lambda t: [0.0, 1.0])
        as_arrays = SystemSpec(dim=2, f=lambda x, t: np.array([-x[0], -x[1]]), delta=lambda t: np.array([0.0, 1.0]))
        cfg = IntegratorConfig(method=method)
        grid = np.linspace(0.0, 3.0, 7)
        for sample_times in (None, grid):
            a, b = (integrate(s, np.array([1.0, 2.0]), 0.0, 3.0, cfg, sample_times) for s in (as_lists, as_arrays))
            assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
            assert (a.n_steps, a.n_rejected, a.error_estimate, a.stiff_from) == (
                b.n_steps, b.n_rejected, b.error_estimate, b.stiff_from
            )


class TestFailurePaths:
    """The message and last valid time of each way a run can fail."""

    @pytest.mark.parametrize("method", ["auto", "ndf"])
    def test_jump_in_the_field_is_step_size_underflow(self, method):
        # no step across a jump of 1e12 at t = 0.5 passes the error test
        sys = SystemSpec(dim=1, f=lambda x, t: np.zeros(1) if t < 0.5 else np.full(1, 1e12))
        with pytest.raises(DivergedError, match=r"^step size underflow at t=0\.49999") as err:
            integrate(sys, np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert err.value.last_time == pytest.approx(0.5, abs=1e-12)
        assert str(err.value) == f"step size underflow at t={err.value.last_time}"

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_non_finite_trial_step_is_forgotten_once_a_step_is_accepted(self, method):
        # one NaN early on (the 5th call, inside the first trial step) is survived;
        # the underflow at the jump is then reported as an underflow, not as the NaN
        calls = []

        def f(x, t):
            calls.append(t)
            return np.full(1, np.nan) if len(calls) == 5 else np.zeros(1) if t < 0.5 else np.full(1, 1e12)

        with pytest.raises(DivergedError, match=r"^step size underflow at t=0\.49999"):
            integrate(SystemSpec(dim=1, f=f), np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    @pytest.mark.parametrize(
        "f, t_bad",
        [
            (lambda x, t: -x if t <= 0.5 else x * np.nan, 0.5),
            (lambda x, t: -x if x[0] > 0.5 else x * np.nan, np.log(2.0)),
        ],
        ids=["by t", "by state"],
    )
    def test_field_turning_non_finite_is_underflow_naming_t(self, method, f, t_bad):
        sys = SystemSpec(dim=1, f=f, jac=lambda x, t: -np.eye(1))
        with pytest.raises(DivergedError) as err:
            integrate(sys, np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert str(err.value) == f"field non-finite near t={err.value.last_time}: steps shrank to underflow"
        assert err.value.last_time == pytest.approx(t_bad, abs=1e-8)

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_field_non_finite_right_after_t0_fails_within_a_few_dozen_trials(self, method):
        # after a non-finite trial h gives up at 1e-14 max(1, |t|), not at 10 ulps of t = 0, a thousand halvings on
        calls = []

        def f(x, t):
            calls.append(t)
            return -x if t == 0.0 else np.full(1, np.nan)

        with pytest.raises(DivergedError, match=r"^field non-finite near t=0\.0: steps shrank to underflow$") as err:
            integrate(SystemSpec(dim=1, f=f, jac=lambda x, t: -np.eye(1)), np.ones(1), 0.0, 1.0, IntegratorConfig(method=method))
        assert err.value.last_time == 0.0
        assert len(calls) < 200  # 144 under auto (11 per DOP853 trial), 46 under ndf

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_step_budget_names_the_last_node(self, decay_system, method):
        # none of these methods rejects a step on the way to t = 10, so the
        # budget of 3 attempts ends at the 3rd node of the full run
        full = integrate(decay_system, np.array([1.0]), 0.0, 10.0, IntegratorConfig(method=method))
        with pytest.raises(DivergedError) as err:
            integrate(decay_system, np.array([1.0]), 0.0, 10.0, IntegratorConfig(method=method, max_steps=3))
        assert err.value.last_time == full.times[3]
        assert str(err.value) == f"step budget 3 exhausted at t={full.times[3]}"

    @pytest.mark.parametrize("method", METHODS)
    def test_field_is_evaluated_once_at_the_start(self, method):
        at_start = []

        def f(x, t):
            at_start.append(t == 0.0 and x[0] == 1.0)
            return -x

        sys = SystemSpec(dim=1, f=f, jac=lambda x, t: -np.eye(1))
        integrate(sys, np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert sum(at_start) == 1

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_field_non_finite_on_its_second_call_only_is_survived(self, method):
        # the value validated at (t0, x0) is the one the run starts from; the
        # 2nd call is inside the first trial step, which is rejected and retried
        traj = integrate(nan_on_call(2), np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-7)

    def test_rk4_blowup_names_the_step_and_the_last_node(self):
        # dx/dt = x^2 from 1 has a pole at t = 1; with h = 0.01 the field overflows at the node t = 1.02
        sys = SystemSpec(dim=1, f=lambda x, t: x * x)
        with warnings.catch_warnings(), pytest.raises(
            DivergedError, match=r"^field non-finite after step to t=1\.02$"
        ) as err:
            warnings.simplefilter("error")
            integrate(sys, np.array([1.0]), 0.0, 2.0, IntegratorConfig(method="rk4"))
        assert err.value.last_time == pytest.approx(1.01, abs=1e-12)

    def test_rk4_demo_blowup_warns_of_nothing(self, fig1_system):
        # h = 0.01 is beyond RK4's stability bound once the demo turns stiff; its field overflows inside a stage
        with warnings.catch_warnings(), pytest.raises(DivergedError, match=r"^state blew up near t=9\.31$"):
            warnings.simplefilter("error")
            integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method="rk4"))

    def test_overflowing_trial_step_is_rejected_without_a_warning(self):
        # DOP853's first trial steps from x = 10 overflow inside x' = -1e8 x^3; each is rejected and shrunk
        sys = SystemSpec(dim=1, f=lambda x, t: -1e8 * x**3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(sys, np.array([10.0]), 0.0, 1.0)
        assert traj.n_rejected > 0
        assert traj.states[-1, 0] == pytest.approx(1.0 / np.sqrt(0.01 + 2e8), rel=1e-9)

    def test_rk4_last_node_takes_the_field_at_tf(self):
        # with t0 = 0.3, tf = 1.7 and h = 0.01, t0 + 140 h = 1.7000000000000002, not tf
        calls = []

        def field(x, t):
            calls.append(t)
            return np.array([np.sin(1000.0 * t)])

        traj = integrate(SystemSpec(dim=1, f=field), np.array([0.0]), 0.3, 1.7, IntegratorConfig(method="rk4"))
        assert traj.times[-1] == 1.7 and calls[-1] == 1.7

    def test_rk4_budget_is_checked_before_the_first_step(self, decay_system):
        cfg = IntegratorConfig(method="rk4", max_steps=50)
        with pytest.raises(DivergedError, match=r"^fixed-step run needs 200 steps, budget is 50$") as err:
            integrate(decay_system, np.array([1.0]), 0.0, 2.0, cfg)
        assert err.value.last_time == 0.0

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "bad, problem",
        [
            (np.array([-1.0]), r"shape \(1,\), expected \(2,\)"),  # would broadcast over both components
            (-1.0, r"shape \(\), expected \(2,\)"),  # so would a scalar
            (np.zeros(3), r"shape \(3,\), expected \(2,\)"),
            ([0.0, "x"], "non-numeric output"),
        ],
        ids=["shape (1,)", "scalar", "shape (3,)", "non-numeric"],
    )
    def test_field_output_turning_bad_mid_run_names_f_x_and_t(self, method, bad, problem):
        sys = SystemSpec(dim=2, f=lambda x, t: -x if t < 0.5 else bad)
        with pytest.raises(EvaluationError, match=rf"^f returned {problem} at x=\[\S+, \S+\], t=\S+$") as err:
            integrate(sys, np.array([1.0, 2.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert 0.5 <= err.value.t <= 1.0
        assert err.value.x.shape == (2,)

    @pytest.mark.parametrize("method", METHODS)
    def test_field_output_turning_complex_mid_run_names_f_a_real_x_and_t(self, method):
        # a stage meets the complex sum before any node does; it must neither warn nor carry it into the state
        sys = SystemSpec(dim=2, f=lambda x, t: -x if t < 0.5 else -x + 0j)
        with pytest.raises(EvaluationError, match=r"^f returned non-numeric output at x=\[[^j]+\], t=\S+$") as err:
            integrate(sys, np.array([1.0, 2.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert 0.5 <= err.value.t <= 1.0
        assert err.value.x.dtype == float and err.value.x.shape == (2,)


class TestFundamental:
    @pytest.mark.parametrize("t0, tf", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)])
    def test_rejects_non_finite_window_before_evaluating_a(self, t0, tf):
        def a_fn(t):
            raise AssertionError(f"A evaluated at t={t}")

        with pytest.raises(InvalidInputError, match="need finite t0 < tf"):
            integrate_fundamental(a_fn, t0, tf)

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

    @pytest.mark.parametrize("sampled", [False, True])
    def test_record_is_the_trajectory_of_its_run(self, monkeypatch, sampled):
        # the second component is stiff, so auto switches and every field is set
        runs = []

        def recorded(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(integrate_module, "integrate", recorded)
        a = np.array([[-1.0, 0.0], [1.0, -2000.0]])
        fund = integrate_fundamental(lambda t: a, 0.0, 1.0, sample_times=np.linspace(0.0, 1.0, 9) if sampled else None)
        (run,) = runs
        assert run.stiff_from is not None
        got, want = vars(fund), vars(run)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name] is value, name
        assert fund.dim == 2 and fund.matrices.shape == (run.times.size, 2, 2)

    def test_sample_times_resample_the_one_run(self):
        ts = np.linspace(0.0, 1.0, 11)
        fund = integrate_fundamental(lambda t: np.diag([-1.0, -2.0]), 0.0, 1.0, sample_times=ts)
        assert np.array_equal(fund.times, ts)
        assert np.array_equal(fund.matrices[0], np.eye(2))
        exact = np.stack([np.diag([np.exp(-t), np.exp(-2.0 * t)]) for t in ts])
        # Hermite dense output, same bound as test_dense_output_accuracy
        assert np.abs(fund.matrices - exact).max() < 1e-7

    def test_shape_change_mid_run_raises_evaluation_error(self):
        with pytest.raises(EvaluationError, match=r"^A returned shape \(3, 3\), expected \(2, 2\) at t=0\.5\d*$"):
            integrate_fundamental(lambda t: -np.eye(3 if t > 0.5 else 2), 0.0, 1.0)

    def test_non_finite_a_mid_run_raises_diverged_at_the_dop853_node(self):
        # auto's DOP853 steps 0.01, 0.1, ... and the cap 0.09 put a node exactly on t = 0.5
        def a_fn(t):
            return -np.eye(2) if t <= 0.5 else np.full((2, 2), np.nan)

        with pytest.raises(DivergedError, match=r"^field non-finite near t=0\.5: steps shrank to underflow$") as err:
            integrate_fundamental(a_fn, 0.0, 1.0)
        assert err.value.last_time == 0.5

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        built = []

        def spy(sys, *args, **kwargs):
            built.append(sys)
            return integrate(sys, *args, **kwargs)

        monkeypatch.setattr(integrate_module, "integrate", spy)
        rng = np.random.default_rng(3)
        c0, c1 = rng.normal(size=(2, 3, 3))
        integrate_fundamental(lambda t: c0 + np.sin(t) * c1, 0.0, 1.0)
        (sys,) = built
        for _ in range(5):
            x, t = rng.normal(size=9), float(rng.uniform(0.0, 1.0))
            assert np.abs(sys.jac(x, t) - _fd_jacobian(sys, x, t)).max() <= 1e-7

    @pytest.mark.parametrize(
        "a, stiff",
        [(np.array([[-1000.0, 1.0], [0.0, -1.0]]), True), (np.array([[-1.0, 3.0], [0.0, -2.0]]), False)],
        ids=["stiff", "non-stiff"],
    )
    def test_carries_the_counters_of_its_matrix_ode_run(self, a, stiff):
        fund = integrate_fundamental(lambda t: a, 0.0, 5.0)
        sys = SystemSpec(dim=4, f=lambda x, t: (a @ x.reshape(2, 2)).ravel(), jac=lambda x, t: np.kron(a, np.eye(2)))
        run = integrate(sys, np.eye(2).ravel(), 0.0, 5.0)
        assert np.array_equal(fund.times, run.times)
        assert (fund.n_steps, fund.n_rejected, fund.stiff_from) == (run.n_steps, run.n_rejected, run.stiff_from)
        if stiff:
            # the fast mode decays within a few hundredths; auto hands the run to ndf there
            assert fund.n_rejected > 0 and 0.0 < fund.stiff_from < 0.05
        else:
            assert fund.stiff_from is None

    def test_ndf_run_takes_no_finite_differences(self, monkeypatch):
        def no_fd(sys, x, t):
            raise AssertionError("finite-difference Jacobian taken")

        monkeypatch.setattr(system_module, "_fd_jacobian", no_fd)
        a = np.random.default_rng(7).normal(size=(4, 4)) - 60.0 * np.eye(4)
        fund = integrate_fundamental(lambda t: a, 0.0, 1.0, IntegratorConfig(method="ndf"))
        lam, v = np.linalg.eig(a)
        exact = np.real((v * np.exp(lam)) @ np.linalg.inv(v))
        assert np.abs(fund.matrices[-1] - exact).max() < 1e-8


def looped_transition_check(a_fn, kind, t0, tf, n_pairs, n_states, seed):
    """Per-pair and per-state reference for check_transition_bounds, same rng draw order."""
    fund = integrate_fundamental(a_fn, t0, tf)
    times = fund.times
    m = times.size
    ints = [np.zeros(2)]
    for a, b in zip(times[:-1], times[1:]):  # composite Simpson, 6 panels in a step of max_step = 0.1
        n = 2 * max(1, int(np.ceil(6 * (b - a) / 0.1 - 1e-9)))
        pts = [a + (b - a) * (k / n) for k in range(n)] + [b]
        g = np.array([log_norm_pair(a_fn(t), kind) for t in pts])
        panels = [(pts[k + 2] - pts[k]) / 6.0 * (g[k] + 4.0 * g[k + 1] + g[k + 2]) for k in range(0, n, 2)]
        ints.append(ints[-1] + sum(panels))
    ints = np.array(ints)
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

    def test_tolerance_is_the_budget_of_the_matrix_ode_run(self, monkeypatch):
        runs = []

        def recorded(*args, **kwargs):
            runs.append(integrate_fundamental(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(integrate_module, "integrate_fundamental", recorded)
        c0, c1 = np.random.default_rng(8).normal(size=(2, 3, 3))
        rep = check_transition_bounds(lambda t: c0 + t * c1, NormKind.linf(), 0.0, 1.0)
        (fund,) = runs
        assert rep.tolerance == 1e-6 + 10.0 * fund.error_estimate

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

    def test_simpson_panels_follow_the_step_length(self):
        # 6 panels in a step of max_step, and one in a step of at most max_step / 6, as on a
        # stiff run's short steps
        points, nodes = _simpson_points(np.array([0.0, 0.1, 0.11, 0.15]), 0.1)
        assert list(nodes) == [0, 12, 14, 20]
        assert np.allclose(points[:13], np.linspace(0.0, 0.1, 13))
        assert np.allclose(points[12:14], [0.1, 0.105])
        assert np.allclose(points[14:], 0.11 + np.arange(7) * (0.04 / 6))

    def test_time_varying_diagonal_l2_is_tight(self):
        # mu2[diag(sin 3t, -2)] = sin 3t and the propagator norm is exp(int sin 3s) wherever that
        # beats exp(-2 (t - tau)), so the upper slack is the error of the mu-integral; one
        # Simpson panel per 0.1-long DOP853 step would be off by 1.8e-6, over the tolerance
        rep = check_transition_bounds(lambda t: np.diag([np.sin(3.0 * t), -2.0]), NormKind.l2(), 0.0, 2.0, n_pairs=200)
        assert rep.passed
        assert abs(rep.worst_upper_violation) < 5e-9

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (np.full((2, 2), np.nan), EvaluationError, "A returned non-finite values at t=0.005"),
            (np.eye(3), EvaluationError, "A returned shape (3, 3), expected (2, 2) at t=0.005"),
            ([[-1.0, 0.0], [0.0, "x"]], EvaluationError, "A returned non-numeric output at t=0.005"),
        ],
        ids=["nan", "3x3", "non-numeric"],
    )
    def test_bad_matrix_at_a_simpson_midpoint_names_t(self, bad, error, message):
        # the first step is 0.01 long, so its Simpson midpoint 0.005 is no point the integrator visits
        a_fn = lambda t: bad if t == 0.005 else -np.eye(2)
        with pytest.raises(error) as err:
            check_transition_bounds(a_fn, NormKind.l2(), 0.0, 1.0)
        assert str(err.value) == message

    def test_skew_symmetric_equality_case(self):
        # both mu[A] and mu[-A] vanish, all envelopes equal 1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = check_transition_bounds(lambda t: a, NormKind.l2(), 0.0, 2.0)
        assert rep.passed
        assert abs(rep.worst_upper_violation) < 1e-6
        assert abs(rep.worst_lower_violation) < 1e-6

    @staticmethod
    def singular_later(monkeypatch):
        """Make the check's fundamental matrix I at t = 0 and the singular diag(1, 0) at t = 0.5 and 1."""
        states = np.array([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]).reshape(3, 4)
        fund = FundamentalTrajectory(np.array([0.0, 0.5, 1.0]), states, error_estimate=0.0)
        monkeypatch.setattr(integrate_module, "integrate_fundamental", lambda *args, **kwargs: fund)

    def test_singular_fundamental_matrix_raises_conditioning_error(self, monkeypatch):
        self.singular_later(monkeypatch)
        with pytest.raises(ConditioningError, match="singular"):
            check_transition_bounds(lambda t: -np.eye(2), NormKind.l2(), 0.0, 1.0)

    def test_zero_smallest_singular_value_raises_conditioning_error(self, monkeypatch):
        # a solve that lets the singular Phi(tau) through leaves the condition numbers to find it
        self.singular_later(monkeypatch)
        monkeypatch.setattr(integrate_module, "solve", lambda a, b: b)
        with pytest.raises(ConditioningError, match="smallest singular value is 0"):
            check_transition_bounds(lambda t: -np.eye(2), NormKind.l2(), 0.0, 1.0)

    def test_violations_of_an_overflowed_or_underflowed_bound_read_at_their_limits(self):
        # both envelopes at the bound scale exp(log_bound): inf, 0, subnormal and 2; each value is 1, 1, 1 and 3
        cases = [(1.0, 1.0, 1000.0), (1.0, 1.0, -1000.0), (1.0, 5e-324, 0.0), (3.0, 2.0, 0.0)]
        worst = [
            integrate_module._worst_violations(np.array([value]), scale, np.array([log]), np.array([-log]))
            for value, scale, log in cases
        ]
        assert worst == [(-1.0, 1.0), (np.inf, -np.inf), (np.inf, -np.inf), (0.5, -0.5)]

    @pytest.mark.parametrize(
        "a, kind, seed, n_pairs",
        [
            *[(np.array([[0.0, 1000.0], [-1000.0, 0.0]]), NormKind.l1(), seed, 200) for seed in (0, 1, 2)],
            *[(np.diag([-1000.0, -1.0]), NormKind.l2(), seed, 20) for seed in (0, 1)],
        ],
        ids=["rotation l1 seed 0", "rotation l1 seed 1", "rotation l1 seed 2", "damped l2 seed 0", "damped l2 seed 1"],
    )
    def test_envelopes_that_overflow_or_underflow_give_the_verdict(self, a, kind, seed, n_pairs):
        # mu1 of the rotation and mu2 of -diag(-1000, -1) are 1000, so exp(int mu) overflows to inf or
        # underflows to 0 over much of [0, 1]; the rotation's l1 propagator norm is at most sqrt(2), so
        # both envelopes hold. numpy warnings are errors here.
        rep = check_transition_bounds(lambda t: a, kind, 0.0, 1.0, n_pairs=n_pairs, seed=seed)
        violations = [
            rep.worst_upper_violation,
            rep.worst_lower_violation,
            rep.worst_state_upper_violation,
            rep.worst_state_lower_violation,
        ]
        assert rep.passed and not np.isnan(violations).any(), violations
        assert all(v <= rep.tolerance for v in violations)

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
        for t_bad in (np.inf, np.nan):
            with pytest.raises(InvalidInputError, match="^trajectory times has non-finite entries$"):
                Trajectory(np.array([0.0, t_bad]), np.zeros((2, 1)))
        with pytest.raises(InvalidInputError, match="must start at the identity"):
            FundamentalTrajectory(np.array([0.0]), np.array([[2.0]]))
        with pytest.raises(InvalidInputError, match="need n\\^2 >= 1 columns, got 3"):
            FundamentalTrajectory(np.array([0.0]), np.array([[1.0, 0.0, 1.0]]))
        with pytest.raises(InvalidInputError, match="^trajectory times must strictly increase$"):
            FundamentalTrajectory(np.array([1.0, 0.0]), np.array([[1.0], [1.0]]))

    def test_fundamental_trajectory_views_its_states_as_matrices(self):
        fund = FundamentalTrajectory(np.array([0.0, 1.0]), np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]]))
        assert fund.dim == 2
        assert np.array_equal(fund.matrices[1], [[1.0, 2.0], [3.0, 4.0]])
        assert np.shares_memory(fund.matrices, fund.states)

    def test_empty_trajectory_allowed(self):
        traj = Trajectory(np.zeros(0), np.zeros((0, 2)))
        assert traj.dim == 2

    @pytest.mark.parametrize(
        "ts, error, message",
        [
            ([2.0, 5.0], InvalidInputError, r"sample_times must lie within \[0\.0, 1\.0\]"),
            ([-0.5, 0.5], InvalidInputError, r"sample_times must lie within \[0\.0, 1\.0\]"),
            ([np.nan], InvalidInputError, r"sample_times must lie within \[0\.0, 1\.0\]"),
            ([0.2, np.nan], InvalidInputError, "sample_times must strictly increase"),
            ([0.5, 0.25], InvalidInputError, "sample_times must strictly increase"),
            ([5.0, 1.0], InvalidInputError, "sample_times must strictly increase"),
            ([], InvalidInputError, "sample_times must be a non-empty 1-D sequence"),
            ([[0.5]], DimensionError, r"sample_times has shape \(1, 1\), expected \(N,\)"),
        ],
        ids=["past the end", "before the start", "nan", "nan last", "decreasing", "decreasing outside", "empty", "2-D"],
    )
    def test_sample_takes_only_times_that_integrate_would(self, decay_system, ts, error, message):
        # x' = -x from 1 on [0, 1]: the cubic would extrapolate e^-5 = 0.0067 to -2.27
        calls = spy(decay_system, "f")
        with pytest.raises(error, match=f"^{message}$"):
            integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=ts)
        assert calls == []  # refused before the run starts

    def test_sample_inside_the_trajectory_interpolates(self, decay_system):
        traj = integrate(decay_system, np.array([1.0]), 0.0, 1.0)
        ts = np.linspace(0.0, 1.0, 41)
        sampled = integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=ts)
        assert np.abs(sampled.states[:, 0] - np.exp(-ts)).max() < 1e-6
        end = integrate(decay_system, np.array([1.0]), 0.0, 1.0, sample_times=[1.0 + 1e-12])
        assert end.states[0, 0] == traj.states[-1, 0]  # within rounding of the end, clipped to it


def prothero_robinson(lam):
    """y' = lam (y - sin t) + cos t, whose solution from y(0) = 0 is sin t for every lam."""
    return SystemSpec(
        dim=1,
        f=lambda x, t: lam * (x - np.sin(t)) + np.cos(t),
        jac=lambda x, t: np.array([[lam]]),
    )


def hermite_alone(sys, grid, ts):
    """Cubic Hermite at ts on a grid run's nodes and the right-hand side of ``sys`` there, with no correction rows."""
    slopes = np.array([eval_rhs(sys, y, t) for t, y in zip(grid.times, grid.states)])
    rows = np.zeros((grid.times.size - 1, 6, grid.dim))
    rows[:, 0], rows[:, 1] = slopes[:-1], slopes[1:]
    return _hermite_sample(grid.times, grid.states, rows, ts)


def same_run(a, b):
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.states, b.states)
        and a.error_estimate == b.error_estimate
        and (a.n_steps, a.n_rejected, a.stiff_from) == (b.n_steps, b.n_rejected, b.stiff_from)
    )


class TestNDF:
    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_starts_on_a_field_very_stiff_at_x0(self, method):
        # ndf's first step is 1.6e-15, below 1e-14 at t = 0 but far above 10 ulps of t
        sys = SystemSpec(dim=1, f=lambda x, t: -1e8 * x**3, jac=lambda x, t: np.array([[-3e8 * x[0] ** 2]]))
        run = integrate(sys, np.array([10.0]), 0.0, 1.0, IntegratorConfig(method=method))
        exact = 10.0 / np.sqrt(1.0 + 2e10 * run.times)
        assert run.times[-1] == 1.0
        assert np.abs(run.states[:, 0] / exact - 1.0).max() < 1e-6  # 1.6e-7 under ndf, 3.3e-11 under auto

    def test_stiff_prothero_robinson_tracks_the_exact_solution(self):
        sys = prothero_robinson(-1e4)
        ts = np.linspace(0.0, 1.0, 201)
        errors = []
        for rel_tol in (1e-6, 1e-9):
            cfg = IntegratorConfig(method="ndf", rel_tol=rel_tol)
            grid = integrate(sys, np.array([0.0]), 0.0, 1.0, cfg)
            dense = integrate(sys, np.array([0.0]), 0.0, 1.0, cfg, sample_times=ts)
            err = max(
                np.abs(grid.states[:, 0] - np.sin(grid.times)).max(),
                np.abs(dense.states[:, 0] - np.sin(ts)).max(),
            )
            assert err <= 10.0 * rel_tol, (rel_tol, err)
            errors.append(err)
        assert errors[1] < errors[0]

    def test_dense_output_tracks_the_exact_solution(self, decay_system):
        cfg = IntegratorConfig(method="ndf")
        ts = np.linspace(0.0, 1.0, 37)
        traj = integrate(decay_system, np.array([1.0]), 0.0, 1.0, cfg, sample_times=ts)
        assert np.abs(traj.states[:, 0] - np.exp(-ts)).max() < 1e-7

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_samples_keep_the_nodes_accuracy_on_long_steps(self, rel_tol):
        # the steps grow to max_step here, where cubic Hermite on the nodes was off by 5.75 rel_tol at 1e-9
        ts = np.linspace(0.0, 10.0, 201)
        cfg = IntegratorConfig(method="ndf", rel_tol=rel_tol)
        dense = integrate(prothero_robinson(-1e4), np.array([0.0]), 0.0, 10.0, cfg, sample_times=ts)
        assert np.abs(dense.states[:, 0] - np.sin(ts)).max() <= rel_tol

    @pytest.mark.parametrize("method", ["ndf", "auto", "rk4"])
    def test_samples_on_the_nodes_are_the_node_states(self, fig1_system, method):
        cfg = IntegratorConfig(method=method)
        grid = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 6.0, cfg)
        dense = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 6.0, cfg, sample_times=grid.times)
        assert np.array_equal(dense.states, grid.states)

    def test_honours_max_step(self, decay_system):
        traj = integrate(decay_system, np.array([1.0]), 0.0, 10.0, IntegratorConfig(method="ndf", max_step=0.05))
        assert np.diff(traj.times).max() <= 0.05 * (1.0 + 1e-12)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-10.0), rel=1e-6)

    def test_field_turning_non_finite_names_t(self):
        sys = SystemSpec(dim=1, f=lambda x, t: -x if t <= 0.5 else x * np.nan, jac=lambda x, t: -np.eye(1))
        with pytest.raises(DivergedError, match=r"non-finite near t=0\.49") as err:
            integrate(sys, np.array([1.0]), 0.0, 1.0, IntegratorConfig(method="ndf"))
        assert err.value.last_time == pytest.approx(0.5, abs=1e-6)

    def test_field_turning_non_finite_without_jacobian_names_t(self):
        # A(t) is undefined past 0.5, and with it the matrix ODE's Jacobian kron(A, I): the NDF phase keeps the J it has
        def a_fn(t):
            return -np.eye(2) if t <= 0.5 else np.full((2, 2), np.nan)

        with pytest.raises(DivergedError, match=r"non-finite near t=0\.49"):
            integrate_fundamental(a_fn, 0.0, 1.0, IntegratorConfig(method="ndf"))

    def test_singular_iteration_matrix(self):
        # f vanishes at x0, so y'' = 0 there and the first step has order 1 and
        # h = max_step; then I - h/alpha_1 J has a zero row
        h = 0.1
        j = np.diag([_NDF_ALPHA[1] / h, 0.0])
        sys = SystemSpec(dim=2, f=lambda x, t: j @ x, jac=lambda x, t: j)
        with pytest.raises(ConditioningError, match="singular at t=0"):
            integrate(sys, np.array([0.0, 1.0]), 0.0, 1.0, IntegratorConfig(method="ndf", max_step=h))

    # I - c J for c = 1: a zero row, [[1, 1], [1, 1 + 2^-52]] (det 2^-52, a finite condition over 1/eps), and
    # entries that overflow to inf, where det is NaN
    @pytest.mark.parametrize(
        "j, c, condition",
        [
            (np.diag([0.0, 1.0]), 1.0, "inf"),
            (np.array([[0.0, -1.0], [-1.0, -(2.0**-52)]]), 1.0, r"1\.8e\+16"),
            (np.full((2, 2), 1e308), -1e10, "inf"),
        ],
        ids=["zero-row", "near-singular", "overflow"],
    )
    def test_singular_2x2_iteration_matrix_names_its_condition(self, j, c, condition):
        message = re.escape(f"I - {c:.6g} J is singular at t=0.5 (condition ") + condition + r"\)"
        with pytest.raises(ConditioningError, match=message):
            integrate_module._iteration_inverse(j, c, 0.5)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e200])
    def test_2x2_iteration_inverse_matches_lapack(self, scale):
        # the closed form scales M by a power of two; at scale 1e200 its unscaled det would overflow
        rng = np.random.default_rng(int(np.log10(scale)))
        eps = np.finfo(float).eps
        for _ in range(200):
            j = scale * rng.normal(size=(2, 2))
            c = 10.0 ** rng.uniform(-4.0, 0.0)
            m = np.eye(2) - c * j
            want = np.linalg.inv(m)
            cond = np.abs(m).sum(axis=1).max() * np.abs(want).sum(axis=1).max()
            if cond * eps >= 0.01:
                continue
            got = integrate_module._iteration_inverse(j, c, 0.0)
            assert np.abs(got - want).max() <= 4.0 * eps * cond * np.abs(want).max(), (j, c)

    def test_2x2_ndf_run_makes_no_numpy_linalg_call(self, fig1_system, monkeypatch):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"numpy.linalg.{name} called")

            return call

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse(name))
        traj = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method="ndf"))
        assert traj.times[-1] == 20.0 and traj.n_steps > 1000
        # n = 3 still inverts through LAPACK, so the patch is in force
        a = np.diag([-1.0, -10.0, -1000.0])
        sys3 = SystemSpec(dim=3, f=lambda x, t: a @ x, jac=lambda x, t: a)
        with pytest.raises(AssertionError, match="numpy.linalg.inv called"):
            integrate(sys3, np.ones(3), 0.0, 1.0, IntegratorConfig(method="ndf"))

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_start_step_needs_no_rejection_streak(self, fig1_system, monkeypatch, method):
        # the order-1 start step comes from y'' ~ df/dt, not from ``step``
        rejected_from = []  # node count of the run at each rejection
        reject = _Run.reject

        def spy(run, non_finite=False):
            rejected_from.append(len(run.times))
            reject(run, non_finite)

        monkeypatch.setattr(_Run, "reject", spy)
        traj = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method=method))
        first = 0 if method == "ndf" else int(np.searchsorted(traj.times, traj.stiff_from))
        assert traj.times[first] == (0.0 if method == "ndf" else traj.stiff_from)
        assert sum(first < n <= first + 10 for n in rejected_from) <= 1

    def test_blowup_raises_diverged_with_last_time(self):
        sys = SystemSpec(dim=1, f=lambda x, t: x * x)
        with pytest.raises(DivergedError) as err:
            integrate(sys, np.array([1.0]), 0.0, 2.0, IntegratorConfig(method="ndf"))
        assert 0.0 <= err.value.last_time <= 1.05

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_every_new_iteration_matrix_gets_a_jacobian_from_the_last_node(self, fig1_system, monkeypatch, method):
        # a rejected step re-forms the matrix from the J of its node, so there are more inverses than Jacobians
        events = []

        def record(name, fn):
            def spy(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setattr(integrate_module, "jacobian", record("jac", integrate_module.jacobian))
        monkeypatch.setattr(integrate_module, "_iteration_inverse", record("inv", integrate_module._iteration_inverse))
        monkeypatch.setattr(_Run, "accept", record("accept", _Run.accept))
        monkeypatch.setattr(_Run, "accept_ndf", record("accept", _Run.accept_ndf))
        integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method=method))
        assert events.count("inv") > 100
        fresh = True
        for i, event in enumerate(events):
            if event == "accept":
                fresh = False
            elif event == "jac":
                fresh = True
            elif event == "inv":
                assert fresh, f"iteration matrix {events[:i].count('inv')} formed from a J older than the last node"

    def test_field_evaluations_per_newton_iteration(self, fig1_system, monkeypatch):
        # f at t0, the start step's Euler probe and one per Newton iteration: an accepted node takes none,
        # and neither does the analytic Jacobian
        calls, iterations = [], []

        def f(x, t):
            calls.append(t)
            return fig1_system.f(x, t)

        newton = integrate_module._ndf_newton

        def spy(*args):
            out = newton(*args)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(integrate_module, "_ndf_newton", spy)
        sys = SystemSpec(dim=2, f=f, jac=fig1_system.jac, delta=fig1_system.delta)
        traj = integrate(sys, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method="ndf"))
        assert traj.n_rejected > 0 and len(iterations) == traj.n_steps + traj.n_rejected
        assert len(calls) == 1 + 1 + sum(iterations)

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_newton_rate_is_carried_only_on_one_iteration_matrix(self, fig1_system, monkeypatch, method):
        events = []  # ("inv", matrix), ("solve", matrix, rate in, converged, iterations, rate out) and ("reject",)
        inverse, newton, reject = integrate_module._iteration_inverse, integrate_module._ndf_newton, _Run.reject

        def inverse_spy(*args):
            m_inv = inverse(*args)
            events.append(("inv", m_inv))
            return m_inv

        def newton_spy(*args):
            out = newton(*args)
            events.append(("solve", args[5], args[8], out[0], out[1], out[5]))
            return out

        def reject_spy(run, non_finite=False):
            events.append(("reject",))
            reject(run, non_finite)

        monkeypatch.setattr(integrate_module, "_iteration_inverse", inverse_spy)
        monkeypatch.setattr(integrate_module, "_ndf_newton", newton_spy)
        monkeypatch.setattr(_Run, "reject", reject_spy)
        traj = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method=method))
        solves = [event for event in events if event[0] == "solve"]
        if method == "ndf":
            assert traj.n_rejected > 0 and len(solves) == traj.n_steps + traj.n_rejected
        last = None  # the last solve since the matrix was formed and since the last rejection
        for i, event in enumerate(events):
            if event[0] != "solve":
                last = None
                continue
            _, m_inv, rate_in, converged, iterations, rate_out = event
            if last is None:
                assert rate_in is None, f"event {i}: a rate survived a new matrix or a rejection"
            else:
                assert last[1] is m_inv and last[3] and rate_in == last[5], f"event {i}"
            if converged and iterations == 1:
                assert rate_in is not None, f"event {i}: one iteration without a carried rate"
            assert rate_out is None or 0.0 < rate_out < 1.0
            last = event
        one_iteration = sum(1 for event in solves if event[3] and event[4] == 1)
        assert one_iteration >= 0.5 * len(solves), (one_iteration, len(solves))

    @pytest.mark.parametrize("rate_in", [None, 0.02, 0.2, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.3, 0.5, 0.7])
    def test_carried_newton_rate_may_end_a_solve_early_but_never_fail_it(self, r, rate_in):
        # corr = f(corr) + 10 with f = -9 y has the root 1; the inverse (1 - r) / 10 of the iteration
        # matrix, in place of 1/10, makes every iteration contract the error by exactly r
        m_inv = np.array([[(1.0 - r) / 10.0]])

        def run(rate):
            return _ndf_newton(lambda t, y: -9.0 * y, 0.0, np.zeros(1), 1.0, np.array([-10.0]), m_inv, np.ones(1), 0.03, rate)

        fresh, carried = run(None), run(rate_in)
        assert carried[0] or not fresh[0]
        if fresh[0]:
            assert carried[1] <= fresh[1]
        if carried[1] == 1 and carried[0]:
            # accepted on the carried rate alone: rate / (1 - rate) |dy| < tol, and the rate stays as it was
            assert rate_in / (1.0 - rate_in) * (1.0 - r) < 0.03 and carried[5] == rate_in
        elif carried[0]:
            # each iteration after the first measures r and keeps max(0.9 rate, r); a rate of 0 is not carried
            expected = rate_in or 0.0
            for _ in range(carried[1] - 1):
                expected = max(0.9 * expected, r)
            assert (carried[5] is None) if expected == 0.0 else carried[5] == pytest.approx(expected, rel=1e-12)
        else:
            assert carried[5] is None

    @pytest.mark.parametrize("order", range(1, 6))
    def test_rescale_with_tabulated_r_one_is_bit_identical(self, order):
        rng = np.random.default_rng(order)
        diffs = rng.normal(size=(8, 3))
        for factor in (0.2, 0.5, 0.9, 1.7, 10.0):
            expected = diffs.copy()
            expected[: order + 1] = (_r_matrix(order, factor) @ _r_matrix(order, 1.0)).T @ diffs[: order + 1]
            got = diffs.copy()
            _rescale_differences(got, order, factor)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), factor

    @pytest.mark.parametrize("order", range(1, 6))
    def test_fold_correction_matches_the_row_loop(self, order):
        # the cumulative sum adds the same two operands per row as the loop it replaced
        rng = np.random.default_rng(10 + order)
        diffs = rng.normal(size=(8, 3)) * 10.0 ** rng.integers(-8, 8, size=(8, 1))
        corr = rng.normal(size=3) * 1e-6
        expected = diffs.copy()
        expected[order + 2] = corr - expected[order + 1]
        expected[order + 1] = corr
        for i in range(order, -1, -1):
            expected[i] += expected[i + 1]
        _fold_correction(diffs, order, corr)
        assert np.array_equal(diffs.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("order", range(1, 6))
    def test_r_matrix_matches_its_product_formula(self, order):
        # R(r)[i, j] = prod_{m=1..i} (m - 1 - r j) / m
        for r in (0.5, 1.0, 2.0):
            expected = np.array(
                [[np.prod([(m - 1 - r * j) / m for m in range(1, i + 1)]) for j in range(order + 1)] for i in range(order + 1)]
            )
            assert np.allclose(_r_matrix(order, r), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("method", ["ndf", "auto"])
    def test_jacobian_that_cannot_be_refreshed_keeps_the_previous_one(self, method):
        # x is drawn to 0.4 e^{-t} at rate 1e4 and the field is undefined below x = 0.5, which x
        # reaches at t = ln(6)/1e4; under ndf, finite differences fail within 6e-6 of it, before
        # f does (auto is still in its DOP853 phase there)
        def f(x, t):
            return -1e4 * (x - 0.4 * np.exp(-t)) if x[0] > 0.5 else np.full(1, np.nan)

        with pytest.raises(DivergedError, match=r"^field non-finite near t=\S+: steps shrank to underflow$") as err:
            integrate(SystemSpec(dim=1, f=f), np.array([1.0]), 0.0, 1.0, IntegratorConfig(method=method))
        assert err.value.last_time == pytest.approx(np.log(6.0) / 1e4, rel=1e-3)


class TestDOP853:
    """auto's explicit phase; none of these fields turns stiff."""

    def test_dense_output_keeps_the_seventh_order_term(self, harmonic_system):
        # between these 0.1-long steps cubic Hermite alone is off by 2.6e-7,
        # the continuous extension that sample_times uses by 1e-14
        ts = np.linspace(0.0, 2.0 * np.pi, 301)
        exact = np.column_stack([np.cos(ts), -np.sin(ts)])
        grid = integrate(harmonic_system, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi)
        dense = integrate(harmonic_system, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi, sample_times=ts)
        assert np.diff(grid.times).max() == pytest.approx(0.1)
        assert np.abs(dense.states - exact).max() < 1e-9
        assert np.abs(hermite_alone(harmonic_system, grid, ts) - exact).max() > 1e-7

    def test_intervals_of_the_ndf_phase_sample_the_step_interpolant(self, fig1_system, monkeypatch):
        runs, steps = [], []
        trajectory, accept_ndf = _Run.trajectory, _Run.accept_ndf

        def keep(run, *args):
            runs.append(run)
            return trajectory(run, *args)

        def record(run, t, y, err, diffs):
            if run.table is not None:
                steps.append(diffs.copy())  # a view of the step rule's own differences, which the next step moves
            accept_ndf(run, t, y, err, diffs)

        monkeypatch.setattr(_Run, "trajectory", keep)
        monkeypatch.setattr(_Run, "accept_ndf", record)
        grid = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 6.0)
        mid = 0.5 * (grid.times[:-1] + grid.times[1:])
        dense = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 6.0, sample_times=mid)
        ndf = mid > grid.stiff_from
        assert dense.stiff_from == grid.stiff_from
        # only a sampled run keeps a table, and it takes the differences of each NDF step
        grid_run, dense_run = runs
        assert grid_run.table is None and dense_run.table is not None and len(steps) == ndf.sum()
        # Newton's backward formula on each interval's own differences, term by term
        for diffs, i in zip(steps, np.flatnonzero(ndf)):
            s = (mid[i] - grid.times[i + 1]) / (grid.times[i + 1] - grid.times[i])
            expected, term = grid.states[i + 1].copy(), 1.0
            for j in range(1, len(diffs) + 1):
                term *= (s + j - 1) / j
                expected += term * diffs[j - 1]
            assert dense.states[i] == pytest.approx(expected, rel=1e-14, abs=1e-16), i
        assert np.all(np.abs(dense.states - hermite_alone(fig1_system, grid, mid)).max(axis=1) > 0.0)

    @pytest.mark.parametrize("order", range(1, 6))
    def test_ndf_hermite_matrix_is_newtons_backward_formula(self, order):
        # an order-k interpolant through both nodes, in the Hermite form that samples every interval
        rng = np.random.default_rng(order)
        s = np.linspace(-1.0, 0.0, 41)
        coef = np.cumprod((s[:, None] + np.arange(5)) / np.arange(1, 6), axis=1)
        for _ in range(200):
            h = 10.0 ** rng.uniform(-4.0, 0.0)
            y_end = rng.normal(size=3)
            diffs = np.zeros((5, 3))
            diffs[:order] = rng.normal(size=(order, 3)) * 10.0 ** rng.uniform(-6.0, 0.0, size=(order, 1))
            expected = y_end + coef @ diffs
            block = np.zeros((6, 3))
            block[:4] = _NDF_HERMITE @ diffs
            block[:2] /= h
            # the step ends at t = 0, so the sample times carry s to rounding
            got = _hermite_sample(np.array([-h, 0.0]), np.array([y_end - diffs[0], y_end]), block[None], s * h)
            assert np.abs(got - expected).max() <= 2e-15 * np.abs(expected).max()

    def test_dense_stages_are_evaluated_only_for_sample_times(self):
        # one call at (t0, x0), then 11 stages and f at the new node per step; 3 more with sample_times
        calls = []

        def f(x, t):
            calls.append(t)
            return -x

        sys = SystemSpec(dim=1, f=f)
        grid = integrate(sys, np.array([1.0]), 0.0, 1.0)
        assert grid.n_rejected == 0 and len(calls) == 1 + 12 * grid.n_steps
        calls.clear()
        dense = integrate(sys, np.array([1.0]), 0.0, 1.0, sample_times=grid.times)
        assert len(calls) == 1 + 15 * grid.n_steps
        assert np.array_equal(dense.states, grid.states)

    def test_non_finite_dense_stage_rejects_the_step(self):
        # call 1 is f(t0, x0); the first step evaluates its stages on calls 2-12,
        # f at the new node on call 13 and, in a sampled run, the dense-output
        # stages on calls 14-16, so call 14 is a dense stage only there
        ts = np.linspace(0.0, 1.0, 11)
        at_stage = integrate(nan_on_call(2), np.array([1.0]), 0.0, 1.0, sample_times=ts)
        at_dense_stage = integrate(nan_on_call(14), np.array([1.0]), 0.0, 1.0, sample_times=ts)
        assert at_dense_stage.n_rejected == at_stage.n_rejected == 1
        assert same_run(at_dense_stage, at_stage)
        grid = integrate(nan_on_call(14), np.array([1.0]), 0.0, 1.0)
        assert grid.n_rejected == 1 and grid.times[1] == 0.01
        with pytest.raises(DivergedError, match=r"^field non-finite after step to t=0\.01$") as err:
            integrate(nan_on_call(13), np.array([1.0]), 0.0, 1.0)
        assert err.value.last_time == 0.0


class TestAuto:
    def test_demo_switches_once_and_needs_few_steps(self, fig1_system):
        traj = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method="auto"))
        assert traj.n_steps <= 2000
        assert 2.0 <= traj.stiff_from <= 8.0
        assert traj.times[-1] == pytest.approx(20.0, abs=1e-12)

    def test_budget_counts_both_phases(self):
        sys = prothero_robinson(-1e4)
        full = integrate(sys, np.array([0.0]), 0.0, 1.0)
        assert full.stiff_from is not None
        assert full.times.size == full.n_steps + 1
        used = full.n_steps + full.n_rejected
        assert same_run(integrate(sys, np.array([0.0]), 0.0, 1.0, IntegratorConfig(max_steps=used)), full)
        with pytest.raises(DivergedError, match=f"step budget {used - 1} exhausted at t=") as err:
            integrate(sys, np.array([0.0]), 0.0, 1.0, IntegratorConfig(max_steps=used - 1))
        assert err.value.last_time > full.stiff_from

    @pytest.mark.parametrize(
        "sys, x0, tf, knobs",
        [
            (SystemSpec(dim=1, f=lambda x, t: x.copy(), jac=lambda x, t: np.eye(1)), [1.0], 3.0, {}),
            (
                SystemSpec(dim=2, f=lambda x, t: np.array([10.0 * x[1], -10.0 * x[0]])),
                [1.0, 0.0],
                3.0,
                {"rel_tol": 1e-6},
            ),
            # h * |sigma| passes STIFF_THETA here; only the sign keeps it on DOP853
            (SystemSpec(dim=1, f=lambda x, t: x.copy()), [1.0], 10.0, {"rel_tol": 1e-3, "max_step": 10.0}),
            # y5 = Y5 exactly, so sigma is undefined
            (SystemSpec(dim=2, f=lambda x, t: np.array([1.0, -2.0])), [0.0, 0.0], 3.0, {}),
            # the cost test passes here; only DOP853's proposals beyond max_step keep it on DOP853
            (SystemSpec(dim=1, f=lambda x, t: -x), [1.0], 3.0, {"rel_tol": 1e-6, "max_step": 0.01}),
        ],
        ids=[
            "expanding x' = x",
            "rotation omega = 10",
            "expanding at a loose tolerance",
            "constant field",
            "decay held at max_step",
        ],
    )
    def test_no_switch_is_bit_identical_to_dop853(self, sys, x0, tf, knobs, monkeypatch):
        def run():
            return integrate(sys, np.array(x0), 0.0, tf, IntegratorConfig(**knobs))

        auto = run()
        assert auto.stiff_from is None
        assert same_run(auto, without_switch(monkeypatch, run))

    @pytest.mark.parametrize("variant", ["fig1", "fig2"])
    def test_demo_to_tf_1_does_not_switch(self, variant):
        # accuracy-limited steps of about 0.1 against mu[J] of about -7 put
        # h * (-sigma) at up to 0.78 on one step here, below STIFF_THETA over three
        sys = build_example1(delta=delta_admissible if variant == "fig1" else delta_borderline)
        for x0 in DEMO_STARTS:
            assert integrate(sys, np.array(x0), 0.0, 1.0).stiff_from is None, x0

    @pytest.mark.parametrize("variant", ["fig1", "fig2"])
    def test_demo_to_tf_6_switches_once_ndf_is_the_cheaper_method(self, variant):
        # the cost test fires near t = 2.4, long before h * (-sigma) reaches STIFF_THETA (t = 3.7 from most starts)
        sys = build_example1(delta=delta_admissible if variant == "fig1" else delta_borderline)
        for x0 in DEMO_STARTS:
            assert 2.0 <= integrate(sys, np.array(x0), 0.0, 6.0).stiff_from < 3.0, x0

    def test_cost_test_alone_switches_the_demo(self, fig1_system, monkeypatch):
        monkeypatch.setattr(integrate_module, "STIFF_THETA", np.inf)
        traj = integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 6.0)
        assert 2.0 <= traj.stiff_from < 3.0

    def test_stability_test_alone_switches_a_stability_limited_run(self, monkeypatch):
        # h * (-sigma) passes STIFF_THETA within a few steps; the cost test needs 7 nodes and a smooth solution
        a = np.array([[-1000.0, 1.0], [0.0, -1.0]])
        monkeypatch.setattr(integrate_module, "STIFF_COST_RATIO", np.inf)
        assert 0.0 < integrate_fundamental(lambda t: a, 0.0, 5.0).stiff_from < 0.05

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_ltv_envelope_systems_do_not_switch(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        for _ in range(3):
            c0, c1, c2 = [c * np.sqrt(n) / np.linalg.norm(c) for c in rng.normal(size=(3, n, n))]

            def run():
                return integrate_fundamental(lambda t: c0 + t * c1 + t * t * c2, 0.0, 1.0)

            runs = [run(), without_switch(monkeypatch, run)]
            assert np.array_equal(runs[0].times, runs[1].times)
            assert np.array_equal(runs[0].matrices, runs[1].matrices)
            assert runs[0].error_estimate == runs[1].error_estimate

    def test_criterion_07_systems_give_the_dop853_reports(self, monkeypatch):
        # the same 100 systems, kinds and seeds as acceptance criterion 07
        rng = np.random.default_rng(31415)
        tags = ("l1", "l2", "linf", "weighted")
        for i in range(100):
            n = int(rng.integers(2, 5))
            kind = NormKind.weighted(random_spd(rng, n)) if tags[i % 4] == "weighted" else NormKind(tags[i % 4])
            coeffs = [0.7 * rng.normal(size=(n, n)) for _ in range(3)]

            def a_fn(t, c=coeffs):
                return c[0] + t * c[1] + t * t * c[2]

            def check(a_fn=a_fn, kind=kind, i=i):
                return check_transition_bounds(a_fn, kind, 0.0, 1.0, n_pairs=20, seed=i)

            assert check() == without_switch(monkeypatch, check), i


def lsoda_demo_reference(variant, times):
    """The demo from (-2, 5) at times, by perfbench/reference.py: its own copy of the field, under scipy's LSODA."""
    pytest.importorskip("scipy.integrate")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return np.array(module.reference_states({"delta": variant, "x0": [-2.0, 5.0], "times": times.tolist()}))


@pytest.mark.parametrize("variant", ["fig1", "fig2"])
def test_demo_matches_lsoda_under_ndf_and_auto(variant):
    grid = np.linspace(0.0, 20.0, 401)
    ref = lsoda_demo_reference(variant, grid)
    sys = build_example1(delta=delta_admissible if variant == "fig1" else delta_borderline)
    for method in ("ndf", "auto"):
        traj = integrate(sys, np.array([-2.0, 5.0]), 0.0, 20.0, IntegratorConfig(method=method), sample_times=grid)
        err = np.abs(traj.states - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-6, (method, err.max())


VDP_MU = 1000.0
VDP_TIMES = np.linspace(0.0, 2000.0, 401)


def vdp_field(x, t):
    return np.array([x[1], VDP_MU * (1.0 - x[0] ** 2) * x[1] - x[0]])


def vdp_jac(x, t):
    return np.array([[0.0, 1.0], [-2.0 * VDP_MU * x[0] * x[1] - 1.0, VDP_MU * (1.0 - x[0] ** 2)]])


@pytest.fixture(scope="module")
def vdp_reference():
    """Van der Pol with mu = 1000 from (2, 0) at VDP_TIMES, by scipy's Radau far below the tolerances tested."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(
        lambda t, x: vdp_field(x, t),
        (0.0, VDP_TIMES[-1]),
        [2.0, 0.0],
        method="Radau",
        t_eval=VDP_TIMES,
        rtol=1e-12,
        atol=1e-14,
        jac=lambda t, x: vdp_jac(x, t),
    )
    assert sol.success
    return sol.y.T


@pytest.mark.parametrize("rel_tol, bound", [(1e-6, 1e-4), (1e-9, 1e-6)])
@pytest.mark.parametrize("jac", ["analytic", "finite differences"])
@pytest.mark.parametrize("method", ["ndf", "auto"])
def test_van_der_pol_matches_radau(vdp_reference, method, jac, rel_tol, bound):
    # the Newton iteration stops at 0.03 of the error test's scale; the global error stays at the tolerance's level
    sys = SystemSpec(dim=2, f=vdp_field, jac=vdp_jac if jac == "analytic" else None)
    cfg = IntegratorConfig(method=method, rel_tol=rel_tol, abs_tol=1e-3 * rel_tol, max_step=10.0)
    traj = integrate(sys, np.array([2.0, 0.0]), 0.0, VDP_TIMES[-1], cfg, sample_times=VDP_TIMES)
    err = np.abs(traj.states[:, 0] - vdp_reference[:, 0]).max()
    assert err <= bound, err


class TestWithoutDelta:
    """A system built without delta keeps delta None and runs on f alone, as if delta were zero."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["grid", "sampled"])
    @pytest.mark.parametrize("method", ["auto", "ndf", "rk4"])
    def test_run_is_bit_identical_to_a_zero_delta(self, method, sampled):
        ts = np.linspace(0.0, 3.0, 61) if sampled else None
        cfg = IntegratorConfig(method=method)
        zero = integrate(build_example1(delta=lambda t: np.zeros(2)), np.array([-2.0, 5.0]), 0.0, 3.0, cfg, ts)
        assert build_example1().delta is None
        free = integrate(build_example1(), np.array([-2.0, 5.0]), 0.0, 3.0, cfg, ts)
        assert (free.stiff_from is not None) == (method == "auto")  # auto hands the demo to ndf near t = 2.1
        assert same_run(free, zero)
        for got, want in ((free.times, zero.times), (free.states, zero.states)):
            assert got.tobytes() == want.tobytes()

    def test_delta_set_after_construction_is_integrated(self):
        sys = SystemSpec(dim=1, f=lambda x, t: -x, jac=lambda x, t: -np.eye(1))
        sys.delta = lambda t: np.ones(1)
        run = integrate(sys, np.zeros(1), 0.0, 1.0)
        built = integrate(SystemSpec(dim=1, f=sys.f, jac=sys.jac, delta=sys.delta), np.zeros(1), 0.0, 1.0)
        assert same_run(run, built)
        assert run.states[-1, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "f, delta",
        [
            (lambda x, t: np.array([1, -2]), None),
            (lambda x, t: (-x).astype(np.float32), None),
            (lambda x, t: (-x).astype(np.float32), lambda t: np.zeros(2, dtype=np.float32)),
        ],
        ids=["int", "float32", "float32 with float32 delta"],
    )
    def test_output_of_another_real_type_is_taken_as_float64(self, f, delta, method):
        # float32 kept as it is would round h * f to float32 in rk4's and ndf's steps
        cfg = IntegratorConfig(method=method)
        run = integrate(SystemSpec(dim=2, f=f, delta=delta), np.ones(2), 0.0, 1.0, cfg)
        zero = integrate(SystemSpec(dim=2, f=f, delta=lambda t: np.zeros(2)), np.ones(2), 0.0, 1.0, cfg)
        assert same_run(run, zero)
