"""ODE integration for trajectories and fundamental matrices.

Four methods. ``rk4`` is a classic fixed-step RK4. ``rkf45`` is an adaptive
Runge-Kutta-Fehlberg 4(5) pair with the 5th-order solution propagated (local
extrapolation) and the embedded difference used for step control. ``ndf`` is
the variable-order (1-5), quasi-constant-step NDF of Shampine & Reichelt
("The MATLAB ODE Suite", 1997): an implicit multistep method for stiff runs,
solved by a simplified Newton iteration on an explicit inverse of
I - h/((1 - kappa) gamma_k) J. ``auto``, the default, runs rkf45 and hands the
rest of the run to ndf once the run has turned stiff.

The stiffness test costs no extra field evaluations. Each accepted RKF45 step
has two evaluations at t + h: the stage k5 = f(t + h, Y5) and the next first
stage f(t + h, y5). Their quotient

    sigma = <f(t + h, y5) - k5, y5 - Y5> / |y5 - Y5|^2

samples the numerical range of J, whose upper end is mu2[J] (Hairer &
Wanner's stiffness test, with the sign kept). ``auto`` switches once
h * (-sigma) >= STIFF_THETA on STIFF_RUN consecutive accepted steps; a
rotation has sigma = 0 and an expanding field sigma > 0, so neither switches.

The adaptive methods share one run object, ``_Run``. It holds the accepted
nodes and the counters, and it alone ends or fails a run (tf reached, step
budget spent, step size underflow) and accepts a node (evaluate f there,
require it finite, store it). ``rkf45`` and ``ndf`` are step rules that
propose steps to it; ``auto`` hands the same run from one to the other. ``rk4``
knows its step count up front and never rejects, so it fills its own arrays.

Every method stores the field at its accepted nodes, so one dense-output path,
cubic Hermite on the stored derivatives, samples every run.

The fundamental matrix of a linear time-varying system is integrated with
the same machinery as one n^2-dimensional matrix ODE, so all n columns share
the integrator's own grid. The transition-bound checker then compares
propagator norms against the exponential envelopes built from integrals of
the logarithmic norm along the grid, as stacked array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConditioningError, DimensionError, DivergedError, InvalidInputError
from .linalg import NormKind, cond_2, induced_matrix_norm, solve, vec_norm
from .lognorm import log_norm_pair
from .system import SystemSpec, eval_rhs, jacobian

METHODS = ("auto", "rkf45", "rk4", "ndf")

# Fehlberg 4(5) tableau
_C2, _C3, _C4, _C5, _C6 = 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5
_A21 = 0.25
_A31, _A32 = 3.0 / 32.0, 9.0 / 32.0
_A41, _A42, _A43 = 1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0
_A51, _A52, _A53, _A54 = 439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0
_A61, _A62, _A63, _A64, _A65 = -8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0
_B51, _B53, _B54, _B55, _B56 = 16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0
# b5 - b4, the embedded local error weights
_E1, _E3, _E4, _E5, _E6 = 1.0 / 360.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0

# ``auto`` hands over to ndf once h * (-sigma) >= STIFF_THETA on STIFF_RUN
# consecutive accepted RKF45 steps (see the module docstring)
STIFF_THETA = 0.25
STIFF_RUN = 3

# NDF coefficients by order k (index 0 unused): kappa_k, gamma_k = sum_{j<=k} 1/j,
# the Newton scaling (1 - kappa_k) gamma_k, and the error constant
# kappa_k gamma_k + 1/(k + 1) of the local error estimate
_NDF_MAX_ORDER = 5
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, _NDF_MAX_ORDER + 1))])
_NDF_ALPHA = (1.0 - _KAPPA) * _GAMMA
_NDF_ERR = _KAPPA * _GAMMA + 1.0 / np.arange(1, _NDF_MAX_ORDER + 2)
_NEWTON_ITERS = 4


@dataclass
class IntegratorConfig:
    """Step-size and tolerance knobs for every integration method.

    ``method`` is one of METHODS: ``auto`` (rkf45, then ndf once the run turns
    stiff), ``rkf45``, ``rk4`` or ``ndf``. ``step`` is the fixed step for rk4
    and the initial step of the adaptive methods. ``max_step`` caps adaptive
    growth; stiff late-time dynamics (rates like -t^3) otherwise provoke large
    rejected excursions. ``max_steps`` bounds accepted plus rejected steps,
    over both phases of an ``auto`` run.
    """

    method: str = "auto"
    step: float = 0.01
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.1
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown integrator method {self.method!r}; expected one of {', '.join(METHODS)}")
        if self.step <= 0.0 or self.max_step <= 0.0:
            raise InvalidInputError("step sizes must be positive")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_steps <= 0:
            raise InvalidInputError("max_steps must be positive")


@dataclass
class Trajectory:
    """Time-stamped states of one integration run.

    ``derivs`` holds the field evaluations at the grid nodes when the
    trajectory is the integrator's own grid (used for dense resampling);
    resampled trajectories carry None. ``error_estimate`` accumulates the
    max-abs local-error estimates of accepted steps (0 for fixed-step runs).
    ``stiff_from`` is the time at which an ``auto`` run switched to ndf, and
    None when it did not switch or ran another method.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: Optional[np.ndarray] = None
    error_estimate: float = 0.0
    n_steps: int = 0
    n_rejected: int = 0
    stiff_from: Optional[float] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.times.ndim != 1:
            raise InvalidInputError("trajectory needs 1-D times and 2-D states")
        if self.times.shape[0] != self.states.shape[0]:
            raise InvalidInputError("times and states lengths differ")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise InvalidInputError("trajectory times must strictly increase")
        if not np.all(np.isfinite(self.states)):
            raise InvalidInputError("trajectory states must be finite")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def sample(self, ts) -> np.ndarray:
        """States at the requested times via cubic Hermite interpolation."""
        if self.derivs is None:
            raise InvalidInputError("trajectory has no stored derivatives to interpolate with")
        return _hermite_sample(self.times, self.states, self.derivs, np.asarray(ts, dtype=float))


@dataclass
class FundamentalTrajectory:
    """Fundamental matrix solution on one time grid, matrices[0] = I.

    ``error_estimate`` and ``n_steps`` are those of the single matrix-ODE
    run that produced every column.
    """

    times: np.ndarray
    matrices: np.ndarray
    error_estimate: float = 0.0
    n_steps: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.matrices = np.asarray(self.matrices, dtype=float)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise InvalidInputError("matrices must be a stack of square matrices")
        if self.times.shape[0] != self.matrices.shape[0]:
            raise InvalidInputError("times and matrices lengths differ")
        if not np.allclose(self.matrices[0], np.eye(self.matrices.shape[1])):
            raise InvalidInputError("fundamental trajectory must start at the identity")
        if not np.all(np.isfinite(self.matrices)):
            raise InvalidInputError("fundamental matrices must be finite")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def _hermite_sample(times, states, derivs, ts) -> np.ndarray:
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    h = times[idx + 1] - times[idx]
    s = (ts - times[idx]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = (2.0 * s3 - 3.0 * s2 + 1.0)[:, None]
    h10 = (s3 - 2.0 * s2 + s)[:, None]
    h01 = (-2.0 * s3 + 3.0 * s2)[:, None]
    h11 = (s3 - s2)[:, None]
    hcol = h[:, None]
    return (
        h00 * states[idx]
        + h10 * hcol * derivs[idx]
        + h01 * states[idx + 1]
        + h11 * hcol * derivs[idx + 1]
    )


def _validate_sample_times(ts, t0: float, tf: float) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidInputError("sample_times must be a non-empty 1-D sequence")
    if ts.size > 1 and not np.all(np.diff(ts) > 0.0):
        raise InvalidInputError("sample_times must strictly increase")
    slack = 1e-9 * max(1.0, abs(t0), abs(tf))
    if ts[0] < t0 - slack or ts[-1] > tf + slack:
        raise InvalidInputError(f"sample_times must lie within [{t0}, {tf}]")
    return np.clip(ts, t0, tf)


def integrate(
    sys: SystemSpec,
    x0,
    t0: float,
    tf: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> Trajectory:
    """Integrate dx/dt = f(x,t) + delta(t) from t0 to tf.

    Returns the integrator's own grid, or a dense resampling when
    ``sample_times`` is given. Raises DivergedError (carrying the last valid
    time) on state blow-up, step underflow, or step-budget exhaustion, and
    ConditioningError when the ndf iteration matrix is singular.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if tf <= t0:
        raise InvalidInputError(f"need tf > t0, got [{t0}, {tf}]")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,):
        raise DimensionError(f"x0 has shape {x0.shape}, system dimension is {sys.dim}")

    eval_rhs(sys, x0, t0)  # validated once; the loop uses the fast path

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return sys.f(y, t) + sys.delta(t)

    if cfg.method == "rk4":
        traj = _integrate_rk4(rhs, x0, t0, tf, cfg)
    else:
        run = _Run(rhs, x0, t0, tf, cfg)
        if cfg.method != "ndf":
            _rkf45_steps(run, watch_stiffness=cfg.method == "auto")
        if cfg.method == "ndf" or run.stiff_from is not None:
            _ndf_steps(run, lambda t, y: jacobian(sys, y, t))
        traj = run.trajectory()

    if sample_times is None:
        return traj
    ts = _validate_sample_times(sample_times, t0, tf)
    return replace(traj, times=ts, states=traj.sample(ts), derivs=None)


def _integrate_rk4(rhs, x0, t0, tf, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4; a non-finite field shows up as the state blowing up one step later."""
    h_target = min(cfg.step, cfg.max_step)
    n = max(1, int(np.ceil((tf - t0) / h_target - 1e-12)))
    if n > cfg.max_steps:
        raise DivergedError(f"fixed-step run needs {n} steps, budget is {cfg.max_steps}", t0)
    h = (tf - t0) / n
    times = np.empty(n + 1)
    states = np.empty((n + 1, x0.size))
    derivs = np.empty((n + 1, x0.size))
    t, y = t0, x0.copy()
    times[0] = t
    states[0] = y
    f_cur = rhs(t, y)
    derivs[0] = f_cur
    for k in range(n):
        k1 = f_cur
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + (k + 1) * h
        if not np.all(np.isfinite(y)):
            raise DivergedError(f"state blew up near t={t}", times[k])
        f_cur = rhs(t, y)
        times[k + 1] = t
        states[k + 1] = y
        derivs[k + 1] = f_cur
    times[-1] = tf
    return Trajectory(times, states, derivs, error_estimate=0.0, n_steps=n)


class _Run:
    """The accepted nodes and counters of one adaptive run (see the module docstring).

    A step rule loops while ``running()``, calls ``check(h)`` before it tries
    a step of size h, and reports the outcome through ``accept`` or ``reject``.
    """

    def __init__(self, rhs, x0: np.ndarray, t0: float, tf: float, cfg: IntegratorConfig):
        self.rhs = rhs
        self.tf = tf
        self.cfg = cfg
        self.times = [t0]
        self.states = [x0.copy()]
        self.derivs = [np.asarray(rhs(t0, x0), dtype=float)]
        self.error = 0.0  # sum of the max-abs local-error estimates of accepted steps
        self.n_steps = 0
        self.n_rejected = 0
        self.non_finite = False  # a trial step met a non-finite value since the last accepted node
        self.stiff_from = None
        self.tiny = 1e-12 * max(1.0, abs(tf - t0))

    def running(self) -> bool:
        return self.times[-1] < self.tf - self.tiny

    def check(self, h: float) -> None:
        """Raise DivergedError when the step budget is spent or h has underflowed."""
        t = self.times[-1]
        if self.n_steps + self.n_rejected >= self.cfg.max_steps:
            raise DivergedError(f"step budget {self.cfg.max_steps} exhausted at t={t}", t)
        if h < 1e-14 * max(1.0, abs(t)):
            if self.non_finite:
                raise DivergedError(f"field non-finite near t={t}: steps shrank to underflow", t)
            raise DivergedError(f"step size underflow at t={t}", t)

    def reject(self, non_finite: bool = False) -> None:
        self.n_rejected += 1
        self.non_finite = self.non_finite or non_finite

    def accept(self, t: float, y: np.ndarray, err: float) -> np.ndarray:
        """Store the node (t, y) with a local-error estimate err; returns the field there."""
        f = self.rhs(t, y)
        if not np.all(np.isfinite(f)):
            raise DivergedError(f"field non-finite after step to t={t}", self.times[-1])
        self.times.append(t)
        self.states.append(y)
        self.derivs.append(np.asarray(f, dtype=float))
        self.error += err
        self.n_steps += 1
        self.non_finite = False
        return f

    def trajectory(self) -> Trajectory:
        return Trajectory(
            np.array(self.times),
            np.array(self.states),
            np.array(self.derivs),
            error_estimate=self.error,
            n_steps=self.n_steps,
            n_rejected=self.n_rejected,
            stiff_from=self.stiff_from,
        )


def _rkf45_steps(run: _Run, watch_stiffness: bool) -> None:
    """RKF45 steps to tf; with ``watch_stiffness`` it stops, setting ``stiff_from``, where the run turns stiff."""
    cfg, rhs, tf = run.cfg, run.rhs, run.tf
    t, y, f_cur = run.times[-1], run.states[-1], run.derivs[-1]
    h = min(cfg.step, cfg.max_step, tf - t)
    stiff_steps = 0  # consecutive accepted steps with h * (-sigma) >= STIFF_THETA

    while run.running():
        h = min(h, tf - t)
        run.check(h)
        k1 = f_cur
        k2 = rhs(t + _C2 * h, y + (h * _A21) * k1)
        k3 = rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        y_stage5 = y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
        k5 = rhs(t + _C5 * h, y_stage5)
        k6 = rhs(t + _C6 * h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y5 = y + h * (_B51 * k1 + _B53 * k3 + _B54 * k4 + _B55 * k5 + _B56 * k6)
        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6)
        if not (np.all(np.isfinite(y5)) and np.all(np.isfinite(err_vec))):
            # an oversized step can overflow, so shrink before giving up
            run.reject(non_finite=True)
            h *= 0.1
            continue

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(err_vec) / scale))
        if err > 1.0:
            run.reject()
            h *= max(0.1, 0.9 * err ** -0.2)
            continue
        t = t + h
        y = y5
        f_cur = run.accept(t, y, float(np.max(np.abs(err_vec))))
        if watch_stiffness:
            gap = y5 - y_stage5  # h * (-sigma) >= theta, without dividing by |gap|^2
            gap2 = gap @ gap
            stiff_steps = stiff_steps + 1 if gap2 > 0.0 and h * (gap @ (k5 - f_cur)) >= STIFF_THETA * gap2 else 0
            if stiff_steps >= STIFF_RUN and run.running():
                run.stiff_from = t
                return
        grow = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h = min(h * min(5.0, max(0.2, grow)), cfg.max_step)


def _rescale_differences(diffs: np.ndarray, order: int, factor: float) -> None:
    """Re-express the backward differences of the interpolant on the step h * factor, in place.

    Row i of diffs holds the i-th backward difference on steps of h. With
    R(r)[i, j] = prod_{m=1..i} (m - 1 - r j) / m, the differences on the new
    step are (R(factor) R(1))^T diffs[:order + 1].
    """

    def r_matrix(r: float) -> np.ndarray:
        j = np.arange(1, order + 1)
        steps = np.zeros((order + 1, order + 1))
        steps[0] = 1.0
        steps[1:, 1:] = (j[:, None] - 1.0 - r * j) / j[:, None]
        return np.cumprod(steps, axis=0)

    diffs[: order + 1] = (r_matrix(factor) @ r_matrix(1.0)).T @ diffs[: order + 1]


def _iteration_inverse(j_mat: np.ndarray, c: float, t: float) -> np.ndarray:
    """Explicit inverse of the Newton matrix I - c J; ConditioningError when it is singular."""
    m = np.eye(j_mat.shape[0]) - c * j_mat
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = None
    cond = np.inf if inv is None else np.abs(m).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    if not cond * np.finfo(float).eps < 1.0:
        raise ConditioningError(f"ndf iteration matrix I - {c:.6g} J is singular at t={t} (condition {cond:.3g})")
    return inv


def _ndf_newton(rhs, t_new, y_pred, c, psi, m_inv, scale, tol):
    """Simplified Newton iteration for the NDF corrector corr = c f(t_new, y_pred + corr) - psi.

    The iteration matrix is the inverse of I - c J with a possibly stale J.
    Returns (converged, iterations, y, corr, non_finite).
    """
    y = y_pred.copy()
    corr = np.zeros_like(y)
    prev = None
    for it in range(_NEWTON_ITERS):
        f = rhs(t_new, y)
        if not np.all(np.isfinite(f)):
            return False, it + 1, y, corr, True
        dy = m_inv @ (c * f - psi - corr)
        size = float(np.max(np.abs(dy) / scale))
        rate = None if prev is None else size / prev
        if rate is not None and (rate >= 1.0 or rate ** (_NEWTON_ITERS - it) / (1.0 - rate) * size > tol):
            return False, it + 1, y, corr, False
        y = y + dy
        corr = corr + dy
        if size == 0.0 or (rate is not None and rate / (1.0 - rate) * size < tol):
            return True, it + 1, y, corr, False
        prev = size
    return False, _NEWTON_ITERS, y, corr, False


def _ndf_steps(run: _Run, jac) -> None:
    """Variable-order NDF steps from the last node of ``run`` to tf.

    For ``ndf`` that node is t0; for ``auto`` it is where the RKF45 phase
    found the run stiff.
    """
    cfg, rhs, tf = run.cfg, run.rhs, run.tf
    t, y = run.times[-1], run.states[-1]
    h = min(cfg.step, cfg.max_step, tf - t)
    # rows 0..order hold the backward differences of the interpolant; two spare
    # rows carry the new correction and its difference for the order change
    diffs = np.zeros((_NDF_MAX_ORDER + 3, y.size))
    diffs[0] = y
    diffs[1] = h * run.derivs[-1]
    order = 1
    n_equal = 0  # accepted steps since the last change of h or order
    j_mat = jac(t, y)
    j_fresh = True  # j_mat was evaluated during the current step
    m_inv = None
    newton_tol = max(10.0 * np.finfo(float).eps / cfg.rel_tol, min(0.03, cfg.rel_tol**0.5))

    def resize(factor: float) -> None:
        nonlocal h, n_equal, m_inv
        _rescale_differences(diffs, order, factor)
        h *= factor
        n_equal = 0
        m_inv = None

    while run.running():
        h_cap = min(cfg.max_step, tf - t)
        if h > h_cap:
            resize(h_cap / h)
            h = h_cap
        run.check(h)
        t_new = t + h
        y_pred = diffs[: order + 1].sum(axis=0)
        psi = (_GAMMA[1 : order + 1] @ diffs[1 : order + 1]) / _NDF_ALPHA[order]
        c = h / _NDF_ALPHA[order]
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_pred))
        while True:
            if m_inv is None:
                m_inv = _iteration_inverse(j_mat, c, t)
            converged, n_iter, y_new, corr, bad = _ndf_newton(rhs, t_new, y_pred, c, psi, m_inv, scale, newton_tol)
            if converged or j_fresh or bad:  # a fresh J cannot help where f is undefined
                break
            j_mat = jac(t_new, y_pred)
            j_fresh = True
            m_inv = None
        if not converged:
            run.reject(non_finite=bad)
            resize(0.5)
            continue

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        local_err = _NDF_ERR[order] * corr
        err = float(np.max(np.abs(local_err) / scale))
        safety = 0.9 * (2 * _NEWTON_ITERS + 1) / (2 * _NEWTON_ITERS + n_iter)
        if err > 1.0:
            run.reject()
            resize(max(0.2, safety * err ** (-1.0 / (order + 1))))
            continue

        t = t_new
        y = y_new
        j_fresh = False
        run.accept(t, y, float(np.max(np.abs(local_err))))
        n_equal += 1
        # corr is the (order + 1)-th difference at the new node; fold it in
        diffs[order + 2] = corr - diffs[order + 1]
        diffs[order + 1] = corr
        for i in range(order, -1, -1):
            diffs[i] += diffs[i + 1]
        if n_equal < order + 1:
            continue

        # try orders k - 1, k, k + 1 and take the one that allows the longest step
        err_lo = np.max(np.abs(_NDF_ERR[order - 1] * diffs[order]) / scale) if order > 1 else np.inf
        err_hi = np.max(np.abs(_NDF_ERR[order + 1] * diffs[order + 2]) / scale) if order < _NDF_MAX_ORDER else np.inf
        with np.errstate(divide="ignore"):
            factors = np.array([err_lo, err, err_hi]) ** (-1.0 / np.arange(order, order + 3))
        best = int(np.argmax(factors))
        order += best - 1
        resize(min(10.0, safety * factors[best]))


def integrate_fundamental(
    a_fn: Callable[[float], np.ndarray],
    t0: float,
    tf: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> FundamentalTrajectory:
    """Solve dPhi/dt = A(t) Phi, Phi(t0) = I, as one matrix ODE.

    Phi is integrated as one state of dimension n^2 (row-major), so every
    column lives on the integrator's own grid, or on ``sample_times`` when
    given, resampled from that one run. A(t) must keep its shape (n, n)
    throughout; a change raises DimensionError naming the shape and t.
    """
    a0 = np.asarray(a_fn(t0), dtype=float)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise DimensionError(f"A(t) must be square, got shape {a0.shape}")
    n = a0.shape[0]

    def matrix_field(x: np.ndarray, t: float) -> np.ndarray:
        a = np.asarray(a_fn(t), dtype=float)
        if a.shape != (n, n):
            raise DimensionError(f"A(t) has shape {a.shape} at t={t}, expected ({n}, {n})")
        return (a @ x.reshape(n, n)).ravel()

    sys = SystemSpec(dim=n * n, f=matrix_field)
    traj = integrate(sys, np.eye(n).ravel(), t0, tf, cfg, sample_times=sample_times)
    mats = traj.states.reshape(-1, n, n)
    return FundamentalTrajectory(traj.times, mats, error_estimate=traj.error_estimate, n_steps=traj.n_steps)


def _cumulative_simpson(times: np.ndarray, g_nodes: np.ndarray, g_mids: np.ndarray) -> np.ndarray:
    """Cumulative integral on the grid from g at the nodes and midpoints, Simpson per subinterval."""
    out = np.zeros(times.size)
    np.cumsum((np.diff(times) / 6.0) * (g_nodes[:-1] + 4.0 * g_mids + g_nodes[1:]), out=out[1:])
    return out


@dataclass
class TransitionBoundReport:
    """Worst-case slack of the propagator-norm and state-norm envelopes.

    Violations are relative to the corresponding exponential bound, so 0
    means the bound is exactly attained and negative values mean slack. The
    report fails when any violation exceeds the tolerance budget.
    """

    kind_tag: str
    t0: float
    tf: float
    n_pairs: int
    n_states: int
    worst_upper_violation: float
    worst_lower_violation: float
    worst_state_upper_violation: float
    worst_state_lower_violation: float
    tolerance: float
    max_condition: float
    passed: bool


def check_transition_bounds(
    a_fn: Callable[[float], np.ndarray],
    kind: NormKind,
    t0: float,
    tf: float,
    n_pairs: int = 20,
    cfg: IntegratorConfig | None = None,
    n_states: int = 5,
    seed: int = 0,
    tol_base: float = 1e-6,
) -> TransitionBoundReport:
    """Verify the exponential transition-matrix and state-norm envelopes.

    For sampled grid pairs tau <= t the propagator norm ||Phi(t) Phi(tau)^-1||
    must sit between exp(-int mu[-A]) and exp(int mu[A]); random initial
    states are checked against the same envelopes from t0. The mu-integrals
    use Simpson on the integrator's own grid, so their error is dominated by
    the ODE tolerance. Tolerance budget: tol_base + 10x the local-error
    estimate accumulated by the one matrix-ODE run. The propagators,
    condition numbers and norms of all pairs and states are computed as
    stacks, one wrapper call each.
    """
    if n_pairs < 1 or n_states < 1:
        raise InvalidInputError(f"need n_pairs >= 1 and n_states >= 1, got {n_pairs} and {n_states}")
    fund = integrate_fundamental(a_fn, t0, tf, cfg)
    times = fund.times
    phi = fund.matrices
    m = times.size
    nodes = np.concatenate([times, 0.5 * (times[:-1] + times[1:])])
    mu_plus, mu_minus = log_norm_pair(np.stack([np.asarray(a_fn(t), dtype=float) for t in nodes]), kind)
    int_plus = _cumulative_simpson(times, mu_plus[:m], mu_plus[m:])
    int_minus = _cumulative_simpson(times, mu_minus[:m], mu_minus[m:])

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_pairs):  # i_t is drawn from [i_tau, m), so the draws interleave
        i_tau = int(rng.integers(0, m))
        draws.append((i_tau, int(rng.integers(i_tau, m))))
    i_tau, i_t = np.array(draws).T
    phi_tau = phi[i_tau]
    max_cond = max(1.0, float(np.max(cond_2(phi_tau))))
    # Phi(t) Phi(tau)^-1 = X, solved as Phi(tau)^T X^T = Phi(t)^T
    prop = np.swapaxes(solve(np.swapaxes(phi_tau, -1, -2), np.swapaxes(phi[i_t], -1, -2)), -1, -2)
    norm_val = induced_matrix_norm(prop, kind)
    upper = np.exp(int_plus[i_t] - int_plus[i_tau])
    lower = np.exp(-(int_minus[i_t] - int_minus[i_tau]))
    worst_up = np.max((norm_val - upper) / upper)
    worst_lo = np.max((lower - norm_val) / lower)

    t_idx = rng.integers(0, m, size=max(1, n_pairs // 2))
    x0 = rng.normal(size=(n_states, fund.dim))
    x0n = vec_norm(x0, kind)
    xtn = vec_norm(x0 @ np.swapaxes(phi[t_idx], -1, -2), kind)  # |Phi(t) x0|, shape (t, state)
    upper = np.exp(int_plus[t_idx])[:, None] * x0n
    lower = np.exp(-int_minus[t_idx])[:, None] * x0n
    worst_sup = np.max((xtn - upper) / upper)
    worst_slo = np.max((lower - xtn) / lower)

    tolerance = tol_base + 10.0 * fund.error_estimate
    passed = max(worst_up, worst_lo, worst_sup, worst_slo) <= tolerance
    return TransitionBoundReport(
        kind_tag=kind.tag,
        t0=t0,
        tf=tf,
        n_pairs=n_pairs,
        n_states=n_states,
        worst_upper_violation=float(worst_up),
        worst_lower_violation=float(worst_lo),
        worst_state_upper_violation=float(worst_sup),
        worst_state_lower_violation=float(worst_slo),
        tolerance=float(tolerance),
        max_condition=float(max_cond),
        passed=bool(passed),
    )
