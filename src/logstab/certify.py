"""Stability certification by sampling: contraction rates, convergence checks.

The contraction condition quantifies over all of state space and time; no
finite procedure can verify that, so every certificate here is explicitly
scoped to a sampled box and time window ("certified_on_domain") and carries
its sampling metadata. The checks are designed to catch every failure mode
the built-in demo scenarios exhibit, not to prove global statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, DivergedError, EvaluationError, InvalidInputError, InvalidRateError
from .integrate import IntegratorConfig, Trajectory, integrate
from .linalg import NormKind, sym_eig_max, vec_norm
from .lognorm import log_norm
from .system import SystemSpec, eval_field, eval_perturbation, jacobian

CERTIFIED = "certified_on_domain"
NOT_CERTIFIED = "not_certified"
RATIO_VANISHES = "ratio_vanishes"
RATIO_PERSISTS = "ratio_persists"
INCONCLUSIVE = "inconclusive"
DIVERGENT_INTEGRAL = "divergent_integral"
CONVERGENT_INTEGRAL = "convergent_integral"

# check_forcing_ratio thresholds on the log-log slope and level of the ratio
VANISH_SLOPE = -0.1
FLAT_SLOPE_BAND = 0.05
VANISH_DROP_FACTOR = 0.1
PERSIST_LEVEL = 0.01


@dataclass
class Domain:
    """Axis-aligned state box crossed with a time window."""

    lower: np.ndarray
    upper: np.ndarray
    t_lo: float
    t_hi: float

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise InvalidInputError("domain bounds must be matching vectors")
        if not np.all(self.lower < self.upper):
            raise InvalidInputError("domain requires lower < upper componentwise")
        if not self.t_lo < self.t_hi:
            raise InvalidInputError("domain requires t_lo < t_hi")

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass
class SamplingPlan:
    """How to sample the domain: scheme, counts, and the seed that fixes it.

    ``n_space`` is points per axis for uniform_grid (n_space**dim total) and
    the total point count per time slice for the random schemes. ``n_time``
    time slices are placed uniformly on the window; n_time == 1 uses t_lo,
    which is how single-time-slice sweeps are expressed.
    """

    n_space: int = 33
    n_time: int = 5
    scheme: str = "uniform_grid"  # "uniform_grid" | "latin_hypercube" | "uniform_random"
    seed: int = 42

    def __post_init__(self):
        if self.n_space <= 0 or self.n_time <= 0:
            raise InvalidInputError("sampling counts must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"sampling seed must be non-negative, got {self.seed}")
        if self.scheme not in ("uniform_grid", "latin_hypercube", "uniform_random"):
            raise InvalidInputError(f"unknown sampling scheme {self.scheme!r}")


def _rate(alpha_fn: Callable[[float], float], t: float) -> float:
    """alpha(t), which must be finite.

    t goes in as a Python float, so a compiled rate that divides by zero
    gives NaN, not inf and a numpy warning.
    """
    a = float(alpha_fn(float(t)))
    if not np.isfinite(a):
        raise EvaluationError(f"alpha(t) is non-finite at t={t}", t=t)
    return a


def sample_states(domain: Domain, plan: SamplingPlan) -> np.ndarray:
    """Spatial sample points (N, dim) for one time slice."""
    d = domain.dim
    if plan.scheme == "uniform_grid":
        axes = [np.linspace(domain.lower[i], domain.upper[i], plan.n_space) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(plan.seed)
    span = domain.upper - domain.lower
    if plan.scheme == "uniform_random":
        return domain.lower + rng.uniform(size=(plan.n_space, d)) * span
    # latin hypercube: one stratified, permuted sample per axis
    u = (rng.permuted(np.tile(np.arange(plan.n_space), (d, 1)), axis=1).T + rng.uniform(size=(plan.n_space, d))) / plan.n_space
    return domain.lower + u * span


def time_slices(domain: Domain, plan: SamplingPlan) -> np.ndarray:
    if plan.n_time == 1:
        return np.array([domain.t_lo])
    return np.linspace(domain.t_lo, domain.t_hi, plan.n_time)


@dataclass
class ContractionCertificate:
    """Sampled supremum of the Jacobian log norm over a domain.

    ``alpha_samples`` holds (t, sup over the spatial sweep at t); their max is
    ``mu_sup``. The verdict is certified iff mu_sup < 0 strictly, and then
    ``alpha0_estimate`` = -mu_sup is the empirical uniform contraction rate.
    When an analytic rate function is supplied, ``dominance_ok`` records
    whether the sampled suprema stay below its negation on every slice.
    """

    kind_tag: str
    mu_sup: float
    alpha0_estimate: Optional[float]
    alpha_samples: list[tuple[float, float]]
    domain: Domain
    plan: SamplingPlan
    verdict: str
    n_samples: int
    argmax_state: np.ndarray | None = None
    argmax_time: float | None = None
    dominance_ok: Optional[bool] = None
    dominance_margin: Optional[float] = None


def estimate_contraction_rate(
    sys: SystemSpec,
    domain: Domain,
    kind: NormKind,
    plan: SamplingPlan,
    alpha_fn: Callable[[float], float] | None = None,
) -> ContractionCertificate:
    """Sample mu[J(x,t)] of the nominal field over the domain.

    The perturbation never enters: it is state-independent and cancels in the
    Jacobian. The certificate is a statement about the sampled points only.
    """
    if domain.dim != sys.dim:
        raise InvalidInputError(f"domain dimension {domain.dim} != system dimension {sys.dim}")
    points = sample_states(domain, plan)
    ts = time_slices(domain, plan)
    mu_sup = -np.inf
    arg_state = None
    arg_time = None
    alpha_samples = []
    for t in ts:
        slice_sup = -np.inf
        slice_arg = None
        for x in points:
            try:
                mu = log_norm(jacobian(sys, x, t), kind)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"Jacobian evaluation failed during sweep at x={x.tolist()}, t={t}: {exc}",
                    x=x,
                    t=t,
                ) from exc
            if mu > slice_sup:
                slice_sup = mu
                slice_arg = x
        alpha_samples.append((float(t), float(slice_sup)))
        if slice_sup > mu_sup:
            mu_sup = slice_sup
            arg_state = slice_arg
            arg_time = float(t)

    certified = mu_sup < 0.0
    dominance_ok = None
    dominance_margin = None
    if alpha_fn is not None:
        margins = [sup + _rate(alpha_fn, t) for t, sup in alpha_samples]
        dominance_margin = float(max(margins))
        dominance_ok = dominance_margin <= 0.0
    return ContractionCertificate(
        kind_tag=kind.tag,
        mu_sup=float(mu_sup),
        alpha0_estimate=float(-mu_sup) if certified else None,
        alpha_samples=alpha_samples,
        domain=domain,
        plan=plan,
        verdict=CERTIFIED if certified else NOT_CERTIFIED,
        n_samples=points.shape[0] * ts.size,
        argmax_state=arg_state,
        argmax_time=arg_time,
        dominance_ok=dominance_ok,
        dominance_margin=dominance_margin,
    )


@dataclass
class DemidovichReport:
    """Negative-definiteness sweep of the weighted symmetrized Jacobian."""

    max_eigenvalue: float
    passed: bool
    sign_agreement_ok: bool
    n_samples: int
    domain: Domain
    plan: SamplingPlan


def check_demidovich(sys: SystemSpec, p, domain: Domain, plan: SamplingPlan) -> DemidovichReport:
    """Check (P J + J^T P)/2 negative definite at every sampled (x, t).

    Also cross-asserts, sample by sample, that the sign of the top eigenvalue
    matches the sign of the weighted log norm of J: the two matrices are
    congruent, so their verdicts must agree even though the values differ.
    The Jacobians are evaluated per sample and stacked per time slice; the
    eigenvalues and the log norms are one call each over a slice's stack.
    Stacking per slice rather than over the whole sweep keeps the stacked
    temporaries, and so the peak memory, n_time times smaller.
    """
    kind = NormKind.weighted(p)
    pm = kind.weight
    if pm.shape[0] != sys.dim:
        raise DimensionError(f"weight is {pm.shape[0]}x{pm.shape[0]} but system has dim {sys.dim}")
    if domain.dim != sys.dim:
        raise InvalidInputError(f"domain dimension {domain.dim} != system dimension {sys.dim}")
    points = sample_states(domain, plan)
    ts = time_slices(domain, plan)
    max_eig, signs_agree = -np.inf, True
    for t in ts:
        j = np.stack([jacobian(sys, x, t) for x in points])
        pj = pm @ j  # (P J)^T = J^T P
        lam = sym_eig_max(0.5 * (pj + np.swapaxes(pj, -1, -2)))
        mu = log_norm(j, kind)
        decided = (np.abs(lam) > 1e-12) | (np.abs(mu) > 1e-12)
        max_eig = max(max_eig, float(lam.max()))
        signs_agree = signs_agree and bool(np.all(np.sign(lam[decided]) == np.sign(mu[decided])))
    return DemidovichReport(
        max_eigenvalue=max_eig,
        passed=max_eig < 0.0,
        sign_agreement_ok=signs_agree,
        n_samples=points.shape[0] * ts.size,
        domain=domain,
        plan=plan,
    )


@dataclass
class ConvergenceReport:
    """Finite-horizon classification of the forcing-to-rate ratio.

    The asymptotic statement (ratio -> 0) is approximated by a log-log slope
    fit over the last decade of a log-spaced grid. The thresholds are the
    module constants VANISH_SLOPE, FLAT_SLOPE_BAND, VANISH_DROP_FACTOR and
    PERSIST_LEVEL, recorded here so every report states what it was judged by.
    """

    ratio_samples: list[tuple[float, float]]
    trend_slope: float
    initial_ratio: float
    peak_ratio: float
    final_ratio: float
    verdict: str
    kind_tag: str
    vanish_slope: float
    flat_slope_band: float
    vanish_drop_factor: float
    persist_level: float


def check_forcing_ratio(
    sys: SystemSpec,
    alpha_fn: Callable[[float], float],
    t_lo: float,
    t_hi: float,
    n_samples: int = 200,
    kind: NormKind | None = None,
) -> ConvergenceReport:
    """Sample |f(0,t) + delta(t)| / alpha(t) and classify its trend.

    Verdicts: ratio_vanishes when the log-log slope over the last decade is
    below VANISH_SLOPE and the final ratio dropped below
    VANISH_DROP_FACTOR times the sampled peak (the peak, not the first
    sample, is the drop reference: ratios that rise from zero before decaying
    would otherwise defeat the test); ratio_persists when the slope sits
    within FLAT_SLOPE_BAND of zero at a level above PERSIST_LEVEL;
    inconclusive otherwise.
    """
    if kind is None:
        kind = NormKind.l2()
    if n_samples < 10:
        raise InvalidInputError("need at least 10 ratio samples")
    if t_hi <= t_lo:
        raise InvalidInputError("need t_hi > t_lo")
    t_start = t_lo if t_lo > 0.0 else t_hi * 1e-3
    if t_start >= t_hi:
        raise InvalidInputError("time window too short for a log-spaced grid")
    ts = np.geomspace(t_start, t_hi, n_samples)
    zero = np.zeros(sys.dim)
    samples = []
    for t in ts:
        a = _rate(alpha_fn, t)
        if a <= 0.0:
            raise InvalidRateError(f"alpha(t) = {a} <= 0 at t = {t}")
        forcing = eval_field(sys, zero, t) + eval_perturbation(sys, t)
        samples.append((float(t), vec_norm(forcing, kind) / a))

    ratios = np.array([r for _, r in samples])
    initial_ratio = float(ratios[0])
    peak_ratio = float(ratios.max())
    final_ratio = float(ratios[-1])

    tail = np.array([(t, r) for t, r in samples if t >= t_hi / 10.0])
    positive = tail[:, 1] > 0.0
    if positive.sum() < 3:
        # ratio is (numerically) identically zero on the tail: it vanished
        verdict = RATIO_VANISHES if np.all(ratios[-5:] < 1e-14 * max(1.0, peak_ratio)) else INCONCLUSIVE
        slope = -np.inf if verdict == RATIO_VANISHES else 0.0
    else:
        log_t = np.log10(tail[positive, 0])
        log_r = np.log10(tail[positive, 1])
        slope = float(np.polyfit(log_t, log_r, 1)[0])
        if slope < VANISH_SLOPE and final_ratio < VANISH_DROP_FACTOR * peak_ratio:
            verdict = RATIO_VANISHES
        elif abs(slope) <= FLAT_SLOPE_BAND and final_ratio > PERSIST_LEVEL:
            verdict = RATIO_PERSISTS
        else:
            verdict = INCONCLUSIVE

    return ConvergenceReport(
        ratio_samples=samples,
        trend_slope=float(slope),
        initial_ratio=initial_ratio,
        peak_ratio=peak_ratio,
        final_ratio=final_ratio,
        verdict=verdict,
        kind_tag=kind.tag,
        vanish_slope=VANISH_SLOPE,
        flat_slope_band=FLAT_SLOPE_BAND,
        vanish_drop_factor=VANISH_DROP_FACTOR,
        persist_level=PERSIST_LEVEL,
    )


@dataclass
class IncrementalBoundReport:
    """Worst violation of the pairwise exponential contraction bound."""

    pair_count: int
    alpha0: float
    kind_tag: str
    worst_violation: float
    tolerance: float
    passed: bool
    worst_pair_index: int


def verify_incremental_bound(
    sys: SystemSpec,
    initial_pairs: list,
    t0: float,
    tf: float,
    alpha0: float,
    kind: NormKind | None = None,
    cfg: IntegratorConfig | None = None,
    n_output: int = 200,
    tol_base: float = 1e-6,
) -> IncrementalBoundReport:
    """Integrate each pair and compare |x - x*| against its exponential bound.

    The bound is evaluated on a shared output grid in the chosen norm;
    tolerance budget is tol_base + 10x the accumulated local-error estimates
    of the two integrations. A divergent trajectory is re-raised as evidence
    against the certificate that motivated the check.
    """
    if kind is None:
        kind = NormKind.l2()
    if alpha0 <= 0.0:
        raise InvalidInputError("alpha0 must be positive")
    if not initial_pairs:
        raise InvalidInputError("need at least one initial pair")
    grid = np.linspace(t0, tf, n_output)
    worst = -np.inf
    worst_idx = -1
    tolerance = tol_base
    for idx, (xa, xb) in enumerate(initial_pairs):
        try:
            tr_a = integrate(sys, np.asarray(xa, dtype=float), t0, tf, cfg, sample_times=grid)
            tr_b = integrate(sys, np.asarray(xb, dtype=float), t0, tf, cfg, sample_times=grid)
        except DivergedError as exc:
            raise DivergedError(
                f"pair {idx} diverged (evidence against the contraction certificate): {exc}",
                exc.last_time,
            ) from exc
        dist = vec_norm(tr_a.states - tr_b.states, kind)
        bound = dist[0] * np.exp(-alpha0 * (grid - t0))
        violation = float(np.max(dist - bound))
        if violation > worst:
            worst = violation
            worst_idx = idx
        tolerance = max(tolerance, tol_base + 10.0 * (tr_a.error_estimate + tr_b.error_estimate))
    return IncrementalBoundReport(
        pair_count=len(initial_pairs),
        alpha0=float(alpha0),
        kind_tag=kind.tag,
        worst_violation=float(worst),
        tolerance=float(tolerance),
        passed=bool(worst <= tolerance),
        worst_pair_index=worst_idx,
    )


@dataclass
class RateIntegralReport:
    """Finite-horizon divergence heuristic for the rate integral."""

    verdict: str
    horizon: float
    partial_totals: list[float]
    increments: list[float]
    note: str = "finite-horizon heuristic: classification from doubling-horizon increments"


def classify_rate_integral(
    alpha_fn: Callable[[float], float],
    t0: float,
    horizon: float,
    n_doublings: int = 8,
    panels_per_segment: int = 128,
) -> RateIntegralReport:
    """Decide whether the integral of alpha looks divergent up to the horizon.

    Partial integrals are taken at doubling horizons ending at ``horizon``.
    Divergent: the last doubling adds more than 10% of the running total.
    Convergent: the increments shrink geometrically (each at most 3/4 of the
    previous across the last doublings). Anything else is inconclusive. This
    can only ever be evidence, not proof; the verdict says so via ``note``.
    A rate that is non-finite at a quadrature node raises EvaluationError
    naming that t.
    """
    if horizon <= t0:
        raise InvalidInputError("horizon must exceed t0")
    span = horizon - t0
    edges = [t0 + span / 2**k for k in range(n_doublings, -1, -1)]

    def simpson(a: float, b: float) -> float:
        xs = np.linspace(a, b, 2 * panels_per_segment + 1)
        vals = np.array([_rate(alpha_fn, x) for x in xs])
        h = (b - a) / (2 * panels_per_segment)
        return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))

    increments = [simpson(t0, edges[0])]
    for a, b in zip(edges, edges[1:]):
        increments.append(simpson(a, b))
    totals = list(np.cumsum(increments))
    total = totals[-1]

    if total > 0.0 and increments[-1] > 0.1 * total:
        verdict = DIVERGENT_INTEGRAL
    else:
        tail = increments[-3:]
        shrinking = all(b <= 0.75 * a for a, b in zip(tail, tail[1:])) and len(tail) >= 2
        verdict = CONVERGENT_INTEGRAL if shrinking else INCONCLUSIVE
    return RateIntegralReport(
        verdict=verdict,
        horizon=float(horizon),
        partial_totals=[float(v) for v in totals],
        increments=[float(v) for v in increments],
    )


@dataclass
class OriginConvergenceReport:
    """Tail-window evidence that a trajectory settles at the target point."""

    tail_max: float
    mid_max: float
    tol: float
    tail_fraction: float
    converged: bool
    kind_tag: str


def verify_origin_convergence(
    traj: Trajectory,
    kind: NormKind | None = None,
    tail_fraction: float = 0.2,
    tol: float = 0.01,
    target=None,
) -> OriginConvergenceReport:
    """Check the trajectory tail is small and decaying toward ``target``.

    Converged means the tail max of |x - target| is below ``tol`` and at most
    half the mid-trajectory max (decay evidence, not just smallness). The
    target defaults to the origin; shifted limits pass it explicitly.
    """
    if kind is None:
        kind = NormKind.l2()
    m = traj.times.size
    tail_len = int(np.ceil(tail_fraction * m))
    if tail_len < 10:
        raise InvalidInputError(
            f"tail window has {tail_len} samples; need >= 10 (trajectory too short)"
        )
    offset = np.zeros(traj.dim) if target is None else np.asarray(target, dtype=float)
    norms = vec_norm(traj.states - offset, kind)
    tail_max = float(norms[-tail_len:].max())
    mid_max = float(norms[m // 3 : max(m // 3 + 1, 2 * m // 3)].max())
    converged = tail_max < tol and tail_max <= 0.5 * mid_max
    return OriginConvergenceReport(
        tail_max=tail_max,
        mid_max=mid_max,
        tol=tol,
        tail_fraction=tail_fraction,
        converged=bool(converged),
        kind_tag=kind.tag,
    )
