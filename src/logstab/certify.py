"""Stability certification by sampling: contraction rates, convergence checks.

The contraction condition quantifies over all of state space and time; no
finite procedure can verify that, so every certificate here is explicitly
scoped to a sampled box and time window ("certified_on_domain") and carries
its sampling metadata. The checks are designed to catch every failure mode
the built-in demo scenarios exhibit, not to prove global statements.

The contraction sweep and the Demidovich check call ``system.jacobian``
directly; a Jacobian that cannot be evaluated raises EvaluationError naming
the failing sample's x and t (or, for a stacked output of the wrong shape,
the stack). The Demidovich check makes one stacked Jacobian call per time
slice (see the stack contract in ``system``); the contraction sweep still
takes one Jacobian and one log norm per sample. Every rate alpha(t) is
evaluated through ``system._at_times``, which names the first t where it is
not a finite number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, DivergedError, InvalidInputError, InvalidRateError
from .errors import check_array, check_count, check_positive, check_window
from .integrate import Trajectory, _cumulative_simpson, _simpson_nodes, error_budget, integrate
from .linalg import NormKind, sym_eig_max, vec_norm
from .lognorm import log_norm
from .system import SystemSpec, _at_times, eval_rhs, jacobian

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

# verify_origin_convergence judges the last TAIL_FRACTION of the trajectory's samples
TAIL_FRACTION = 0.2


def _equal_by_value(a, b) -> bool:
    """``==`` for a dataclass with array fields: field by field, an array by its shape and values."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)]
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y for x, y in pairs
    )


@dataclass
class Domain:
    """Axis-aligned state box crossed with a time window; ``==`` compares by value."""

    lower: np.ndarray
    upper: np.ndarray
    t_lo: float
    t_hi: float

    def __post_init__(self):
        self.lower = check_array(self.lower, "lower", (None,))
        self.upper = check_array(self.upper, "upper", self.lower.shape)
        if not np.all(self.lower < self.upper):
            raise InvalidInputError("domain requires lower < upper componentwise")
        check_window(self.t_lo, self.t_hi, "t_lo", "t_hi")

    __eq__ = _equal_by_value

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
        check_count(self.n_space, "n_space")
        check_count(self.n_time, "n_time")
        check_count(self.seed, "seed", 0)
        if self.scheme not in ("uniform_grid", "latin_hypercube", "uniform_random"):
            raise InvalidInputError(f"unknown sampling scheme {self.scheme!r}")


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
    return np.linspace(domain.t_lo, domain.t_hi, plan.n_time)


def _sweep(sys: SystemSpec, domain: Domain, kind: NormKind, plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray, int]:
    """The sample points (N, dim) and time slices of a sweep of ``sys`` over ``domain``, and their count.

    Checks first that the norm's weight and the domain fit the system.
    """
    kind.check_fits(sys.dim)
    check_array(domain.lower, "domain.lower", (sys.dim,))
    points = sample_states(domain, plan)
    ts = time_slices(domain, plan)
    return points, ts, points.shape[0] * ts.size


@dataclass
class ContractionCertificate:
    """Sampled supremum of the Jacobian log norm over a domain.

    ``alpha_samples`` holds (t, sup over the spatial sweep at t); their max is
    ``mu_sup``. The verdict is certified iff mu_sup < 0 strictly, and then
    ``alpha0_estimate`` = -mu_sup is the empirical uniform contraction rate.
    When an analytic rate function is supplied, ``dominance_ok`` records
    whether the sampled suprema stay below its negation on every slice.
    ``==`` compares by value.
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

    __eq__ = _equal_by_value


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
    points, ts, n_samples = _sweep(sys, domain, kind, plan)
    sups, arg_index = [], []
    for t in ts:
        # one jacobian and one log_norm call per sample; perfbench/tests count the spans of both
        mus = np.array([log_norm(jacobian(sys, x, t), kind) for x in points])
        arg_index.append(int(np.argmax(mus)))  # the first maximum wins, in each slice and across them
        sups.append(float(mus[arg_index[-1]]))
    best = int(np.argmax(sups))
    mu_sup = sups[best]
    certified = mu_sup < 0.0
    dominance_margin = None if alpha_fn is None else float(np.max(np.add(sups, _at_times("alpha", alpha_fn, ts))))
    return ContractionCertificate(
        kind_tag=kind.tag,
        mu_sup=mu_sup,
        alpha0_estimate=-mu_sup if certified else None,
        alpha_samples=[(float(t), sup) for t, sup in zip(ts, sups)],
        domain=domain,
        plan=plan,
        verdict=CERTIFIED if certified else NOT_CERTIFIED,
        n_samples=n_samples,
        argmax_state=points[arg_index[best]],
        argmax_time=float(ts[best]),
        dominance_ok=None if dominance_margin is None else dominance_margin <= 0.0,
        dominance_margin=dominance_margin,
    )


@dataclass
class DemidovichReport:
    """Negative-definiteness sweep of the weighted symmetrized Jacobian; ``==`` compares by value."""

    max_eigenvalue: float
    passed: bool
    sign_agreement_ok: bool
    n_samples: int
    domain: Domain
    plan: SamplingPlan

    __eq__ = _equal_by_value


def check_demidovich(sys: SystemSpec, p, domain: Domain, plan: SamplingPlan) -> DemidovichReport:
    """Check (P J + J^T P)/2 negative definite at every sampled (x, t).

    Also cross-asserts, sample by sample, that the sign of the top eigenvalue
    matches the sign of the weighted log norm of J: the two matrices are
    congruent, so their verdicts must agree even though the values differ.
    The Jacobians, the eigenvalues and the log norms are one call each over a
    time slice's stack of samples. Stacking per slice rather than over the
    whole sweep keeps the stacked temporaries, and so the peak memory, n_time
    times smaller.
    """
    kind = NormKind.weighted(p)
    pm = kind.weight
    points, ts, n_samples = _sweep(sys, domain, kind, plan)
    max_eig, signs_agree = -np.inf, True
    for t in ts:
        j = jacobian(sys, points, t)
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
        n_samples=n_samples,
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

    The ratio is sampled on a log-spaced grid, which needs t_hi > 0. It runs
    from t_lo when t_lo > 0, and from t_hi / 1000 otherwise: on [-5, 10] it
    starts at 0.01, and the window before that is not sampled.
    """
    if kind is None:
        kind = NormKind.l2()
    kind.check_fits(sys.dim)
    check_count(n_samples, "n_samples", 10)
    check_window(t_lo, t_hi, "t_lo", "t_hi")
    if t_hi <= 0.0:
        raise InvalidInputError(f"a log-spaced grid needs t_hi > 0, got [{t_lo}, {t_hi}]")
    start = t_lo if t_lo > 0.0 else t_hi * 1e-3
    if start == 0.0:
        raise InvalidInputError(f"the log-spaced grid's first point t_hi / 1000 underflows to 0 on [{t_lo}, {t_hi}]")
    ts = np.geomspace(start, t_hi, n_samples)
    rates = _at_times("alpha", alpha_fn, ts)
    if np.any(rates <= 0.0):
        i = int(np.argmax(rates <= 0.0))
        raise InvalidRateError(f"alpha(t) = {rates[i]} <= 0 at t = {ts[i]}")
    zero = np.zeros(sys.dim)
    forcing = np.array([eval_rhs(sys, zero, t) for t in ts])
    ratios = vec_norm(forcing, kind) / rates
    initial_ratio = float(ratios[0])
    peak_ratio = float(ratios.max())
    final_ratio = float(ratios[-1])

    positive = (ts >= t_hi / 10.0) & (ratios > 0.0)  # the tail's positive ratios
    if positive.sum() < 3:
        # ratio is (numerically) identically zero on the tail: it vanished
        verdict = RATIO_VANISHES if np.all(ratios[-5:] < 1e-14 * max(1.0, peak_ratio)) else INCONCLUSIVE
        slope = -np.inf if verdict == RATIO_VANISHES else 0.0
    else:
        log_t = np.log10(ts[positive])
        log_r = np.log10(ratios[positive])
        slope = float(np.polyfit(log_t, log_r, 1)[0])
        if slope < VANISH_SLOPE and final_ratio < VANISH_DROP_FACTOR * peak_ratio:
            verdict = RATIO_VANISHES
        elif abs(slope) <= FLAT_SLOPE_BAND and final_ratio > PERSIST_LEVEL:
            verdict = RATIO_PERSISTS
        else:
            verdict = INCONCLUSIVE

    return ConvergenceReport(
        ratio_samples=list(zip(ts.tolist(), ratios.tolist())),
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
    n_output: int = 200,
) -> IncrementalBoundReport:
    """Integrate each pair and compare |x - x*| against its exponential bound.

    Each state is integrated under the default IntegratorConfig and the
    bound is evaluated on a shared output grid in the chosen norm. The
    tolerance is the largest over pairs of the ``error_budget`` of the
    pair's two integrations. A divergent trajectory is re-raised as evidence
    against the certificate that motivated the check.
    """
    if kind is None:
        kind = NormKind.l2()
    check_positive(alpha0, "alpha0")
    if not initial_pairs:
        raise InvalidInputError("need at least one initial pair")
    check_count(n_output, "n_output")
    kind.check_fits(sys.dim)
    pairs = []  # every state of every pair is checked before the first run
    for idx, pair in enumerate(initial_pairs):
        try:
            xa, xb = pair
        except (TypeError, ValueError):
            raise DimensionError(f"pair {idx} must be two states") from None
        pairs.append([check_array(x, f"pair {idx} state {k}", (sys.dim,)) for k, x in enumerate((xa, xb))])
    grid = np.linspace(t0, tf, n_output)
    dists, budgets = [], []  # per pair: the distance series and the error budget
    for idx, pair in enumerate(pairs):
        try:
            runs = [integrate(sys, x, t0, tf, sample_times=grid) for x in pair]
        except DivergedError as exc:
            raise DivergedError(
                f"pair {idx} diverged (evidence against the contraction certificate): {exc}",
                exc.last_time,
            ) from exc
        dists.append(vec_norm(runs[0].states - runs[1].states, kind))
        budgets.append(error_budget(*runs))
    dist = np.array(dists)
    violations = np.max(dist - dist[:, :1] * np.exp(-alpha0 * (grid - t0)), axis=1)
    worst_idx = int(np.argmax(violations))  # the first worst pair wins
    worst, tolerance = float(violations[worst_idx]), max(budgets)
    return IncrementalBoundReport(
        pair_count=len(initial_pairs),
        alpha0=float(alpha0),
        kind_tag=kind.tag,
        worst_violation=worst,
        tolerance=tolerance,
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
) -> RateIntegralReport:
    """Decide whether the integral of alpha looks divergent up to the horizon.

    Partial integrals are taken at doubling horizons ending at ``horizon``.
    Divergent: the last doubling adds more than 10% of the running total.
    Convergent: the increments shrink geometrically (each at most 3/4 of the
    previous across the last doublings). Anything else is inconclusive. This
    can only ever be evidence, not proof; the verdict says so via ``note``.
    The integral is composite Simpson with 128 panels per doubling
    segment, the quadrature of ``check_transition_bounds``: alpha is
    evaluated once at every node, and a rate that is not a finite number
    there raises EvaluationError naming the first such t. ``n_doublings``
    must be an integer >= 1 whose first segment, of length
    span / 2**n_doublings, still moves t0.
    """
    check_window(t0, horizon, "t0", "horizon")
    n_doublings = check_count(n_doublings, "n_doublings")
    span = horizon - t0
    if t0 + math.ldexp(span, -n_doublings) <= t0:
        raise InvalidInputError(f"{n_doublings} doublings of [{t0}, {horizon}] leave a first segment too short to move t0")
    edges = np.concatenate([[t0], t0 + np.ldexp(span, np.arange(-n_doublings, 1))])
    points, nodes = _simpson_nodes(edges, np.full(n_doublings + 1, 128))  # 128 panels per doubling
    totals = _cumulative_simpson(points, nodes, _at_times("alpha", alpha_fn, points))[1:]
    increments = np.diff(totals, prepend=0.0)
    total = totals[-1]

    if total > 0.0 and increments[-1] > 0.1 * total:
        verdict = DIVERGENT_INTEGRAL
    else:
        tail = increments[-3:]
        shrinking = all(b <= 0.75 * a for a, b in zip(tail, tail[1:]))
        verdict = CONVERGENT_INTEGRAL if shrinking else INCONCLUSIVE
    return RateIntegralReport(
        verdict=verdict,
        horizon=float(horizon),
        partial_totals=totals.tolist(),
        increments=increments.tolist(),
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
    tol: float = 0.01,
    target=None,
) -> OriginConvergenceReport:
    """Check the trajectory tail is small and decaying toward ``target``.

    The tail is the last TAIL_FRACTION of the samples, at least 10 of them.
    Converged means the tail max of |x - target| is below ``tol`` and at most
    half the mid-trajectory max (decay evidence, not just smallness). The
    target defaults to the origin; shifted limits pass it explicitly.
    """
    check_positive(tol, "tol")
    if kind is None:
        kind = NormKind.l2()
    m = traj.times.size
    tail_len = int(np.ceil(TAIL_FRACTION * m))
    if tail_len < 10:
        raise InvalidInputError(
            f"tail window has {tail_len} samples; need >= 10 (trajectory too short)"
        )
    offset = 0.0 if target is None else check_array(target, "target", traj.states.shape[1:])
    norms = vec_norm(traj.states - offset, kind)
    tail_max = float(norms[-tail_len:].max())
    mid_max = float(norms[m // 3 : max(m // 3 + 1, 2 * m // 3)].max())
    converged = tail_max < tol and tail_max <= 0.5 * mid_max
    return OriginConvergenceReport(
        tail_max=tail_max,
        mid_max=mid_max,
        tol=tol,
        tail_fraction=TAIL_FRACTION,
        converged=bool(converged),
        kind_tag=kind.tag,
    )
