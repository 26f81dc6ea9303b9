"""Logarithmic norms (matrix measures) under L1, L2, Linf and weighted norms.

Three independent routes are provided: the closed forms per norm kind, a
numerical estimator built on the one-sided limit of (||I + theta*A|| - 1)/theta,
and, for weighted norms, the quadratic-form formulation through the symmetric
pencil. Under l2 and weighted norms the closed form of a 2x2 matrix is the
exact eigenvalue formula of its symmetric part, so it makes no LAPACK call;
for n >= 3 it is the top eigenvalue of the symmetric part from eigvalsh. The
contraction sweep reads each time slice's largest mu and its first argmax
from one kernel, ``_log_norm_argmax``, under every kind and n, with the bits
of the members' log norms: it takes the closed form of every member under
l1 and linf and for n <= 2, and under l2 and weighted at n >= 3 eigvalsh
only of the members whose Gershgorin bound can reach the largest.
The estimator's thetas are relative to the matrix's scale: where the
smallest theta times the largest entry would make ||I + theta*A|| read ||A||
rather than mu[A], it works on A scaled down by a power of two and scales
the table back up by it, so it stays finite and meaningful up to entries
near the largest float.
The routes cross-validate each other; tests treat the limit estimator as the
oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_positive
from .linalg import (
    NormKind,
    as_square,
    as_square_stack,
    float_or_array,
    induced_matrix_norm,
    sym_eig,
)

DEFAULT_THETA_SEQ = tuple(10.0 ** (-k) for k in range(1, 8))

# _log_norm_argmax takes eigvalsh of this many members with the largest bounds first, for the slice's floor
_FLOOR_SAMPLES = 8
# and keeps a member whose bound plus this many n * eps * (its largest absolute row sum) reaches the floor
_EIG_SLACK = 8.0


def _diagonal_and_off_sums(m: np.ndarray, axis: int):
    """The diagonals of the stack ``m`` (..., n, n) and the sums of its off-diagonal |entries| along ``axis``.

    The off-diagonal entries alone: a whole column's (row's) sum can overflow
    where mu is finite.
    """
    n = m.shape[-1]
    a_off = np.abs(m, order="C")
    a_off.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0  # the diagonal, through a flat view
    return m.diagonal(0, -2, -1), a_off.sum(axis=axis)


def _symmetric_part(t: np.ndarray) -> np.ndarray:
    """T/2 + T^T/2: finite wherever T is, and exactly symmetric, so sym_eig's symmetry check is skipped."""
    return 0.5 * t + 0.5 * np.swapaxes(t, -1, -2)


def _closed_form(a, kind: NormKind, pair: bool):
    """mu[A] in closed form for A of shape (..., n, n); (mu[A], mu[-A]) if ``pair``.

    l2 and weighted take the symmetric part S = T/2 + T^T/2 of T, A after the
    kind's similarity transform. For n = 2 its eigenvalues are mid -/+ rad with
    mid = (t00 + t11)/2 and rad = hypot((t00 - t11)/2, (t01 + t10)/2), taken
    element by element, so a stack and its members give the same bits. For
    n >= 3 they come from eigvalsh(S), of every member of a stack; where only
    a stack's largest mu is wanted, ``_log_norm_argmax`` skips the members
    that cannot hold it.
    """
    m = as_square_stack(a)
    if kind.tag in ("l1", "linf"):
        d, off = _diagonal_and_off_sums(m, -2 if kind.tag == "l1" else -1)
        plus = (d + off).max(axis=-1)
        return (plus, (off - d).max(axis=-1)) if pair else plus
    t = kind.similarity(m)
    if t.shape[-1] == 2:
        # halving the entries first keeps every intermediate finite where the result is
        h = 0.5 * t
        h00, h11 = h[..., 0, 0], h[..., 1, 1]
        mid = h00 + h11
        rad = np.hypot(h00 - h11, h[..., 0, 1] + h[..., 1, 0])
        plus = mid + rad
        return (plus, rad - mid) if pair else plus
    eigvals = np.linalg.eigvalsh(_symmetric_part(t))
    return (eigvals[..., -1], -eigvals[..., 0]) if pair else eigvals[..., -1]


def _log_norm_argmax(a, kind: NormKind) -> tuple[int, float]:
    """(i, mu[A_i]) for the first i of the largest mu over the stack ``a`` (N, n, n), under any kind and n.

    The value has the bits of ``log_norm(a, kind)[i]``. Under l1 and linf,
    and for n <= 2, every member's closed form is cheap, so it is taken
    whole. Under l2 and weighted at n >= 3, eigvalsh(S_i) is taken only of
    the members that can hold the maximum. Each member is bounded by
    mu_inf(S_i) = max over rows of S_ii plus the off-diagonal |entries|,
    which is at least mu_2 (Gershgorin). Its rounding plus eigvalsh's
    backward error stay under _EIG_SLACK n eps times S_i's largest absolute
    row sum (at least ||S_i||_2), which is added to it. The _FLOOR_SAMPLES
    members with the largest bounds give the floor, the largest of their
    eigenvalues; a member whose bound stays below it has a computed
    eigenvalue below it too, so it can be neither the maximum nor a tie. A
    bound that overflows reads inf and keeps its member. A stack of at most
    _FLOOR_SAMPLES members, or whose S is not finite, goes through eigvalsh
    whole.
    """
    if kind.tag in ("l1", "linf") or np.shape(a)[-1] <= 2:
        mus = _closed_form(a, kind, pair=False)
        i = int(np.argmax(mus))
        return i, float(mus[i])
    s = _symmetric_part(kind.similarity(as_square_stack(a)))
    if len(s) > _FLOOR_SAMPLES and np.isfinite(s).all():
        with np.errstate(over="ignore"):
            d, off = _diagonal_and_off_sums(s, -1)
            slack = (_EIG_SLACK * s.shape[-1] * np.finfo(float).eps) * (np.abs(d) + off).max(axis=-1)
            reach = (d + off).max(axis=-1) + slack
        first = np.argpartition(reach, -_FLOOR_SAMPLES)[-_FLOOR_SAMPLES:]
        top = np.full(len(s), -np.inf)
        top[first] = np.linalg.eigvalsh(s[first])[:, -1]
        rest = reach >= top[first].max()
        rest[first] = False
        top[rest] = np.linalg.eigvalsh(s[rest])[:, -1]
    else:
        top = np.linalg.eigvalsh(s)[:, -1]
    i = int(np.argmax(top))
    return i, float(top[i])


def log_norm(a, kind: NormKind):
    """Logarithmic norm mu[A] in closed form.

    l2: half the largest eigenvalue of A + A^T; for 2x2,
    (a + d)/2 + hypot((a - d)/2, (b + c)/2) with A = [[a, b], [c, d]].
    weighted(P): same after the similarity transform sqrt(P) A sqrt(P)^-1.
    l1 (linf): max over columns (rows) of the diagonal entry plus the
    off-diagonal absolute sum, which sums the off-diagonal entries alone. So
    entries near the largest float still give a finite log norm where it is
    finite; l2 and weighted halve the entries before adding them to the
    same end.

    A is one matrix (n, n), giving a float, or a stack (..., n, n), giving
    an array of shape (...) with one value per matrix.
    """
    return float_or_array(_closed_form(a, kind, pair=False))


def log_norm_pair(a, kind: NormKind):
    """(mu[A], mu[-A]) sharing one eigendecomposition where possible.

    For l2/weighted kinds mu[-A] is -1/2 the smallest eigenvalue of the same
    symmetrized matrix, so both values cost a single solve. Like log_norm it
    takes one matrix (two floats out) or a stack (..., n, n) (two arrays of
    shape (...) out). Used by the transition-matrix bound checks.
    """
    plus, minus = _closed_form(a, kind, pair=True)
    return float_or_array(plus), float_or_array(minus)


@dataclass
class LimitEstimate:
    """Limit-definition estimate of mu[A] with convergence diagnostics.

    ``thetas`` are the thetas that the table stands for: theta / 2^k where
    log_norm_limit_table scaled A down by 2^k, so below 2^-1022 they are
    rounded. Recomputing (||I + theta A|| - 1)/theta from a rounded theta
    does not give ``raw_values`` exactly; where every theta stays normal it
    gives them bit for bit.
    """

    value: float
    thetas: list[float] = field(default_factory=list)
    raw_values: list[float] = field(default_factory=list)
    extrapolated: list[float] = field(default_factory=list)
    successive_diffs: list[float] = field(default_factory=list)


def _limit_scale(a_max: float, theta_min: float) -> int:
    """The k for which theta_min * a_max / 2^k lies in (2^-11, 2^-10]; 0 where the product is at most 2^-10.

    The product is taken as mantissas and exponents, so it cannot overflow.
    """
    (fa, ea), (ft, et) = math.frexp(a_max), math.frexp(theta_min)
    f, e = math.frexp(fa * ft)
    e += ea + et  # the product is f 2^e, and 2^-10 is 0.5 2^-9
    return e + 10 - (f == 0.5) if f and (e, f) > (-9, 0.5) else 0


def log_norm_limit_table(a, kind: NormKind, theta_seq=None) -> LimitEstimate:
    """Evaluate (||I + theta*A|| - 1)/theta along a theta sequence.

    Adjacent pairs are Richardson-extrapolated assuming a linear-in-theta
    error term; the returned value is the extrapolation of the final pair.
    Successive differences of the raw values are recorded as convergence
    evidence (they are expected to shrink monotonically until roundoff).

    The thetas are relative to the matrix's scale. Where the smallest theta
    times max |a_ij| exceeds 2^-10, I + theta A would read ||A|| rather than
    mu[A]. There the table is built on B = A / s, with s the power of two
    that puts that product in (2^-11, 2^-10]; each value, extrapolation and
    difference is taken on B and then multiplied by s, and each theta divided
    by s, before the one LimitEstimate is made. That is the table of A along
    theta / s, the thetas it records. With the default sequence, s is 1, and
    nothing is scaled, for every matrix whose entries are under about 9.8e3.
    """
    m = as_square(a)
    if theta_seq is None:
        theta_seq = DEFAULT_THETA_SEQ
    thetas = [check_positive(t, f"theta_seq[{i}]") for i, t in enumerate(theta_seq)]
    if not thetas:
        raise InvalidInputError("theta sequence must be non-empty")
    if any(t2 >= t1 for t1, t2 in zip(thetas, thetas[1:])):
        raise InvalidInputError("theta sequence must be strictly decreasing")

    k = _limit_scale(float(np.abs(m).max()), thetas[-1])
    th = np.array(thetas)
    norms = induced_matrix_norm(np.eye(m.shape[0]) + th[:, None, None] * (np.ldexp(m, -k) if k else m), kind)
    raw = ((norms - 1.0) / th).tolist()
    extrap = [
        (t1 * g2 - t2 * g1) / (t1 - t2)
        for (t1, g1), (t2, g2) in zip(zip(thetas, raw), zip(thetas[1:], raw[1:]))
    ]
    value = extrap[-1] if extrap else raw[-1]
    diffs = [abs(g2 - g1) for g1, g2 in zip(raw, raw[1:])]
    if k:
        # A = 2^k B along theta / 2^k; a value beyond the float range, such as ||A|| at a large theta, reads inf
        with np.errstate(over="ignore"):
            value = np.ldexp(value, k)
            thetas = np.ldexp(thetas, -k).tolist()
            raw, extrap, diffs = [np.ldexp(v, k).tolist() for v in (raw, extrap, diffs)]
    return LimitEstimate(float(value), thetas, raw, extrap, diffs)


def log_norm_limit_estimate(a, kind: NormKind, theta_seq=None) -> float:
    """Richardson-extrapolated limit estimate of mu[A]; oracle for log_norm."""
    return log_norm_limit_table(a, kind, theta_seq).value


def log_norm_quadratic_form(a, p) -> float:
    """Weighted log norm via the quadratic-form route.

    Computes the largest generalized eigenvalue of (P A + A^T P) v = 2 lam P v
    by congruence with sqrt(P)^-1, i.e. the maximum of the P-inner-product
    Rayleigh quotient. Must agree with log_norm(A, weighted(P)) to roundoff;
    kept as an independent assembly for cross-checking.
    """
    m = as_square(a)
    kind = NormKind.weighted(p)
    kind.check_fits(m.shape[0])
    pm = kind.weight
    # halving before adding, as the closed form does, keeps every sum finite where the result is
    pencil = 0.5 * (pm @ m) + 0.5 * (m.T @ pm)
    reduced = kind.weight_sqrt_inv @ pencil @ kind.weight_sqrt_inv
    eigvals, _ = sym_eig(0.5 * reduced + 0.5 * reduced.T, need_vectors=False)
    return float(eigvals[-1])


@dataclass
class LogNormResult:
    """One evaluation of mu[A]: the value and the route used; the norm kind is the caller's own argument."""

    value: float
    method: str  # "closed_form" | "limit_estimate" | "quadratic_form"


def log_norm_all_routes(a, kind: NormKind) -> list[LogNormResult]:
    """Evaluate mu[A] by every route applicable to the kind; the limit estimate takes DEFAULT_THETA_SEQ."""
    results = [
        LogNormResult(log_norm(a, kind), "closed_form"),
        LogNormResult(log_norm_limit_estimate(a, kind), "limit_estimate"),
    ]
    if kind.tag == "weighted":
        results.append(LogNormResult(log_norm_quadratic_form(a, kind.weight), "quadratic_form"))
    return results
