"""Logarithmic norms (matrix measures) under L1, L2, Linf and weighted norms.

Three independent routes are provided: the closed forms per norm kind, a
numerical estimator built on the one-sided limit of (||I + theta*A|| - 1)/theta,
and, for weighted norms, the quadratic-form formulation through the symmetric
pencil. Under l2 and weighted norms the closed form of a 2x2 matrix is the
exact eigenvalue formula of its symmetric part, so it makes no LAPACK call.
The estimator's thetas are relative to the matrix's scale: where the
smallest theta times the largest entry would make ||I + theta*A|| read ||A||
rather than mu[A], it works on A scaled down by a power of two, so it stays
finite and meaningful up to entries near the largest float.
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


def _closed_form(a, kind: NormKind, pair: bool):
    """mu[A] in closed form for A of shape (..., n, n); (mu[A], mu[-A]) if ``pair``.

    l2 and weighted take the symmetric part S = T/2 + T^T/2 of T, A after the
    kind's similarity transform. For n = 2 its eigenvalues are mid -/+ rad with
    mid = (t00 + t11)/2 and rad = hypot((t00 - t11)/2, (t01 + t10)/2), taken
    element by element, so a stack and its members give the same bits. For
    n >= 3 they come from eigvalsh(S).
    """
    m = as_square_stack(a)
    if kind.tag in ("l1", "linf"):
        d = m.diagonal(0, -2, -1)
        # the off-diagonal entries alone: a whole column's (row's) sum can overflow where mu is finite
        n = m.shape[-1]
        a_off = np.abs(m, order="C")
        a_off.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0  # the diagonal, through a flat view
        off = a_off.sum(axis=-2 if kind.tag == "l1" else -1)
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
    # T/2 + T^T/2 is finite wherever T is, and exactly symmetric, so sym_eig's symmetry check is skipped
    eigvals = np.linalg.eigvalsh(0.5 * t + 0.5 * np.swapaxes(t, -1, -2))
    return (eigvals[..., -1], -eigvals[..., 0]) if pair else eigvals[..., -1]


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
    """Limit-definition estimate of mu[A] with convergence diagnostics."""

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


def _scaled_up(table: LimitEstimate, k: int) -> LimitEstimate:
    """The table of A = 2^k B along theta / 2^k, from B's table along theta.

    A value beyond the float range, such as ||A|| at a large theta, reads inf.
    """

    def up(values):
        return np.ldexp(values, k).tolist()

    with np.errstate(over="ignore"):
        return LimitEstimate(
            float(np.ldexp(table.value, k)),
            np.ldexp(table.thetas, -k).tolist(),
            up(table.raw_values),
            up(table.extrapolated),
            up(table.successive_diffs),
        )


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
    difference is taken on B and then multiplied by s. That is the table of
    A along theta / s, the thetas it records. With the default sequence, s
    is 1 for every matrix whose entries are under about 9.8e3.
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
    table = LimitEstimate(float(value), thetas, raw, extrap, diffs)
    return _scaled_up(table, k) if k else table


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
    """One evaluation of mu[A]: the value, the norm kind, and the route used."""

    value: float
    kind: NormKind
    method: str  # "closed_form" | "limit_estimate" | "quadratic_form"


def log_norm_all_routes(a, kind: NormKind) -> list[LogNormResult]:
    """Evaluate mu[A] by every route applicable to the kind; the limit estimate takes DEFAULT_THETA_SEQ."""
    results = [
        LogNormResult(log_norm(a, kind), kind, "closed_form"),
        LogNormResult(log_norm_limit_estimate(a, kind), kind, "limit_estimate"),
    ]
    if kind.tag == "weighted":
        results.append(LogNormResult(log_norm_quadratic_form(a, kind.weight), kind, "quadratic_form"))
    return results
