"""Perturbed nonlinear systems dx/dt = f(x,t) + delta(t) and their Jacobians.

A SystemSpec bundles the nominal field, its Jacobian (analytic when known,
central finite differences otherwise) and a time-only perturbation. The
averaged Jacobian turns the difference of the field at two states into an
exact linear map along the connecting segment; its residual is the numerical
check that the quadrature resolved the segment integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, EvaluationError, InvalidInputError

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _zero_delta_factory(dim: int):
    zero = np.zeros(dim)

    def delta(t: float) -> np.ndarray:
        return zero

    return delta


@dataclass
class SystemSpec:
    """The system dx/dt = f(x,t) + delta(t).

    Parameters
    ----------
    dim : int
        State dimension n.
    f : callable (x, t) -> array (n,)
        Nominal vector field; must be C^1 in x on the analysis domain
        (user contract, spot-checked by finite-difference consistency).
    jac : callable (x, t) -> array (n, n), optional
        Analytic Jacobian of f with respect to x. Finite differences are
        used when omitted.
    delta : callable (t,) -> array (n,), optional
        Time-only perturbation; defaults to zero. User-supplied callables
        must be safe for concurrent invocation.
    t0 : float
        Initial time of the analysis window.
    name : str
        Label used in reports and exported files.
    """

    dim: int
    f: Callable[[np.ndarray, float], np.ndarray]
    jac: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    delta: Optional[Callable[[float], np.ndarray]] = None
    t0: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidInputError("system dimension must be positive")
        if self.delta is None:
            self.delta = _zero_delta_factory(self.dim)


def _check_dim(sys: SystemSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise DimensionError(f"state has shape {x.shape}, system dimension is {sys.dim}")
    return x


def eval_field(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Nominal field f(x,t), validated finite and correctly shaped."""
    x = _check_dim(sys, x)
    out = np.asarray(sys.f(x, t), dtype=float)
    if out.shape != (sys.dim,):
        raise EvaluationError(f"f returned shape {out.shape}, expected ({sys.dim},)", x=x, t=t)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"f returned non-finite values at t={t}", x=x, t=t)
    return out


def eval_perturbation(sys: SystemSpec, t: float) -> np.ndarray:
    out = np.asarray(sys.delta(t), dtype=float)
    if out.shape != (sys.dim,):
        raise EvaluationError(f"delta returned shape {out.shape}, expected ({sys.dim},)", t=t)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"delta returned non-finite values at t={t}", t=t)
    return out


def eval_rhs(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Full right-hand side f(x,t) + delta(t)."""
    return eval_field(sys, x, t) + eval_perturbation(sys, t)


def jacobian(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Jacobian of the nominal field with respect to the state.

    Uses the analytic Jacobian when the system carries one; otherwise central
    finite differences with per-component step eps^(1/3) * max(1, |x_i|),
    which balances truncation against roundoff for C^3 fields. Users with
    rougher fields should expect ~1e-7 absolute accuracy at unit scale.
    """
    x = _check_dim(sys, x)
    if sys.jac is not None:
        out = np.asarray(sys.jac(x, t), dtype=float)
        if out.shape != (sys.dim, sys.dim):
            raise EvaluationError(
                f"jac returned shape {out.shape}, expected ({sys.dim}, {sys.dim})", x=x, t=t
            )
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"jac returned non-finite values at t={t}", x=x, t=t)
        return out
    return _fd_jacobian(sys, x, t)


def _fd_jacobian(sys: SystemSpec, x: np.ndarray, t: float) -> np.ndarray:
    n = sys.dim
    out = np.empty((n, n))
    for i in range(n):
        h = _EPS_CBRT * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[:, i] = (eval_field(sys, xp, t) - eval_field(sys, xm, t)) / (xp[i] - xm[i])
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"finite-difference Jacobian non-finite at t={t}", x=x, t=t)
    return out


@dataclass
class QuadratureRule:
    """Nodes and weights for integrals over [0, 1]; weights must sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1 or self.nodes.size == 0:
            raise InvalidInputError("quadrature nodes and weights must be matching non-empty vectors")
        if np.any(self.nodes < 0.0) or np.any(self.nodes > 1.0):
            raise InvalidInputError("quadrature nodes must lie in [0, 1]")
        if np.any(self.weights <= 0.0):
            raise InvalidInputError("quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise InvalidInputError(f"quadrature weights sum to {self.weights.sum()!r}, expected 1")

    @classmethod
    def gauss_legendre(cls, n: int = 16) -> "QuadratureRule":
        """Gauss-Legendre rule mapped from [-1, 1] to [0, 1]; exact to degree 2n-1."""
        if n <= 0:
            raise InvalidInputError("quadrature order must be positive")
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)


DEFAULT_QUADRATURE = QuadratureRule.gauss_legendre(16)


def averaged_jacobian(sys: SystemSpec, x_star, x, t: float, rule: QuadratureRule | None = None) -> np.ndarray:
    """Quadrature approximation of the segment-averaged Jacobian.

    Integrates J(x* + xi*(x - x*), t) for xi in [0, 1]; applied to (x - x*)
    this reproduces f(x,t) - f(x*,t) exactly (up to quadrature error). With
    x* = 0 it linearizes the field difference against the origin.
    """
    if rule is None:
        rule = DEFAULT_QUADRATURE
    x_star = _check_dim(sys, x_star)
    x = _check_dim(sys, x)
    seg = x - x_star
    acc = np.zeros((sys.dim, sys.dim))
    for xi, w in zip(rule.nodes, rule.weights):
        acc += w * jacobian(sys, x_star + xi * seg, t)
    return acc


def averaged_jacobian_residual(
    sys: SystemSpec, x_star, x, t: float, rule: QuadratureRule | None = None
) -> float:
    """Euclidean norm of averaged_jacobian @ (x - x*) - (f(x,t) - f(x*,t)).

    The segment-integral identity is exact for C^1 fields; this residual
    measures only the quadrature (and Jacobian) error, so it doubles as a
    convergence check for the chosen rule.
    """
    x_star = _check_dim(sys, x_star)
    x = _check_dim(sys, x)
    avg = averaged_jacobian(sys, x_star, x, t, rule)
    diff = eval_field(sys, x, t) - eval_field(sys, x_star, t)
    resid = avg @ (x - x_star) - diff
    return float(np.sqrt(resid @ resid))
