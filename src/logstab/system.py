"""Perturbed nonlinear systems dx/dt = f(x,t) + delta(t) and their Jacobians.

A SystemSpec bundles the nominal field, its Jacobian (analytic when known,
central finite differences otherwise) and a time-only perturbation. The
averaged Jacobian turns the difference of the field at two states into an
exact linear map along the connecting segment; its residual is the numerical
check that the quadrature resolved the segment integral.

Stack contract: ``eval_field`` and ``jacobian`` take one state x (n,) or a
stack X (N, n) of states at one time t. One state goes to the system's
per-point ``f`` and ``jac``, which the integrator calls. A stack goes to
``f.stack(X, t) -> (N, n)`` or ``jac.stack(X, t) -> (N, n, n)`` in one call
where the callable carries such an attribute (``config.build_system``'s
expression systems, the builtin ``example1`` among them, set both), and to
the callable itself once per row otherwise. The stacked form lives on the
per-point callable, so replacing ``f`` or ``jac`` replaces it
too: a wrapper that does not copy the attribute (a call counter, say) is
called once per row.
A finite-difference Jacobian evaluates the 2n perturbed rows of one state,
or of every state of a stack, as one stack; the averaged Jacobian is one
``jacobian`` call on its quadrature nodes.

A callable of t alone (delta, a rate alpha, a matrix A) follows the same
rule over a vector of times: ``_at_times`` calls ``fn.stack(ts) -> (m,
...)`` once on the float array ``ts`` where ``fn`` carries one, and ``fn``
once per t otherwise or where the stack raises ArithmeticError or
ValueError. The forcing f(0, t) + delta(t) has one rule, ``_rhs_at_origin``:
delta(t) and f(0, t) both through ``_at_times``, f(0, t) on ``f.origin``,
the callable of t giving f(0, t), where ``f`` carries one, and on
t -> f(0, t) otherwise. ``config``'s delta, alpha and f(0, t) carry stacks,
each value with the bits of one call per t.

This module is the one place that checks what a user callable returns: f,
jac and delta evaluated here, f and delta as ``integrate``'s run closure
calls them through ``_shaped``, and the callables of t alone elsewhere (a
rate alpha(t), a matrix A(t)) through ``_at_times``. Outputs and states
obey the array rule of arguments, ``errors.check_array``: output that is not
real (complex, text, objects or a ragged nesting), has the wrong shape or is
not finite raises EvaluationError with one message, "<name> returned
<problem> at <where>", where <where> is ``x=[...], t=...`` for one state, the
first state whose row is non-finite for a stack, ``a stack of shape (N, n),
t=...`` for a stack output of the wrong shape, ``t=...`` for a callable of
t alone (the first bad t of a vector), and ``a vector of m times from t=...
to t=...`` for a t-stack output of the wrong shape. The error carries that x
(None for a whole stack or for t alone) and t (None for a vector of times).
Non-finite output at a non-finite state is the caller's fault, an
InvalidInputError naming the state; a finite-difference Jacobian raises that
error before it calls f, as its steps are formed from the state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, EvaluationError, InvalidInputError, check_array, check_count, check_positive

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


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
        Each call returns a new array: a run without delta keeps them.
    jac : callable (x, t) -> array (n, n), optional
        Analytic Jacobian of f with respect to x. Finite differences are
        used when omitted.

        ``f`` and ``jac`` may each carry an attribute ``stack``, a callable
        (X (N, n), t) -> array (N, n) or (N, n, n) that gives the same values
        at every row of a stack in one call. Without one, a stack is
        evaluated one row at a time.
    delta : callable (t,) -> array (n,), optional
        Time-only perturbation; ``None`` when the system has none, and then
        ``eval_rhs`` and ``integrate`` use f alone. User-supplied callables
        must be safe for concurrent invocation.

        ``delta`` may carry ``stack``, a callable (ts (m,),) -> array (m, n)
        that gives the same values at every t of a float vector in one call,
        and ``f`` may carry ``origin``, a callable (t,) -> array (n,) giving
        f(0, t), with such a ``stack`` of its own. ``check_forcing_ratio``
        calls each stack it finds once, and otherwise the callable once per
        t (f at the origin, without ``origin``).
    name : str
        Label used in reports and exported files.

    The system has no time window: every check and run takes its times as
    arguments, as a scenario passes its ``[system] t0`` and ``tf``.
    """

    dim: int
    f: Callable[[np.ndarray, float], np.ndarray]
    jac: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    delta: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        self.dim = check_count(self.dim, "dim")


def _check_states(sys: SystemSpec, x) -> np.ndarray:
    """One state (n,) or a non-empty stack of them (N, n), not yet checked finite (see ``_checked_output``)."""
    x = check_array(x, "state", finite=False)
    if x.shape != (sys.dim,) and not (x.ndim == 2 and x.shape[1] == sys.dim and len(x) > 0):
        raise DimensionError(f"state has shape {x.shape}, system dimension is {sys.dim}")
    return x


def _failed(name: str, problem: str, t, x=None) -> EvaluationError:
    """The one error for a bad output of the callable ``name`` at state x (or a stack of states) and t, or at t alone.

    ``t`` is one time, or for a callable of t alone a vector of them.
    """
    if np.ndim(t):
        where, t = f"a vector of {len(t)} times from t={t[0]} to t={t[-1]}", None  # no one t to carry
    elif x is None:
        where = f"t={t}"
    elif x.ndim == 2:
        where, x = f"a stack of shape {x.shape}, t={t}", None  # a stack has no one state to carry
    else:
        where = f"x={x.tolist()}, t={t}"
    return EvaluationError(f"{name} returned {problem} at {where}", x=x, t=t)


def _shaped(name: str, out, shape: tuple | None, t: float, x=None) -> np.ndarray:
    """The output of the callable ``name`` as a float array, required to have ``shape`` (any shape if None)."""
    try:
        return check_array(out, name, shape, finite=False)
    except InvalidInputError:
        raise _failed(name, "non-numeric output", t, x) from None
    except DimensionError:
        raise _failed(name, f"shape {np.shape(out)}, expected {shape}", t, x) from None


def _first_bad(finite: np.ndarray, n: int) -> int:
    """The first of the n equal consecutive blocks of ``finite`` that holds a False."""
    return int(np.argmin(finite.reshape(n, -1).all(axis=1)))


def _check_finite_states(x: np.ndarray) -> None:
    """InvalidInputError naming the state (n,), or the first state of a stack (N, n), that has a non-finite entry."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = x if x.ndim == 1 else x[_first_bad(finite, len(x))]
        raise InvalidInputError(f"state x={bad.tolist()} has non-finite entries")


def _checked_output(name: str, out, shape: tuple, t: float, x=None) -> np.ndarray:
    """The output of the callable ``name``, required to have ``shape`` and be finite.

    ``x`` is the state it was evaluated at, or a stack of N states whose
    values fill ``out`` in N equal consecutive blocks; a non-finite value is
    then reported at the first state whose block holds one, and a wrong
    shape at the stack.
    """
    out = _shaped(name, out, shape, t, x)
    finite = np.isfinite(out)
    if not finite.all():
        if x is not None:
            _check_finite_states(x)  # a non-finite state is the caller's fault, not the callable's
            if x.ndim == 2:
                x = x[_first_bad(finite, len(x))]
        raise _failed(name, "non-finite values", t, x)
    return out


def _at_times(name: str, fn, ts, shape: tuple = ()) -> np.ndarray:
    """The callable of t alone ``name`` at every t of the vector ``ts``: one finite array (N, *shape).

    One call of ``fn.stack(ts)`` on the float array ``ts`` when ``fn``
    carries one, whose output of the wrong shape names the vector. Where it
    raises ArithmeticError or ValueError (an undefined value, or numpy's
    over- or underflow), and for a callable without a stack, ``fn`` is called
    once per t with a Python float, so a compiled rate that divides by zero
    gives NaN, not inf and a numpy warning. An error for non-finite values
    names the first bad t.
    """
    ts, stack = np.asarray(ts, dtype=float), getattr(fn, "stack", None)
    try:
        out = None if stack is None else _shaped(name, stack(ts), (len(ts),) + shape, ts)
    except (ArithmeticError, ValueError):
        out = None
    if out is None:
        outs = [fn(t) for t in ts.tolist()]
        try:
            out = check_array(outs, name, (len(ts),) + shape, finite=False)
        except (InvalidInputError, DimensionError):  # one output is not real or has the wrong shape: name the first t
            out = np.array([_shaped(name, o, shape, t) for o, t in zip(outs, ts.tolist())])
    finite = np.isfinite(out)
    if not finite.all():
        raise _failed(name, "non-finite values", float(ts[_first_bad(finite, len(ts))]))
    return out


def _rows(name: str, fn, xs: np.ndarray, t: float, shape: tuple) -> np.ndarray:
    """``fn`` at every state of the stack ``xs``, as one float array (N, *shape).

    One call of ``fn.stack`` when ``fn`` carries one, one call of ``fn`` per
    row otherwise; output of the wrong shape names the stack, or the row, it
    was evaluated at.
    """
    stack = getattr(fn, "stack", None)
    if stack is not None:
        return _shaped(name, stack(xs, t), (len(xs),) + shape, t, xs)
    return np.array([_shaped(name, fn(x, t), shape, t, x) for x in xs])


def _evaluate(name: str, fn, x: np.ndarray, t: float, shape: tuple) -> np.ndarray:
    """The per-point callable ``name``, checked, at a state x (n,) as ``shape`` or at a stack (N, n) as (N, *shape)."""
    if x.ndim == 1:
        return _checked_output(name, fn(x, t), shape, t, x)
    return _checked_output(name, _rows(name, fn, x, t, shape), (len(x),) + shape, t, x)


def eval_field(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Nominal field f(x,t), validated finite and correctly shaped.

    x is one state (n,), evaluated by ``sys.f``, or a stack (N, n), giving
    (N, n) from one call of ``sys.f.stack`` or from ``sys.f`` row by row.
    """
    return _evaluate("f", sys.f, _check_states(sys, x), t, (sys.dim,))


def eval_rhs(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Full right-hand side f(x,t) + delta(t), each validated finite and correctly shaped; f alone without delta."""
    fx = eval_field(sys, x, t)
    if sys.delta is None:
        return fx
    return fx + _checked_output("delta", sys.delta(t), (sys.dim,), t)


def _rhs_at_origin(sys: SystemSpec, ts) -> np.ndarray:
    """f(0, t) + delta(t) at every t of the vector ``ts``: one finite array (N, n).

    f(0, t) and delta(t) from ``_at_times``, f(0, t) on ``sys.f.origin``, a
    callable of t, where f carries one, and on t -> f(0, t) otherwise. Where
    a value is bad, one ``eval_rhs`` per t names the first bad t, x, and f
    before delta at one t.
    """
    zero = np.zeros(sys.dim)
    origin = getattr(sys.f, "origin", None) or (lambda t: sys.f(zero, t))
    try:
        forcing = _at_times("f", origin, ts, (sys.dim,))
        return forcing if sys.delta is None else forcing + _at_times("delta", sys.delta, ts, (sys.dim,))
    except EvaluationError:
        for t in ts:
            eval_rhs(sys, zero, t)
        raise  # a stack at fault where the per-point callables are not


def jacobian(sys: SystemSpec, x, t: float) -> np.ndarray:
    """Jacobian of the nominal field with respect to the state.

    Uses the analytic Jacobian when the system carries one; otherwise central
    finite differences with per-component step eps^(1/3) * max(1, |x_i|),
    which balances truncation against roundoff for C^3 fields. Users with
    rougher fields should expect ~1e-7 absolute accuracy at unit scale.

    x is one state (n,), giving J (n, n) from ``sys.jac``, or a stack (N, n),
    giving (N, n, n) from one call of ``sys.jac.stack`` or from ``sys.jac``
    row by row.
    """
    x = _check_states(sys, x)
    if sys.jac is None:
        return _fd_jacobian(sys, x, t)
    return _evaluate("jac", sys.jac, x, t, (sys.dim, sys.dim))


def _fd_jacobian(sys: SystemSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Central differences at one state (n,) or at each state of a stack (N, n).

    The states must be finite; f is not called otherwise. The 2n perturbed
    rows of every state are evaluated as one stack, in blocks of 2n per
    state, so a non-finite value is reported at the state whose Jacobian
    needed it.
    """
    _check_finite_states(x)
    n = sys.dim
    states = x.reshape(-1, n)
    h = _EPS_CBRT * np.maximum(1.0, np.abs(states))
    steps = h[:, :, None] * np.eye(n)  # row i of state k: h_ki e_i
    rows = np.concatenate([states[:, None] + steps, states[:, None] - steps], axis=1).reshape(-1, n)
    fx = _rows("f", sys.f, rows, t, (n,))
    fx = _checked_output("f", fx, rows.shape, t, states).reshape(-1, 2, n, n)
    # column i of J is (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i), with the step as represented
    out = np.swapaxes(fx[:, 0] - fx[:, 1], 1, 2) / ((states + h) - (states - h))[:, None, :]
    return _checked_output("finite-difference Jacobian", out, out.shape, t, states).reshape(x.shape + (n,))


@dataclass
class QuadratureRule:
    """Nodes and weights for integrals over [0, 1]; weights must sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # NaN and inf fail the tests of each node and weight below, and no nodes fail the weights' sum
        self.nodes = check_array(self.nodes, "quadrature nodes", (None,), finite=False)
        self.weights = check_array(self.weights, "quadrature weights", self.nodes.shape, finite=False)
        if not np.all((self.nodes >= 0.0) & (self.nodes <= 1.0)):  # written so that NaN fails
            raise InvalidInputError("quadrature nodes must lie in [0, 1]")
        for i, w in enumerate(self.weights.tolist()):
            check_positive(w, f"quadrature weight {i}")
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise InvalidInputError(f"quadrature weights sum to {self.weights.sum()!r}, expected 1")

    @classmethod
    def gauss_legendre(cls, n: int = 16) -> "QuadratureRule":
        """Gauss-Legendre rule mapped from [-1, 1] to [0, 1]; exact to degree 2n-1."""
        x, w = np.polynomial.legendre.leggauss(check_count(n, "n"))
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)


@functools.cache
def _default_quadrature() -> QuadratureRule:
    """The 16-node Gauss-Legendre rule, built on first use: numpy.polynomial then loads only when it is needed."""
    return QuadratureRule.gauss_legendre(16)


def averaged_jacobian(sys: SystemSpec, x_star, x, t: float, rule: QuadratureRule | None = None) -> np.ndarray:
    """Quadrature approximation of the segment-averaged Jacobian.

    Integrates J(x* + xi*(x - x*), t) for xi in [0, 1]; applied to (x - x*)
    this reproduces f(x,t) - f(x*,t) exactly (up to quadrature error). With
    x* = 0 it linearizes the field difference against the origin.
    """
    if rule is None:
        rule = _default_quadrature()
    x_star = check_array(x_star, "x_star", (sys.dim,))
    x = check_array(x, "x", (sys.dim,))
    nodes = x_star + rule.nodes[:, None] * (x - x_star)
    # a sum over the leading axis adds the weighted Jacobians node by node, in order
    return (rule.weights[:, None, None] * jacobian(sys, nodes, t)).sum(axis=0)


def averaged_jacobian_residual(
    sys: SystemSpec, x_star, x, t: float, rule: QuadratureRule | None = None
) -> float:
    """Euclidean norm of averaged_jacobian @ (x - x*) - (f(x,t) - f(x*,t)).

    The segment-integral identity is exact for C^1 fields; this residual
    measures only the quadrature (and Jacobian) error, so it doubles as a
    convergence check for the chosen rule.
    """
    x_star = check_array(x_star, "x_star", (sys.dim,))
    x = check_array(x, "x", (sys.dim,))
    avg = averaged_jacobian(sys, x_star, x, t, rule)
    diff = eval_field(sys, x, t) - eval_field(sys, x_star, t)
    resid = avg @ (x - x_star) - diff
    return float(np.sqrt(resid @ resid))
