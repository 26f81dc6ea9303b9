import functools

import numpy as np
import pytest

from logstab import NormKind, SystemSpec, integrate
from logstab.demos import build_example1, delta_admissible, delta_borderline


def planar_demo_mu_l2(x, t, b=5.0, phi=None):
    """Independent closed-form value of the demo field's L2 log norm.

    Derived by hand from the 2x2 symmetrized Jacobian: for J = [[p + c1, 0],
    [b, 2 + p + c2]] with ci = cos(xi), the top eigenvalue of (J + J^T)/2 is
    p + 1 + (c1 + c2)/2 + sqrt(b^2 + (c1 - c2 - 2)^2)/2.
    """
    if phi is None:
        phi = lambda s: -6.0 - s**3
    c1, c2 = np.cos(x[0]), np.cos(x[1])
    theta = b**2 + (c1 - c2 - 2.0) ** 2
    return phi(t) + 0.5 * (c1 + c2 + np.sqrt(theta)) + 1.0


def spy(owner, attr):
    """Record the arguments of every call of the callable ``owner.<attr>``, which it replaces.

    The recorder keeps the attributes of the callable it replaces, so a spied
    ``sys.jac`` keeps its ``stack``; ``spy(sys.jac, "stack")`` records that.
    """
    calls, inner = [], getattr(owner, attr)

    @functools.wraps(inner)
    def recorded(*args):
        calls.append(args)
        return inner(*args)

    setattr(owner, attr, recorded)
    return calls


def without_stacks(sys):
    """``sys`` with plain wrappers of its f, jac and delta, which carry no ``stack`` or ``origin``.

    A stack of states then goes row by row, and a vector of times time by time.
    """
    jac = None if sys.jac is None else (lambda x, t: sys.jac(x, t))
    delta = None if sys.delta is None else (lambda t: sys.delta(t))
    return SystemSpec(dim=sys.dim, f=lambda x, t: sys.f(x, t), jac=jac, delta=delta)


def random_spd(rng, n, shift=None):
    q = rng.normal(size=(n, n))
    return q.T @ q + (n if shift is None else shift) * np.eye(n)


@pytest.fixture(scope="session")
def all_unweighted_kinds():
    return [NormKind.l1(), NormKind.l2(), NormKind.linf()]


@pytest.fixture(scope="session")
def fig1_system():
    return build_example1(delta=delta_admissible)


@pytest.fixture(scope="session")
def fig2_system():
    return build_example1(delta=delta_borderline)


@pytest.fixture(scope="session")
def fig1_trajectory(fig1_system):
    """One shared run of the admissible-perturbation scenario to t=20."""
    grid = np.linspace(0.0, 20.0, 401)
    return integrate(fig1_system, np.array([-2.0, 5.0]), 0.0, 20.0, sample_times=grid)


@pytest.fixture
def decay_system():
    return SystemSpec(dim=1, f=lambda x, t: -x, jac=lambda x, t: np.array([[-1.0]]))


@pytest.fixture
def harmonic_system():
    return SystemSpec(
        dim=2,
        f=lambda x, t: np.array([x[1], -x[0]]),
        jac=lambda x, t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
