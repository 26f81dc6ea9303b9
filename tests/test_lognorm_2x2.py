"""Property tests: the closed-form 2x2 log norm against LAPACK, and stacks against single matrices."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from logstab.linalg import NormKind
from logstab.lognorm import log_norm, log_norm_pair

EPS = np.finfo(float).eps

# an entry is 0 or has a magnitude in [1e-150, 1e150]; one matrix may mix them all
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-150, 149))
entries = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))
matrices = st.lists(entries, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
stacks = st.lists(matrices, min_size=1, max_size=6).map(np.array)


@st.composite
def kinds(draw):
    """l2, or a weighted kind whose SPD weight has a condition number below 2000."""
    if draw(st.booleans()):
        return NormKind.l2()
    p00, p11 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    c = draw(st.floats(-0.9, 0.9)) * np.sqrt(p00 * p11)
    return NormKind.weighted([[p00, c], [c, p11]])


def lapack_pair(m, kind):
    """(mu[A], mu[-A]) of each matrix from 0.5 * eigvalsh(T + T^T), T the similarity transform of A, and max |T|."""
    t = kind.similarity(m)
    eigvals = 0.5 * np.linalg.eigvalsh(t + np.swapaxes(t, -1, -2))
    return eigvals[..., -1], -eigvals[..., 0], np.abs(t).max(axis=(-2, -1))


@settings(max_examples=300, deadline=None)
@given(matrices, kinds())
def test_single_matrix_matches_lapack(m, kind):
    plus, minus, scale = lapack_pair(m, kind)
    mu = log_norm(m, kind)
    mu_plus, mu_minus = log_norm_pair(m, kind)
    assert type(mu) is float and mu == mu_plus
    assert abs(mu_plus - plus) <= 4.0 * EPS * scale
    assert abs(mu_minus - minus) <= 4.0 * EPS * scale


@settings(max_examples=100, deadline=None)
@given(stacks, kinds())
def test_stack_is_bit_identical_to_its_members(stack, kind):
    mu = log_norm(stack, kind)
    mu_plus, mu_minus = log_norm_pair(stack, kind)
    plus, minus, scale = lapack_pair(stack, kind)
    assert np.all(np.abs(mu_plus - plus) <= 4.0 * EPS * scale)
    assert np.all(np.abs(mu_minus - minus) <= 4.0 * EPS * scale)
    singles = np.array([log_norm_pair(m, kind) for m in stack])
    assert mu.tobytes() == mu_plus.tobytes() == singles[:, 0].tobytes()
    assert mu_minus.tobytes() == singles[:, 1].tobytes()
