"""The largest log norm over a stack: ``_log_norm_argmax`` against ``log_norm`` of every member."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from logstab import lognorm
from logstab.linalg import NormKind
from logstab.lognorm import _FLOOR_SAMPLES, _log_norm_argmax, log_norm

from conftest import random_spd


def reference(stack, kind):
    """(first argmax, max) of the members' log norms."""
    mus = log_norm(stack, kind)
    i = int(np.argmax(mus))
    return i, float(mus[i])


@st.composite
def stacks_and_kinds(draw):
    """A stack of n x n matrices (n in 2..8) drawn from a few distinct ones, with repeats and 1-ulp neighbours, and a kind.

    The kind is l1, l2, linf or weighted. Entries are 0 or of either sign
    with magnitudes in [10^lo, 10^(hi+1)), -150 <= lo <= hi <= 299, from a
    seeded generator. l2 stacks at n >= 3 may also hold entries near the
    largest float, so that a Gershgorin row sum overflows; a weighted kind
    (SPD weight from the same generator) keeps its entries under 1e300, so
    that its similarity transform stays finite.
    """
    n = draw(st.integers(2, 8))
    tag = draw(st.sampled_from(["l1", "l2", "linf", "weighted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-150, 299))
    hi = draw(st.integers(lo, 299))
    shape = (draw(st.integers(1, 12)), n, n)
    signs = rng.choice([-1.0, 0.0, 1.0], shape, p=[0.45, 0.1, 0.45])
    distinct = signs * rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(lo, hi + 1, shape)
    if tag == "l2" and n >= 3 and draw(st.booleans()):
        huge = rng.random(shape) < 0.25
        distinct[huge] = signs[huge] * rng.uniform(1e307, np.finfo(float).max, np.count_nonzero(huge))
    stack = distinct[rng.integers(0, shape[0], draw(st.integers(1, 40)))]
    bumped = rng.random(len(stack)) < 0.5
    stack[bumped] = np.nextafter(stack[bumped], 0.0)  # each nonzero entry of those members 1 ulp nearer 0
    kind = NormKind.weighted(random_spd(rng, n)) if tag == "weighted" else NormKind(tag)
    return stack, kind


@settings(max_examples=400, deadline=None)
@given(stacks_and_kinds())
def test_equals_the_first_argmax_and_max_of_every_members_log_norm(case):
    stack, kind = case
    assert _log_norm_argmax(stack, kind) == reference(stack, kind)


@pytest.mark.parametrize("tag", ["l2", "weighted"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_ties_single_members_and_equal_stacks(tag, n):
    rng = np.random.default_rng(n)
    kind = NormKind.weighted(random_spd(rng, n)) if tag == "weighted" else NormKind.l2()
    a, b = rng.normal(size=(2, n, n))
    assert _log_norm_argmax(a[None], kind) == (0, log_norm(a, kind))
    for size in (_FLOOR_SAMPLES, _FLOOR_SAMPLES + 1, 50):
        assert _log_norm_argmax(np.array([a] * size), kind) == (0, log_norm(a, kind))
    # the larger of a and b, first at 17 and again at 31, among 49 copies of the smaller one
    low, high = sorted((a, b), key=lambda m: log_norm(m, kind))
    stack = np.array([low] * 50)
    stack[[17, 31]] = high
    assert _log_norm_argmax(stack, kind) == (17, log_norm(high, kind))
    # members 1 ulp apart: whichever is larger, or the first of equal ones, wins as it does in log_norm's values
    stack[31] = np.nextafter(high, np.inf)
    assert _log_norm_argmax(stack, kind) == reference(stack, kind)


def test_row_sums_that_overflow_keep_their_members():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(40, 6, 6))
    stack[[3, 11, 29]] = 1.5e308 * np.sign(rng.normal(size=(3, 6, 6)))
    assert _log_norm_argmax(stack, NormKind.l2()) == reference(stack, NormKind.l2())


def test_only_the_members_that_can_hold_the_sup_reach_eigvalsh(monkeypatch):
    # J = D + C with a spread diagonal: most members' Gershgorin bounds stay below the top eigenvalues
    rng = np.random.default_rng(3)
    stack = rng.uniform(-0.5, 0.5, size=(300, 4, 4))
    stack[:, range(4), range(4)] += rng.uniform(-6.0, -1.0, size=(300, 4))
    rows, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(lognorm.np.linalg, "eigvalsh", lambda s: rows.append(len(s)) or eigvalsh(s))
    assert _log_norm_argmax(stack, NormKind.l2()) == reference(stack, NormKind.l2())
    assert rows[-1] == 300  # the reference's one call on every member
    assert rows[0] == _FLOOR_SAMPLES and sum(rows[:-1]) < 150


def test_a_similarity_transform_that_overflows_fails_as_log_norm_does():
    # sqrt(P) J sqrt(P)^-1 overflows at 14 members, more than the floor takes, and their S holds nan
    kind = NormKind.weighted(np.diag([4.0, 1.0, 1.0]))
    stack = np.random.default_rng(0).normal(size=(40, 3, 3))
    stack[::3] = 1e308
    for call in (reference, _log_norm_argmax):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            call(stack, kind)
