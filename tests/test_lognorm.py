import re
import warnings

import numpy as np
import pytest

from logstab.errors import DimensionError, InvalidInputError, InvalidNormError
from logstab.linalg import NormKind, induced_matrix_norm
from logstab.lognorm import (
    DEFAULT_THETA_SEQ,
    _limit_scale,
    log_norm,
    log_norm_all_routes,
    log_norm_limit_estimate,
    log_norm_limit_table,
    log_norm_pair,
    log_norm_quadratic_form,
)
from logstab.system import jacobian

from conftest import planar_demo_mu_l2, random_spd

UPPER_TRIANGULAR = np.array([[-2.0, 1.0], [0.0, -3.0]])


def make_kind(tag, rng, n):
    if tag == "weighted":
        return NormKind.weighted(random_spd(rng, n))
    return NormKind(tag)


class TestClosedForms:
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_zero_matrix(self, tag):
        kind = make_kind(tag, np.random.default_rng(0), 3)
        assert log_norm(np.zeros((3, 3)), kind) == pytest.approx(0.0, abs=1e-14)

    def test_l2_hand_value(self):
        # A + A^T = [[-4, 1], [1, -6]], top eigenvalue -5 + sqrt(2)
        assert log_norm(UPPER_TRIANGULAR, NormKind.l2()) == pytest.approx(
            (-5.0 + np.sqrt(2.0)) / 2.0, abs=1e-13
        )

    def test_l1_and_linf_hand_values(self):
        assert log_norm(UPPER_TRIANGULAR, NormKind.l1()) == pytest.approx(-2.0, abs=1e-14)
        assert log_norm(UPPER_TRIANGULAR, NormKind.linf()) == pytest.approx(-1.0, abs=1e-14)

    def test_demo_jacobian_at_origin(self, fig1_system):
        # J = [[-5, 0], [5, -3]]; closed-form value -4 + sqrt(29)/2
        j = jacobian(fig1_system, np.zeros(2), 0.0)
        assert np.allclose(j, [[-5.0, 0.0], [5.0, -3.0]], atol=1e-14)
        mu = log_norm(j, NormKind.l2())
        assert mu == pytest.approx(-4.0 + 0.5 * np.sqrt(29.0), abs=1e-12)
        assert mu == pytest.approx(planar_demo_mu_l2(np.zeros(2), 0.0), abs=1e-12)

    def test_demo_formula_oracle_at_random_points(self, fig1_system):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0, size=2)
            t = rng.uniform(0.0, 2.0)
            mu = log_norm(jacobian(fig1_system, x, t), NormKind.l2())
            assert mu == pytest.approx(planar_demo_mu_l2(x, t), abs=1e-11)

    # diag(1, 1/4) has the exact square root diag(1, 1/2): the weighted transform doubles entry (0, 1)
    # and halves entry (1, 0), giving 1.5 * 2^1023 and 2^1022, whose mean is 2^1023 but whose sum overflows
    @pytest.mark.parametrize(
        "a, weight, want",
        [
            (np.diag([1e308, -1e308]), None, 1e308),
            ([[0.0, 1.5e308], [1.5e308, 0.0]], None, 1.5e308),
            (np.diag([1e308, -1e308, 0.0]), None, 1e308),
            ([[0.0, 1.5e308, 0.0], [1.5e308, 0.0, 0.0], [0.0, 0.0, 0.0]], None, 1.5e308),
            (np.diag([1e308, -1e308]), np.diag([1.0, 0.25]), 1e308),
            ([[0.0, 0.75 * 2.0**1023], [2.0**1023, 0.0]], np.diag([1.0, 0.25]), 2.0**1023),
            (np.diag([1e308, -1e308, 0.0]), np.diag([1.0, 0.25, 1.0]), 1e308),
            (
                [[0.0, 0.75 * 2.0**1023, 0.0], [2.0**1023, 0.0, 0.0], [0.0, 0.0, 0.0]],
                np.diag([1.0, 0.25, 1.0]),
                2.0**1023,
            ),
        ],
        ids=["l2-2-diag", "l2-2-offdiag", "l2-3-diag", "l2-3-offdiag", "w-2-diag", "w-2-offdiag", "w-3-diag", "w-3-offdiag"],
    )
    def test_finite_log_norm_of_huge_entries(self, a, weight, want):
        # A + A^T would overflow; each matrix has mu[A] = mu[-A] = want, exactly and without a warning
        kind = NormKind.l2() if weight is None else NormKind.weighted(weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_norm(a, kind) == want
            assert log_norm_pair(a, kind) == (want, want)

    # the first column (row) sums to 2.7e308 in absolute value, but the off-diagonal part alone to 1e308
    @pytest.mark.parametrize(
        "a, tag, want",
        [
            ([[-1.7e308, 0.0], [1e308, 0.0]], "l1", 0.0),
            ([[-1.7e308, 1e308], [0.0, 0.0]], "linf", 0.0),
            ([[-1.7e308, 0.0, 1.0], [1e308, 2.0, 0.0], [0.0, 0.0, -1.0]], "l1", 2.0),
        ],
        ids=["l1-2", "linf-2", "l1-3"],
    )
    def test_finite_l1_linf_log_norm_of_huge_entries(self, a, tag, want):
        # pyproject's warning filter turns an overflow's RuntimeWarning into a failure
        assert log_norm(a, NormKind(tag)) == want
        stack = np.array([a, np.eye(len(a)), a])
        singles = [log_norm(m, NormKind(tag)) for m in stack]
        assert log_norm(stack, NormKind(tag)).tobytes() == np.array(singles).tobytes()

    def test_2x2_takes_no_numpy_linalg_call(self, monkeypatch):
        rng = np.random.default_rng(53)
        kinds = [NormKind.l2(), NormKind.weighted(random_spd(rng, 2))]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for kind in kinds:
            for a in (rng.normal(size=(2, 2)), rng.normal(size=(4, 3, 2, 2))):
                log_norm(a, kind)
                log_norm_pair(a, kind)
        # n >= 3 still goes through LAPACK, so the patch is in force
        with pytest.raises(AssertionError, match="numpy.linalg called"):
            log_norm(np.eye(3), NormKind.l2())

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            log_norm(np.ones((2, 3)), NormKind.l2())

    def test_weight_of_wrong_size_rejected(self):
        kind = NormKind.weighted(2.0 * np.eye(3))
        for fn in (log_norm, log_norm_pair):
            with pytest.raises(DimensionError, match="weight is 3x3 but the dimension is 2"):
                fn(np.eye(2), kind)


class TestLimitEstimate:
    def test_identity_exact(self):
        # ||I + theta*I|| = 1 + theta exactly, so every raw value is 1
        table = log_norm_limit_table(np.eye(3), NormKind.l2())
        assert table.value == pytest.approx(1.0, abs=1e-9)
        assert len(table.successive_diffs) == len(table.thetas) - 1

    def test_matches_closed_form_l2(self):
        est = log_norm_limit_estimate(UPPER_TRIANGULAR, NormKind.l2())
        assert est == pytest.approx((-5.0 + np.sqrt(2.0)) / 2.0, abs=1e-6)

    def test_matches_closed_form_l1(self):
        # for small theta the difference quotient is exactly constant
        est = log_norm_limit_estimate(UPPER_TRIANGULAR, NormKind.l1())
        assert est == pytest.approx(-2.0, abs=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            log_norm_limit_estimate(np.eye(2), NormKind.l2(), theta_seq=[])

    def test_non_decreasing_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            log_norm_limit_estimate(np.eye(2), NormKind.l2(), theta_seq=[1e-2, 1e-1])
        with pytest.raises(InvalidInputError):
            log_norm_limit_estimate(np.eye(2), NormKind.l2(), theta_seq=[1e-2, -1e-3])

    # J's I + theta J overflows at theta = 0.1 and J2's reads ||J2|| at theta = 1e-7 (+5.8e300 under l2, where mu is
    # -2.2e300), unless the table is built on J / s
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
    @pytest.mark.parametrize(
        "a", [[[-1e308, 1.5e308], [1.5e308, -1e308]], [[-3e300, 1e300], [2e300, -5e300]]], ids=["J", "J2"]
    )
    def test_huge_entries_read_mu_not_the_norm(self, a, tag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = log_norm_limit_table(a, NormKind(tag))
        mu = log_norm(a, NormKind(tag))
        assert abs(table.value - mu) <= 1e-6 * abs(mu)
        # the thetas it records are those it used, each the default one over the same power of two
        s = DEFAULT_THETA_SEQ[0] / table.thetas[0]
        assert s == 2.0 ** round(np.log2(s))
        assert table.thetas == [t / s for t in DEFAULT_THETA_SEQ]
        assert 2.0**-11 < table.thetas[-1] * np.abs(a).max() <= 2.0**-10

    # theta_min * a_max is 2^-10 and 1.5 2^-10 and 2^-9 in the first three rows; it overflows in the last but one
    @pytest.mark.parametrize(
        "a_max, theta_min, k",
        [
            (1.0, 2.0**-10, 0),
            (1.5, 2.0**-10, 1),
            (2.0, 2.0**-10, 1),
            (9.7e3, 1e-7, 0),
            (9.8e3, 1e-7, 1),
            (1e308, 1e-7, 1010),
            (1.7e308, 10.0, 1038),
            (5e-324, 1e-7, 0),
            (0.0, 1.0, 0),
        ],
    )
    def test_limit_scale_puts_the_smallest_theta_step_in_range(self, a_max, theta_min, k):
        assert _limit_scale(a_max, theta_min) == k

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_oracle_triangle(self, tag):
        # closed form, limit estimate and (weighted) quadratic form agree
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            kind = make_kind(tag, rng, n)
            a = rng.normal(size=(n, n))
            cf = log_norm(a, kind)
            le = log_norm_limit_estimate(a, kind)
            assert abs(cf - le) <= 1e-6 * max(1.0, abs(cf))
            if tag == "weighted":
                qf = log_norm_quadratic_form(a, kind.weight)
                assert abs(cf - qf) <= 1e-8 * max(1.0, abs(cf))


class TestQuadraticForm:
    def test_identity_weight_reduces_to_l2(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(3, 3))
        assert log_norm_quadratic_form(a, np.eye(3)) == pytest.approx(
            log_norm(a, NormKind.l2()), abs=1e-12
        )

    def test_commuting_diagonal_case(self):
        # diagonal A and P: the transform is a no-op, value is the top diagonal
        assert log_norm_quadratic_form(np.diag([-1.0, -2.0]), np.diag([1.0, 4.0])) == pytest.approx(
            -1.0, abs=1e-13
        )

    def test_matches_weighted_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.normal(size=(4, 4))
            p = random_spd(rng, 4)
            qf = log_norm_quadratic_form(a, p)
            cf = log_norm(a, NormKind.weighted(p))
            assert abs(qf - cf) <= 1e-8 * max(1.0, abs(cf))

    @pytest.mark.parametrize(
        "p", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((2, 3)), np.array([[1.0, 0.0], [0.0, np.nan]])],
        ids=["indefinite", "not square", "not finite"],
    )
    def test_rejects_a_bad_weight_as_the_weighted_kind_does(self, p):
        # the quadratic form reads its weight through NormKind.weighted, so both routes give the same error
        with pytest.raises(InvalidNormError) as want:
            NormKind.weighted(p)
        with pytest.raises(InvalidNormError, match=f"^{re.escape(str(want.value))}$"):
            log_norm_quadratic_form(np.eye(2), p)


class TestProperties:
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_convexity_and_lipschitz(self, tag):
        rng = np.random.default_rng(31)
        kind = make_kind(tag, rng, 3)
        worst_convex = worst_lip = -np.inf
        for _ in range(1000):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            c = rng.uniform()
            mu_a, mu_b = log_norm(a, kind), log_norm(b, kind)
            worst_convex = max(
                worst_convex, log_norm(c * a + (1 - c) * b, kind) - (c * mu_a + (1 - c) * mu_b)
            )
            worst_lip = max(worst_lip, abs(mu_a - mu_b) - induced_matrix_norm(a - b, kind))
        assert worst_convex <= 1e-10
        assert worst_lip <= 1e-10

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_translation_and_homogeneity(self, tag):
        rng = np.random.default_rng(37)
        kind = make_kind(tag, rng, 4)
        for _ in range(100):
            a = rng.normal(size=(4, 4))
            c = rng.uniform(-3.0, 3.0)
            mu = log_norm(a, kind)
            assert log_norm(a + c * np.eye(4), kind) == pytest.approx(mu + c, abs=1e-12)
            s = abs(c)
            assert log_norm(s * a, kind) == pytest.approx(s * mu, abs=1e-12 * max(1.0, s))

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_norm_bounds_and_spectral_bound(self, tag):
        rng = np.random.default_rng(41)
        kind = make_kind(tag, rng, 4)
        for _ in range(200):
            a = rng.normal(size=(4, 4))
            mu = log_norm(a, kind)
            na = induced_matrix_norm(a, kind)
            assert -na - 1e-12 <= mu <= na + 1e-12
            tri = np.triu(a)  # eigenvalues on the diagonal
            assert tri.diagonal().max() <= log_norm(tri, kind) + 1e-12

    def test_pair_helper_matches_single_calls(self):
        rng = np.random.default_rng(43)
        for tag in ("l1", "l2", "linf", "weighted"):
            kind = make_kind(tag, rng, 3)
            a = rng.normal(size=(3, 3))
            mp, mm = log_norm_pair(a, kind)
            assert mp == pytest.approx(log_norm(a, kind), abs=1e-13)
            assert mm == pytest.approx(log_norm(-a, kind), abs=1e-13)
            # a stack gives, member by member, what the per-matrix calls give
            for n in (1, 2, 5):
                kind = make_kind(tag, rng, n)
                stack = rng.normal(size=(2, 3, n, n))
                mu = log_norm(stack, kind)
                plus, minus = log_norm_pair(stack, kind)
                assert mu.shape == plus.shape == minus.shape == (2, 3)
                for k in np.ndindex(2, 3):
                    single = log_norm(stack[k], kind)
                    single_plus, single_minus = log_norm_pair(stack[k], kind)
                    assert type(single) is float and type(single_minus) is float
                    assert mu[k] == pytest.approx(single, rel=1e-12)
                    assert plus[k] == pytest.approx(single_plus, rel=1e-12)
                    assert minus[k] == pytest.approx(single_minus, rel=1e-12)

    def test_all_routes_reports_methods(self):
        rng = np.random.default_rng(47)
        routes = log_norm_all_routes(rng.normal(size=(3, 3)), NormKind.weighted(random_spd(rng, 3)))
        assert [r.method for r in routes] == ["closed_form", "limit_estimate", "quadratic_form"]
        assert all(-np.inf < r.value < np.inf for r in routes)
