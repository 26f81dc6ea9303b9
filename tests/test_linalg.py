import numpy as np
import pytest

from logstab.errors import (
    ConditioningError,
    DimensionError,
    InvalidInputError,
    InvalidNormError,
    SymmetryError,
)
from logstab.linalg import (
    NormKind,
    cond_2,
    induced_matrix_norm,
    matrix_sqrt_spd,
    solve,
    sym_eig,
    sym_eig_max,
    vec_norm,
)

from conftest import random_spd


class TestVecNorm:
    def test_pythagorean_l2(self):
        assert vec_norm([3.0, 4.0], NormKind.l2()) == pytest.approx(5.0, abs=1e-15)

    def test_l1_sum_of_abs(self):
        assert vec_norm([1.0, -2.0, 3.0], NormKind.l1()) == pytest.approx(6.0, abs=1e-15)

    def test_linf(self):
        assert vec_norm([1.0, -2.0, 3.0], NormKind.linf()) == pytest.approx(3.0)

    def test_weighted_quadratic_form(self):
        # v^T P v = 4 + 1 = 5 by direct evaluation
        kind = NormKind.weighted(np.diag([4.0, 1.0]))
        assert vec_norm([1.0, 1.0], kind) == pytest.approx(np.sqrt(5.0), abs=1e-14)

    def test_weighted_requires_spd(self):
        with pytest.raises(InvalidNormError):
            NormKind.weighted(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidNormError):
            NormKind.weighted(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            vec_norm([1.0, np.nan], NormKind.l2())


class TestInducedNorm:
    def test_identity_l2(self):
        assert induced_matrix_norm(np.eye(3), NormKind.l2()) == pytest.approx(1.0, abs=1e-12)

    def test_l1_max_column_sum(self):
        # columns sums |1|+|0| = 1 and |2|+|3| = 5
        assert induced_matrix_norm([[1.0, 2.0], [0.0, 3.0]], NormKind.l1()) == pytest.approx(5.0)

    def test_l2_nilpotent(self):
        # A^T A = diag(0, 1), so the top singular value is 1
        assert induced_matrix_norm([[0.0, 1.0], [0.0, 0.0]], NormKind.l2()) == pytest.approx(1.0, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            induced_matrix_norm(np.ones((2, 3)), NormKind.l2())

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_norm_axioms_and_consistency(self, tag):
        rng = np.random.default_rng(hash(tag) % 2**32)
        if tag == "weighted":
            kind = NormKind.weighted(random_spd(rng, 4))
        else:
            kind = NormKind(tag)
        assert induced_matrix_norm(np.eye(4), kind) == pytest.approx(1.0, abs=1e-10)
        worst_tri = worst_mul = worst_cons = -np.inf
        for _ in range(1000):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            v = rng.normal(size=4)
            na, nb = induced_matrix_norm(a, kind), induced_matrix_norm(b, kind)
            worst_tri = max(worst_tri, induced_matrix_norm(a + b, kind) - (na + nb))
            worst_mul = max(worst_mul, induced_matrix_norm(a @ b, kind) - na * nb)
            worst_cons = max(worst_cons, vec_norm(a @ v, kind) - na * vec_norm(v, kind))
        assert worst_tri <= 1e-10
        assert worst_mul <= 1e-10
        assert worst_cons <= 1e-10


class TestSymEig:
    def test_diagonal(self):
        assert sym_eig_max(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, abs=1e-14)

    def test_two_by_two_hand_value(self):
        # characteristic polynomial: lam^2 + 10 lam + 23, roots -5 +- sqrt(2)
        assert sym_eig_max([[-4.0, 1.0], [1.0, -6.0]]) == pytest.approx(-5.0 + np.sqrt(2.0), abs=1e-13)

    def test_permutation_matrix(self):
        assert sym_eig_max([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            sym_eig_max([[0.0, 1.0], [0.0, 0.0]])
        # in a stack each matrix is held to its own scale: a large member
        # neither hides a small asymmetric one nor is held to the small scale
        small_asym = [[1.0, 1e-9], [0.0, 1.0]]
        with pytest.raises(SymmetryError):
            sym_eig(np.stack([1e6 * np.eye(2), small_asym]))
        large_within_tol = 1e6 * np.eye(2) + [[0.0, 1e-7], [0.0, 0.0]]
        lam, _ = sym_eig(np.stack([large_within_tol, np.eye(2)]), need_vectors=False)
        assert lam.shape == (2, 2)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_against_reference_eigensolver(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            s = rng.normal(size=(n, n))
            s = s + s.T
            lam, vecs = sym_eig(s)
            ref = np.linalg.eigvalsh(s)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(lam - ref).max() <= 1e-12 * scale
            assert np.abs(vecs @ np.diag(lam) @ vecs.T - s).max() <= 1e-11 * scale

    def test_rayleigh_quotient_bound(self):
        # the sampled max never exceeds the top eigenvalue, and dense
        # sampling gets within a modest slack of it
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(size=(4, 4))
            s = s + s.T
            top = sym_eig_max(s)
            v = rng.normal(size=(1000, 4))
            quot = np.einsum("ij,jk,ik->i", v, s, v) / np.einsum("ij,ij->i", v, v)
            sampled = quot.max()
            assert sampled <= top + 1e-12
            assert top <= sampled + 2.0


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_spd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13)

    def test_hand_two_by_two(self):
        # eigenvalues {1, 3}; root entries (sqrt(3) +- 1) / 2
        root = matrix_sqrt_spd([[2.0, 1.0], [1.0, 2.0]])
        a = (np.sqrt(3.0) + 1.0) / 2.0
        b = (np.sqrt(3.0) - 1.0) / 2.0
        assert np.allclose(root, [[a, b], [b, a]], atol=1e-13)

    def test_square_back_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 6):
            p = random_spd(rng, n)
            root = matrix_sqrt_spd(p)
            assert np.abs(root - root.T).max() <= 1e-13
            lam, _ = sym_eig(root, need_vectors=False)
            assert lam[0] > 0.0
            assert np.abs(root @ root - p).max() <= 1e-10 * np.abs(p).max()

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            matrix_sqrt_spd(np.diag([1.0, -2.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            matrix_sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSolve:
    def test_solve_and_inverse(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        x = solve(a, b)
        assert np.abs(a @ x - b).max() <= 1e-11
        assert np.abs(a @ solve(a, np.eye(5)) - np.eye(5)).max() <= 1e-11

    def test_singular_raises(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ConditioningError):
            solve(singular, np.array([1.0, 0.0]))
        # numpy's own cond returns ~5e16 here instead of raising
        with pytest.raises(ConditioningError):
            cond_2(singular)

    def test_condition_number_identity(self):
        assert cond_2(np.eye(3)) == pytest.approx(1.0, abs=1e-10)


def _stack_kind(tag, rng, n):
    return NormKind.weighted(random_spd(rng, n)) if tag == "weighted" else NormKind(tag)


class TestStacks:
    """Each wrapper on a stack must match its per-item calls."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "weighted"])
    def test_stack_matches_per_item_calls(self, tag, n):
        rng = np.random.default_rng(100 * n + len(tag))
        kind = _stack_kind(tag, rng, n)
        vs = rng.normal(size=(3, 4, n))
        mats = rng.normal(size=(3, 4, n, n)) + 2.0 * np.eye(n)
        rhs = rng.normal(size=(3, 4, n, 2))

        got = vec_norm(vs, kind)
        assert got.shape == (3, 4)
        want = np.array([[vec_norm(v, kind) for v in row] for row in vs])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

        got = induced_matrix_norm(mats, kind)
        want = np.array([[induced_matrix_norm(a, kind) for a in row] for row in mats])
        assert got.shape == (3, 4)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

        got = cond_2(mats)
        want = np.array([[cond_2(a) for a in row] for row in mats])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

        got = solve(mats, rhs)
        want = np.array([[solve(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(mats, rhs)])
        assert got.shape == rhs.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_weighted_norm_of_a_vector_is_the_same_alone_and_in_a_stack(self, n):
        # bit for bit: a matrix-matrix and a vector-matrix BLAS product round differently from n = 4 on
        rng = np.random.default_rng(400 + n)
        kind = NormKind.weighted(random_spd(rng, n))
        vs = 10.0 * rng.normal(size=(200, n))
        assert vec_norm(vs, kind).tolist() == [vec_norm(v, kind) for v in vs]

    def test_single_item_gives_python_float(self):
        kind = NormKind.l2()
        assert type(vec_norm([3.0, 4.0], kind)) is float
        assert type(induced_matrix_norm(np.eye(2), kind)) is float
        assert type(cond_2(np.eye(2))) is float

    def test_shared_vector_right_hand_side(self):
        mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
        assert np.allclose(solve(mats, np.array([2.0, 4.0])), [[2.0, 4.0], [1.0, 2.0]])

    def test_one_singular_member_raises(self):
        mats = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2)])
        with pytest.raises(ConditioningError):
            solve(mats, np.eye(2))
        with pytest.raises(ConditioningError):
            cond_2(mats)

    def test_non_finite_member_rejected(self):
        kind = NormKind.l2()
        vs = np.ones((3, 2))
        vs[1, 0] = np.inf
        mats = np.stack([np.eye(2)] * 3)
        mats[2, 1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            vec_norm(vs, kind)
        with pytest.raises(InvalidInputError):
            induced_matrix_norm(mats, kind)
        with pytest.raises(InvalidInputError):
            cond_2(mats)
        with pytest.raises(InvalidInputError):
            solve(mats, np.eye(2))

    def test_weight_of_wrong_size_rejected(self):
        kind = NormKind.weighted(np.eye(3))
        with pytest.raises(DimensionError, match="3x3"):
            vec_norm(np.ones((4, 2)), kind)
        with pytest.raises(DimensionError, match="3x3"):
            induced_matrix_norm(np.stack([np.eye(2)] * 4), kind)

    def test_right_hand_side_that_does_not_fit_rejected(self):
        mats = np.stack([np.eye(2)] * 3)
        with pytest.raises(DimensionError):
            solve(mats, np.ones(3))
        with pytest.raises(DimensionError):
            solve(mats, np.ones((3, 3, 1)))  # rows do not match n = 2
        with pytest.raises(DimensionError):
            solve(mats, np.ones((4, 2, 1)))  # stack of 4 against a stack of 3
