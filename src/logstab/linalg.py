"""Dense small-matrix linear algebra: validating wrappers over numpy.linalg.

The numerics are numpy.linalg's. What this module adds is input checking
(``errors.check_array``, shape, symmetry), the mapping of numpy's LinAlgError
onto the package's error types, and the norm kinds. Every public wrapper
accepts a stack: vectors (..., n) and matrices (..., n, n). One vector or
matrix in gives a Python float out where the result is a scalar.
Vector/matrix containers are plain numpy float arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConditioningError,
    DimensionError,
    InvalidInputError,
    InvalidNormError,
    SymmetryError,
    check_array,
)

SYMMETRY_RTOL = 1e-12
SPD_EIG_RTOL = 1e-12


def as_vector_stack(v) -> np.ndarray:
    """Coerce to a finite float array of vectors, shape (..., n)."""
    arr = check_array(v, "vector")
    if arr.ndim < 1:
        raise DimensionError(f"expected a vector or a stack of them, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("vector must have at least one entry")
    return arr


def as_square_stack(a) -> np.ndarray:
    """Coerce to a finite float array of square matrices, shape (..., n, n)."""
    arr = check_array(a, "matrix")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("matrix must be non-empty")
    return arr


def as_square(a) -> np.ndarray:
    """Coerce to one finite square float matrix."""
    return as_square_stack(check_array(a, "matrix", (None, None)))


def float_or_array(x: np.ndarray):
    """A Python float for a 0-d result (one matrix in), the array for a stack."""
    return float(x) if x.ndim == 0 else x


def check_symmetric(s: np.ndarray) -> None:
    """Raise SymmetryError if max |S - S^T| exceeds SYMMETRY_RTOL * max(1, |S|_max).

    For a stack the test is made per matrix, each against its own scale.
    """
    asym = np.abs(s - np.swapaxes(s, -1, -2)).max(axis=(-2, -1))
    tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(s).max(axis=(-2, -1)))
    if (asym > tol).any():
        k = np.argmax(asym / tol)
        raise SymmetryError(f"matrix asymmetry {asym.flat[k]:.3e} exceeds tolerance {tol.flat[k]:.3e}")


def sym_eig(s, need_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """All eigenvalues (and optionally eigenvectors) of symmetric matrices.

    numpy.linalg.eigh (eigvalsh when only eigenvalues are needed) on one
    matrix or a stack. Each matrix is checked for symmetry to SYMMETRY_RTOL
    first; numpy then reads its lower triangle. Returns eigenvalues in
    ascending order along the last axis and, when requested, the orthogonal
    matrices of column eigenvectors.

    Parameters
    ----------
    s : array_like (..., n, n)
        Symmetric matrix or stack of them.
    need_vectors : bool
        Skip the eigenvectors when only eigenvalues are needed.
    """
    mat = as_square_stack(s)
    check_symmetric(mat)
    if not need_vectors:
        return np.linalg.eigvalsh(mat), None
    eigvals, vecs = np.linalg.eigh(mat)
    return eigvals, vecs


def sym_eig_max(s):
    """Largest eigenvalue of a symmetric matrix (an array of them for a stack)."""
    eigvals, _ = sym_eig(s, need_vectors=False)
    return float_or_array(eigvals[..., -1])


def matrix_sqrt_spd(p) -> np.ndarray:
    """Principal (SPD) square root of a symmetric positive definite matrix."""
    root, _ = spd_sqrt_pair(p)
    return root


def spd_sqrt_pair(p) -> tuple[np.ndarray, np.ndarray]:
    """Return (sqrt(P), sqrt(P)^-1) from one eigendecomposition of SPD P.

    Inverting through the eigendecomposition keeps both factors exactly
    symmetric, which the similarity transforms downstream rely on.
    """
    try:
        eigvals, vecs = sym_eig(as_square(p))
    except SymmetryError as exc:
        raise InvalidInputError(f"SPD input is not symmetric: {exc}") from exc
    if eigvals[-1] <= 0.0 or eigvals[0] <= SPD_EIG_RTOL * eigvals[-1]:
        raise InvalidInputError(
            f"matrix is not positive definite (eigenvalues in [{eigvals[0]:.3e}, {eigvals[-1]:.3e}])"
        )
    sq = np.sqrt(eigvals)
    root = (vecs * sq) @ vecs.T
    inv_root = (vecs / sq) @ vecs.T
    root = 0.5 * (root + root.T)
    inv_root = 0.5 * (inv_root + inv_root.T)
    return root, inv_root


class NormKind:
    """Which vector norm (and induced matrix/log norm) is in play.

    One of the tags "l1", "l2", "linf", or "weighted". The weighted kind
    carries an SPD weight matrix P defining |x|_P = sqrt(x^T P x); its SPD
    square root and inverse are precomputed at construction since every
    weighted operation routes through the same similarity transform.
    """

    __slots__ = ("tag", "weight", "weight_sqrt", "weight_sqrt_inv")

    TAGS = ("l1", "l2", "linf", "weighted")

    def __init__(self, tag: str, weight=None):
        if tag not in self.TAGS:
            raise InvalidNormError(f"unknown norm tag {tag!r}; expected one of {self.TAGS}")
        if tag == "weighted":
            if weight is None:
                raise InvalidNormError("weighted norm requires a weight matrix")
            try:
                self.weight = as_square(weight)
                self.weight_sqrt, self.weight_sqrt_inv = spd_sqrt_pair(self.weight)
            except (InvalidInputError, DimensionError) as exc:
                raise InvalidNormError(f"invalid weight matrix: {exc}") from exc
        else:
            if weight is not None:
                raise InvalidNormError(f"norm kind {tag!r} takes no weight matrix")
            self.weight = None
            self.weight_sqrt = None
            self.weight_sqrt_inv = None
        self.tag = tag

    @classmethod
    def l1(cls) -> "NormKind":
        return cls("l1")

    @classmethod
    def l2(cls) -> "NormKind":
        return cls("l2")

    @classmethod
    def linf(cls) -> "NormKind":
        return cls("linf")

    @classmethod
    def weighted(cls, weight) -> "NormKind":
        return cls("weighted", weight)

    def similarity(self, m: np.ndarray) -> np.ndarray:
        """sqrt(P) M sqrt(P)^-1 for a weighted kind, M itself otherwise.

        M may be a stack (..., n, n). The l2 norm and l2 log norm of the
        result are the weighted norm and log norm of M.
        """
        if self.tag != "weighted":
            return m
        self.check_fits(m.shape[-1])
        return self.weight_sqrt @ m @ self.weight_sqrt_inv

    def check_fits(self, n: int) -> None:
        """DimensionError unless the kind applies in dimension n: it has no weight, or an n x n one."""
        if self.weight is not None and self.weight.shape[0] != n:
            k = self.weight.shape[0]
            raise DimensionError(f"weight is {k}x{k} but the dimension is {n}")

    def __repr__(self):
        if self.tag == "weighted":
            return f"NormKind.weighted({self.weight.tolist()})"
        return f"NormKind({self.tag!r})"

    def __eq__(self, other):
        if not isinstance(other, NormKind):
            return NotImplemented
        if self.tag != other.tag:
            return False
        if self.tag != "weighted":
            return True
        return self.weight.shape == other.weight.shape and np.array_equal(self.weight, other.weight)

    def __hash__(self):
        return hash(self.tag)


# numpy.linalg.norm's ord for each kind; a weighted kind's matrix norm is the l2 norm of its similarity transform
_ORD = {"l1": 1, "l2": 2, "linf": np.inf, "weighted": 2}


def vec_norm(v, kind: NormKind):
    """Vector norm |v| under the given kind.

    v is one vector (n,), giving a float, or a stack (..., n), giving an
    array of shape (...) with one norm per vector.
    """
    x = as_vector_stack(v)
    if kind.weight is None:
        return float_or_array(np.linalg.norm(x, _ORD[kind.tag], axis=-1))
    kind.check_fits(x.shape[-1])
    # x^T P by broadcasting, not by matmul: BLAS rounds a vector-matrix and a
    # matrix-matrix product differently, and a vector must read the same alone and in a stack
    xp = (x[..., :, None] * kind.weight).sum(axis=-2)
    return float_or_array(np.sqrt(np.maximum((xp * x).sum(axis=-1), 0.0)))


def induced_matrix_norm(a, kind: NormKind):
    """Operator norm ||A|| induced by the chosen vector norm.

    l1: max column absolute sum. linf: max row absolute sum. l2: largest
    singular value. weighted(P): l2 norm of the similarity transform
    sqrt(P) A sqrt(P)^-1. A is one matrix (n, n), giving a float, or a
    stack (..., n, n), giving an array of shape (...).
    """
    return float_or_array(np.linalg.norm(kind.similarity(as_square_stack(a)), _ORD[kind.tag], axis=(-2, -1)))


def solve(a, b) -> np.ndarray:
    """Solve A x = b for one matrix A (n, n) or a stack (..., n, n).

    b is a vector (n,), shared by every matrix of the stack, or a matrix of
    right-hand sides (..., n, k) whose leading axes broadcast against A's.
    A stack of vector right-hand sides must therefore be given as (..., n, 1).
    Raises ConditioningError if any matrix of the stack is singular.
    """
    m = as_square_stack(a)
    rhs = check_array(b, "right-hand side")
    n = m.shape[-1]
    misfit = f"right-hand side of shape {rhs.shape} does not fit matrices of shape {m.shape}"
    if rhs.shape != (n,) and (rhs.ndim < 2 or rhs.shape[-2] != n):
        raise DimensionError(misfit)
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"matrix is numerically singular: {exc}") from exc
    except ValueError as exc:  # the leading (stack) axes do not broadcast
        raise DimensionError(misfit) from exc


def cond_2(a):
    """Spectral condition number ||A||_2 ||A^-1||_2 (small matrices only).

    A is one matrix, giving a float, or a stack (..., n, n), giving an
    array. The inverse comes from solve, so a singular A (any member of a
    stack) raises ConditioningError instead of giving a huge finite number.
    """
    m = as_square_stack(a)
    kind = NormKind.l2()
    return induced_matrix_norm(m, kind) * induced_matrix_norm(solve(m, np.eye(m.shape[-1])), kind)
