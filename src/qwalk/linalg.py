"""Dense complex-matrix kernel: products, powers, Kronecker products,
block partitioning and tolerance-aware structural predicates.

All matrices are numpy arrays of dtype complex128, row-major, and treated
as immutable by every function in this package. The Kronecker convention
is fixed repo-wide: the first factor is the slow (coin) axis, so a
coin-register operator C lifts to ``kron(C, eye(n))``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

ComplexMatrix = NDArray[np.complex128]

__all__ = [
    "ComplexMatrix",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "matmul",
    "kron",
    "matpow",
    "max_norm",
    "unitarity_residual",
    "is_unitary",
    "require_unitary",
    "block_partition",
    "assemble_blocks",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison thresholds for structural predicates.

    abs_eps bounds absolute max-norm residuals (the workhorse); rel_eps
    is available for scale-aware comparisons of large-magnitude data.
    """

    abs_eps: float = 1e-10
    rel_eps: float = 1e-12

    def __post_init__(self):
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def matmul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product with ``a`` on the slow axis."""
    return np.kron(as_matrix(a), as_matrix(b))


def matpow(a: ComplexMatrix, t: int) -> ComplexMatrix:
    """t-fold matrix power; t = 0 yields the identity."""
    a = _require_square(a)
    if t < 0:
        raise ValueError("exponent must be nonnegative")
    return np.linalg.matrix_power(a, t)


def max_norm(a) -> float:
    """Entrywise max-magnitude norm (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def unitarity_residual(a: ComplexMatrix) -> float:
    """max-norm of a†a - I; zero iff the columns are orthonormal. Exact
    and O(N) for monomial matrices (one nonzero per row and column, e.g.
    permutation shifts), whose a†a is diagonal with entries |a_ij|^2."""
    a = _require_square(a)
    nonzero = a != 0
    if (np.count_nonzero(nonzero) == a.shape[0]
            and nonzero.any(axis=0).all() and nonzero.any(axis=1).all()):
        return max_norm(np.abs(a[nonzero]) ** 2 - 1.0)
    return max_norm(a.conj().T @ a - np.eye(a.shape[0]))


def is_unitary(a: ComplexMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    return unitarity_residual(a) <= tol.abs_eps


def require_unitary(a: ComplexMatrix, tol: Tolerance = DEFAULT_TOL,
                    what: str = "matrix") -> ComplexMatrix:
    """Return ``a`` unchanged, raising NonUnitaryError past tolerance."""
    from .errors import NonUnitaryError

    r = unitarity_residual(a)
    if r > tol.abs_eps:
        raise NonUnitaryError(f"{what} is not unitary (residual {r:.3e})", r)
    return a


def block_partition(a: ComplexMatrix, m: int, n: int) -> list[list[ComplexMatrix]]:
    """Partition an (m*n) x (m*n) matrix into an m x m grid of n x n blocks.

    Block (i, j) is the submatrix with rows [i*n, (i+1)*n) and columns
    [j*n, (j+1)*n); ``assemble_blocks`` is the exact inverse.
    """
    a = _require_square(a)
    if m < 1 or n < 1 or a.shape[0] != m * n:
        raise ValueError(f"matrix of size {a.shape[0]} does not factor as {m}x{n}")
    return [[a[i * n:(i + 1) * n, j * n:(j + 1) * n].copy() for j in range(m)]
            for i in range(m)]


def assemble_blocks(blocks) -> ComplexMatrix:
    """Reassemble a grid of equally sized blocks into one matrix."""
    return np.block([[as_matrix(b) for b in row] for row in blocks])


def _require_square(a) -> ComplexMatrix:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a
