"""Dense complex-matrix kernel: tolerance-aware structural predicates.

All matrices are numpy arrays of dtype complex128, row-major, and treated
as immutable by every function in this package. The Kronecker convention
is fixed repo-wide: the first factor is the slow (coin) axis, so a
coin-register operator C lifts to ``np.kron(C, np.eye(n))``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NonUnitaryError, PreconditionError

ComplexMatrix = NDArray[np.complex128]

__all__ = [
    "ComplexMatrix",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "max_norm",
    "monomial",
    "unitarity_residual",
    "is_unitary",
    "require_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison threshold for structural predicates: abs_eps bounds
    absolute max-norm residuals."""

    abs_eps: float = 1e-10

    def __post_init__(self):
        if not self.abs_eps >= 0:  # also refuses NaN, which would pass every check
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    return _as_matrix_keep_real(np.asarray(a, dtype=np.complex128))


def _as_matrix_keep_real(a) -> NDArray[np.float64] | ComplexMatrix:
    """``as_matrix``, but a float64 array is checked in place, not copied."""
    m = np.asarray(a)
    m = m if m.dtype == np.float64 else m.astype(np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def max_norm(a) -> float:
    """Entrywise max-magnitude norm (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def monomial(a: ComplexMatrix) -> tuple[NDArray[np.int64], ComplexMatrix] | None:
    """(perm, phase) with (a x)[r] = phase[r] x[perm[r]] when ``a`` is a
    square monomial matrix (one nonzero per row and column, e.g. a
    permutation shift), else None. Then a†a is diagonal, entry perm[r]
    being |phase[r]|^2. ``a`` is already checked by ``as_matrix``."""
    n = a.shape[0]
    if a.shape != (n, n) or np.count_nonzero(a) != n:  # dense input: no scan
        return None
    rows, cols = _nonzero(a)
    if not np.array_equal(rows, np.arange(n)):
        return None
    hit = np.zeros(n, dtype=bool)
    hit[cols] = True
    return (cols, a[rows, cols]) if hit.all() else None


def unitarity_residual(a: ComplexMatrix) -> float:
    """max-norm of a†a - I; zero iff the columns are orthonormal. Exact
    and O(N) for monomial matrices, whose a†a is diagonal. Entries whose
    products overflow give an inf or NaN residual, with no warning."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _stack_residual(a[None]) if (mono := monomial(a)) is None else _phase_residual(mono[1])


def _stack_residual(stack, weights=None) -> float:
    """max over k of |C_k† diag(w_k) C_k - I| for a (k, d, d) stack C and (k, d, 1)
    weights w (None: unit, no product); overflow gives inf or NaN, no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        right = stack if weights is None else weights * stack
        return max_norm(stack.conj().transpose(0, 2, 1) @ right - np.eye(stack.shape[1]))


def _phase_residual(phase: ComplexMatrix) -> float:
    """max | |phase|^2 - 1 |, the unitarity residual of a monomial matrix
    of these phases, and that of its transpose: inf for a huge phase."""
    with np.errstate(over="ignore"):
        return max_norm(np.abs(phase) ** 2 - 1.0)


def is_unitary(a: ComplexMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    return unitarity_residual(a) <= tol.abs_eps


def require_unitary(a: ComplexMatrix, tol: Tolerance = DEFAULT_TOL,
                    what: str = "matrix") -> ComplexMatrix:
    """Return ``a`` unchanged, raising PreconditionError if it is not a
    square matrix and NonUnitaryError past tolerance."""
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise PreconditionError(f"{what} must be a square matrix, got shape {shape}")
    _require_residual(unitarity_residual(a), tol, what)
    return a


def _require_residual(r: float, tol: Tolerance, what: str) -> None:
    """Refuse ``what`` as not unitary when its residual ``r`` is past ``tol`` or NaN."""
    if not r <= tol.abs_eps:
        raise NonUnitaryError(f"{what} is not unitary (residual {r:.3e})", r)


def _nonzero(a) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """``np.nonzero`` of a matrix, the same cells in the same row-major
    order, by one flat scan: several times faster."""
    return np.divmod(np.flatnonzero(a != 0), a.shape[1])


def _require_indexable(entries: int, what: str) -> None:
    """Refuse, before it is allocated, a complex128 array numpy cannot index."""
    if 16 * entries > np.iinfo(np.intp).max:
        raise PreconditionError(f"{what} of {entries} entries is too large")
