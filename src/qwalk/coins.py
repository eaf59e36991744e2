"""Coin operators and the composed one-step evolution operator.

A coin acts on the m-dimensional coin register: one global unitary, lifted
as C (x) I_n, or a stack of n, entry k steering vertex k. linalg's stacked
unitarity kernel certifies the coins when the spec is built, and U = S (C (x)
I_n) in both branches; U of a monomial S is built and applied from factors,
a global coin as one BLAS product with the vertices as its long side.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    _require_indexable,
    _require_residual,
    _stack_residual,
    as_matrix,
)
from .shift import KrausGrid

__all__ = [
    "CoinSpec",
    "named_coin",
    "coin_matrix",
    "evolution",
    "NAMED_COINS",
]

NAMED_COINS = ("identity", "hadamard", "grover", "dft")


@dataclass(frozen=True, eq=False)
class CoinSpec:
    """Coin choice for an m-dimensional coin register over n vertices.

    ``matrices`` is one read-only (k, m, m) stack of unitaries, each within
    ``tol``, and its size is the spec's kind: k = 1 is a global coin, and
    k = n gives one coin per vertex, entry v steering vertex v. Any other
    k is refused. Use the classmethods rather than the raw constructor.
    """

    m: int
    n: int
    matrices: ComplexMatrix
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        if self.m < 1 or self.n < 1:
            raise PreconditionError("coin dimensions must be positive")
        mats = np.array(self.matrices, dtype=np.complex128)  # a copy the caller cannot change
        if not np.isfinite(mats).all():
            raise ValueError("matrix contains NaN or Inf entries")
        if mats.ndim != 3:
            raise PreconditionError(f"expected a stack of coin matrices, got shape {mats.shape}")
        if len(mats) not in (1, self.n):
            raise PreconditionError(
                f"expected 1 or {self.n} coin matrices, got {len(mats)}")
        if mats.shape[1:] != (self.m, self.m):
            raise PreconditionError(
                f"coin must be {self.m}x{self.m}, got {mats.shape[1:]}")
        _require_residual(_stack_residual(mats), tol, "coin")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def per_vertex(self) -> bool:  # n > 1 coins, one per vertex
        return len(self.matrices) > 1

    @classmethod
    def global_coin(cls, c: ComplexMatrix, n: int,
                    tol: Tolerance = DEFAULT_TOL) -> "CoinSpec":
        c = as_matrix(c)
        return cls(c.shape[0], n, c[None], tol)

    @classmethod
    def per_vertex_coins(cls, coins, m: int, n: int,
                         tol: Tolerance = DEFAULT_TOL) -> "CoinSpec":
        """Per-vertex coins; fewer than n entries are padded with the
        identity on the remaining vertices."""
        coins = [as_matrix(c) for c in coins]
        if len(coins) > n:
            raise PreconditionError(f"got {len(coins)} coins for {n} vertices")
        if m < 1 or any(c.shape != (m, m) for c in coins):  # before np.eye(m)
            raise PreconditionError(f"per-vertex coins must be {m}x{m} with m >= 1")
        _require_indexable(n * m * m, "a coin array")
        pad = np.broadcast_to(np.eye(m, dtype=np.complex128), (n - len(coins), m, m))
        return cls(m, n, np.concatenate([np.reshape(coins, (-1, m, m)), pad]), tol)


def named_coin(name: str, m: int) -> ComplexMatrix:
    """Standard coin of dimension m: identity, hadamard (m a power of
    two), grover (2/m J - I) or dft (omega^(jk)/sqrt m)."""
    if m < 1:
        raise PreconditionError("coin dimension must be positive")
    _require_indexable(m * m, "a coin array")
    if name == "identity":
        return np.eye(m, dtype=np.complex128)
    if name == "hadamard":
        if m & (m - 1) != 0:
            raise PreconditionError(f"hadamard coin needs m a power of 2, got {m}")
        h2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        h = np.eye(1, dtype=np.complex128)
        while h.shape[0] < m:
            h = np.kron(h, h2)
        return h
    if name == "grover":
        return (2.0 / m) * np.ones((m, m), dtype=np.complex128) - np.eye(m)
    if name == "dft":
        j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        return np.exp(2j * np.pi * j * k / m) / np.sqrt(m)
    raise PreconditionError(f"unknown coin name {name!r} (choose from {NAMED_COINS})")


def coin_matrix(spec: CoinSpec) -> ComplexMatrix:
    """Full nm x nm coin operator: block (i, j) is the diagonal matrix
    whose k-th entry is entry (i, j) of vertex k's coin, so a global coin
    C gives C (x) I_n and identical per-vertex coins give the same bytes.
    """
    m, n = spec.m, spec.n
    _require_indexable((m * n) ** 2, "a coin array")
    full = np.zeros((m, n, m, n), dtype=np.complex128)
    k = np.arange(n)
    full[:, k, :, k] = np.broadcast_to(spec.matrices, (n, m, m))
    return full.reshape(m * n, m * n)


class _Factored(np.ndarray):
    """Dense U as ``evolution`` returns it for a monomial S, with the (index,
    phase, coins) it was scattered from in ``_factors``, coins the stack as
    the spec holds it: ``U @ x`` for a 1-D x of U's size is phase *
    _coin_step(coins, x)[index], the coin then the permutation. Arrays numpy
    derives from it (view, copy, slice, ufunc result, unpickled copy) have
    ``_factors`` None and multiply densely, as ``np.matmul`` does."""

    def __array_finalize__(self, obj):
        self._factors = None

    def __matmul__(self, x):
        if self._factors is None or getattr(x, "shape", None) != self.shape[:1]:
            return super().__matmul__(x)
        index, phase, coins = self._factors
        return phase * _coin_step(coins, x)[index]


def _coin_step(coins: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The coin applied to the coin-major x of m n amplitudes, flat: a (1, m, m)
    stack C gives the vertex-major (x.reshape(m, n).T @ C.T), entry v m + i,
    one BLAS product with the n vertices as its long side; an (n, m, m) stack
    gives the coin-major einsum, entry i n + v being sum_j C_v[i, j] x[j n + v].
    The state is a vector here, so a state of any split takes U's own."""
    m = coins.shape[1]
    if len(coins) == 1:
        return (x.reshape(m, -1).T @ coins[0].T).reshape(-1)
    return np.einsum("kij,jk->ik", coins, x.reshape(m, -1)).reshape(-1)


def evolution(shift: KrausGrid | ComplexMatrix, spec: CoinSpec,
              tol: Tolerance = DEFAULT_TOL) -> ComplexMatrix:
    """One-step evolution operator S (C (x) I_n): the shift applied after
    the coin. ``shift`` is a grid, such as ``assemble_shift`` returns, or
    S itself, which is read as the grid ``KrausGrid.from_matrix(S, m)``.

    When S is monomial, as every decomposed or assembled shift is, with
    (S x)[r] = phase[r] x[perm[r]] and perm[r] = i n + v, U is one
    scatter, U[r, j n + v] = phase[r] C_v[i, j], and is certified from its
    factors: S†S = D is diagonal, so U†U = (C (x) I)† D (C (x) I) is
    block-diagonal by vertex, and the residual of U is the max over k of
    |C_k† diag(D[i n + k] for i < m) C_k - I|, in O(N m + n m^3). That U
    is a _Factored array that keeps its factors, so that ``U @ psi`` applies
    it as the coin then the permutation, in O(n m^2): a global coin as one
    (n, m) x (m, m) product, per-vertex coins as one einsum.
    Any other S takes an O(m^3 n^2) einsum on the (m, n, m, n) view of S
    and the same check of U, as a stack of one. U is read-only either way."""
    m, n = spec.m, spec.n
    grid = shift if isinstance(shift, KrausGrid) else KrausGrid.from_matrix(shift, m)
    if grid.m * grid.n != m * n:
        raise PreconditionError(
            f"shift {(grid.m * grid.n,) * 2} and coin {(m * n, m * n)} dimensions disagree")
    coins = np.broadcast_to(spec.matrices, (n, m, m))
    mono = grid.monomial()
    if mono is None:
        u = np.einsum("iakb,bkj->iajb", grid.matrix.reshape(m, n, m, n), coins)
        u = u.reshape(m * n, m * n)
        _require_residual(_stack_residual(u[None]), tol, "evolution operator")
        u.setflags(write=False)
        return u
    perm, phase = mono
    i, v = np.divmod(perm, n)
    u = np.zeros((m * n, m, n), dtype=np.complex128)
    # einsum, not *, so that each entry is rounded as the einsum above rounds it
    u[np.arange(m * n), :, v] = np.einsum("r,rj->rj", phase, coins[v, i])
    weights = np.empty(m * n)
    with np.errstate(over="ignore"):  # a huge phase: an infinite weight, refused below
        weights[perm] = np.abs(phase) ** 2  # D, the diagonal of S†S
    weights = weights.reshape(m, n).T[:, :, None]  # (n, m, 1): D of vertex k, coin i
    _require_residual(_stack_residual(coins, weights), tol, "evolution operator")
    u = u.reshape(m * n, m * n)
    u.setflags(write=False)  # its views, _Factored among them, are read-only too
    u = u.view(_Factored)
    index = perm if spec.per_vertex else v * m + i  # _coin_step's entry of coin i at vertex v
    u._factors = (index, phase, spec.matrices)
    return u
