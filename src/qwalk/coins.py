"""Coin operators and the composed one-step evolution operator.

A coin acts on the m-dimensional coin register: either one global unitary
(lifted as C (x) I_n) or a different unitary per vertex, assembled so that
vertex k is steered by its own coin. Unitarity is validated when the spec
is constructed, not at use.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import NonUnitaryError, PreconditionError
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    as_matrix,
    max_norm,
    monomial_gram,
    require_unitary,
)
from .shift import KrausGrid, ShiftOperator

__all__ = [
    "CoinSpec",
    "named_coin",
    "coin_matrix",
    "evolution",
    "column_adjacency",
    "NAMED_COINS",
]

NAMED_COINS = ("identity", "hadamard", "grover", "dft")


@dataclass(frozen=True)
class CoinSpec:
    """Coin choice for an m-dimensional coin register over n vertices.

    ``matrices`` holds a single m x m unitary for a global coin, or one
    per vertex otherwise, each unitary within ``tol``. Use the
    classmethods rather than the raw constructor.
    """

    m: int
    n: int
    matrices: tuple[ComplexMatrix, ...]
    per_vertex: bool
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        if self.m < 1 or self.n < 1:
            raise PreconditionError("coin dimensions must be positive")
        mats = tuple(as_matrix(c) for c in self.matrices)
        expected = self.n if self.per_vertex else 1
        if len(mats) != expected:
            raise PreconditionError(
                f"expected {expected} coin matrices, got {len(mats)}")
        for c in mats:
            if c.shape != (self.m, self.m):
                raise PreconditionError(
                    f"coin must be {self.m}x{self.m}, got {c.shape}")
            require_unitary(c, tol, "coin")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def global_coin(cls, c: ComplexMatrix, n: int,
                    tol: Tolerance = DEFAULT_TOL) -> "CoinSpec":
        c = as_matrix(c)
        return cls(c.shape[0], n, (c,), False, tol)

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
        coins += [np.eye(m, dtype=np.complex128)] * (n - len(coins))
        return cls(m, n, tuple(coins), True, tol)


def named_coin(name: str, m: int) -> ComplexMatrix:
    """Standard coin of dimension m: identity, hadamard (m a power of
    two), grover (2/m J - I) or dft (omega^(jk)/sqrt m)."""
    if m < 1:
        raise PreconditionError("coin dimension must be positive")
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


def _vertex_coins(spec: CoinSpec) -> np.ndarray:
    """The (n, m, m) stack of coins, entry k steering vertex k."""
    if spec.per_vertex:
        return np.stack(spec.matrices)
    return np.broadcast_to(spec.matrices[0], (spec.n, spec.m, spec.m))


def coin_matrix(spec: CoinSpec) -> ComplexMatrix:
    """Full nm x nm coin operator: block (i, j) is the diagonal matrix
    whose k-th entry is entry (i, j) of vertex k's coin, so a global coin
    C gives C (x) I_n and identical per-vertex coins give the same bytes.
    """
    m, n = spec.m, spec.n
    full = np.zeros((m, n, m, n), dtype=np.complex128)
    k = np.arange(n)
    full[:, k, :, k] = _vertex_coins(spec)
    return full.reshape(m * n, m * n)


def evolution(shift: ShiftOperator | ComplexMatrix, spec: CoinSpec,
              tol: Tolerance = DEFAULT_TOL) -> ComplexMatrix:
    """One-step evolution operator S (C (x) I_n): the shift applied after
    the coin, in O(m^3 n^2) on the (m, n, m, n) view of S.

    U is certified from its factors when S is monomial, as every
    decomposed or assembled shift is: S†S = D is diagonal, so U†U =
    (C (x) I)† D (C (x) I) is block-diagonal by vertex, and the residual
    of U is the max over k of |C_k† diag(D[i n + k] for i < m) C_k - I|,
    in O(N + n m^3). Any other S takes the dense check of U."""
    s = shift.matrix if isinstance(shift, ShiftOperator) else as_matrix(shift)
    m, n = spec.m, spec.n
    if s.shape != (m * n, m * n):
        raise PreconditionError(
            f"shift {s.shape} and coin {(m * n, m * n)} dimensions disagree")
    coins = _vertex_coins(spec)
    u = np.einsum("iakb,bkj->iajb", s.reshape(m, n, m, n), coins).reshape(m * n, m * n)
    gram = monomial_gram(s)
    if gram is None:
        return require_unitary(u, tol, "evolution operator")
    weights = gram.reshape(m, n).T[:, :, None]  # (n, m, 1): D of vertex k, coin i
    r = max_norm(coins.conj().transpose(0, 2, 1) @ (weights * coins) - np.eye(m))
    if r > tol.abs_eps:
        raise NonUnitaryError(f"evolution operator is not unitary (residual {r:.3e})", r)
    return u


def column_adjacency(u: ComplexMatrix, m: int, j: int) -> ComplexMatrix:
    """Effective transposed transition matrix for walkers in coin state j:
    the sum of all blocks in block column j of u."""
    blocks = KrausGrid.from_matrix(u, m).blocks
    if not 0 <= j < m:
        raise PreconditionError(f"column index {j} out of range for m={m}")
    return blocks[:, j].sum(axis=0)
