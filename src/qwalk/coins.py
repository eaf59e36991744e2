"""Coin operators and the composed one-step evolution operator.

A coin acts on the m-dimensional coin register: either one global unitary
(lifted as C (x) I_n) or a different unitary per vertex, assembled so that
vertex k is steered by its own coin. Unitarity is validated when the spec
is constructed, not at use.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryError, PreconditionError
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    as_matrix,
    kron,
    require_unitary,
)
from .shift import ShiftOperator

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
    per vertex otherwise. Use the classmethods rather than the raw
    constructor.
    """

    m: int
    n: int
    matrices: tuple[ComplexMatrix, ...]
    per_vertex: bool

    def __post_init__(self):
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
            require_unitary(c, what="coin")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def global_coin(cls, c: ComplexMatrix, n: int) -> "CoinSpec":
        c = as_matrix(c)
        return cls(c.shape[0], n, (c,), per_vertex=False)

    @classmethod
    def per_vertex_coins(cls, coins, m: int, n: int) -> "CoinSpec":
        """Per-vertex coins; fewer than n entries are padded with the
        identity on the remaining vertices."""
        coins = [as_matrix(c) for c in coins]
        if len(coins) > n:
            raise PreconditionError(f"got {len(coins)} coins for {n} vertices")
        coins += [np.eye(m, dtype=np.complex128)] * (n - len(coins))
        return cls(m, n, tuple(coins), per_vertex=True)


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


def coin_matrix(spec: CoinSpec) -> ComplexMatrix:
    """Full nm x nm coin operator.

    Global: kron(C, I_n). Per-vertex: block (i, j) is the diagonal matrix
    whose k-th entry is entry (i, j) of vertex k's coin, so identical
    per-vertex coins reproduce the global form bit-exactly.
    """
    if not spec.per_vertex:
        return kron(spec.matrices[0], np.eye(spec.n, dtype=np.complex128))
    m, n = spec.m, spec.n
    full = np.zeros((m * n, m * n), dtype=np.complex128)
    for k, c in enumerate(spec.matrices):
        idx = np.arange(m) * n + k
        full[np.ix_(idx, idx)] = c
    return full


def evolution(shift: ShiftOperator | ComplexMatrix, spec: CoinSpec,
              tol: Tolerance = DEFAULT_TOL) -> ComplexMatrix:
    """One-step evolution operator S (C (x) I_n): the shift applied after
    the coin, in O(m^3 n^2) on the (m, n, m, n) view of S."""
    s = shift.matrix if isinstance(shift, ShiftOperator) else as_matrix(shift)
    m, n = spec.m, spec.n
    if s.shape != (m * n, m * n):
        raise PreconditionError(
            f"shift {s.shape} and coin {(m * n, m * n)} dimensions disagree")
    coins = (np.stack(spec.matrices) if spec.per_vertex
             else np.broadcast_to(spec.matrices[0], (n, m, m)))  # coin of vertex b
    u = np.einsum("iakb,bkj->iajb", s.reshape(m, n, m, n), coins).reshape(m * n, m * n)
    require_unitary(u, tol, "evolution operator")
    return u


def column_adjacency(u: ComplexMatrix, m: int, j: int) -> ComplexMatrix:
    """Effective transposed transition matrix for walkers in coin state j:
    the sum of all blocks in block column j of u."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise PreconditionError("operator must be square")
    if m < 1 or u.shape[0] % m != 0:
        raise PreconditionError(f"dimension {u.shape[0]} is not divisible by m={m}")
    if not 0 <= j < m:
        raise PreconditionError(f"column index {j} out of range for m={m}")
    n = u.shape[0] // m
    acc = np.zeros((n, n), dtype=np.complex128)
    for i in range(m):
        acc += u[i * n:(i + 1) * n, j * n:(j + 1) * n]
    return acc
