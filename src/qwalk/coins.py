"""Coin operators and the composed one-step evolution operator.

A coin acts on the m-dimensional coin register: one global unitary, lifted
as C (x) I_n, or a stack of n, entry k steering vertex k. linalg's stacked
unitarity kernel certifies the coins when the spec is built, and U = S (C (x)
I_n) in both branches; U of a monomial S is a WalkOperator of its factors,
dense only through ``np.asarray``.
"""

from dataclasses import InitVar, dataclass, field

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
    "WalkOperator",
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


def _coin_step(coins: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(C (x) I_n) x for a contiguous complex128 x of m n amplitudes, coin-major as x
    is: an (n, m, m) stack is one einsum; a (1, m, m) stack is one BLAS product C @ x
    on x viewed as C's dtype (a real C on its floats). A state of any split takes U's own."""
    m = coins.shape[1]
    if len(coins) > 1:
        return np.einsum("kij,jk->ik", coins, x.reshape(m, -1)).reshape(-1)
    return (coins[0] @ x.view(coins.dtype).reshape(m, -1)).view(np.complex128).reshape(-1)


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """U = S (C (x) I_n) of a monomial S as the factors ``evolution`` certified:
    S's read-only ``phase`` and ``perm``, (S x)[r] = phase[r] x[perm[r]], and
    the spec's coin stack. ``U @ x``, for an x that converts to a 1-D complex128
    array of U's size, is phase * _coin_step(coins, x)[perm] in O(n m^2): a real
    global coin steps as a private float64 copy, and unit phases take no
    product. ``np.asarray(U)`` is dense U, from the complex stack. numpy's
    ufuncs, and so ``np.matmul`` and arithmetic, refuse it rather than densify it.
    Build it with ``evolution``: the dataclass constructor checks nothing."""

    phase: ComplexMatrix
    coins: ComplexMatrix
    perm: np.ndarray
    _kernel: np.ndarray = field(init=False, repr=False)  # the stack _coin_step takes
    _unit: bool = field(init=False, repr=False)  # every phase exactly 1: no phase product

    __array_ufunc__ = None

    def __post_init__(self):
        real = len(self.coins) == 1 and not self.coins.imag.any()
        object.__setattr__(self, "_kernel", self.coins.real.copy() if real else self.coins)
        object.__setattr__(self, "_unit", bool((self.phase == 1).all()))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.perm.size,) * 2

    def __matmul__(self, x):
        try:
            x = np.asarray(x, dtype=np.complex128, order="C")
        except (TypeError, ValueError) as e:
            raise PreconditionError(
                f"cannot step a state that does not convert to complex128: {e}") from None
        if x.shape != self.shape[:1]:
            raise PreconditionError(
                f"operator shape {self.shape} cannot step a state of shape {x.shape}")
        y = _coin_step(self._kernel, x)[self.perm]
        return y if self._unit else self.phase * y

    def __array__(self, dtype=None, copy=None):
        """Dense U, U[r, j n + v] = phase[r] C_v[i, j] for perm[r] = i n + v."""
        m = self.coins.shape[1]
        n = self.perm.size // m
        i, v = np.divmod(self.perm, n)
        u = np.zeros((m * n, m, n), dtype=np.complex128)
        # einsum, not *, so that each entry is rounded as evolution's dense einsum rounds it
        u[np.arange(m * n), :, v] = np.einsum(
            "r,rj->rj", self.phase, np.broadcast_to(self.coins, (n, m, m))[v, i])
        return np.asarray(u.reshape(m * n, m * n), dtype)


def evolution(shift: KrausGrid | ComplexMatrix, spec: CoinSpec,
              tol: Tolerance = DEFAULT_TOL) -> WalkOperator | ComplexMatrix:
    """One-step evolution operator S (C (x) I_n): the shift applied after
    the coin. ``shift`` is a grid, such as ``assemble_shift`` returns, or
    S itself, which is read as the grid ``KrausGrid.from_matrix(S, m)``.

    When S is monomial, as every decomposed or assembled shift is, with
    (S x)[r] = phase[r] x[perm[r]] and perm[r] = i n + v, U[r, j n + v] =
    phase[r] C_v[i, j] is certified from its factors: S†S = D is diagonal,
    so U†U = (C (x) I)† D (C (x) I) is block-diagonal by vertex, and the
    residual of U is the max over k of |C_k† diag(D[i n + k] for i < m)
    C_k - I|, in O(N m + n m^3); U is returned as the WalkOperator of those
    factors, S's own perm and phase and the spec's coins, with no (nm)^2
    array. Any other S takes an O(m^3 n^2) einsum
    on the (m, n, m, n) view of S and the same check of U, as a stack of
    one, and U is a read-only dense array."""
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
    weights = np.empty(m * n)
    with np.errstate(over="ignore"):  # a huge phase: an infinite weight, refused below
        weights[perm] = np.abs(phase) ** 2  # D, the diagonal of S†S
    weights = weights.reshape(m, n).T[:, :, None]  # (n, m, 1): D of vertex k, coin i
    _require_residual(_stack_residual(coins, weights), tol, "evolution operator")
    for a in (phase, perm):
        a.setflags(write=False)
    return WalkOperator(phase, spec.matrices, perm)
