"""Shift-operator compiler: both directions of the adjacency <-> unitary
correspondence.

Forward: a regular nonnegative-integer adjacency matrix is decomposed into
permutation summands (one per coin state) and assembled into a
block-diagonal unitary shift. General additive decompositions can be
supplied by the user and verified against the completeness relations.

Inverse: any bipartite unitary is partitioned into an m x m grid of n x n
blocks and read back as a directed multigraph; the partition parameter m
is free (subject to divisibility), so the same unitary yields a family of
multigraphs.

Block convention: a grid stores S itself, and its blocks are the blocks
of S, i.e. the transposed per-coin adjacencies. Graph-side adjacency
contributions are obtained by transposing at the graph boundary only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryError, PreconditionError
from .graphs import Arc, MultiGraph
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    as_matrix,
    max_norm,
    require_unitary,
    unitarity_residual,
)

__all__ = [
    "KrausGrid",
    "ShiftOperator",
    "KrausReport",
    "decompose_permutations",
    "verify_kraus",
    "assemble_shift",
    "extract_graph",
    "extract_family",
]


@dataclass(frozen=True, init=False)
class KrausGrid:
    """An m x m grid of n x n blocks (the candidate blocks of a shift
    operator), stored once as the read-only nm x nm matrix S; ``blocks``
    is its (m, m, n, n) view, blocks[i][j] = S[in:(i+1)n, jn:(j+1)n].
    Completeness is not enforced at construction; use ``verify_kraus`` or
    ``assemble_shift``."""

    m: int
    n: int
    matrix: ComplexMatrix

    def __init__(self, m: int, n: int, blocks):
        """``blocks`` is any array-like of shape (m, m, n, n)."""
        if m < 1 or n < 1:
            raise PreconditionError("grid dimensions must be positive")
        shape_error = f"expected an {m}x{m} grid of {n}x{n} blocks"
        try:
            b = np.asarray(blocks, dtype=np.complex128)
        except ValueError as exc:  # ragged nesting: rows or blocks of mixed sizes
            raise PreconditionError(shape_error) from exc
        if b.shape != (m, m, n, n):
            raise PreconditionError(f"{shape_error}, got shape {b.shape}")
        self._hold(m, n, as_matrix(b.transpose(0, 2, 1, 3).reshape(m * n, m * n)))

    def _hold(self, m: int, n: int, s: ComplexMatrix) -> None:
        s.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", s)

    @classmethod
    def from_matrix(cls, u: ComplexMatrix, m: int) -> "KrausGrid":
        """Partition a square matrix of size divisible by m. The grid is
        a view of ``u``, not a copy."""
        u = np.asarray(u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise PreconditionError("matrix must be square")
        if m < 1 or u.shape[0] % m != 0:
            raise PreconditionError(
                f"dimension {u.shape[0]} is not divisible by m={m}")
        n = u.shape[0] // m
        return cls(m, n, u.reshape(m, n, m, n).transpose(0, 2, 1, 3))

    @property
    def blocks(self) -> np.ndarray:
        return self.matrix.reshape(self.m, self.n, self.m, self.n).transpose(0, 2, 1, 3)

    def block_sum(self) -> ComplexMatrix:
        """Sum of all blocks (the candidate transposed adjacency)."""
        return self.blocks.sum(axis=(0, 1))

    def column_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[i][j]^dag blocks[i][k] - I djk|, i.e.
        of S^dag S - I: zero iff each block column is a complete Kraus set."""
        return unitarity_residual(self.matrix)

    def row_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[j][i] blocks[k][i]^dag - I djk|,
        i.e. of S S^dag - I: completeness of each block row. That is the
        conjugate of (S^T)^dag S^T - I, so the transpose view of S serves
        and S is not copied."""
        return unitarity_residual(self.matrix.T)


@dataclass(frozen=True)
class ShiftOperator:
    """A verified Kraus grid; its matrix is the unitary assembly S."""

    grid: KrausGrid

    @property
    def matrix(self) -> ComplexMatrix:
        return self.grid.matrix

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(frozen=True)
class KrausReport:
    """Outcome of checking a grid against an adjacency matrix.

    sum_ok may be None when no adjacency matrix was supplied (completeness
    conditions are still checked)."""

    sum_ok: bool | None
    column_ok: bool
    row_ok: bool
    sum_residual: float | None
    column_residual: float
    row_residual: float

    @property
    def passed(self) -> bool:
        return (self.sum_ok is not False) and self.column_ok and self.row_ok


def decompose_permutations(a: ComplexMatrix) -> KrausGrid:
    """Decompose the transpose of a d-regular 0/1-or-integer adjacency
    matrix into d permutation matrices, returned as a diagonal grid.

    The matrix must have nonnegative integer entries with all row sums and
    column sums equal to a common d >= 1. Matchings are extracted
    deterministically: rows are scanned in ascending order and augmenting
    paths prefer the lowest-index column.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise PreconditionError("adjacency matrix must be square")
    if (np.any(a.imag != 0) or np.any(a.real < 0) or np.any(a.real >= 2 ** 63)
            or np.any(a.real != np.round(a.real))):
        raise PreconditionError("entries must be nonnegative 64-bit integers")
    target = a.real.T.astype(np.int64, order="C")  # counts of A^T
    row_sums = target.sum(axis=0)
    col_sums = target.sum(axis=1)
    d = int(row_sums[0])
    if d < 1 or np.any(row_sums != d) or np.any(col_sums != d):
        raise PreconditionError(
            "matrix is not regular: row sums "
            f"{row_sums.tolist()}, column sums {col_sums.tolist()}")

    n = target.shape[0]
    s = np.zeros((d, n, d, n), dtype=np.complex128)  # S, indexed [i, row, j, col]
    rows = np.arange(n)
    for i in range(d):
        match = _perfect_matching(target)
        s[i, rows, i, match] = 1.0
        target[rows, match] -= 1
    grid = object.__new__(KrausGrid)  # S holds only 0 and 1: no NaN/Inf scan
    grid._hold(d, n, s.reshape(d * n, d * n))
    return grid


def _perfect_matching(counts: np.ndarray) -> list[int]:
    """Row -> column perfect matching on the nonzero pattern of a
    nonnegative integer matrix, via augmenting paths (Kuhn), iteratively
    since the paths can outgrow the recursion limit. A matching exists
    for regular matrices (Hall/Koenig), so failure is an internal error.
    """
    n = counts.shape[0]
    rows, cols = np.nonzero(counts)
    adj = [c.tolist() for c in np.split(cols, np.searchsorted(rows, np.arange(1, n)))]
    owner, match = [-1] * n, [-1] * n  # row of each column, column of each row
    seen, via = [-1] * n, [-1] * n     # last root to reach each column, from which row
    for root in range(n):
        stack = [(root, iter(adj[root]))]
        while stack:
            r, row_cols = stack[-1]
            c = next((c for c in row_cols if seen[c] != root), None)
            if c is None:  # dead end: the previous row tries its next column
                stack.pop()
                continue
            seen[c], via[c] = root, r
            if owner[c] == -1:
                break
            stack.append((owner[c], iter(adj[owner[c]])))
        else:
            raise RuntimeError("no perfect matching in a regular matrix "
                               "(internal invariant violated)")
        while c != -1:  # flip the augmenting path back to the root
            r = via[c]
            owner[c], match[r], c = r, c, match[r]
    return match


def verify_kraus(a: ComplexMatrix | None, grid: KrausGrid,
                 tol: Tolerance = DEFAULT_TOL) -> KrausReport:
    """Check a candidate grid: block sum against the transposed adjacency
    (when ``a`` is given), plus column and row completeness."""
    if a is not None:
        a = as_matrix(a)
        if a.shape != (grid.n, grid.n):
            raise PreconditionError(
                f"adjacency shape {a.shape} does not match grid n={grid.n}")
        sum_residual = max_norm(grid.block_sum() - a.T)
        sum_ok = sum_residual <= tol.abs_eps
    else:
        sum_residual, sum_ok = None, None
    col_res = grid.column_completeness_residual()
    row_res = grid.row_completeness_residual()
    return KrausReport(
        sum_ok=sum_ok,
        column_ok=col_res <= tol.abs_eps,
        row_ok=row_res <= tol.abs_eps,
        sum_residual=sum_residual,
        column_residual=col_res,
        row_residual=row_res,
    )


def assemble_shift(grid: KrausGrid, tol: Tolerance = DEFAULT_TOL) -> ShiftOperator:
    """Assemble the block matrix S from a grid, refusing grids that
    violate completeness (the assembly would not be unitary)."""
    report = verify_kraus(None, grid, tol)
    if not report.passed:
        raise NonUnitaryError(
            "grid violates completeness relations (column residual "
            f"{report.column_residual:.3e}, row residual {report.row_residual:.3e})",
            max(report.column_residual, report.row_residual))
    return ShiftOperator(grid)


def extract_graph(u: ComplexMatrix, m: int,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[KrausGrid, MultiGraph]:
    """Read the multigraph encoded by a bipartite unitary.

    The unitary is partitioned into an m x m grid; arcs contributed by
    block column j carry coin_tag j, and the total adjacency is the sum of
    the transposed blocks. Zero entries, and entries below tol.abs_eps in
    magnitude, which are treated as floating-point zeros, produce no arc.
    """
    require_unitary(u, tol, "input matrix")
    return _extract(u, m, tol)


def extract_family(u: ComplexMatrix, tol: Tolerance = DEFAULT_TOL):
    """Yield (m, grid, graph) as ``extract_graph`` gives them for every
    divisor m of the dimension of a bipartite unitary, in increasing
    order, checking unitarity once."""
    require_unitary(u, tol, "input matrix")
    dim = np.shape(u)[0]
    for m in range(1, dim + 1):
        if dim % m == 0:
            yield (m, *_extract(u, m, tol))


def _extract(u: ComplexMatrix, m: int, tol: Tolerance) -> tuple[KrausGrid, MultiGraph]:
    grid = KrausGrid.from_matrix(u, m)
    # graph-side adjacency of coin j: block column j summed, transposed
    adj = grid.blocks.sum(axis=0).transpose(0, 2, 1)
    keep = (np.abs(adj) >= tol.abs_eps) & (adj != 0)
    arcs = tuple(Arc(r, c, complex(adj[j, r, c]), coin_tag=j)
                 for j, r, c in np.argwhere(keep).tolist())
    return grid, MultiGraph(grid.n, arcs)
