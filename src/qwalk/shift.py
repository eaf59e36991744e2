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

Block convention: the stored blocks are exactly the blocks of S, i.e. the
transposed per-coin adjacencies. Graph-side adjacency contributions are
obtained by transposing at the graph boundary only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonUnitaryError, PreconditionError
from .graphs import Arc, MultiGraph
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    as_matrix,
    assemble_blocks,
    block_partition,
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
]


@dataclass(frozen=True)
class KrausGrid:
    """An m x m grid of n x n blocks (the candidate blocks of a shift
    operator). Completeness is not enforced at construction; use
    ``verify_kraus`` or ``assemble_shift``."""

    m: int
    n: int
    blocks: tuple[tuple[ComplexMatrix, ...], ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise PreconditionError("grid dimensions must be positive")
        rows = tuple(tuple(as_matrix(b) for b in row) for row in self.blocks)
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise PreconditionError(f"expected an {self.m}x{self.m} grid of blocks")
        for row in rows:
            for b in row:
                if b.shape != (self.n, self.n):
                    raise PreconditionError(
                        f"expected {self.n}x{self.n} blocks, got {b.shape}")
        object.__setattr__(self, "blocks", rows)

    @classmethod
    def from_matrix(cls, u: ComplexMatrix, m: int) -> "KrausGrid":
        """Partition a square matrix of size divisible by m."""
        u = as_matrix(u)
        if u.shape[0] != u.shape[1]:
            raise PreconditionError("matrix must be square")
        if u.shape[0] % m != 0:
            raise PreconditionError(
                f"dimension {u.shape[0]} is not divisible by m={m}")
        n = u.shape[0] // m
        return cls(m, n, tuple(tuple(r) for r in block_partition(u, m, n)))

    def block_sum(self) -> ComplexMatrix:
        """Sum of all blocks (the candidate transposed adjacency)."""
        total = np.zeros((self.n, self.n), dtype=np.complex128)
        for row in self.blocks:
            for b in row:
                total += b
        return total

    @cached_property
    def _matrix(self) -> ComplexMatrix:
        """The assembled nm x nm matrix S, built once per grid."""
        return assemble_blocks(self.blocks)

    def column_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[i][j]^dag blocks[i][k] - I djk|, i.e.
        of S^dag S - I: zero iff each block column is a complete Kraus set."""
        return unitarity_residual(self._matrix)

    def row_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[j][i] blocks[k][i]^dag - I djk|,
        i.e. of S S^dag - I: completeness of each block row."""
        return unitarity_residual(self._matrix.conj().T)


@dataclass(frozen=True)
class ShiftOperator:
    """A verified Kraus grid together with its nm x nm unitary assembly."""

    grid: KrausGrid
    matrix: ComplexMatrix

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
    if np.any(a.imag != 0) or np.any(a.real < 0) or np.any(a.real != np.round(a.real)):
        raise PreconditionError("entries must be nonnegative integers")
    target = a.real.T.astype(np.int64, order="C")  # counts of A^T
    row_sums = target.sum(axis=0)
    col_sums = target.sum(axis=1)
    d = int(row_sums[0])
    if d < 1 or np.any(row_sums != d) or np.any(col_sums != d):
        raise PreconditionError(
            "matrix is not regular: row sums "
            f"{row_sums.tolist()}, column sums {col_sums.tolist()}")

    n = target.shape[0]
    perms: list[ComplexMatrix] = []
    for _ in range(d):
        match = _perfect_matching(target)
        p = np.zeros((n, n), dtype=np.complex128)
        p[np.arange(n), match] = 1.0
        target[np.arange(n), match] -= 1
        perms.append(p)

    zero = np.zeros((n, n), dtype=np.complex128)
    blocks = tuple(tuple(perms[i] if i == j else zero for j in range(d))
                   for i in range(d))
    return KrausGrid(d, n, blocks)


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
    return ShiftOperator(grid, grid._matrix)


def extract_graph(u: ComplexMatrix, m: int,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[KrausGrid, MultiGraph]:
    """Read the multigraph encoded by a bipartite unitary.

    The unitary is partitioned into an m x m grid; arcs contributed by
    block column j carry coin_tag j, and the total adjacency is the sum of
    the transposed blocks. Entries below tol.abs_eps in magnitude are
    treated as floating-point zeros and produce no arc.
    """
    u = as_matrix(u)
    require_unitary(u, tol, "input matrix")
    grid = KrausGrid.from_matrix(u, m)
    n = grid.n
    arcs: list[Arc] = []
    for j in range(grid.m):
        # graph-side adjacency of coin j: sum over rows, transposed
        col_adj = sum(grid.blocks[i][j] for i in range(grid.m)).T
        arcs.extend(Arc(r, c, complex(col_adj[r, c]), coin_tag=j)
                    for r, c in np.argwhere(np.abs(col_adj) >= tol.abs_eps).tolist())
    return grid, MultiGraph(n, tuple(arcs))
