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
from .graphs import MultiGraph
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    _as_matrix_keep_real,
    _require_indexable,
    as_matrix,
    max_norm,
    monomial,
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
    operator), which together form the nm x nm matrix S; ``blocks`` is
    its (m, m, n, n) view, blocks[i][j] = S[in:(i+1)n, jn:(j+1)n].

    A grid holds S once: as the read-only dense matrix when built from
    blocks or a matrix, or, when ``decompose_permutations`` builds it, as
    a monomial S in permutation form (perm, phase), with (S x)[r] =
    phase[r] x[perm[r]], in O(nm). ``matrix`` and ``blocks`` build dense
    S from that form on each request. Completeness is not enforced at
    construction; use ``verify_kraus`` or ``assemble_shift``."""

    m: int
    n: int
    _s: ComplexMatrix | tuple[np.ndarray, ComplexMatrix]  # dense S, or (perm, phase)

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
        s = as_matrix(b.transpose(0, 2, 1, 3).reshape(m * n, m * n))
        s.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_s", s)

    @classmethod
    def _permutation(cls, m: int, n: int, perm: np.ndarray,
                     phase: ComplexMatrix) -> "KrausGrid":
        """The grid of the monomial S with (S x)[r] = phase[r] x[perm[r]];
        ``perm`` is a permutation of range(nm) and ``phase`` finite."""
        grid = cls.__new__(cls)
        object.__setattr__(grid, "m", m)
        object.__setattr__(grid, "n", n)
        object.__setattr__(grid, "_s", (perm, phase))
        perm.setflags(write=False)
        phase.setflags(write=False)
        return grid

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
    def matrix(self) -> ComplexMatrix:
        """The read-only nm x nm matrix S."""
        if not isinstance(self._s, tuple):
            return self._s
        perm, phase = self._s
        s = np.zeros((perm.size, perm.size), dtype=np.complex128)
        s[np.arange(perm.size), perm] = phase
        s.setflags(write=False)
        return s

    @property
    def blocks(self) -> np.ndarray:
        return self.matrix.reshape(self.m, self.n, self.m, self.n).transpose(0, 2, 1, 3)

    def monomial(self) -> tuple[np.ndarray, ComplexMatrix] | None:
        """(perm, phase) of S as ``linalg.monomial`` gives it: at no cost
        for a grid in permutation form, by a scan of dense S otherwise."""
        return self._s if isinstance(self._s, tuple) else monomial(self._s)

    def block_sum(self) -> ComplexMatrix:
        """Sum of all blocks (the candidate transposed adjacency)."""
        if not isinstance(self._s, tuple):
            return self.blocks.sum(axis=(0, 1))
        perm, phase = self._s
        total = np.zeros((self.n, self.n), dtype=np.complex128)
        np.add.at(total, (np.arange(perm.size) % self.n, perm % self.n), phase)
        return total

    def column_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[i][j]^dag blocks[i][k] - I djk|, i.e.
        of S^dag S - I: zero iff each block column is a complete Kraus set.
        For a monomial S that is max | |phase|^2 - 1 |, in O(nm)."""
        if isinstance(self._s, tuple):
            return max_norm(np.abs(self._s[1]) ** 2 - 1.0)
        return unitarity_residual(self._s)

    def row_completeness_residual(self) -> float:
        """max over (j,k) of |sum_i blocks[j][i] blocks[k][i]^dag - I djk|,
        i.e. of S S^dag - I: completeness of each block row. That is the
        conjugate of (S^T)^dag S^T - I, so the transpose view of S serves
        and S is not copied. S^T of a monomial S has the same entries, and
        the same residual as its columns."""
        if isinstance(self._s, tuple):
            return self.column_completeness_residual()
        return unitarity_residual(self._s.T)


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
    matrix into d permutation matrices, returned as a diagonal grid in
    permutation form.

    The matrix must have nonnegative integer entries with all row sums and
    column sums equal to a common d >= 1. Matchings are extracted
    deterministically: each is a Hopcroft-Karp matching seeded by the
    greedy one (rows in ascending order, each taking its lowest-index free
    column), and block i holds the i-th matching.
    """
    a = _as_matrix_keep_real(a)
    if a.shape[0] != a.shape[1]:
        raise PreconditionError("adjacency matrix must be square")
    if ((np.iscomplexobj(a) and np.any(a.imag != 0)) or a.real.min() < 0
            or a.real.max() >= 2 ** 63 or np.any(a.real != np.round(a.real))):
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
    _require_indexable(d * n, "a permutation grid")
    perm = np.empty((d, n), dtype=np.int64)  # block i maps row i n + r to i n + perm[i, r]
    rows = np.arange(n)
    for i in range(d):
        match = _perfect_matching(target)
        perm[i] = match + i * n
        target[rows, match] -= 1
    return KrausGrid._permutation(d, n, perm.reshape(-1),
                                  np.ones(d * n, dtype=np.complex128))


def _perfect_matching(counts: np.ndarray) -> np.ndarray:
    """Row -> column perfect matching on the nonzero pattern of a
    nonnegative integer matrix, by Hopcroft-Karp (1973). Each phase
    layers the rows by breadth-first search from the free rows up to the
    first free column, then augments along shortest paths found by an
    iterative depth-first search, rows and columns in ascending order.
    The first phase is thus the greedy matching: each row in turn takes
    its lowest-index free column. A matching exists for regular matrices
    (Hall/Koenig), so failure is an internal error.
    """
    n = counts.shape[0]
    rows, cols = np.nonzero(counts)
    adj = [c.tolist() for c in np.split(cols, np.searchsorted(rows, np.arange(1, n)))]
    owner, match = [-1] * n, [-1] * n  # row of each column, column of each row
    while True:
        free = [r for r in range(n) if match[r] == -1]
        if not free:
            return np.array(match, dtype=np.int64)
        layer = [-1] * n  # BFS depth of each row; -1 unreached or dead
        for r in free:
            layer[r] = 0
        queue, last = list(free), None  # last: depth of the rows next to a free column
        for r in queue:
            if last is not None and layer[r] > last:
                break
            for c in adj[r]:
                o = owner[c]
                if o == -1:
                    last = layer[r]
                elif layer[o] == -1:
                    layer[o] = layer[r] + 1
                    queue.append(o)
        if last is None:
            raise RuntimeError("no perfect matching in a regular matrix "
                               "(internal invariant violated)")
        nexts = [iter(cs) for cs in adj]
        for root in free:
            path = [root]  # rows; path[k] takes the column owned by path[k + 1]
            while path:
                r = path[-1]
                for c in nexts[r]:
                    o = owner[c]
                    if o == -1 or (layer[r] < last and layer[o] == layer[r] + 1):
                        break
                else:  # dead end: no shortest path through r in this phase
                    layer[r] = -1
                    path.pop()
                    continue
                if o != -1:
                    path.append(o)
                    continue
                for r in reversed(path):  # flip the path: r takes c, c's owner moves on
                    owner[c], match[r], c = r, c, match[r]
                break


def verify_kraus(a: ComplexMatrix | None, grid: KrausGrid,
                 tol: Tolerance = DEFAULT_TOL) -> KrausReport:
    """Check a candidate grid: block sum against the transposed adjacency
    (when ``a`` is given), plus column and row completeness."""
    if a is not None:
        a = _as_matrix_keep_real(a)
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
    coin, tail, head = np.nonzero(keep)  # in (coin, tail, head) C order
    return grid, MultiGraph.from_columns(grid.n, tail, head, adj[coin, tail, head], coin)
