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
from .graphs import MultiGraph, _arc_columns, _sum_arcs
from .linalg import (
    ComplexMatrix,
    Tolerance,
    DEFAULT_TOL,
    _nonzero,
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
        total = np.zeros((self.n, self.n), dtype=np.complex128)
        np.add.at(total, *self._block_sum_entries())
        return total

    def _block_sum_entries(self) -> tuple[tuple[np.ndarray, np.ndarray], ComplexMatrix]:
        """((rows, cols), values) whose sums per entry, in order, are ``block_sum()``."""
        if isinstance(self._s, tuple):
            return (np.arange(self._s[0].size) % self.n, self._s[0] % self.n), self._s[1]
        index = _nonzero(total := self.block_sum())
        return index, total[index]

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


def decompose_permutations(a: ComplexMatrix | MultiGraph) -> KrausGrid:
    """Decompose the transpose of a d-regular adjacency matrix with
    nonnegative integer entries, or of a MultiGraph's adjacency, into d
    permutation matrices, returned as a diagonal grid in permutation form,
    with no n x n array. Degrees of 2^53 or more are refused as too large.

    A^T is held as distinct (row, column) pairs with counts and split by
    Euler partition (Gabow 1976), depth first, in this block order: a part
    whose rows each have one column is one permutation, repeated d' times
    for its degree d'; a part of odd degree gives a Hopcroft-Karp matching,
    then the blocks of the rest; one of even degree, those of its halves.
    """
    shape, tail, head, weight = _arc_columns(a)
    if shape[0] != shape[1]:
        raise PreconditionError("adjacency matrix must be square")
    w = weight.real
    if (np.any(weight.imag != 0) or w.min(initial=0) < 0 or w.max(initial=0) >= 2 ** 63
            or np.any(w != np.round(w))):
        raise PreconditionError("entries must be nonnegative 64-bit integers")
    n = shape[0]
    # float64 sums of integers are exact below 2^53, which no storable d reaches
    sums = np.bincount(np.concatenate([tail, head + n]), np.tile(w, 2), 2 * n)
    if sums.max() >= 2.0 ** 53:
        raise PreconditionError("vertex degrees of 2^53 or more are too large")
    row_sums, col_sums = sums.astype(np.int64).reshape(2, n)
    d = int(row_sums[0])
    if d < 1 or np.any(row_sums != d) or np.any(col_sums != d):
        raise PreconditionError(
            "matrix is not regular: row sums "
            f"{row_sums.tolist()}, column sums {col_sums.tolist()}")
    _require_indexable(d * n, "a permutation grid")

    order = np.lexsort((tail, head))  # row r of A^T has column c for each arc c -> r
    parts = [(head[order], tail[order], w[order].astype(np.int64), d)]
    perms = []  # of the blocks, in order
    while parts:
        rows, cols, counts, k = parts.pop()
        keep = counts > 0
        rows, cols, counts = rows[keep], cols[keep], counts[keep]
        if rows.size == n:  # k times one permutation; rows are 0..n-1 in order
            perms += [cols] * k
        elif k % 2:
            perms.append(_perfect_matching(n, rows, cols))
            parts.append((rows, cols, counts - (cols == perms[-1][rows]), k - 1))
        else:
            parts += [(rows, cols, half, k // 2) for half in _euler_split(cols, counts)[::-1]]
    perm = np.array(perms) + np.arange(d)[:, None] * n  # block i: row i n + r to i n + perm[i, r]
    return KrausGrid._permutation(d, n, perm.reshape(-1), np.ones(d * n, dtype=np.complex128))


def _euler_split(cols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The counts of the two halves of an Euler partition of a part of even
    degree, given row-major: half of each count, and the arcs of odd count
    paired at each row and each column, the two of a pair in different halves.
    Pointer jumping labels each arc with the least on its orbit under (column
    partner) o (row partner); the first half takes an arc whose label is the
    smaller of its row pair's."""
    odd = np.flatnonzero(counts % 2)
    partner = np.arange(odd.size) ^ 1  # at a row: each row's arcs are adjacent and even
    by_col = np.argsort(cols[odd], kind="stable")
    step = np.empty_like(by_col)
    step[by_col] = by_col[partner]
    step, label = step[partner], np.arange(odd.size)
    while not np.array_equal(jumped := np.minimum(label, label[step]), label):
        label, step = jumped, step[step]
    halves = np.tile(counts // 2, (2, 1))
    halves[(label > label[partner]) * 1, odd] += 1
    return halves


def _perfect_matching(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row -> column perfect matching of the distinct arcs (rows, cols),
    given row-major, by Hopcroft-Karp (1973). Each phase layers the rows
    by breadth-first search from the free rows up to the first free
    column, then augments along shortest paths found by an iterative
    depth-first search, rows and columns in ascending order. The first
    phase is thus the greedy matching: each row in turn takes its
    lowest-index free column. A matching exists for regular graphs
    (Hall/Koenig), so failure is an internal error.
    """
    cl, ends = cols.tolist(), np.searchsorted(rows, np.arange(n + 1)).tolist()
    adj = [cl[i:j] for i, j in zip(ends, ends[1:])]  # the columns of each row
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


def verify_kraus(a: ComplexMatrix | MultiGraph | None, grid: KrausGrid,
                 tol: Tolerance = DEFAULT_TOL) -> KrausReport:
    """Check a candidate grid: block sum against the transposed adjacency
    of ``a``, a matrix or a MultiGraph (when given), plus column and row
    completeness. The block sum is compared on arcs, with no n x n array,
    and bit-equal to ``max_norm(grid.block_sum() - adjacency.T)``."""
    if a is not None:
        shape, tail, head, weight = _arc_columns(a)
        if shape != (grid.n, grid.n):
            raise PreconditionError(
                f"adjacency shape {shape} does not match grid n={grid.n}")
        (rows, cols), values = grid._block_sum_entries()
        sum_residual = max_norm(_sum_arcs(grid.n, [rows, head], [cols, tail], [values, -weight])[2])
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
    for m in _family_dims(u, tol):
        yield (m, *_extract(u, m, tol))


def _family_dims(u: ComplexMatrix, tol: Tolerance) -> list[int]:
    """The coin dimensions m of the family of ``u``, every divisor of its
    dimension in increasing order, once ``u`` is checked unitary."""
    require_unitary(u, tol, "input matrix")
    dim = np.shape(u)[0]
    return [m for m in range(1, dim + 1) if dim % m == 0]


def _extract(u: ComplexMatrix, m: int, tol: Tolerance) -> tuple[KrausGrid, MultiGraph]:
    grid = KrausGrid.from_matrix(u, m)
    # graph-side adjacency of coin j: block column j summed, transposed
    adj = grid.blocks.sum(axis=0).transpose(0, 2, 1)
    keep = (np.abs(adj) >= tol.abs_eps) & (adj != 0)
    coin, tail, head = np.nonzero(keep)  # in (coin, tail, head) C order
    return grid, MultiGraph.from_columns(grid.n, tail, head, adj[coin, tail, head], coin)
