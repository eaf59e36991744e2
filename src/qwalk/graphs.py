"""Weighted directed multigraphs and their adjacency matrices.

Vertices are contiguous integers 0..n-1 (the basis-vector correspondence
used everywhere else in the package). Parallel arcs are allowed, weights
are complex, and an optional ``coin_tag`` records which coin state an arc
is associated with after a decomposition.

Self-loop convention: an undirected self-loop {v, v, w} contributes 2w to
the diagonal cell, i.e. the "add to both endpoints" rule is applied
literally even when both endpoints coincide.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import ComplexMatrix, Tolerance, DEFAULT_TOL, _as_matrix_keep_real, _nonzero

__all__ = [
    "Arc",
    "Edge",
    "MultiGraph",
    "adjacency",
    "split_directed",
    "split_undirected",
    "union",
    "from_adjacency",
]


@dataclass(frozen=True)
class Arc:
    """A directed edge with tail, head, nonzero complex weight and an
    optional coin tag."""

    tail: int
    head: int
    weight: complex = 1.0
    coin_tag: int | None = None

    def __post_init__(self):
        if self.tail < 0 or self.head < 0:
            raise PreconditionError("arc endpoints must be nonnegative")
        if self.weight == 0:
            raise PreconditionError("zero-weight arcs are not stored")
        if self.coin_tag is not None and self.coin_tag < 0:
            raise PreconditionError("coin_tag must be nonnegative")


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge {u, v}."""

    u: int
    v: int
    weight: complex = 1.0

    def __post_init__(self):
        if self.u < 0 or self.v < 0:
            raise PreconditionError("edge endpoints must be nonnegative")
        if self.weight == 0:
            raise PreconditionError("zero-weight edges are not stored")


_COLUMNS = ("tail", "head", "weight", "coin")


@dataclass(frozen=True, init=False, eq=False)
class MultiGraph:
    """Vertex count plus arcs and undirected edges; parallel arcs OK.

    Arc k runs from tail[k] to head[k] with weight[k] and coin tag
    coin[k] (-1: untagged), stored as read-only numpy columns; ``arcs``
    builds the Arc objects on request. ``==`` compares the content."""

    n: int
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    coin: np.ndarray
    undirected: tuple[Edge, ...]
    names: tuple[str, ...] | None

    def __init__(self, n: int, arcs=(), undirected=(), names=None):
        arcs = tuple(arcs)
        self._hold(n, [a.tail for a in arcs], [a.head for a in arcs], [a.weight for a in arcs],
                   [-1 if a.coin_tag is None else a.coin_tag for a in arcs], undirected, names)

    @classmethod
    def from_columns(cls, n: int, tail, head, weight, coin,
                     undirected=(), names=None) -> "MultiGraph":
        """A graph whose arcs are given as (copied) integer and complex columns."""
        g = object.__new__(cls)
        g._hold(n, tail, head, weight, coin, undirected, names)
        return g

    def _hold(self, n, tail, head, weight, coin, undirected, names) -> None:
        ints = [np.asarray(c) for c in (tail, head, coin)]
        if any(c.size and not np.can_cast(c.dtype, np.int64) for c in ints):  # no float
            raise PreconditionError("arc endpoints and coin tags must be 64-bit integers")
        tail, head, coin = (c.astype(np.int64) for c in ints)
        weight = np.array(weight, dtype=np.complex128)
        if n < 1:
            raise PreconditionError("vertex count must be at least 1")
        if tail.ndim != 1 or any(c.shape != tail.shape for c in (head, weight, coin)):
            raise PreconditionError("arc columns must be 1-D and of one length")
        if np.any((np.minimum(tail, head) < 0) | (np.maximum(tail, head) >= n)):
            raise PreconditionError(f"an arc references a vertex outside 0..{n - 1}")
        if np.any(weight == 0):
            raise PreconditionError("zero-weight arcs are not stored")
        if np.any(coin < -1):
            raise PreconditionError("coin tags must be nonnegative (-1: untagged)")
        undirected = tuple(undirected)
        for e in undirected:
            if e.u >= n or e.v >= n:
                raise PreconditionError(f"edge {e} references a vertex >= n={n}")
        if names is not None and len(names) != n:
            raise PreconditionError("names table must have one entry per vertex")
        for c in (tail, head, weight, coin):
            c.setflags(write=False)
        vars(self).update(n=n, tail=tail, head=head, weight=weight, coin=coin,
                          undirected=undirected, names=names)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        columns = (getattr(self, c).tolist() for c in _COLUMNS)
        return tuple(Arc(t, h, w, None if c < 0 else c) for t, h, w, c in zip(*columns))

    def __eq__(self, other):
        return (isinstance(other, MultiGraph) and self.n == other.n
                and self.undirected == other.undirected and self.names == other.names
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS))

    def __hash__(self):  # not of the weights: 0.0 and -0.0 are equal but differ in bytes
        return hash((self.n, self.tail.tobytes(), self.head.tobytes(), self.coin.tobytes(),
                     self.undirected, self.names))


def adjacency(g: MultiGraph) -> ComplexMatrix:
    """n x n matrix scattered from ``_arc_columns``: a_ij is the summed weight
    of arcs i -> j, and each undirected edge adds its weight to a_ij and a_ji."""
    (n, _), tail, head, weight = _arc_columns(g)
    a = np.zeros((n, n), dtype=np.complex128)
    a[tail, head] = weight
    return a


def _sum_arcs(n: int, tails, heads, weights) -> tuple[np.ndarray, np.ndarray, ComplexMatrix]:
    """One arc per distinct (tail, head) of the concatenated columns, on n
    vertices, tail-major, each weight summed in input order as ``np.add.at`` sums."""
    tail, head, weight = (np.concatenate(c) for c in (tails, heads, weights))
    keys, group = np.unique(tail * n + head, return_inverse=True)
    summed = np.bincount(group, weight.real).astype(np.complex128)
    summed.imag = np.bincount(group, weight.imag)
    return *np.divmod(keys, n), summed


def _arc_columns(a) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """The shape of the adjacency of ``a``, a MultiGraph or a matrix, and its
    nonzero entries (tail, head, weight) in ``np.nonzero`` order, bit-equal to
    ``adjacency(a)``'s. A matrix is checked as by ``as_matrix``, in place."""
    if not isinstance(a, MultiGraph):
        a = _as_matrix_keep_real(a)
        tail, head = _nonzero(a)
        return a.shape, tail, head, a[tail, head]
    uv = np.array([[e.u, e.v] for e in a.undirected], dtype=np.int64).reshape(-1, 2)
    w = np.repeat(np.array([e.weight for e in a.undirected], dtype=np.complex128), 2)
    tail, head, weight = _sum_arcs(a.n, [a.tail, uv.ravel()], [a.head, uv[:, ::-1].ravel()],
                                   [a.weight, w])  # both arcs of each edge, in edge order
    keep = weight != 0
    return (a.n, a.n), tail[keep], head[keep], weight[keep]


def split_directed(a: Arc, weights, tol: Tolerance = DEFAULT_TOL) -> list[Arc]:
    """Split one arc into parallel arcs whose weights sum to the original.

    Weights may be negative or complex (useful for cancelling pairs).
    Exact-zero split weights are dropped since zero arcs are not stored;
    adjacency is unaffected either way.
    """
    weights = [complex(w) for w in weights]
    total = sum(weights)
    if abs(total - a.weight) > tol.abs_eps:
        raise PreconditionError(
            f"split weights sum to {total}, expected {a.weight}")
    return [Arc(a.tail, a.head, w, a.coin_tag) for w in weights if w != 0]


def split_undirected(e: Edge) -> tuple[Arc, Arc]:
    """Replace an undirected edge by two opposite arcs, each carrying the
    full weight."""
    return Arc(e.u, e.v, e.weight), Arc(e.v, e.u, e.weight)


def union(graphs) -> MultiGraph:
    """Concatenate the edge sets of graphs sharing a vertex set.

    adjacency(union(gs)) equals the sum of the individual adjacencies.
    """
    graphs = list(graphs)
    if not graphs:
        raise PreconditionError("union of zero graphs is undefined")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise PreconditionError(f"vertex-count mismatch: {[g.n for g in graphs]}")
    return MultiGraph.from_columns(
        n, *(np.concatenate([getattr(g, c) for g in graphs]) for c in _COLUMNS),
        undirected=[e for g in graphs for e in g.undirected])


def from_adjacency(a: ComplexMatrix) -> MultiGraph:
    """Canonical digraph preimage: one arc per nonzero entry, no
    undirected edges. Other preimages are reachable via the split
    operations."""
    shape, tail, head, weight = _arc_columns(a)
    if shape[0] != shape[1]:
        raise PreconditionError("adjacency matrix must be square")
    return MultiGraph.from_columns(shape[0], tail, head, weight, np.full(tail.size, -1))
