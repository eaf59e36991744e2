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


_COLUMNS = ("tail", "head", "weight", "coin", "edge_u", "edge_v", "edge_weight")


@dataclass(frozen=True, init=False, eq=False)
class MultiGraph:
    """Vertex count plus arcs and undirected edges; parallel arcs OK.

    Arc k runs from tail[k] to head[k] with weight[k] and coin tag coin[k]
    (-1: untagged), and edge k joins edge_u[k] and edge_v[k] with
    edge_weight[k], in read-only numpy columns; ``arcs`` and ``undirected``
    build the objects on request. ``==`` compares the content."""

    n: int
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    coin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_weight: np.ndarray
    names: tuple[str, ...] | None

    def __init__(self, n: int, arcs=(), undirected=(), names=None):
        arcs, edges = tuple(arcs), tuple(undirected)
        self._hold(n, [a.tail for a in arcs], [a.head for a in arcs], [a.weight for a in arcs],
                   [-1 if a.coin_tag is None else a.coin_tag for a in arcs],
                   [e.u for e in edges], [e.v for e in edges], [e.weight for e in edges], names)

    @classmethod
    def from_columns(cls, n: int, tail, head, weight, coin,
                     edge_u=(), edge_v=(), edge_weight=(), names=None) -> "MultiGraph":
        """A graph whose arcs and edges are given as (copied) integer and complex columns."""
        g = object.__new__(cls)
        g._hold(n, tail, head, weight, coin, edge_u, edge_v, edge_weight, names)
        return g

    def _hold(self, n, tail, head, weight, coin, edge_u, edge_v, edge_weight, names) -> None:
        ints = [np.asarray(c) for c in (tail, head, coin, edge_u, edge_v)]
        if any(c.size and not np.can_cast(c.dtype, np.int64) for c in ints):  # no float
            raise PreconditionError("endpoints and coin tags must be 64-bit integers")
        tail, head, coin, edge_u, edge_v = (c.astype(np.int64) for c in ints)
        weight, edge_weight = (np.array(w, dtype=np.complex128) for w in (weight, edge_weight))
        if n < 1:
            raise PreconditionError("vertex count must be at least 1")
        if (tail.ndim != 1 or any(c.shape != tail.shape for c in (head, weight, coin))
                or edge_u.ndim != 1 or any(c.shape != edge_u.shape for c in (edge_v, edge_weight))):
            raise PreconditionError("arc and edge columns must be 1-D and of one length per group")
        if any(np.any((c < 0) | (c >= n)) for c in (tail, head, edge_u, edge_v)):
            raise PreconditionError(f"an arc or edge references a vertex outside 0..{n - 1}")
        if any(np.any(w == 0) for w in (weight, edge_weight)):
            raise PreconditionError("zero-weight arcs and edges are not stored")
        if np.any(coin < -1):
            raise PreconditionError("coin tags must be nonnegative (-1: untagged)")
        if not all(np.isfinite(w).all() for w in (weight, edge_weight)):
            raise PreconditionError("arc and edge weights must be finite")
        if names is not None and len(names) != n:
            raise PreconditionError("names table must have one entry per vertex")
        vars(self).update(zip(_COLUMNS, (tail, head, weight, coin, edge_u, edge_v, edge_weight)),
                          n=n, names=None if names is None else tuple(names))
        for c in _COLUMNS:
            getattr(self, c).setflags(write=False)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        columns = (getattr(self, c).tolist() for c in _COLUMNS[:4])
        return tuple(Arc(t, h, w, None if c < 0 else c) for t, h, w, c in zip(*columns))

    @property
    def undirected(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, *(getattr(self, c).tolist() for c in _COLUMNS[4:])))

    def __eq__(self, other):
        return (isinstance(other, MultiGraph) and self.n == other.n and self.names == other.names
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS))

    def __hash__(self):  # not of the weights: 0.0 and -0.0 are equal but differ in bytes
        return hash((self.n, self.names,
                     *(getattr(self, c).tobytes() for c in _COLUMNS if "weight" not in c)))


def adjacency(g: MultiGraph) -> ComplexMatrix:
    """n x n matrix scattered from ``_arc_columns``: a_ij is the summed weight
    of arcs i -> j, and each undirected edge adds its weight to a_ij and a_ji."""
    n, tail, head, weight = _arc_columns(g)
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


def _arc_columns(a) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """n and the nonzero entries (tail, head, weight) of the n x n adjacency
    of ``a``, a MultiGraph or a matrix, in ``np.nonzero`` order, bit-equal to
    ``adjacency(a)``'s. A matrix is checked as by ``as_matrix``, in place, and
    refused unless square: every adjacency the package reads comes here."""
    if not isinstance(a, MultiGraph):
        a = _as_matrix_keep_real(a)
        if a.shape[0] != a.shape[1]:
            raise PreconditionError("adjacency matrix must be square")
        tail, head = _nonzero(a)
        return a.shape[0], tail, head, a[tail, head]
    uv = np.stack([a.edge_u, a.edge_v], axis=1)  # both arcs of each edge, in edge order
    tail, head, weight = _sum_arcs(a.n, [a.tail, uv.ravel()], [a.head, uv[:, ::-1].ravel()],
                                   [a.weight, np.repeat(a.edge_weight, 2)])
    if not np.isfinite(weight).all():  # finite arcs whose sum overflows
        raise PreconditionError("summed arc and edge weights must be finite")
    keep = weight != 0
    return a.n, tail[keep], head[keep], weight[keep]


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
        n, *(np.concatenate([getattr(g, c) for g in graphs]) for c in _COLUMNS))


def from_adjacency(a: ComplexMatrix) -> MultiGraph:
    """Canonical digraph preimage: one arc per nonzero entry, no
    undirected edges. Other preimages are reachable via the split
    operations."""
    n, tail, head, weight = _arc_columns(a)
    return MultiGraph.from_columns(n, tail, head, weight, np.full(tail.size, -1))
