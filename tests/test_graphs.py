import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    Arc,
    Edge,
    MultiGraph,
    PreconditionError,
    adjacency,
    from_adjacency,
    max_norm,
    split_directed,
    split_undirected,
    union,
)


class TestAdjacency:
    def test_undirected_edge_contributes_both_cells(self):
        g = MultiGraph(2, undirected=(Edge(0, 1, 1.0),))
        assert np.array_equal(adjacency(g), [[0, 1], [1, 0]])

    def test_parallel_arcs_sum(self):
        g = MultiGraph(2, arcs=(Arc(0, 1, 0.5), Arc(0, 1, 0.5)))
        assert np.array_equal(adjacency(g), [[0, 1], [0, 0]])

    def test_empty_graph(self):
        assert np.array_equal(adjacency(MultiGraph(3)), np.zeros((3, 3)))

    def test_undirected_self_loop_doubles(self):
        # the "add to both endpoints" rule collapses onto one cell
        g = MultiGraph(1, undirected=(Edge(0, 0, 1.0),))
        assert adjacency(g)[0, 0] == 2


class TestSplitDirected:
    def test_even_split(self):
        arcs = split_directed(Arc(0, 1, 1.0), [0.5, 0.5])
        assert [(a.tail, a.head, a.weight) for a in arcs] == [
            (0, 1, 0.5), (0, 1, 0.5)]

    def test_cancelling_pair_from_zero_weight(self):
        # a zero total can be realized by opposite-sign parallel arcs,
        # but the zero arc itself cannot be stored
        arcs = [Arc(0, 1, 1.0), Arc(0, 1, -1.0)]
        total = sum(a.weight for a in arcs)
        assert total == 0
        with pytest.raises(PreconditionError):
            Arc(0, 1, 0.0)

    def test_singleton_split(self):
        (a,) = split_directed(Arc(0, 1, 2.0), [2.0])
        assert (a.tail, a.head, a.weight) == (0, 1, 2.0)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            split_directed(Arc(0, 1, 1.0), [0.5, 0.25])

    def test_coin_tag_preserved(self):
        arcs = split_directed(Arc(0, 1, 1.0, coin_tag=3), [0.25, 0.75])
        assert all(a.coin_tag == 3 for a in arcs)


class TestSplitUndirected:
    def test_basic(self):
        fwd, bwd = split_undirected(Edge(0, 1, 1.0))
        assert (fwd.tail, fwd.head, fwd.weight) == (0, 1, 1.0)
        assert (bwd.tail, bwd.head, bwd.weight) == (1, 0, 1.0)

    def test_self_loop_preserves_adjacency(self):
        before = MultiGraph(1, undirected=(Edge(0, 0, 1.0),))
        after = MultiGraph(1, arcs=split_undirected(Edge(0, 0, 1.0)))
        assert np.array_equal(adjacency(before), adjacency(after))

    def test_complex_weight(self):
        fwd, bwd = split_undirected(Edge(2, 5, -1j))
        assert fwd.weight == -1j and bwd.weight == -1j
        assert (fwd.tail, fwd.head) == (2, 5)
        assert (bwd.tail, bwd.head) == (5, 2)


class TestUnion:
    def test_identity_with_empty(self):
        g = MultiGraph(2, arcs=(Arc(0, 1, 1.0),))
        u = union([g, MultiGraph(2)])
        assert np.array_equal(adjacency(u), adjacency(g))

    def test_two_arcs(self):
        u = union([MultiGraph(2, arcs=(Arc(0, 1, 1.0),)),
                   MultiGraph(2, arcs=(Arc(1, 0, 1.0),))])
        assert np.array_equal(adjacency(u), [[0, 1], [1, 0]])

    def test_directed_triangle(self):
        parts = [MultiGraph(3, arcs=(Arc(i, (i + 1) % 3, 1.0),)) for i in range(3)]
        total = adjacency(union(parts))
        assert np.array_equal(total, sum(adjacency(p) for p in parts))

    def test_vertex_count_mismatch(self):
        with pytest.raises(PreconditionError):
            union([MultiGraph(2), MultiGraph(3)])


class TestFromAdjacency:
    def test_canonical_digraph(self):
        g = from_adjacency(np.array([[0, 1], [1, 0]]))
        assert {(a.tail, a.head, a.weight) for a in g.arcs} == {
            (0, 1, 1.0), (1, 0, 1.0)}
        assert g.undirected == ()

    def test_zero_matrix(self):
        assert from_adjacency(np.zeros((3, 3))).arcs == ()

    def test_all_ones_counts(self):
        g = from_adjacency(np.ones((4, 4)))
        assert len(g.arcs) == 16
        assert sum(1 for a in g.arcs if a.tail == a.head) == 4

    def test_roundtrip_exact(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(adjacency(from_adjacency(a)), a)

    def test_arcs_in_row_major_order(self, rng):
        a = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) * (rng.random((5, 5)) < 0.5)
        a[0, 0] = -0.0
        assert from_adjacency(a).arcs == tuple(
            Arc(i, j, complex(a[i, j])) for i in range(5) for j in range(5) if a[i, j] != 0)


def test_invalid_graph_rejected():
    with pytest.raises(PreconditionError):
        MultiGraph(2, arcs=(Arc(0, 5, 1.0),))
    with pytest.raises(PreconditionError):
        MultiGraph(0)
    with pytest.raises(PreconditionError):  # not truncated to vertex 0
        MultiGraph(3, arcs=(Arc(0.5, 1),))


@pytest.mark.parametrize("columns", [
    ([0], [2], [1.0], [0]),
    ([-1], [0], [1.0], [0]),
    ([0], [1], [0.0], [0]),
    ([0], [1], [1.0], [-2]),
    ([0, 1], [1], [1.0, 1.0], [0, 0]),
    ([1.7], [0], [1.0], [0]),
    ([0], [1], [1.0], [0.5]),
    (np.array([1], dtype=np.uint64), [0], [1.0], [0]),
    ([0], [1], [1.0], [2 ** 64 - 1]),
], ids=["head-n", "tail-neg", "zero-weight", "coin-below-untagged", "ragged",
        "float-tail", "float-coin", "uint64-tail", "coin-past-int64"])
def test_invalid_columns_rejected(columns):
    with pytest.raises(PreconditionError):
        MultiGraph.from_columns(2, *columns)


def test_equal_graphs_hash_equal():
    g = MultiGraph(3, (Arc(0, 1, complex(-0.0, 1.0)), Arc(2, 2, coin_tag=1)), (Edge(0, 2),))
    h = MultiGraph.from_columns(3, [0, 2], [1, 2], [1j, 1.0], [-1, 1], (Edge(0, 2),))
    assert g == h and hash(g) == hash(h)
    assert len({g, h, MultiGraph(3)}) == 2


def test_columns_and_arcs_build_one_graph():
    g = MultiGraph.from_columns(3, [0, 2], [1, 1], [1.0, -2j], [-1, 4])
    assert g == MultiGraph(3, (Arc(0, 1, 1.0), Arc(2, 1, -2j, coin_tag=4)))
    assert g.arcs == (Arc(0, 1, 1.0), Arc(2, 1, -2j, coin_tag=4))
    assert g != MultiGraph(3, (Arc(2, 1, -2j, coin_tag=4), Arc(0, 1, 1.0)))
    with pytest.raises(ValueError):
        g.tail[0] = 1  # read-only


def loop_adjacency(g: MultiGraph) -> np.ndarray:
    """The per-arc loop adjacency replaced, kept as its bit-exact reference."""
    a = np.zeros((g.n, g.n), dtype=np.complex128)
    for arc in g.arcs:
        a[arc.tail, arc.head] += arc.weight
    for e in g.undirected:
        a[e.u, e.v] += e.weight
        a[e.v, e.u] += e.weight
    return a


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n_arcs = draw(st.integers(0, 12))
    n_edges = draw(st.integers(0, 6))
    arcs = tuple(Arc(int(rng.integers(n)), int(rng.integers(n)),
                     complex(rng.normal(), rng.normal()))
                 for _ in range(n_arcs))
    edges = tuple(Edge(int(rng.integers(n)), int(rng.integers(n)),
                       complex(rng.normal(), rng.normal()))
                  for _ in range(n_edges))
    return MultiGraph(n, arcs, edges)


@given(st.lists(multigraphs(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_union_additivity_property(graphs):
    n = max(g.n for g in graphs)
    graphs = [MultiGraph(n, g.arcs, g.undirected) for g in graphs]
    assert union(graphs).arcs == sum((g.arcs for g in graphs), ())
    total = adjacency(union(graphs))
    # summation order differs between the two sides, so allow rounding
    assert max_norm(total - sum(adjacency(g) for g in graphs)) <= 1e-12


@given(multigraphs())
@settings(max_examples=40, deadline=None)
def test_split_invariance_property(g):
    before = adjacency(g)
    arcs = []
    for a in g.arcs:
        arcs.extend(split_directed(a, [a.weight * 0.25, a.weight * 0.75]))
    for e in g.undirected:
        arcs.extend(split_undirected(e))
    after = adjacency(MultiGraph(g.n, tuple(arcs)))
    assert max_norm(after - before) <= 1e-12


@given(multigraphs())
@settings(max_examples=40, deadline=None)
def test_adjacency_matches_per_arc_loop(g):
    assert np.array_equal(adjacency(g), loop_adjacency(g))


def add_at_adjacency(g: MultiGraph) -> np.ndarray:
    """The formula ``adjacency`` had before it scattered ``_arc_columns``,
    kept as its bit-exact oracle: np.add.at over the arcs in arc order,
    then both cells of each undirected edge, edge by edge."""
    a = np.zeros((g.n, g.n), dtype=np.complex128)
    np.add.at(a, (g.tail, g.head), g.weight)
    for e in g.undirected:
        a[e.u, e.v] += e.weight
        a[e.v, e.u] += e.weight
    return a


WEIGHTS = (1, -1, 0.5, 1j, 0.1 + 0.2j, -0.3, complex(1, -0.0), complex(-0.0, 2), 1e-17)


@st.composite
def colliding_graphs(draw):
    """Graphs on at most 3 vertices, so that arcs and edges share cells,
    loops are common, and some arcs cancel others or an edge exactly."""
    n = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = [(*c, w) for c, w in draw(st.lists(st.tuples(cell, st.sampled_from(WEIGHTS)),
                                              max_size=10))]
    edges = [(*c, w) for c, w in draw(st.lists(st.tuples(cell, st.sampled_from(WEIGHTS)),
                                               max_size=4))]
    for t, h, w in draw(st.lists(st.sampled_from(arcs), max_size=3)) if arcs else ():
        arcs.append((t, h, -w))
    for u, v, w in draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else ():
        arcs += [(u, v, -w), (v, u, -w)]
    return MultiGraph(n, [Arc(*a) for a in draw(st.permutations(arcs))],
                      [Edge(*e) for e in edges])


@given(colliding_graphs())
@settings(max_examples=300, deadline=None)
def test_adjacency_is_the_add_at_formula_bit_for_bit(g):
    assert adjacency(g).tobytes() == add_at_adjacency(g).tobytes()
