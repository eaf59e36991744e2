import csv
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_shift_grid, haar_unitary, matrix_obj, pair_list
from qwalk import (
    DEFAULT_TOL,
    Arc,
    CoinSpec,
    Edge,
    FileFormatError,
    KrausGrid,
    MultiGraph,
    ProbabilityVector,
    Tolerance,
    WalkerState,
    basis_state,
    coin_matrix,
    decompose_permutations,
    extract_graph,
    named_coin,
)
from qwalk import fileio


class TestMatrixFormat:
    def test_roundtrip(self, tmp_path, rng):
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        path = tmp_path / "a.json"
        fileio.save_matrix(a, path)
        assert np.array_equal(fileio.load_matrix(path), a)

    def test_schema(self, tmp_path):
        fileio.save_matrix(np.eye(2), tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_whitespace_insensitive(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text('{ "rows" : 1,\n "cols":1,\t"entries": [ [ 2.5 , -1 ] ] }')
        assert fileio.load_matrix(path)[0, 0] == 2.5 - 1j


class TestGraphFormat:
    def test_roundtrip(self, tmp_path):
        g = MultiGraph(
            3,
            arcs=(Arc(0, 1, 1 + 2j, coin_tag=1), Arc(0, 1, -0.5)),
            undirected=(Edge(1, 2, 3.0),),
            names=("a", "b", "c"),
        )
        path = tmp_path / "g.json"
        fileio.save_graph(g, path)
        g2 = fileio.load_graph(path)
        assert g2 == g

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"arcs": []}')
        with pytest.raises(FileFormatError):
            fileio.load_graph(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[]')
        with pytest.raises(FileFormatError):
            fileio.load_graph(path)

    @pytest.mark.parametrize("change", [
        {"n": 2.0},
        {"n": True},
        {"arcs": [{"tail": 0.0, "head": 1, "w": [1, 0]}]},
        {"arcs": [{"tail": 0, "head": 1.0, "w": [1, 0]}]},
        {"arcs": [{"tail": 0, "head": 1, "w": [1, 0], "coin": 0.0}]},
        {"undirected": [{"u": 0, "v": True, "w": [1, 0]}]},
        {"arcs": [{"tail": 0, "head": 1, "w": [float("nan"), 0]}]},
        {"arcs": [{"tail": 0, "head": 1, "w": [1, float("inf")]}]},
        {"names": "ab"},
        {"names": ["a", 2]},
    ], ids=["n-float", "n-bool", "tail-float", "head-float", "coin-float",
            "edge-bool", "weight-nan", "weight-inf", "names-string", "names-int"])
    def test_rejects_malformed(self, tmp_path, change):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "arcs": [], "undirected": [], "names": None,
                                    **change}))
        with pytest.raises(FileFormatError):
            fileio.load_graph(path)


class TestGridFormat:
    def test_roundtrip(self, tmp_path):
        grid = cycle_shift_grid(4)
        path = tmp_path / "grid.json"
        fileio.save_grid(grid, path)
        g2 = fileio.load_grid(path)
        assert (g2.m, g2.n) == (2, 4)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(g2.blocks[i][j], grid.blocks[i][j])


class TestCoinFormat:
    def test_global_roundtrip(self, tmp_path, rng):
        spec = CoinSpec.global_coin(haar_unitary(3, rng), 5)
        path = tmp_path / "coin.json"
        fileio.save_coin_spec(spec, path)
        spec2 = fileio.load_coin_spec(path)
        assert not spec2.per_vertex
        assert np.array_equal(coin_matrix(spec2), coin_matrix(spec))

    def test_named(self, tmp_path):
        path = tmp_path / "named.json"
        path.write_text('{"m": 2, "n": 4, "kind": "named", "name": "hadamard"}')
        spec = fileio.load_coin_spec(path)
        assert np.array_equal(spec.matrices[0], named_coin("hadamard", 2))

    def test_per_vertex_roundtrip(self, tmp_path, rng):
        spec = CoinSpec.per_vertex_coins([haar_unitary(2, rng)], 2, 3)
        path = tmp_path / "pv.json"
        fileio.save_coin_spec(spec, path)
        spec2 = fileio.load_coin_spec(path)
        assert np.array_equal(coin_matrix(spec2), coin_matrix(spec))

    def test_one_vertex_per_vertex_spec_is_written_global(self, tmp_path, rng):
        c = haar_unitary(2, rng)
        paths = tmp_path / "pv.json", tmp_path / "global.json"
        fileio.save_coin_spec(CoinSpec.per_vertex_coins([c], 2, 1), paths[0])
        fileio.save_coin_spec(CoinSpec.global_coin(c, 1), paths[1])
        assert json.loads(paths[0].read_text())["kind"] == "global"
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "n": 2, "kind": "mystery", "matrices": 1}')
        with pytest.raises(FileFormatError):
            fileio.load_coin_spec(path)


class TestStateFormat:
    def test_roundtrip(self, tmp_path):
        s = basis_state(2, 4, 1, 2)
        path = tmp_path / "s.json"
        fileio.save_state(s, path)
        s2 = fileio.load_state(path)
        assert (s2.m, s2.n) == (2, 4)
        assert np.array_equal(s2.amplitudes, s.amplitudes)


class TestProbabilityFormat:
    def test_roundtrip(self, tmp_path):
        p = ProbabilityVector(np.array([0.25, 0.75]))
        path = tmp_path / "p.json"
        fileio.save_probability_vector(p, path)
        assert np.array_equal(fileio.load_probability_vector(path).probs, p.probs)


class TestCsv:
    def test_deterministic_output(self, tmp_path):
        dists = [(0, np.array([1.0, 0.0])), (1, np.array([1 / 3, 2 / 3]))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_distribution_csv(dists, p1)
        fileio.write_distribution_csv(dists, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_and_formatting(self, tmp_path):
        path = tmp_path / "d.csv"
        fileio.write_distribution_csv(
            [(0, np.array([0.5, 0.5])), (4, np.array([0.25, 0.0, 0.75]))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,vertex,probability"
        assert lines[1:] == ["0,0,0.5", "0,1,0.5", "4,0,0.25", "4,1,0", "4,2,0.75"]

    def test_seventeen_digits(self):
        assert fileio.fmt_float(1 / 3) == "0.33333333333333331"


# Writer bytes against the text the writers produced through
# json.dump(obj, f, indent=1), built from the list-based objects.

SPECIAL = [-0.0, 5e-324, 1e308, 1e16, 0.1]
finite = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
SIZES = [fileio.CHUNK - 1, fileio.CHUNK, fileio.CHUNK + 1, 2 * fileio.CHUNK + 3]


def reference_bytes(obj) -> bytes:
    f = io.StringIO()
    json.dump(obj, f, indent=1)
    f.write("\n")
    return f.getvalue().encode("utf-8")


def saved_bytes(save, value, tmp_path) -> bytes:
    path = tmp_path / "out.json"
    save(value, path)
    return path.read_bytes()


def arc_records(arcs) -> list:
    return [{"tail": a.tail, "head": a.head, "w": [a.weight.real, a.weight.imag],
             "coin": a.coin_tag} for a in arcs]


# Exact zero pairs of each sign, half-zero pairs and finite pairs.
pairs = st.one_of(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]),
                  st.tuples(finite, st.just(0.0)), st.tuples(st.just(0.0), finite),
                  st.tuples(finite, finite))


@st.composite
def complex_matrices(draw, max_side=5):
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    parts = draw(st.lists(pairs, min_size=rows * cols, max_size=rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


def assert_reads_back(a, path) -> None:
    """load_matrix reads the file at ``path`` as ``a``, bit for bit."""
    got = fileio.load_matrix(path)
    assert got.shape == a.shape
    assert got.view(np.float64).tobytes() == a.view(np.float64).tobytes()


def with_zero_pairs(z):
    """A copy of the complex vector z with exact zero pairs of each sign and
    half-zero pairs written over a spread of its entries."""
    z = np.array(z, dtype=np.complex128)
    z[::3] = 0
    z[1::7] = complex(-0.0, 0.0)
    z[2::11] = complex(0.0, -0.0)
    z.real[4::5] = 0
    z.imag[5::13] = 0
    return z


def with_specials(z):
    """A copy of the complex vector z with SPECIAL written over its first
    entries, real and imaginary parts alternately."""
    z = np.array(z, dtype=np.complex128)
    parts = z.view(np.float64)
    parts[:len(SPECIAL)] = SPECIAL[:parts.size]
    return z


class TestWriterBytes:
    @given(complex_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matrix(self, tmp_path_factory, a):
        tmp = tmp_path_factory.mktemp("m")
        got = saved_bytes(fileio.save_matrix, a, tmp)
        assert got == reference_bytes(matrix_obj(a))
        assert_reads_back(a, tmp / "out.json")
        (tmp / "dumps.json").write_text(json.dumps(matrix_obj(a)))
        assert_reads_back(a, tmp / "dumps.json")

    @pytest.mark.parametrize("size", SIZES)
    def test_matrix_across_chunks(self, tmp_path, rng, size):
        a = with_specials(with_zero_pairs(rng.normal(size=size) + 1j * rng.normal(size=size)))
        a = a.reshape(1, size)
        got = saved_bytes(fileio.save_matrix, a, tmp_path)
        assert got == reference_bytes(matrix_obj(a))
        assert_reads_back(a, tmp_path / "out.json")
        (tmp_path / "dumps.json").write_text(json.dumps(matrix_obj(a)))
        assert_reads_back(a, tmp_path / "dumps.json")

    @pytest.mark.parametrize("case", ["all-zero", "zero-chunk-between-dense",
                                      "dense-chunk", "minus-zero-real", "minus-zero-imag",
                                      "isolated-across-chunks", "runs-across-chunks"])
    def test_matrix_zero_runs(self, tmp_path, rng, case):
        # chunks that the zero skip writes entirely from its "0.0", partly,
        # or not at all; zero runs before, between and after the chunks of
        # the other pairs, and runs longer than a chunk
        size = 3 * fileio.CHUNK
        z = np.zeros(size, dtype=np.complex128)
        if case == "isolated-across-chunks":  # CHUNK + 4 pairs, one zero before each
            z[1:2 * fileio.CHUNK + 9:2] = rng.normal(size=fileio.CHUNK + 4) + 1j
        elif case == "runs-across-chunks":
            at = [fileio.CHUNK - 1, fileio.CHUNK + 1, 2 * fileio.CHUNK + 2, size - 2]
            z[at] = rng.normal(size=len(at)) + 1j * rng.normal(size=len(at))
        elif case == "zero-chunk-between-dense":
            z = rng.normal(size=size) + 1j * rng.normal(size=size)
            z[fileio.CHUNK:2 * fileio.CHUNK] = 0
        elif case == "dense-chunk":
            z[:fileio.CHUNK] = rng.normal(size=fileio.CHUNK) + 1j * rng.normal(size=fileio.CHUNK)
        elif case == "minus-zero-real":
            z[fileio.CHUNK + 7] = complex(-0.0, 0.0)
        elif case == "minus-zero-imag":
            z[2 * fileio.CHUNK + 1] = complex(0.0, -0.0)
        a = z.reshape(3, fileio.CHUNK)
        assert saved_bytes(fileio.save_matrix, a, tmp_path) == reference_bytes(matrix_obj(a))
        assert_reads_back(a, tmp_path / "out.json")

    def test_decomposed_grid(self, tmp_path, rng):
        n = 128  # each n x n block spans 4 chunks, n nonzero entries or none
        a = np.zeros((n, n))
        for _ in range(3):
            a[np.arange(n), rng.permutation(n)] += 1
        grid = decompose_permutations(a)
        obj = {"m": 3, "n": n, "blocks": [[matrix_obj(b) for b in row] for row in grid.blocks]}
        assert saved_bytes(fileio.save_grid, grid, tmp_path) == reference_bytes(obj)
        blocks = fileio.load_grid(tmp_path / "out.json").blocks
        assert blocks.view(np.float64).tobytes() == grid.blocks.view(np.float64).tobytes()

    def test_graph_with_real_weights(self, tmp_path, rng):
        count = fileio.CHUNK + 1
        w = rng.normal(size=count)
        w[:4] = [5e-324, 1e308, 1e16, 0.1]
        arcs = tuple(Arc(k % 7, k % 5, complex(x), k % 2) for k, x in enumerate(w))
        obj = {"n": 7, "arcs": arc_records(arcs), "undirected": [], "names": None}
        g = MultiGraph(7, arcs)
        assert saved_bytes(fileio.save_graph, g, tmp_path) == reference_bytes(obj)
        weight = fileio.load_graph(tmp_path / "out.json").weight
        assert weight.view(np.float64).tobytes() == g.weight.view(np.float64).tobytes()

    @pytest.mark.parametrize("size", [1, 3, fileio.CHUNK + 1])
    def test_state(self, tmp_path, rng, size):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        if size > 1:  # values that leave the norm as it is
            amps[0] = complex(-0.0, 5e-324)
            amps[1:] /= np.linalg.norm(amps[1:])
        s = WalkerState(1, size, amps)
        obj = {"m": 1, "n": size, "amplitudes": pair_list(s.amplitudes)}
        assert saved_bytes(fileio.save_state, s, tmp_path) == reference_bytes(obj)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_grid(self, tmp_path_factory, m, n, data):
        parts = data.draw(st.lists(finite, min_size=2 * (m * n) ** 2,
                                   max_size=2 * (m * n) ** 2))
        grid = KrausGrid.from_matrix(np.array(parts).view(np.complex128)
                                     .reshape(m * n, m * n), m)
        obj = {"m": m, "n": n,
               "blocks": [[matrix_obj(b) for b in row] for row in grid.blocks]}
        got = saved_bytes(fileio.save_grid, grid, tmp_path_factory.mktemp("g"))
        assert got == reference_bytes(obj)

    @pytest.mark.parametrize("per_vertex", [False, True])
    def test_coin(self, tmp_path, rng, per_vertex):
        phase = np.array([[1, -0.0], [-0.0, -1]], dtype=np.complex128)
        coins = [phase, haar_unitary(2, rng), named_coin("hadamard", 2)]
        spec = (CoinSpec.per_vertex_coins(coins, 2, 4) if per_vertex
                else CoinSpec.global_coin(coins[1], 4))
        obj = {"m": 2, "n": 4, "kind": "per_vertex" if per_vertex else "global",
               "name": None, "matrices": [matrix_obj(c) for c in spec.matrices]}
        assert saved_bytes(fileio.save_coin_spec, spec, tmp_path) == reference_bytes(obj)

    @pytest.mark.parametrize("size", [1, 5, fileio.CHUNK + 1])
    def test_probability_vector(self, tmp_path, rng, size):
        p = np.ones(1)
        if size > 1:
            p = np.concatenate([[-0.0, 5e-324, 0.1], rng.random(size - 3)])
            p[3:] *= 0.9 / p[3:].sum()
        pv = ProbabilityVector(p)
        obj = {"n": size, "probs": [float(x) for x in pv.probs]}
        assert saved_bytes(fileio.save_probability_vector, pv, tmp_path) == reference_bytes(obj)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_graph(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 5))
        vertex = st.integers(0, n - 1)
        weight = st.builds(complex, finite, finite).filter(lambda w: w != 0)
        arcs = data.draw(st.lists(st.builds(
            Arc, vertex, vertex, weight, st.none() | st.integers(0, 3)), max_size=8))
        undirected = data.draw(st.lists(st.builds(Edge, vertex, vertex, weight),
                                        max_size=3))
        names = data.draw(st.none() | st.lists(
            st.sampled_from(['q"uote', "back\\slash", "café", "☃"]) | st.text(),
            min_size=n, max_size=n))
        g = MultiGraph(n, tuple(arcs), tuple(undirected),
                       tuple(names) if names is not None else None)
        obj = {
            "n": n,
            "arcs": [{"tail": a.tail, "head": a.head,
                      "w": [a.weight.real, a.weight.imag], "coin": a.coin_tag}
                     for a in arcs],
            "undirected": [{"u": e.u, "v": e.v, "w": [e.weight.real, e.weight.imag]}
                           for e in undirected],
            "names": names,
        }
        got = saved_bytes(fileio.save_graph, g, tmp_path_factory.mktemp("graph"))
        assert got == reference_bytes(obj)

    def test_graph_names_that_hold_the_bulk_marker(self, tmp_path):
        """Names that json writes as, or around, the text of a marker
        string: the arcs are still written where they belong."""
        names = ["\0", 'a"\0', json.dumps("\0"), "\0\0"]
        arcs = (Arc(0, 1, 1.0), Arc(3, 2, -0.5j, 1))
        g = MultiGraph(4, arcs, (), tuple(names))
        obj = {"n": 4, "arcs": arc_records(arcs), "undirected": [], "names": names}
        assert saved_bytes(fileio.save_graph, g, tmp_path) == reference_bytes(obj)
        assert fileio.load_graph(tmp_path / "out.json") == g

    def test_graph_across_chunks(self, tmp_path, rng):
        count = fileio.CHUNK + 1
        w = with_specials(rng.normal(size=count) + 1j * rng.normal(size=count))
        arcs = tuple(Arc(k % 7, k % 5, complex(z), None if k % 3 else k % 4)
                     for k, z in enumerate(w))
        obj = {"n": 7, "arcs": arc_records(arcs), "undirected": [], "names": None}
        assert saved_bytes(fileio.save_graph, MultiGraph(7, arcs), tmp_path) == reference_bytes(obj)

    @pytest.mark.parametrize("size", [fileio.CHUNK - 1, fileio.CHUNK, 2 * fileio.CHUNK + 3])
    def test_extracted_graph_across_chunks(self, tmp_path, rng, size):
        # a Haar block of side a and b fixed points: a * a + b arcs at m = 1
        a = math.isqrt(size)
        u = np.eye(a + size - a * a, dtype=np.complex128)
        u[:a, :a] = haar_unitary(a, rng)
        adj = u.T  # at m = 1 the graph-side adjacency; one arc per nonzero entry
        arcs = [Arc(r, c, complex(adj[r, c]), 0) for r, c in np.argwhere(adj != 0).tolist()]
        assert len(arcs) == size
        obj = {"n": u.shape[0], "arcs": arc_records(arcs), "undirected": [], "names": None}
        _, g = extract_graph(u, 1)
        assert saved_bytes(fileio.save_graph, g, tmp_path) == reference_bytes(obj)

    def test_graph_resave_keeps_bytes(self, tmp_path, rng):
        count = fileio.CHUNK + 1
        w = with_specials(rng.normal(size=count) + 1j * rng.normal(size=count))
        obj = {"n": 7,
               "arcs": [{"tail": k % 7, "head": k % 5, "w": [z.real, z.imag],
                         "coin": None if k % 3 else k % 4} for k, z in enumerate(w.tolist())],
               "undirected": [{"u": 0, "v": 6, "w": [-0.0, 2.5]},
                              {"u": 3, "v": 3, "w": [1.0, 5e-324]}],
               "names": [f"v{k}" for k in range(7)]}
        path = tmp_path / "in.json"
        path.write_bytes(reference_bytes(obj))
        resaved = saved_bytes(fileio.save_graph, fileio.load_graph(path), tmp_path)
        assert resaved == path.read_bytes()

    @pytest.mark.parametrize("size", [0, 1, fileio.CHUNK - 1, fileio.CHUNK + 1])
    def test_csv(self, tmp_path, rng, size):
        """Three steps over ``size`` vertices; at size 0, a trajectory of
        no steps."""
        probs = np.concatenate([[-0.0, 5e-324, 0.1, 1e16, 1.0], rng.random(3 * size)])
        dists = [(t, probs[t * size:(t + 1) * size]) for t in range(3 if size else 0)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(fileio.CSV_HEADER)
        for t, p in dists:
            for v, x in enumerate(p.tolist()):
                writer.writerow([t, v, fileio.fmt_float(x)])
        path = tmp_path / "d.csv"
        fileio.write_distribution_csv(iter(dists), path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def read_uncollapsed(path):
    return fileio.matrix_from_obj(fileio._load_json(path))


def read_plain(read):
    """``read`` with no zero run collapsed: every text is read by a plain
    json.loads."""
    def plain(path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_collapse", lambda text, level: None)
            return read(path)
    return plain


def write_text(path, text) -> None:
    """Bytes as they are, and text as UTF-8 in which a lone surrogate
    U+DC80..U+DCFF stands for the byte 0x80..0xFF (not UTF-8 on its own)."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogateescape")
    path.write_bytes(text)


def read_grid(path) -> np.ndarray:
    return fileio.load_grid(path).blocks


def read_coins(path) -> np.ndarray:
    return np.asarray(fileio.load_coin_spec(path).matrices)


# Reader of each file that nests matrices, and the text of such a file
# around the text of one matrix object.
NESTED_READERS = {
    "grid": (read_grid, lambda matrix: '{"m": 1, "n": 1, "blocks": [[' + matrix + ']]}'),
    "coin": (read_coins, lambda matrix: '{"m": 1, "n": 1, "kind": "global", "matrices": ['
             + matrix + ']}'),
}

ZERO = [0.0, 0.0]
# Run lengths at the steps of the reader's gallop (one pair, then blocks of
# 1, 2, 4, ... more), and across a writer's chunk.
GALLOP_RUNS = [1, 2, 3, 255, 256, 257, fileio.CHUNK - 1, fileio.CHUNK + 1]
INDENT_ZERO = "[\n   0.0,\n   0.0\n  ]"  # a zero pair of a matrix file

# Texts that a zero-run collapse could misread: pairs where no entries are,
# nulls and trues, escapes, runs broken by other items, zero pairs in two
# layouts, and files json or the UTF-8 decoder refuses.
VERDICT_TEXTS = [pytest.param(text, id=name) for name, text in [
    ("pair-in-string", '{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "note": "[0.0, 0.0]"}'),
    ("indent-pair-in-string",
     '{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "note": "[\n   0.0,\n   0.0\n  ]"}'),
    ("pair-as-rows", '{"rows": [0.0, 0.0], "cols": 1, "entries": [[0.0, 0.0]]}'),
    ("pair-as-entries", '{"rows": 1, "cols": 2, "entries": [0.0, 0.0]}'),
    ("indent-pair-as-entries", '{"rows": 1, "cols": 2, "entries": [\n   0.0,\n   0.0\n  ]}'),
    ("pair-in-item", '{"rows": 1, "cols": 2, "entries": [[[0.0, 0.0], 1.0], [0.0, 0.0]]}'),
    ("pairs-as-item", '{"rows": 1, "cols": 1, "entries": [[[0.0, 0.0], [0.0, 0.0]]]}'),
    ("pair-as-file", '[0.0, 0.0]'),
    ("null-elsewhere",
     '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [1.0, 0.0]], "names": null}'),
    ("null-item", '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], null]}'),
    ("null-item-and-pair-in-string",
     '{"rows": 1, "cols": 2, "entries": [[1.0, 0.0], null], "note": "[0.0, 0.0]"}'),
    ("number-1-item-and-pair-in-string",
     '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], 1], "note": "[0.0, 0.0]"}'),
    ("escape-before-pair",
     '{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "note": "\\[0.0, 0.0]"}'),
    ("escape-elsewhere", '{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "note": "\\u005b"}'),
    ("utf-16", '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [1.0, 0.0]]}'.encode("utf-16")),
    ("invalid-utf-8-between-runs",
     '{"rows": 1, "cols": 4, "entries": [[0.0, 0.0], [0.0, 0.0], "caf\udce9", [0.0, 0.0]]}'),
    ("nan-next-to-pairs",
     '{"rows": 1, "cols": 3, "entries": [[0.0, 0.0], [NaN, 0.0], [0.0, 0.0]]}'),
    ("inf-next-to-pairs", '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [0.0, Infinity]]}'),
    ("wrong-count", '{"rows": 2, "cols": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}'),
    ("duplicate-entries",
     '{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "entries": [[1.0, 0.0]]}'),
    ("int-too-long", '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [1' + "0" * 5000 + ', 0]]}'),
    ("mixed-numbers", '{"rows": 1, "cols": 3, "entries": [[0.0, 0.0], '
                      '[10000000000000000001, -0.0], [true, 0.0]]}'),
    ("truncated", '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [0.0, 0.0]] '),
    ("mixed-layouts", '{"rows": 1, "cols": 6, "entries": [[0.0, 0.0], ' + INDENT_ZERO
     + ', [1.0, 0.0], ' + INDENT_ZERO + ', [0.0, 0.0], [0.0, 0.0]]}'),
    ("indent-pair-before-dumps-run", '{"rows": 1, "cols": 5, "entries": [' + INDENT_ZERO
     + ', [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}'),
    ("dumps-pair-in-indent-file",
     json.dumps({"rows": 1, "cols": 4, "entries": [ZERO, ZERO, [1.0, 0.0], ZERO]}, indent=1)
     .replace(INDENT_ZERO, "[0.0, 0.0]", 1)),
    ("string-in-run",
     '{"rows": 1, "cols": 4, "entries": [[0.0, 0.0], [0.0, 0.0], "[0.0, 0.0]", [0.0, 0.0]]}'),
    ("indent-string-in-run",
     json.dumps({"rows": 1, "cols": 4, "entries": [ZERO, ZERO, "x", ZERO]}, indent=1)),
    ("runs-at-both-ends", json.dumps(
        {"rows": 1, "cols": 7, "entries": [ZERO, ZERO, [1.0, 2.0], ZERO, [0.5, 0.0], ZERO, ZERO]})),
    ("indent-runs-at-both-ends", json.dumps(
        {"rows": 1, "cols": 7, "entries": [ZERO, ZERO, [1.0, 2.0], ZERO, [0.5, 0.0], ZERO, ZERO]},
        indent=1)),
    ("minus-zero-splits-runs", json.dumps(
        {"rows": 1, "cols": 7, "entries": [ZERO, ZERO, [-0.0, 0.0], ZERO, [0.0, -0.0],
                                           [-0.0, -0.0], ZERO]}, indent=1)),
    ("null-next-to-run",
     '{"rows": 1, "cols": 4, "entries": [[0.0, 0.0], [0.0, 0.0], null, [0.0, 0.0]]}'),
    ("indent-null-next-to-run",
     json.dumps({"rows": 1, "cols": 4, "entries": [ZERO, None, ZERO, ZERO]}, indent=1)),
]]


def outcome(read, path):
    """The bits and shape of what ``read(path)`` returns, or the class and
    message of what it raises."""
    try:
        a = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return a.shape, a.view(np.float64).tobytes()


class TestMatrixReader:
    @pytest.mark.parametrize("entries", [
        [[1, 0], 5],
        [[1, 0, 0], [0, 0]],
        [[1, 0], "ab"],
        [["0.5", 0], [0, 0]],
        [[1, 0], None],
        [[None, 0], [0, 0]],
        [[[1, 0], 0], [0, 0]],
        [[1, 0], [1]],
        [[10 ** 400, 0], [0, 0]],
    ], ids=["scalar-item", "three-element-pair", "string-item", "string-number",
            "null-item", "null-number", "nested-pair", "ragged-pairs", "int-overflow"])
    def test_rejects_what_the_pair_check_rejects(self, tmp_path, entries):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"n": 2, "undirected": [{"u": 0, "v": 1, "w": pair} for pair in entries]}))
        with pytest.raises(FileFormatError):
            fileio.load_graph(path)
        with pytest.raises(FileFormatError):
            fileio.matrix_from_obj({"rows": 1, "cols": 2, "entries": entries})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(f'{{"rows": 1, "cols": 2, "entries": [[1, 0], [{text}, 0]]}}')
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_accepts_booleans_and_integers(self):
        a = fileio.matrix_from_obj(
            {"rows": 1, "cols": 3, "entries": [[True, False], [2, -3], [0.5, 1]]})
        assert a.tolist() == [[1 + 0j, 2 - 3j, 0.5 + 1j]]

    def test_keeps_the_sign_of_zero(self):
        a = fileio.matrix_from_obj({"rows": 1, "cols": 1, "entries": [[-0.0, -0.0]]})
        assert np.signbit(a.real[0, 0]) and np.signbit(a.imag[0, 0])

    @pytest.mark.parametrize("text", VERDICT_TEXTS)
    def test_collapse_keeps_the_verdict(self, tmp_path, text):
        path = tmp_path / "m.json"
        write_text(path, text)
        assert outcome(fileio.load_matrix, path) == outcome(read_uncollapsed, path)

    @pytest.mark.parametrize("reader", ["grid", "coin"])
    @pytest.mark.parametrize("text", VERDICT_TEXTS)
    def test_collapse_keeps_the_verdict_of_nested_matrices(self, tmp_path, reader, text):
        read, wrap = NESTED_READERS[reader]
        path = tmp_path / "f.json"
        if isinstance(text, bytes):
            write_text(path, wrap(text.decode("utf-16")).encode("utf-16"))
        else:
            write_text(path, wrap(text))
        assert outcome(read, path) == outcome(read_plain(read), path)

    @given(st.lists(st.one_of(pairs, st.tuples(st.integers(-2 ** 70, 2 ** 70), finite),
                              st.tuples(st.booleans(), st.booleans())), min_size=1, max_size=20),
           st.sampled_from([None, 1]), st.integers(-1, 1),
           st.sampled_from(GALLOP_RUNS), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_collapse_keeps_the_matrix(self, tmp_path_factory, entries, indent, extra,
                                       run, at):
        path = tmp_path_factory.mktemp("m") / "m.json"
        entries[at:at] = [(0.0, 0.0)] * run  # a run the length of one of the gallop's steps
        obj = {"rows": 1, "cols": len(entries) + extra, "entries": entries}
        path.write_text(json.dumps(obj, indent=indent))
        assert outcome(fileio.load_matrix, path) == outcome(read_uncollapsed, path)

    @given(st.integers(1, 2), st.integers(1, 3), st.sampled_from([None, 1]),
           st.integers(-1, 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_collapse_keeps_the_grid(self, tmp_path_factory, m, n, indent, extra, data):
        def block(size):
            entries = data.draw(st.lists(st.one_of(pairs, st.just(ZERO)),
                                         min_size=size, max_size=size))
            return {"rows": n, "cols": n, "entries": entries}
        blocks = [[block(n * n + (extra if i == j == 0 else 0)) for j in range(m)]
                  for i in range(m)]
        path = tmp_path_factory.mktemp("g") / "grid.json"
        path.write_text(json.dumps({"m": m, "n": n, "blocks": blocks}, indent=indent))
        assert outcome(read_grid, path) == outcome(read_plain(read_grid), path)

    @given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([None, 1]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_collapse_keeps_the_coins(self, tmp_path_factory, m, n, indent, data):
        """Signed permutation coins, whose zeros are +0.0 or -0.0."""
        zero = st.sampled_from([0.0, 0.0, 0.0, -0.0])

        def coin():
            perm = data.draw(st.permutations(range(m)))
            return {"rows": m, "cols": m, "entries": [
                [data.draw(st.sampled_from([1.0, -1.0])) if perm[r] == c else data.draw(zero),
                 data.draw(zero)] for r in range(m) for c in range(m)]}
        kind = data.draw(st.sampled_from(["global", "per_vertex"]))
        matrices = [coin() for _ in range(1 if kind == "global" else n)]
        path = tmp_path_factory.mktemp("c") / "coin.json"
        path.write_text(json.dumps({"m": m, "n": n, "kind": kind, "matrices": matrices},
                                   indent=indent))
        assert outcome(read_coins, path) == outcome(read_plain(read_coins), path)

    def test_files_in_the_writers_layout_are_read_through_their_runs(
            self, tmp_path, monkeypatch):
        """Each matrix of a matrix, grid or coin file in the layout qwalk
        writes is read with its zero runs collapsed."""
        runs, expanded = [], fileio._expanded
        monkeypatch.setattr(fileio, "_expanded", lambda entries, lengths, what: (
            runs.append(sum(lengths)) or expanded(entries, lengths, what)))
        grid = cycle_shift_grid(8)
        fileio.save_matrix(grid.matrix, tmp_path / "s.json")
        assert np.array_equal(fileio.load_matrix(tmp_path / "s.json"), grid.matrix)
        assert runs == [16 * 16 - 16]
        fileio.save_grid(grid, tmp_path / "grid.json")
        assert np.array_equal(read_grid(tmp_path / "grid.json"), grid.blocks)
        assert runs[1:] == [8 * 8 - 8, 8 * 8, 8 * 8, 8 * 8 - 8]
        flip = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        spec = CoinSpec.per_vertex_coins([flip, np.eye(2)], 2, 3)
        fileio.save_coin_spec(spec, tmp_path / "coin.json")
        assert np.array_equal(read_coins(tmp_path / "coin.json"), spec.matrices)
        assert runs[5:] == [2, 2, 2]

    @pytest.mark.parametrize("first, other", [
        (INDENT_ZERO, "[0.0, 0.0]"), ("[0.0, 0.0]", INDENT_ZERO)])
    def test_runs_are_collapsed_in_the_layout_of_the_first_zero_pair(
            self, tmp_path, first, other):
        """Zero pairs of the other layout are read as items."""
        sep = ",\n  " if first == INDENT_ZERO else ", "
        text = ('{"rows": 1, "cols": 7, "entries": ['
                + sep.join([first, "[1.0, 0.0]", *[other] * 3, first, first]) + "]}")
        collapsed, runs = fileio._collapse(text.encode(), fileio._MATRIX_LEVEL)
        assert runs == [1, 2] and collapsed.count(other.encode()) == 3
        path = tmp_path / "m.json"
        path.write_text(text)
        assert outcome(fileio.load_matrix, path) == outcome(read_uncollapsed, path)

    def test_graph_weight_overflow(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"n": 2, "arcs": [{"tail": 0, "head": 1, "w": [10 ** 400, 0]}]}))
        with pytest.raises(FileFormatError):
            fileio.load_graph(path)


def read_state(path, tol=DEFAULT_TOL) -> np.ndarray:
    return fileio.load_state(path, tol).amplitudes


def state_text(text):
    """A VERDICT_TEXTS text with a state's field names for a matrix's."""
    if isinstance(text, bytes):
        return state_text(text.decode("utf-16")).encode("utf-16")
    for field, name in [("entries", "amplitudes"), ("rows", "m"), ("cols", "n")]:
        text = text.replace(f'"{field}"', f'"{name}"')
    return text


# Amplitude parts: signed zeros, a subnormal and finite floats small enough
# that a list of them has a finite norm.
amplitude_parts = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]),
                            st.floats(-1e3, 1e3, allow_nan=False))


class TestStateReader:
    """A state's amplitudes are read through the zero-run collapse that
    matrix, grid and coin files take."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(math.inf)],
                             ids=["default-tol", "any-norm"])
    @pytest.mark.parametrize("text", VERDICT_TEXTS)
    def test_collapse_keeps_the_verdict(self, tmp_path, text, tol):
        """With any norm accepted, the amplitudes of the texts that the
        norm check refuses are compared too."""
        path = tmp_path / "s.json"
        write_text(path, state_text(text))
        read = functools.partial(read_state, tol=tol)
        assert outcome(read, path) == outcome(read_plain(read), path)

    @given(st.lists(st.tuples(amplitude_parts, amplitude_parts), max_size=20),
           st.sampled_from(GALLOP_RUNS), st.integers(0, 20), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_equal(self, tmp_path_factory, parts, run, at, m):
        parts[at:at] = [(0.0, 0.0)] * run
        parts.append((1.0, -0.0))  # a nonzero norm
        parts += [(0.0, 0.0)] * (-len(parts) % m)
        amps = np.array(parts).view(np.complex128).reshape(-1)
        s = WalkerState(m, amps.size // m, amps / np.linalg.norm(amps))
        path = tmp_path_factory.mktemp("s") / "s.json"
        fileio.save_state(s, path)
        got = fileio.load_state(path)
        assert (got.m, got.n) == (s.m, s.n)
        assert got.amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_files_in_the_writers_layout_are_read_through_their_runs(
            self, tmp_path, monkeypatch):
        runs, expanded = [], fileio._expanded
        monkeypatch.setattr(fileio, "_expanded", lambda entries, lengths, what: (
            runs.append(lengths) or expanded(entries, lengths, what)))
        s = basis_state(3, 8, 1, 7)
        fileio.save_state(s, tmp_path / "s.json")
        assert np.array_equal(read_state(tmp_path / "s.json"), s.amplitudes)
        assert runs == [[15, 8]]

    def test_a_saved_basis_state_loads_in_little_memory(self, tmp_path):
        """3 * 10^5 amplitudes, one of them nonzero, peak under 20 MiB under
        tracemalloc: the file is 7.2 MB, and json.loads of it whole builds
        a Python list of 3 * 10^5 pairs, about 55 MiB at its peak."""
        s = basis_state(3, 10 ** 5, 1, 7)
        fileio.save_state(s, tmp_path / "s.json")
        tracemalloc.start()
        try:
            got = read_state(tmp_path / "s.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20
        assert np.array_equal(got, s.amplitudes)
