import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cycle_adjacency, cycle_shift_grid, haar_unitary, hypercube_adjacency,
                      oracle_dense_residual, right_shift, with_huge_entries)
from qwalk import (
    DEFAULT_TOL,
    Arc,
    CoinSpec,
    KrausGrid,
    MultiGraph,
    NonUnitaryError,
    PreconditionError,
    Tolerance,
    adjacency,
    assemble_shift,
    column_adjacency,
    decompose_permutations,
    evolution,
    extract_family,
    extract_graph,
    from_adjacency,
    is_unitary,
    max_norm,
    unitarity_residual,
    verify_kraus,
)
from qwalk import shift as shift_module
from qwalk.shift import _matching

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=np.complex128)


def is_permutation(p: np.ndarray) -> bool:
    return (np.all((p == 0) | (p == 1))
            and np.all(p.sum(axis=0) == 1)
            and np.all(p.sum(axis=1) == 1))


class TestDecomposePermutations:
    def test_complete_graph_with_loops(self):
        a = np.ones((4, 4), dtype=np.complex128)
        grid = decompose_permutations(a)
        assert grid.m == 4
        for i in range(4):
            assert is_permutation(grid.blocks[i][i].real)
            for j in range(4):
                if i != j:
                    assert max_norm(grid.blocks[i][j]) == 0
        assert np.array_equal(grid.block_sum(), a.T)

    def test_cycle_gives_two_shifts(self):
        grid = decompose_permutations(cycle_adjacency(4))
        assert grid.m == 2
        total = grid.blocks[0][0] + grid.blocks[1][1]
        assert np.array_equal(total, cycle_adjacency(4).T)
        for i in range(2):
            assert is_permutation(grid.blocks[i][i].real)

    def test_identity_is_single_block(self):
        grid = decompose_permutations(np.eye(3))
        assert grid.m == 1
        assert np.array_equal(grid.blocks[0][0], np.eye(3))

    def test_irregular_rejected_with_sums(self):
        star = np.zeros((4, 4))
        star[0, 1] = star[0, 2] = star[0, 3] = 1
        star[1, 0] = star[2, 0] = star[3, 0] = 1
        with pytest.raises(PreconditionError, match="row sums"):
            decompose_permutations(star)

    def test_non_integer_rejected(self):
        with pytest.raises(PreconditionError):
            decompose_permutations(np.full((2, 2), 0.5))

    @pytest.mark.parametrize("dtype, entry", [
        (np.complex128, 1j), (np.float64, -1.0), (np.complex128, -1.0),
        (np.float64, 2.0 ** 63), (np.complex128, 2.0 ** 63),
        (np.float64, 0.5), (np.complex128, 0.5)])
    def test_entry_checks_on_real_and_complex_input(self, dtype, entry):
        a = np.eye(2, dtype=dtype)
        a[0, 0] = entry
        with pytest.raises(PreconditionError,
                           match=r"^entries must be nonnegative 64-bit integers$"):
            decompose_permutations(a)
        a[0, 0] = 2.0 ** 63 - 1024  # largest float64 below 2^63: an accepted entry
        with pytest.raises(PreconditionError, match="too large"):
            decompose_permutations(a[:1, :1])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nan_rejected(self, dtype):
        a = np.eye(2, dtype=dtype)
        a[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            decompose_permutations(a)

    def test_deterministic(self):
        a = np.ones((5, 5), dtype=np.complex128)
        g1 = decompose_permutations(a)
        g2 = decompose_permutations(a)
        for i in range(g1.m):
            assert np.array_equal(g1.blocks[i][i], g2.blocks[i][i])

    def test_long_augmenting_paths_do_not_recurse(self):
        n = 3000
        rng = np.random.default_rng(3000)
        a = np.zeros((n, n), dtype=np.complex128)
        for _ in range(3):
            a[np.arange(n), rng.permutation(n)] += 1
        grid = decompose_permutations(a)
        assert grid.m == 3
        assert np.array_equal(grid.block_sum(), a.T)

    def test_degrees_that_wrap_int64_are_refused(self):
        # Each row sums to 3 * 6148914691236517888 >= 2^64, which wraps to
        # 2048 in int64; the entries themselves are exact integers below 2^63.
        with pytest.raises(PreconditionError, match="too large"):
            decompose_permutations(np.full((3, 3), 6148914691236517888.0))

    def test_output_satisfies_completeness(self):
        report = verify_kraus(None, decompose_permutations(cycle_adjacency(6)))
        assert report.column_residual == 0
        assert report.row_residual == 0


class TestPerfectMatching:
    def is_perfect(self, counts, match) -> bool:
        n = counts.shape[0]
        return (sorted(match.tolist()) == list(range(n))
                and bool(np.all(counts[np.arange(n), match] > 0)))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.sampled_from([3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_valid_and_the_same_on_every_run(self, seed, n, k):
        rng = np.random.default_rng(seed)
        counts = sum(np.eye(n, dtype=np.int64)[rng.permutation(n)] for _ in range(k))
        rows, cols = np.nonzero(counts)
        match = _matching(n, rows, cols, counts[rows, cols], k)
        assert self.is_perfect(counts, match)
        again = _matching(n, rows.copy(), cols.copy(), counts[rows, cols].copy(), k)
        assert np.array_equal(again, match)


class TestVerifyKraus:
    def test_swap_grid_passes_against_all_ones(self):
        grid = KrausGrid.from_matrix(SWAP, 2)
        report = verify_kraus(np.ones((2, 2)), grid)
        assert report.passed
        assert report.sum_residual == 0

    def test_zero_column_fails_completeness(self):
        zero = np.zeros((2, 2))
        grid = KrausGrid(2, 2, ((np.eye(2), zero), (zero, zero)))
        report = verify_kraus(np.eye(2), grid)
        assert not report.column_ok
        assert report.column_residual == pytest.approx(1.0)

    def test_sum_mismatch_reports_residual(self):
        grid = KrausGrid.from_matrix(SWAP, 2)
        bad = np.ones((2, 2)) + 0.5
        report = verify_kraus(bad, grid)
        assert not report.sum_ok
        assert report.sum_residual == pytest.approx(0.5)

    def test_adjacency_optional(self):
        report = verify_kraus(None, KrausGrid.from_matrix(SWAP, 2))
        assert report.sum_ok is None
        assert report.passed

    def test_reads_a_dense_monomial_grid_once(self, rng, monkeypatch):
        import qwalk.linalg
        calls = []
        detect = qwalk.linalg.monomial
        for module in (qwalk.linalg, shift_module):
            monkeypatch.setattr(module, "monomial", lambda s: calls.append(s.shape) or detect(s))
        s = np.eye(6)[rng.permutation(6)] * np.exp(2j * np.pi * rng.random(6))[:, None]
        report = verify_kraus(None, KrausGrid.from_matrix(s, 2))
        assert report.passed
        assert calls == [(6, 6)]  # the column and the row residual share one scan

    def test_reads_a_dense_grid_once(self, rng, monkeypatch):
        """A dense S that is not monomial is scanned for monomial structure
        once, by its grid, and not checked for NaN/Inf again: its grid did
        that when it was built."""
        import qwalk.linalg
        grid = KrausGrid.from_matrix(haar_unitary(24, rng), 3)
        calls = {"monomial": 0, "as_matrix": 0}
        for name in calls:
            f = getattr(qwalk.linalg, name)
            for module in (qwalk.linalg, shift_module):
                monkeypatch.setattr(module, name, lambda *a, name=name, f=f:
                                    calls.update({name: calls[name] + 1}) or f(*a))
        assert verify_kraus(None, grid).passed
        assert calls == {"monomial": 1, "as_matrix": 0}


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from([0.0, 1e-12, 1e-6, 1.0]), st.sampled_from([None, 1e200, 1.7e308]))
@settings(max_examples=60, deadline=None)
def test_completeness_residuals_are_the_unitarity_residuals_of_s(seed, m, n, spread, huge):
    """Bit for bit: max | |phase|^2 - 1 | for a monomial S, in permutation
    form or dense, and otherwise the residuals of S and of S^T, both as
    ``unitarity_residual`` gives them and as max|a^dag a - I| written out:
    equal, or both NaN, with no warning when entries overflow."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m * n)
    phase = np.exp(2j * np.pi * rng.random(m * n)) * (1 + spread * rng.standard_normal(m * n))
    phased = KrausGrid.from_permutation(m, n, perm, phase)
    expected = max_norm(np.abs(phase) ** 2 - 1.0)
    for grid in (phased, KrausGrid.from_matrix(phased.matrix, m)):
        report = verify_kraus(None, grid)
        assert (report.column_residual, report.row_residual) == (expected, expected)
    s = haar_unitary(m * n, rng) * (1 + spread * rng.standard_normal((m * n, m * n)))
    if huge is not None:
        s = with_huge_entries(s, huge, rng)
    grid = KrausGrid.from_matrix(s, m)
    report = verify_kraus(None, grid)
    for got, a in ((report.column_residual, s), (report.row_residual, s.T)):
        assert np.array_equal(got, unitarity_residual(a), equal_nan=True)
        if grid.monomial() is None:  # not 1 x 1
            assert np.array_equal(got, oracle_dense_residual(a), equal_nan=True)


@pytest.mark.parametrize("phased", [False, True])
def test_from_permutation_holds_a_copy_of_s_in_permutation_form(rng, phased):
    """S[r, perm[r]] = phase[r], unit phases for None, from read-only copies:
    the caller's arrays stay writable and changing them changes nothing."""
    m, n = 3, 4
    perm = rng.permutation(m * n).astype(np.int32)
    phase = np.exp(2j * np.pi * rng.random(m * n)) if phased else None
    grid = KrausGrid.from_permutation(m, n, perm, phase)
    dense = np.zeros((m * n, m * n), dtype=np.complex128)
    dense[np.arange(m * n), perm] = 1 if phase is None else phase
    assert isinstance(grid._s, tuple)
    assert grid._s[0].dtype == np.int64 and grid._s[1].dtype == np.complex128
    assert np.array_equal(grid.matrix, dense)
    assert perm.flags.writeable and (phase is None or phase.flags.writeable)
    perm[:] = np.arange(m * n)
    assert np.array_equal(grid.matrix, dense)
    assert not (grid._s[0].flags.writeable or grid._s[1].flags.writeable)


class TestAssembleShift:
    def test_cycle_grid(self):
        shift = assemble_shift(cycle_shift_grid(4))
        assert shift.matrix.shape == (8, 8)
        assert is_unitary(shift.matrix)
        r = right_shift(4)
        assert np.array_equal(shift.matrix[:4, :4], r.T)
        assert np.array_equal(shift.matrix[4:, 4:], r)

    def test_swap_roundtrip(self):
        shift = assemble_shift(KrausGrid.from_matrix(SWAP, 2))
        assert np.array_equal(shift.matrix, SWAP)

    def test_single_block(self):
        p = right_shift(3)
        grid = KrausGrid(1, 3, ((p.T,),))
        assert np.array_equal(assemble_shift(grid).matrix, p.T)

    def test_incomplete_grid_refused(self):
        zero = np.zeros((2, 2))
        grid = KrausGrid(2, 2, ((np.eye(2), zero), (zero, zero)))
        with pytest.raises(NonUnitaryError):
            assemble_shift(grid)


class TestExtractGraph:
    def test_swap_gives_complete_two_graph(self):
        _, graph = extract_graph(SWAP, 2)
        assert np.array_equal(adjacency(graph), np.ones((2, 2)))

    def test_identity_gives_parallel_loops(self):
        _, graph = extract_graph(np.eye(4), 2)
        assert np.array_equal(adjacency(graph), 2 * np.eye(2))
        assert len(graph.arcs) == 4

    def test_coin_tags_follow_block_columns(self):
        _, graph = extract_graph(SWAP, 2)
        by_tag = {}
        for a in graph.arcs:
            by_tag.setdefault(a.coin_tag, []).append(a)
        # column j adjacency (graph side) is sum_i blocks[i][j]^T
        blocks = KrausGrid.from_matrix(SWAP, 2).blocks
        for j, arcs in by_tag.items():
            col = sum(blocks[i][j].T for i in range(2))
            got = np.zeros((2, 2), dtype=np.complex128)
            for a in arcs:
                got[a.tail, a.head] += a.weight
            assert np.array_equal(got, col)

    def test_partition_family(self, rng):
        u = haar_unitary(8, rng)
        adjacencies = {}
        for m in (1, 2, 4, 8):
            grid, graph = extract_graph(u, m)
            expected = sum(grid.blocks[i][j].T
                           for i in range(m) for j in range(m))
            assert max_norm(adjacency(graph) - expected) <= 1e-12
            adjacencies[m] = adjacency(graph)
        shapes = {a.shape for a in adjacencies.values()}
        assert len(shapes) == 4

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            extract_graph(np.ones((4, 4)), 2)

    def test_non_divisible_rejected(self, rng):
        with pytest.raises(PreconditionError):
            extract_graph(haar_unitary(6, rng), 4)


def reference_arcs(grid: KrausGrid, tol=DEFAULT_TOL) -> tuple[Arc, ...]:
    """Per-arc extraction, one Arc per np.argwhere cell of the per-coin
    adjacencies in (coin, tail, head) order: the oracle for the columns."""
    adj = grid.blocks.sum(axis=0).transpose(0, 2, 1)
    keep = (np.abs(adj) >= tol.abs_eps) & (adj != 0)
    return tuple(Arc(r, c, complex(adj[j, r, c]), coin_tag=j)
                 for j, r, c in np.argwhere(keep).tolist())


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(abs_eps=0.2)],
                         ids=["default", "drops-small"])
def test_extracted_columns_match_per_arc_reference(rng, tol):
    counts = []
    for m, grid, graph in extract_family(haar_unitary(12, rng), tol):
        assert graph.arcs == reference_arcs(grid, tol)
        counts.append(len(graph.arcs))
    assert (counts[0] < 12 * 12) == (tol is not DEFAULT_TOL)  # small entries dropped


@st.composite
def permutation_sums(draw):
    """A d-regular multigraph on n vertices: the sum of d seeded permutations."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return MultiGraph(n, tuple(Arc(k, int(p[k])) for p in
                               (rng.permutation(n) for _ in range(d)) for k in range(n)))


def assert_matches_dense_oracle(grid: KrausGrid, rng) -> None:
    """A grid in permutation form against the same blocks held densely:
    equal S, block sums and residuals, and U bit for bit, also against
    the einsum that builds U from a dense S.

    Both block sums add each cell's entries in block order, except that
    numpy reduces the contiguous m x m entries of a one-vertex grid
    pairwise; there, a cell of 3 or more unit phases agrees to rounding."""
    dense = KrausGrid(grid.m, grid.n, grid.blocks)
    assert np.array_equal(grid.matrix, dense.matrix)
    if grid.n > 1:
        assert np.array_equal(grid.block_sum(), dense.block_sum())
    else:
        assert max_norm(grid.block_sum() - dense.block_sum()) <= grid.m * np.finfo(float).eps
    assert verify_kraus(None, grid) == verify_kraus(None, dense)
    m, n = grid.m, grid.n
    for spec in (CoinSpec.global_coin(haar_unitary(m, rng), n),
                 CoinSpec.per_vertex_coins([haar_unitary(m, rng) for _ in range(n)], m, n)):
        u = np.asarray(evolution(assemble_shift(grid), spec))
        assert u.tobytes() == np.asarray(evolution(assemble_shift(dense), spec)).tobytes()
        coins = np.stack(spec.matrices) if spec.per_vertex else [spec.matrices[0]] * n
        oracle = np.einsum("iakb,bkj->iajb", dense.matrix.reshape(m, n, m, n), coins)
        assert u.tobytes() == oracle.reshape(m * n, m * n).tobytes()


@given(permutation_sums(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_graph_roundtrip_property(g, seed):
    a = adjacency(g)
    decomposed = decompose_permutations(a)
    blocks = decomposed.blocks
    for i in range(decomposed.m):
        for j in range(decomposed.m):
            assert is_permutation(blocks[i][j].real) or not blocks[i][j].any()
    assert np.array_equal(blocks.sum(axis=(0, 1)), a.T)
    shift = assemble_shift(decomposed)
    grid, extracted = extract_graph(shift.matrix, shift.m)
    assert np.array_equal(adjacency(extracted), a)
    assert extracted.arcs == reference_arcs(grid)

    rng = np.random.default_rng(seed)
    assert_matches_dense_oracle(decomposed, rng)
    assert verify_kraus(a, decomposed) == verify_kraus(
        a, KrausGrid(decomposed.m, decomposed.n, blocks))
    perm, phase = decomposed.monomial()
    phased = KrausGrid.from_permutation(decomposed.m, decomposed.n, perm,
                                        phase * np.exp(2j * np.pi * rng.random(perm.size)))
    assert_matches_dense_oracle(phased, rng)


class TestExtractFamily:
    def test_matches_extract_graph_per_divisor(self, rng):
        u = haar_unitary(12, rng)
        family = list(extract_family(u))
        assert [m for m, _, _ in family] == [1, 2, 3, 4, 6, 12]
        for m, grid, graph in family:
            grid2, graph2 = extract_graph(u, m)
            assert (grid.m, grid.n) == (grid2.m, grid2.n)
            assert np.array_equal(grid.matrix, grid2.matrix)
            assert graph == graph2

    def test_checks_unitarity_once(self, rng, monkeypatch):
        import qwalk.linalg
        calls = []
        residual = qwalk.linalg.unitarity_residual
        monkeypatch.setattr(qwalk.linalg, "unitarity_residual",
                            lambda a: calls.append(a.shape) or residual(a))
        assert len(list(extract_family(haar_unitary(12, rng)))) == 6
        assert calls == [(12, 12)]

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            next(extract_family(np.ones((4, 4))))


class TestRoundtrip:
    def test_assemble_then_extract_recovers_blocks(self, rng):
        u = haar_unitary(12, rng)
        grid = KrausGrid.from_matrix(u, 3)
        shift = assemble_shift(grid)
        grid2, graph = extract_graph(shift.matrix, 3)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(grid.blocks[i][j], grid2.blocks[i][j])
        assert max_norm(adjacency(graph) - grid.block_sum().T) <= 1e-10


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 3)]))
@settings(max_examples=30, deadline=None)
def test_random_unitary_grids_pass_completeness(seed, shape):
    m, n = shape
    u = haar_unitary(m * n, np.random.default_rng(seed))
    grid = KrausGrid.from_matrix(u, m)
    report = verify_kraus(None, grid)
    assert report.column_ok and report.row_ok


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_perturbed_grids_fail_completeness(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(8, rng).copy()
    r, c = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    u[r, c] += 0.01 * u[r, c] / abs(u[r, c])
    report = verify_kraus(None, KrausGrid.from_matrix(u, 2))
    assert not (report.column_ok and report.row_ok)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1, 5), (9, 2), (12, 3), (16, 1)]))
@settings(max_examples=20, deadline=None)
def test_block_sums_match_loop_reference(seed, shape):
    # numpy may add the blocks in another order than this loop (m >= 9),
    # so allow rounding: m^2 terms of magnitude <= 1 in complex128
    m, n = shape
    u = haar_unitary(m * n, np.random.default_rng(seed))
    blocks = [[u[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(m)]
              for i in range(m)]
    assert max_norm(KrausGrid.from_matrix(u, m).block_sum()
                    - sum(b for row in blocks for b in row)) <= 1e-12
    for j in range(m):
        assert max_norm(column_adjacency(u, m, j)
                        - sum(blocks[i][j] for i in range(m))) <= 1e-12


@st.composite
def regular_multigraphs(draw):
    """(a, g): the sum of p seeded permutations plus c times one more, of
    degree p + c in 1..9, as a float64 matrix and as a MultiGraph of
    shuffled unit arcs, with parallel arcs, and undirected unit edges (a
    self-loop counting twice) that give the same adjacency."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(0, 9))
    c = draw(st.integers(0 if p else 1, 9 - p))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.zeros((n, n))
    for _ in range(p):
        a[np.arange(n), rng.permutation(n)] += 1
    a[np.arange(n), rng.permutation(n)] += c
    counts, edges = a.astype(np.int64), []
    for u in range(n):
        for v in range(u, n):
            k = int(rng.integers(0, min(counts[u, v], counts[v, u]) // (2 if u == v else 1) + 1))
            counts[u, v] -= k
            counts[v, u] -= k
            edges += [(u, v)] * k
    tail, head = np.nonzero(counts)
    tail, head = (np.repeat(x, counts[tail, head]) for x in (tail, head))
    order = rng.permutation(tail.size)
    ends = np.reshape(edges, (-1, 2))[rng.permutation(len(edges))]
    g = MultiGraph.from_columns(n, tail[order], head[order], np.ones(tail.size),
                                np.full(tail.size, -1), ends[:, 0], ends[:, 1], np.ones(len(edges)))
    return a, g


@given(regular_multigraphs())
@settings(max_examples=100, deadline=None)
def test_euler_decomposition_property(graph):
    a, g = graph
    assert np.array_equal(adjacency(g), a)
    grid = decompose_permutations(a)
    d, n = grid.m, grid.n
    assert (d, n) == (int(a[0].sum()), a.shape[0])
    perm, phase = grid.monomial()
    for block in perm.reshape(d, n) - np.arange(d)[:, None] * n:
        assert np.array_equal(np.sort(block), np.arange(n))
    assert np.array_equal(phase, np.ones(d * n))
    assert np.array_equal(grid.block_sum(), a.T)
    for same in (a, a.astype(np.complex128), g):
        assert decompose_permutations(same).monomial()[0].tobytes() == perm.tobytes()
    assert verify_kraus(g, grid) == verify_kraus(a, grid)


@pytest.fixture
def splits(monkeypatch):
    """The arguments of each call decompose_permutations makes to the Euler split."""
    calls, real = [], shift_module._euler_split

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(shift_module, "_euler_split", counted)
    return calls


@pytest.mark.parametrize("a, count", [
    (cycle_adjacency(7), 1),
    (hypercube_adjacency(4), 3),
    (4 * np.ones((4, 4)), 1 + 2 + 4 + 8),  # degrees 16, 8, 4 and 2 split
    # odd degree 3 on 8 rows: t = 5 splits to a matching (2^5 >= 24), then the rest
    (hypercube_adjacency(3), 5 + 1),
], ids=["C_7", "Q_4", "4J_4", "Q_3"])
def test_matchings_only_at_odd_degree(splits, a, count):
    grid = decompose_permutations(a)
    assert np.array_equal(grid.block_sum(), a.T)
    assert len(splits) == count


def test_one_permutation_of_high_multiplicity_is_not_split(splits):
    grid = decompose_permutations(np.array([[20000.0]]))
    assert not splits
    assert grid.m == 20000
    assert np.array_equal(grid.monomial()[0], np.arange(20000))  # identity blocks


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from(["phased", "unit", "dense"]),
       st.sampled_from(["integer", "real", "complex", "exact"]))
@settings(max_examples=200, deadline=None)
def test_arc_residual_is_the_dense_oracle_property(seed, m, n, grid_kind, adjacency_kind):
    rng = np.random.default_rng(seed)
    if grid_kind == "dense":
        u = haar_unitary(m * n, rng) * rng.integers(0, 2, (m * n, m * n))
        grid = KrausGrid.from_matrix(u, m)
    else:
        phase = np.exp(2j * np.pi * rng.random(m * n)) if grid_kind == "phased" else np.ones(m * n)
        grid = KrausGrid.from_permutation(m, n, rng.permutation(m * n), phase.astype(np.complex128))
    mask = rng.integers(0, 2, (n, n))
    a = {"integer": lambda: rng.integers(0, 3, (n, n)).astype(np.float64),
         "real": lambda: rng.normal(size=(n, n)) * mask,
         "complex": lambda: (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * mask,
         "exact": lambda: grid.block_sum().T}[adjacency_kind]()
    oracle = max_norm(grid.block_sum() - a.T)
    for same in (a, from_adjacency(a)):
        report = verify_kraus(same, grid)
        assert report.sum_residual == oracle
        assert report.sum_ok == (oracle <= DEFAULT_TOL.abs_eps)
    if adjacency_kind == "exact":
        assert oracle == 0
