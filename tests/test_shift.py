import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_adjacency, cycle_shift_grid, haar_unitary, right_shift
from qwalk import (
    KrausGrid,
    NonUnitaryError,
    PreconditionError,
    adjacency,
    assemble_shift,
    column_adjacency,
    decompose_permutations,
    extract_family,
    extract_graph,
    is_unitary,
    max_norm,
    verify_kraus,
)

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

    def test_output_satisfies_completeness(self):
        grid = decompose_permutations(cycle_adjacency(6))
        assert grid.column_completeness_residual() == 0
        assert grid.row_completeness_residual() == 0


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
