import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, oracle_dense_residual, with_huge_entries
from qwalk import (
    KrausGrid,
    PreconditionError,
    Tolerance,
    as_matrix,
    CoinSpec,
    coin_matrix,
    is_unitary,
    max_norm,
    unitarity_residual,
)
from qwalk.linalg import _is_permutation, _nonzero, _stack_residual, monomial

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=np.complex128)


class TestKron:
    """The Kronecker convention, as ``coin_matrix`` lifts a global coin C
    to C (x) I_n: the coin is the slow axis."""

    def test_identity(self):
        assert np.array_equal(coin_matrix(CoinSpec.global_coin(np.eye(2), 2)), np.eye(4))

    def test_swap_halves(self):
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        k = coin_matrix(CoinSpec.global_coin(x, 2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        assert np.array_equal(k, expected)

    def test_coin_is_slow_axis(self):
        # (H (x) I_2) e0 = (e0 + e2)/sqrt(2)
        e0 = np.zeros(4)
        e0[0] = 1
        out = coin_matrix(CoinSpec.global_coin(H, 2)) @ e0
        expected = np.zeros(4, dtype=np.complex128)
        expected[0] = expected[2] = 1 / np.sqrt(2)
        assert max_norm(out - expected) < 1e-15

    def test_dimensions(self):
        c = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
        k = coin_matrix(CoinSpec.global_coin(c, 5))
        assert k.shape == (15, 15)
        assert np.array_equal(k, np.kron(c, np.eye(5)))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_all_ones_rejected(self):
        assert not is_unitary(np.ones((2, 2)))

    def test_hadamard(self):
        assert is_unitary(H)

    def test_transpose_and_dagger(self, rng):
        from conftest import haar_unitary
        u = haar_unitary(8, rng)
        assert is_unitary(u)
        assert is_unitary(u.T)
        assert is_unitary(u.conj().T)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))


class TestBlockPartition:
    """A grid's blocks are the (m, m, n, n) view of the matrix it holds."""

    def test_identity_blocks(self):
        blocks = KrausGrid.from_matrix(np.eye(4), 2).blocks
        assert blocks.shape == (2, 2, 2, 2)
        assert np.array_equal(blocks[0][0], np.eye(2))
        assert np.array_equal(blocks[0][1], np.zeros((2, 2)))
        assert np.array_equal(blocks[1][0], np.zeros((2, 2)))
        assert np.array_equal(blocks[1][1], np.eye(2))

    def test_swap_blocks(self):
        blocks = KrausGrid.from_matrix(SWAP, 2).blocks
        assert np.array_equal(blocks[0][0], [[1, 0], [0, 0]])
        assert np.array_equal(blocks[0][1], [[0, 0], [1, 0]])
        assert np.array_equal(blocks[1][0], [[0, 1], [0, 0]])
        assert np.array_equal(blocks[1][1], [[0, 0], [0, 1]])

    def test_roundtrip_exact(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        grid = KrausGrid.from_matrix(a, 2)
        assert np.array_equal(KrausGrid(2, 3, grid.blocks).matrix, a)

    def test_bad_factorization(self):
        for m in (0, -1, 4):
            with pytest.raises(PreconditionError):
                KrausGrid.from_matrix(np.eye(6), m)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_partition_roundtrip_property(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
    grid = KrausGrid.from_matrix(a, m)
    for i in range(m):
        for j in range(m):
            block = a[i * n:(i + 1) * n, j * n:(j + 1) * n]
            assert np.array_equal(grid.blocks[i][j], block)
    assert np.array_equal(KrausGrid(m, n, grid.blocks).matrix, a)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)


def test_tolerance_refuses_nan():
    """Every ``r > abs_eps`` is false for a NaN abs_eps, so it would certify
    a non-unitary coin such as 2 I."""
    with pytest.raises(ValueError):
        CoinSpec.global_coin(2 * np.eye(2), 3, Tolerance(float("nan")))


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))


def phase_permutation(n: int, rng) -> np.ndarray:
    p = np.zeros((n, n), dtype=np.complex128)
    p[np.arange(n), rng.permutation(n)] = np.exp(2j * np.pi * rng.random(n))
    return p


class TestMonomialUnitarityResidual:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_phase_permutations_match_dense_formula(self, seed, n):
        rng = np.random.default_rng(seed)
        p = phase_permutation(n, rng)
        p[rng.integers(n), :] *= rng.uniform(0.5, 1.5)
        assert unitarity_residual(p) == pytest.approx(
            oracle_dense_residual(p), rel=1e-14, abs=1e-15)
        assert unitarity_residual(p.conj().T) == pytest.approx(
            oracle_dense_residual(p.conj().T), rel=1e-14, abs=1e-15)

    def test_scaled_entry(self, rng):
        p = phase_permutation(16, rng)
        p[np.nonzero(p[:, 3])[0][0], 3] *= 1 + 1e-3
        assert unitarity_residual(p) == pytest.approx(2.001e-3, rel=1e-6)

    def test_two_nonzeros_in_a_row_take_dense_path(self):
        # n nonzeros but row 1 is empty: the monomial formula would give 0
        a = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=np.complex128)
        assert unitarity_residual(a) == oracle_dense_residual(a) == 1.0
        assert monomial(a) is None
        assert monomial(a.T) is None  # n nonzeros, column 1 empty

    def test_gram_is_the_diagonal_of_a_dagger_a(self, rng):
        p = phase_permutation(9, rng) * rng.uniform(0.5, 1.5, size=9)
        perm, phase = monomial(p)
        rebuilt = np.zeros_like(p)
        rebuilt[np.arange(9), perm] = phase  # (p x)[r] = phase[r] x[perm[r]]
        assert np.array_equal(rebuilt, p)
        gram = p.conj().T @ p
        assert np.allclose(gram.diagonal()[perm].real, np.abs(phase) ** 2, rtol=1e-15, atol=0)
        assert max_norm(gram - np.diag(gram.diagonal())) == 0
        assert monomial(H) is None
        assert monomial(np.ones((2, 3))) is None  # not square


def oracle_stack_residual(c, weights=1.0) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return max_norm(c.conj().transpose(0, 2, 1) @ (weights * c) - np.eye(c.shape[1]))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 40),
       st.sampled_from([None, 1e200, 1.7e308]))
@settings(max_examples=80, deadline=None)
def test_stack_kernel_is_the_dense_and_stacked_formulas(seed, k, d, huge):
    """Bit for bit (or both NaN), with no warning when products overflow:
    the kernel on a stack of one is max|a^dag a - I|, and on a stack, with
    or without weights, max|C^dag (w C) - I|."""
    rng = np.random.default_rng(seed)
    c = np.stack([haar_unitary(d, rng) for _ in range(k)])
    c *= 1 + 1e-9 * rng.standard_normal(c.shape)
    weights = rng.uniform(0.5, 2.0, size=(k, d, 1))
    if huge is not None:
        c = with_huge_entries(c, huge, rng)
        weights[0, 0, 0] = np.inf
    assert np.array_equal(_stack_residual(c), oracle_stack_residual(c), equal_nan=True)
    assert np.array_equal(_stack_residual(c, weights), oracle_stack_residual(c, weights),
                          equal_nan=True)
    for a in c:
        expected = oracle_dense_residual(a)
        assert np.array_equal(_stack_residual(a[None]), expected, equal_nan=True)
        if monomial(a) is None:
            assert np.array_equal(unitarity_residual(a), expected, equal_nan=True)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_flat_scan_is_np_nonzero(seed, rows, cols, complex_entries):
    rng = np.random.default_rng(seed)
    a = rng.choice([0.0, -0.0, 1.0, -2.5], size=(rows, cols))
    if complex_entries:
        a = a + 1j * rng.choice([0.0, -0.0, 3.0], size=(rows, cols))
    expected = np.nonzero(a)
    found = _nonzero(a)
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(found, expected))


@st.composite
def near_permutations(draw):
    """Signed and unsigned integer arrays, of size 0 to 12, that are a
    permutation of their range with some entries overwritten: duplicates,
    negatives, entries past the end and the dtype's extremes."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int64, np.uint8, np.uint64])))
    info = np.iinfo(dtype)
    p = draw(st.permutations(range(draw(st.integers(0, 12)))))
    entry = st.integers(-2, len(p) + 1) | st.sampled_from([int(info.min), int(info.max)])
    for i in draw(st.lists(st.integers(0, len(p) - 1), max_size=3)) if p else ():
        p[i] = draw(entry.filter(lambda v: info.min <= v <= info.max))
    return np.array(p, dtype=dtype)


@given(near_permutations(), st.sampled_from(["1-d", "2-d", "float", "bool"]))
@settings(max_examples=300, deadline=None)
def test_permutation_check_is_the_sorting_oracle_property(p, form):
    """``_is_permutation``, the one test ``monomial`` and
    ``KrausGrid.from_permutation`` share, is the O(n log n) sorting oracle,
    also on arrays that are not 1-D or not of an integer dtype."""
    p = {"1-d": p, "2-d": p.reshape(1, -1), "float": p.astype(np.float64),
         "bool": p.astype(bool)}[form]
    expected = (p.ndim == 1 and p.dtype.kind in "iu"
                and np.array_equal(np.sort(p), np.arange(p.size)))
    assert _is_permutation(p) is expected
