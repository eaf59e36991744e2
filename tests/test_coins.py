import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_shift_grid, haar_unitary, right_shift, spy_stack_checks
from qwalk import (
    CoinSpec,
    KrausGrid,
    NonUnitaryError,
    PreconditionError,
    Tolerance,
    WalkerState,
    assemble_shift,
    coin_matrix,
    column_adjacency,
    decompose_permutations,
    evolution,
    evolve,
    is_unitary,
    max_norm,
    named_coin,
    unitarity_residual,
)

H = named_coin("hadamard", 2)


class TestNamedCoin:
    def test_hadamard_2(self):
        assert max_norm(H - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) < 1e-15

    def test_hadamard_requires_power_of_two(self):
        with pytest.raises(PreconditionError):
            named_coin("hadamard", 3)

    def test_grover_2_is_swap(self):
        assert np.array_equal(named_coin("grover", 2), [[0, 1], [1, 0]])

    def test_dft_1(self):
        assert np.array_equal(named_coin("dft", 1), [[1]])

    @pytest.mark.parametrize("name", ["identity", "hadamard", "grover", "dft"])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_all_unitary(self, name, m):
        assert is_unitary(named_coin(name, m))

    def test_unknown_name(self):
        with pytest.raises(PreconditionError):
            named_coin("bogus", 2)


class TestCoinMatrix:
    def test_global_identity(self):
        spec = CoinSpec.global_coin(np.eye(2), 4)
        assert np.array_equal(coin_matrix(spec), np.eye(8))

    def test_global_hadamard_blocks(self):
        c = coin_matrix(CoinSpec.global_coin(H, 2))
        s = 1 / np.sqrt(2)
        assert max_norm(c[:2, :2] - s * np.eye(2)) < 1e-15
        assert max_norm(c[:2, 2:] - s * np.eye(2)) < 1e-15
        assert max_norm(c[2:, :2] - s * np.eye(2)) < 1e-15
        assert max_norm(c[2:, 2:] + s * np.eye(2)) < 1e-15

    def test_per_vertex_hand_example(self):
        # vertex 0 gets H, vertex 1 gets I; blocks are diagonal
        spec = CoinSpec.per_vertex_coins([H, np.eye(2)], 2, 2)
        c = coin_matrix(spec)
        s = 1 / np.sqrt(2)
        assert np.allclose(c[:2, :2], np.diag([s, 1]))
        assert np.allclose(c[:2, 2:], np.diag([s, 0]))
        assert np.allclose(c[2:, :2], np.diag([s, 0]))
        assert np.allclose(c[2:, 2:], np.diag([-s, 1]))

    def test_per_vertex_identical_equals_global_bitexact(self, rng):
        for m, n in [(2, 2), (3, 3), (4, 5)]:
            c = haar_unitary(m, rng)
            per = coin_matrix(CoinSpec.per_vertex_coins([c] * n, m, n))
            assert np.array_equal(per, np.kron(c, np.eye(n)))

    def test_per_vertex_padding_with_identity(self):
        spec = CoinSpec.per_vertex_coins([H], 2, 3)
        assert np.array_equal(spec.matrices[1], np.eye(2))
        assert np.array_equal(spec.matrices[2], np.eye(2))

    def test_non_unitary_coin_rejected(self):
        with pytest.raises(NonUnitaryError):
            CoinSpec.global_coin(np.ones((2, 2)), 2)

    def test_tolerance_is_an_argument(self):
        h6 = np.round(H, 6)  # residual 6.2e-7
        with pytest.raises(NonUnitaryError):
            CoinSpec.global_coin(h6, 2)
        with pytest.raises(NonUnitaryError):
            CoinSpec.per_vertex_coins([h6], 2, 2)
        loose = Tolerance(1e-5)
        assert CoinSpec.global_coin(h6, 2, loose).m == 2
        assert CoinSpec.per_vertex_coins([h6], 2, 2, loose).n == 2

    @pytest.mark.parametrize("m", [-1, 10 ** 20])
    def test_per_vertex_shapes_checked_before_padding(self, m):
        with pytest.raises(PreconditionError, match="per-vertex coins"):
            CoinSpec.per_vertex_coins([H], m, 3)

    def test_per_vertex_is_unitary(self, rng):
        coins = [haar_unitary(3, rng) for _ in range(4)]
        assert is_unitary(coin_matrix(CoinSpec.per_vertex_coins(coins, 3, 4)))


class TestCoinStack:
    def test_padding_checks_the_stack_once(self, monkeypatch):
        import qwalk.coins
        import qwalk.linalg
        calls = []

        def spy(module, name):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or f(*a))

        spy(qwalk.linalg, "unitarity_residual")
        spy(qwalk.linalg, "as_matrix")
        spy(qwalk.coins, "as_matrix")
        grover = named_coin("grover", 3)
        n = 10 ** 5
        spec = CoinSpec.per_vertex_coins([grover], 3, n)
        assert calls == ["as_matrix"]  # the given coin, never a padded vertex
        mats = spec.matrices
        assert isinstance(mats, np.ndarray) and mats.dtype == np.complex128
        assert mats.shape == (n, 3, 3) and len(mats) == n
        assert not mats.flags.writeable
        assert np.array_equal(mats[0], grover)
        assert np.array_equal(mats[1:], np.broadcast_to(np.eye(3), (n - 1, 3, 3)))

    def test_global_coin_is_a_read_only_copy(self):
        c = H.copy()
        spec = CoinSpec.global_coin(c, 5)
        c[0, 0] = 7
        assert spec.matrices.shape == (1, 2, 2)
        assert not spec.matrices.flags.writeable
        assert np.array_equal(spec.matrices[0], H)

    def test_raw_constructor_checks_the_stack(self):
        """The stack's size is the spec's kind: 1 coin is global, n coins
        are per vertex, and any other count is refused."""
        spec = CoinSpec(2, 3, [H])
        assert spec.matrices.shape == (1, 2, 2) and not spec.per_vertex
        assert CoinSpec(2, 3, [H, H, np.eye(2)]).per_vertex
        with pytest.raises(PreconditionError, match="expected 1 or 3 coin matrices, got 2"):
            CoinSpec(2, 3, [H, H])
        with pytest.raises(PreconditionError, match=r"stack of coin matrices, got shape \(\)"):
            CoinSpec(1, 1, 1.0)
        with pytest.raises(PreconditionError, match=r"stack of coin matrices, got shape \(2, 2\)"):
            CoinSpec(2, 3, np.eye(2))
        with pytest.raises(PreconditionError, match="coin must be 2x2"):
            CoinSpec(2, 3, [np.eye(3)])
        with pytest.raises(ValueError, match="NaN or Inf"):
            CoinSpec(2, 3, [[[np.nan, 0], [0, 1]]])
        with pytest.raises(NonUnitaryError, match="coin is not unitary"):
            CoinSpec(2, 2, [H, 2 * H])

    def test_one_vertex_per_vertex_spec_is_the_global_spec(self, rng):
        c = haar_unitary(2, rng)
        per, glob = CoinSpec.per_vertex_coins([c], 2, 1), CoinSpec.global_coin(c, 1)
        assert not per.per_vertex
        swap = np.array([[0, 1], [1, 0]])
        assert coin_matrix(per).tobytes() == coin_matrix(glob).tobytes()
        assert (np.asarray(evolution(swap, per)).tobytes()
                == np.asarray(evolution(swap, glob)).tobytes())


class TestEvolution:
    def test_identity_coin_gives_shift(self, c4_shift):
        u = evolution(c4_shift, CoinSpec.global_coin(np.eye(2), 4))
        assert np.array_equal(u, c4_shift.matrix)

    def test_hadamard_blocks_on_cycle(self, c4_shift):
        u = np.asarray(evolution(c4_shift, CoinSpec.global_coin(H, 4)))
        r = right_shift(4)
        s = 1 / np.sqrt(2)
        assert max_norm(u[:4, :4] - s * r.T) < 1e-15
        assert max_norm(u[:4, 4:] - s * r.T) < 1e-15
        assert max_norm(u[4:, :4] - s * r) < 1e-15
        assert max_norm(u[4:, 4:] + s * r) < 1e-15

    def test_block_formula_general(self, rng):
        # block (i,j) of U equals sum_k c_kj * B^T_ik
        shift = assemble_shift(cycle_shift_grid(4))
        c = haar_unitary(2, rng)
        u = np.asarray(evolution(shift, CoinSpec.global_coin(c, 4)))
        blocks = shift.blocks
        for i in range(2):
            for j in range(2):
                expected = sum(c[k, j] * blocks[i][k] for k in range(2))
                got = u[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
                assert max_norm(got - expected) <= 1e-12

    def test_unitary_output(self, c4_shift, rng):
        u = evolution(c4_shift, CoinSpec.global_coin(haar_unitary(2, rng), 4))
        assert is_unitary(u)

    def test_dimension_mismatch(self, c4_shift):
        with pytest.raises(PreconditionError):
            evolution(c4_shift, CoinSpec.global_coin(H, 3))

    def test_one_dimensional_shift_is_refused_as_not_square(self):
        # a dense S is read once, by KrausGrid.from_matrix
        with pytest.raises(PreconditionError, match="^matrix must be square$"):
            evolution(np.ones(4), CoinSpec.global_coin(H, 2))


class TestColumnAdjacency:
    def test_identity(self):
        assert np.array_equal(column_adjacency(np.eye(4), 2, 0), np.eye(2))

    def test_swap_column_one(self):
        swap = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=np.complex128)
        # column 1 blocks are [[0,0],[1,0]] and [[0,0],[0,1]]
        assert np.array_equal(column_adjacency(swap, 2, 1), [[0, 0], [1, 1]])

    def test_hadamard_walk_columns(self, c4_shift):
        u = evolution(c4_shift, CoinSpec.global_coin(H, 4))
        r = right_shift(4)
        s = 1 / np.sqrt(2)
        assert max_norm(column_adjacency(u, 2, 0) - s * (r.T + r)) <= 1e-12
        assert max_norm(column_adjacency(u, 2, 1) - s * (r.T - r)) <= 1e-12

    def test_shift_columns_match_block_sums(self, c4_shift):
        for j in range(2):
            expected = sum(c4_shift.blocks[i][j] for i in range(2))
            assert np.array_equal(
                column_adjacency(c4_shift.matrix, 2, j), expected)

    def test_index_out_of_range(self):
        with pytest.raises(PreconditionError):
            column_adjacency(np.eye(4), 2, 2)


def test_coin_breaks_adjacency_recovery(c4_shift):
    # with a nontrivial coin the block sum of U no longer matches A^T
    from qwalk import KrausGrid

    u = evolution(c4_shift, CoinSpec.global_coin(H, 4))
    a_t = c4_shift.block_sum()
    u_sum = KrausGrid.from_matrix(u, 2).block_sum()
    assert max_norm(u_sum - a_t) > 0.1


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from(["grover", "dft", "per_vertex"]))
@settings(max_examples=40, deadline=None)
def test_factored_evolution_matches_dense_product(seed, d, n, coin):
    rng = np.random.default_rng(seed)
    a = sum(np.eye(n)[rng.permutation(n)] for _ in range(d))
    shift = assemble_shift(decompose_permutations(a))
    if coin == "per_vertex":
        spec = CoinSpec.per_vertex_coins(
            [haar_unitary(d, rng) for _ in range(n)], d, n)
    else:
        spec = CoinSpec.global_coin(named_coin(coin, d), n)
    u = evolution(shift, spec)
    assert max_norm(np.asarray(u) - shift.matrix @ coin_matrix(spec)) <= 1e-12


def monomial_shift(dim: int, rng) -> np.ndarray:
    """A permutation with unit phases, some entries scaled by 1 +- 1e-11."""
    s = np.zeros((dim, dim), dtype=np.complex128)
    scale = 1 + rng.choice([-1e-11, 0.0, 1e-11], size=dim)
    s[np.arange(dim), rng.permutation(dim)] = scale * np.exp(2j * np.pi * rng.random(dim))
    return s


def random_spec(m: int, n: int, per_vertex: bool, rng) -> CoinSpec:
    if per_vertex:
        return CoinSpec.per_vertex_coins([haar_unitary(m, rng) for _ in range(n)], m, n)
    return CoinSpec.global_coin(haar_unitary(m, rng), n)


def accepts(s, spec, tol: float) -> bool:
    try:
        evolution(s, spec, Tolerance(tol))
    except NonUnitaryError:
        return False
    return True


def certified_residual(s, spec) -> float:
    """The residual ``evolution`` checks U by: at zero tolerance it raises
    with it, unless U passes exactly."""
    try:
        evolution(s, spec, Tolerance(0.0))
    except NonUnitaryError as exc:
        return exc.residual
    return 0.0


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 10), st.booleans())
@settings(max_examples=60, deadline=None)
def test_certificate_matches_dense_residual(seed, m, n, per_vertex):
    rng = np.random.default_rng(seed)
    s = monomial_shift(m * n, rng)
    spec = random_spec(m, n, per_vertex, rng)
    dense = unitarity_residual(s @ coin_matrix(spec))
    assert certified_residual(s, spec) == pytest.approx(dense, rel=0, abs=1e-14)
    for tol in (1e-12, 1e-10):
        if abs(dense - tol) > 1e-13:  # away from the tolerance
            assert accepts(s, spec, tol) == (dense <= tol)


@pytest.mark.parametrize("kind, stacks", [("monomial", [(3, 2, 2)]), ("haar", [(1, 6, 6)])])
def test_only_a_non_monomial_shift_takes_the_dense_check(rng, monkeypatch, kind, stacks):
    """Both branches certify U by one stack check: the per-vertex coins
    weighted by S^dag S for a monomial S, else U itself as a stack of one."""
    s = monomial_shift(6, rng) if kind == "monomial" else haar_unitary(6, rng)
    spec = random_spec(2, 3, True, rng)
    calls = []
    spy_stack_checks(monkeypatch, calls)
    u = evolution(s, spec)
    assert calls == [(shape, "evolution operator") for shape in stacks]
    assert certified_residual(s, spec) == pytest.approx(unitarity_residual(u), rel=0, abs=1e-14)


def test_dense_check_of_u_makes_no_extra_copy_of_u(rng):
    """The dense branch's check needs U, its conjugate and U^dag U, from
    which I is subtracted in place: 3 U-sized arrays in all."""
    s = haar_unitary(600, rng)
    spec = CoinSpec.global_coin(H, 300)
    tracemalloc.start()
    try:
        u = evolution(s, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * u.nbytes


@pytest.mark.parametrize("kind", ["permutation", "phased", "haar"])
def test_dense_shift_evolves_as_its_grid(rng, kind):
    """``evolution`` reads a dense S through ``KrausGrid.from_matrix``, so U
    and every walk on it are bit-identical to those of the grid."""
    m, n = 2, 6
    s = {"permutation": np.eye(m * n)[rng.permutation(m * n)],
         "phased": monomial_shift(m * n, rng),
         "haar": haar_unitary(m * n, rng)}[kind]
    spec = random_spec(m, n, True, rng)
    dense, grid = evolution(s, spec), evolution(KrausGrid.from_matrix(s, m), spec)
    assert np.array_equal(dense, grid)
    psi0 = WalkerState(m, n, haar_unitary(m * n, rng)[0])
    assert np.array_equal(evolve(dense, psi0, 30).amplitudes, evolve(grid, psi0, 30).amplitudes)
