import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_adjacency, cycle_shift_grid, haar_unitary, right_shift
from qwalk import (
    CoinSpec,
    PreconditionError,
    ProbabilityVector,
    Tolerance,
    WalkerState,
    assemble_shift,
    basis_state,
    classical_transition,
    classical_walk,
    evolution,
    evolve,
    is_unitary,
    matpow,
    max_norm,
    measure_position,
    named_coin,
    step,
)


class TestBasisState:
    def test_first(self):
        s = basis_state(2, 4, 0, 0)
        assert s.amplitudes[0] == 1 and np.sum(np.abs(s.amplitudes)) == 1

    def test_coin_major_layout(self):
        s = basis_state(2, 4, 1, 3)
        assert s.amplitudes[7] == 1

    def test_single_coin(self):
        s = basis_state(1, 3, 0, 2)
        assert s.amplitudes[2] == 1

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            basis_state(2, 4, 2, 0)
        with pytest.raises(PreconditionError):
            basis_state(2, 4, 0, 4)


class TestWalkerState:
    def test_rejects_unnormalized(self):
        with pytest.raises(PreconditionError):
            WalkerState(1, 2, np.array([1.0, 1.0]))

    def test_tolerance_is_an_argument(self):
        amps = np.full(4, np.sqrt((1 + 1e-7) / 4))
        with pytest.raises(PreconditionError, match="not normalized"):
            WalkerState(1, 4, amps)
        assert WalkerState(1, 4, amps, Tolerance(1e-5)).m == 1
        assert WalkerState(1, 4, 2 * amps, None).n == 4  # computed: norm unchecked
        with pytest.raises(PreconditionError, match="NaN or Inf"):
            WalkerState(1, 4, np.full(4, np.nan), None)

    def test_subvector(self):
        s = basis_state(2, 3, 1, 0)
        assert np.array_equal(s.subvector(1), [1, 0, 0])
        assert np.array_equal(s.subvector(0), [0, 0, 0])


class TestStep:
    def test_identity(self):
        s = basis_state(2, 4, 0, 1)
        assert np.array_equal(step(np.eye(8), s).amplitudes, s.amplitudes)

    def test_deterministic_coin0_step(self, c4_shift):
        # coin-0 subvector is steered by the stored block R^T
        s = basis_state(2, 4, 0, 0)
        out = step(c4_shift.matrix, s)
        expected = right_shift(4).T @ np.array([1, 0, 0, 0])
        assert np.array_equal(out.subvector(0), expected)
        assert max_norm(out.subvector(1)) == 0

    def test_hadamard_split(self, c4_shift):
        u = evolution(c4_shift, CoinSpec.global_coin(named_coin("hadamard", 2), 4))
        out = step(u, basis_state(2, 4, 0, 0))
        s = 1 / np.sqrt(2)
        r = right_shift(4)
        expected = np.concatenate([s * r.T[:, 0], s * r[:, 0]])
        assert max_norm(out.amplitudes - expected) <= 1e-12


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_non_finite_operator_entry_raises(self, bad, order):
        # the bad entry sits in a column where psi is exactly 0
        u = np.eye(8, dtype=np.complex128, order=order)
        u[0, 7] = bad
        with pytest.raises(PreconditionError, match="NaN or Inf"):
            step(u, basis_state(2, 4, 0, 0))

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            step(np.eye(6), basis_state(2, 4, 0, 0))


class TestEvolve:
    def test_zero_steps(self):
        s = basis_state(2, 4, 0, 0)
        assert np.array_equal(evolve(np.eye(8), s, 0).amplitudes, s.amplitudes)

    def test_cycle_period(self, c4_shift):
        s = basis_state(2, 4, 0, 0)
        out = evolve(c4_shift.matrix, s, 4)
        assert max_norm(out.amplitudes - s.amplitudes) <= 1e-12

    def test_matches_matrix_power(self, c4_shift):
        u = evolution(c4_shift, CoinSpec.global_coin(named_coin("hadamard", 2), 4))
        s0 = basis_state(2, 4, 0, 0)
        out = evolve(u, s0, 10)
        oracle = matpow(u, 10) @ s0.amplitudes
        assert max_norm(out.amplitudes - oracle) <= 1e-10

    def test_tolerance_accepted_operator_walks_on(self, rng):
        # residual 8e-11 passes the default tolerance; each step scales the
        # norm by (1 + 4e-11)^2, and states are not renormalized
        u = haar_unitary(16, rng) * (1 + 4e-11)
        assert is_unitary(u)
        out = evolve(u, basis_state(2, 8, 0, 0), 1000)
        drift = (1 + 4e-11) ** 2000
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(drift, abs=1e-12)
        assert measure_position(out).probs.sum() == pytest.approx(drift, abs=1e-12)


class TestMeasurePosition:
    def test_basis_state(self):
        p = measure_position(basis_state(2, 4, 0, 2))
        assert np.array_equal(p.probs, [0, 0, 1, 0])

    def test_superposition(self):
        amps = np.zeros(8, dtype=np.complex128)
        amps[1] = amps[7] = 1 / np.sqrt(2)
        p = measure_position(WalkerState(2, 4, amps))
        assert max_norm(p.probs - [0, 0.5, 0, 0.5]) <= 1e-12

    def test_sums_to_one(self, rng):
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps /= np.linalg.norm(amps)
        p = measure_position(WalkerState(3, 4, amps))
        assert abs(p.probs.sum() - 1) <= 1e-12


class TestProbabilityVector:
    def test_sum_error_prints_a_plain_float(self):
        with pytest.raises(PreconditionError,
                           match=r"^probabilities sum to 1\.0000001, not 1$"):
            ProbabilityVector(np.array([1.0000001]))

    def test_tolerance_is_an_argument(self):
        p = np.array([0.5, 0.5000001])
        with pytest.raises(PreconditionError):
            ProbabilityVector(p)
        assert ProbabilityVector(p, Tolerance(1e-5)).n == 2
        assert ProbabilityVector(2 * p, None).n == 2  # computed: sum unchecked
        for bad in ([-0.5, 1.5], [np.nan, 1.0]):
            with pytest.raises(PreconditionError, match="finite and nonnegative"):
                ProbabilityVector(np.array(bad), None)


class TestClassicalTransition:
    def test_cycle(self):
        m = classical_transition(cycle_adjacency(4))
        assert np.array_equal(m[0].real, [0, 0.5, 0, 0.5])
        assert np.allclose(m.real.sum(axis=1), 1)

    def test_identity(self):
        assert np.array_equal(classical_transition(np.eye(3)), np.eye(3))

    def test_zero_row_rejected(self):
        a = np.eye(3)
        a[1, 1] = 0
        with pytest.raises(PreconditionError):
            classical_transition(a)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            classical_transition(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_complex_rejected(self):
        with pytest.raises(PreconditionError):
            classical_transition(np.array([[1j, 1], [1, 1]]))


class TestClassicalWalk:
    def test_zero_steps(self):
        p0 = ProbabilityVector(np.array([1.0, 0, 0, 0]))
        out = classical_walk(cycle_adjacency(4), p0, 0)
        assert np.array_equal(out.probs, p0.probs)

    def test_one_step(self):
        p0 = ProbabilityVector(np.array([1.0, 0, 0, 0]))
        out = classical_walk(cycle_adjacency(4), p0, 1)
        assert np.array_equal(out.probs, [0, 0.5, 0, 0.5])

    def test_two_steps(self):
        p0 = ProbabilityVector(np.array([1.0, 0, 0, 0]))
        out = classical_walk(cycle_adjacency(4), p0, 2)
        assert np.array_equal(out.probs, [0.5, 0, 0.5, 0])

    def test_steps_do_not_recheck_the_sum(self):
        p0 = ProbabilityVector(np.array([1 + 1e-7, 0, 0, 0]), Tolerance(1e-5))
        p = classical_walk(cycle_adjacency(4), p0, 3)
        assert p.probs.sum() == pytest.approx(1 + 1e-7, abs=1e-15)

    def test_recurrence_matches_power(self):
        p0 = ProbabilityVector(np.array([1.0, 0, 0, 0]))
        a = cycle_adjacency(4)
        mt = classical_transition(a).real.T
        for t in range(8):
            out = classical_walk(a, p0, t)
            oracle = np.linalg.matrix_power(mt, t) @ p0.probs
            assert max_norm(out.probs - oracle) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_norm_conservation_property(seed, t):
    rng = np.random.default_rng(seed)
    u = haar_unitary(8, rng)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    out = evolve(u, WalkerState(2, 4, amps), t)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) <= 1e-10
    assert abs(measure_position(out).probs.sum() - 1) <= 1e-10


def test_classical_reduction_identity_coin():
    # identity-coin permutation walk is a deterministic Markov chain
    shift = assemble_shift(cycle_shift_grid(4))
    r = right_shift(4)
    s = basis_state(2, 4, 0, 0)
    p = ProbabilityVector(np.array([1.0, 0, 0, 0]))
    for t in range(8):
        quantum = measure_position(evolve(shift.matrix, s, t))
        classical = classical_walk(r, p, t)
        assert np.array_equal(quantum.probs, classical.probs)
