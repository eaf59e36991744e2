import dataclasses
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import cycle_adjacency, cycle_shift_grid, haar_unitary, right_shift
from qwalk import (
    DEFAULT_TOL,
    CoinSpec,
    KrausGrid,
    MultiGraph,
    PreconditionError,
    ProbabilityVector,
    Tolerance,
    WalkOperator,
    WalkerState,
    adjacency,
    assemble_shift,
    basis_state,
    classical_trajectory,
    classical_transition,
    classical_walk,
    decompose_permutations,
    evolution,
    evolve,
    is_unitary,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf),
                                     complex(0, -np.inf), complex(np.nan, 0)])
    def test_non_finite_rejected_with_the_same_message(self, bad):
        for tol in (DEFAULT_TOL, None):
            with pytest.raises(PreconditionError, match=r"^amplitudes contain NaN or Inf$"):
                WalkerState(1, 2, np.array([bad, 1.0]), tol)
        assert WalkerState(1, 2, np.array([-0.0, 1.0]), None).n == 2

    def test_a_checked_state_holds_its_own_copy(self):
        a = np.array([1, 0, 0, 0], dtype=np.complex128)
        checked, computed = WalkerState(2, 2, a), WalkerState(2, 2, a, None)
        a[0] = 5
        assert checked.amplitudes.tolist() == [1, 0, 0, 0]
        assert computed.amplitudes[0] == 5  # computed states are not copied

    def test_subvector(self):
        s = basis_state(2, 3, 1, 0)
        assert np.array_equal(s.subvector(1), [1, 0, 0])
        assert np.array_equal(s.subvector(0), [0, 0, 0])


@given(arrays(np.complex128, st.integers(1, 6)))
@settings(max_examples=200, deadline=None)
def test_state_accepts_exactly_the_finite_amplitudes(amps):
    try:
        WalkerState(1, amps.size, amps, None)
    except PreconditionError:
        assert not np.all(np.isfinite(amps))
    else:
        assert np.all(np.isfinite(amps))


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
        oracle = np.linalg.matrix_power(u, 10) @ s0.amplitudes
        assert max_norm(out.amplitudes - oracle) <= 1e-10

    def test_reads_the_operator_once(self, rng):
        """A float64 U is made complex once per call, not once per step, and
        walks bit for bit as the complex U; evolution's U keeps its factors."""
        class Counted:
            def __init__(self, a):
                self.a, self.reads = a, 0

            def __array__(self, dtype=None, copy=None):
                self.reads += 1
                return self.a.astype(dtype or self.a.dtype)

        u = np.linalg.qr(rng.normal(size=(8, 8)))[0]  # real orthogonal
        s0 = random_state(2, 4, rng)
        counted = Counted(u)
        evolve(counted, s0, 5)
        assert counted.reads == 1
        assert np.array_equal(evolve(u, s0, 5).amplitudes,
                              evolve(u.astype(np.complex128), s0, 5).amplitudes)
        factored = evolution(decompose_permutations(np.ones((4, 4)) * 2),
                             CoinSpec.global_coin(haar_unitary(8, rng), 4))
        with factored_steps() as calls:
            evolve(factored, random_state(8, 4, rng), 3)
        assert calls == [(1, 8, 8)] * 3

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("t", [1, 2, 7])
    def test_non_finite_operator_entry_raises_after_any_steps(self, bad, t):
        """Only the state returned is checked; a non-finite entry never
        turns finite again, so every t raises as one step does."""
        u = np.roll(np.eye(8, dtype=np.complex128), 1, axis=0)  # x[r - 1] to r
        u[3, 2] = bad  # times psi[2] = 0 it is NaN: psi is not finite from step 1 on
        with pytest.raises(PreconditionError, match="^amplitudes contain NaN or Inf$"):
            evolve(u, basis_state(2, 4, 0, 0), t)

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
        for bad in ([-0.5, 1.5], [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
            with pytest.raises(PreconditionError,
                               match=r"^probabilities must be finite and nonnegative$"):
                ProbabilityVector(np.array(bad), None)
        assert ProbabilityVector(np.array([-0.0, 1.0]), None).n == 2

    def test_a_checked_distribution_holds_its_own_copy(self):
        p = np.array([0.5, 0.5])
        checked, computed = ProbabilityVector(p), ProbabilityVector(p, None)
        p[0] = 5.0
        assert checked.probs.tolist() == [0.5, 0.5]
        assert computed.probs[0] == 5.0  # computed values are not copied


@pytest.mark.parametrize("make", [
    lambda: CoinSpec.global_coin(named_coin("hadamard", 2), 3),
    lambda: basis_state(2, 3, 0, 1),
    lambda: ProbabilityVector(np.array([0.5, 0.5])),
    lambda: cycle_shift_grid(4),
    lambda: decompose_permutations(cycle_adjacency(4)),
], ids=["CoinSpec", "WalkerState", "ProbabilityVector", "KrausGrid", "KrausGrid-perm"])
def test_array_values_compare_and_hash(make):
    # values holding an array compare and hash as objects: a generated
    # __eq__ would compare the arrays and raise
    a, b = make(), make()
    assert isinstance(a == b, bool) and a == a and not a != a
    assert hash(a) == hash(a)
    assert {a: "a", b: "b"}[a] == "a"


@given(arrays(np.float64, st.integers(1, 6)))
@settings(max_examples=200, deadline=None)
def test_distribution_accepts_exactly_the_finite_nonnegative(p):
    try:
        ProbabilityVector(p, None)
    except PreconditionError:
        assert np.any(p < 0) or not np.all(np.isfinite(p))
    else:
        assert not np.any(p < 0) and np.all(np.isfinite(p))


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


def random_digraph(rng, n: int, exact: bool) -> np.ndarray:
    """A random nonnegative adjacency with no zero row. ``exact``: 0/1
    entries, out-degree at most 2 and in-degree at most 2, so every entry
    of M = D^-1 A is 1 or 1/2 and every product M[i, j] p[i] is exact.
    Otherwise irregular weights, self-loops and vertices with no in-arcs."""
    a = np.zeros((n, n))
    if exact:  # each head appears at most twice in ``pool``
        pool = rng.permutation(np.repeat(np.arange(n), 2)).reshape(n, 2)
        for i, heads in enumerate(pool):
            a[i, heads[:rng.integers(1, 3)]] = 1
        return a
    a[rng.random((n, n)) < rng.random()] = 1
    a *= rng.random((n, n))
    sources = rng.random(n) < 0.3  # vertices left with no in-arcs
    sources[rng.integers(n)] = False
    a[:, sources] = 0
    empty = ~a.any(axis=1)
    a[empty, rng.choice(np.flatnonzero(~sources), size=empty.sum())] = rng.random() + 0.5
    return a


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(0, 10), st.booleans())
@settings(max_examples=60, deadline=None)
def test_arc_kernel_matches_dense_iteration_property(seed, n, t, exact):
    """The gather over the arcs against the dense iteration p = M^T p it
    replaced. Bit-equal where each vertex has at most two in-arcs and the
    products are exact: a sum of two rounded terms has one rounding in any
    order, even where the BLAS matvec fuses multiply and add."""
    rng = np.random.default_rng(seed)
    a = random_digraph(rng, n, exact)
    mt = np.ascontiguousarray((a / a.sum(axis=1)[:, None]).T)
    p = rng.random(n)
    p0 = ProbabilityVector(p / p.sum())
    dense = [p0.probs]
    for _ in range(t):
        dense.append(mt @ dense[-1])
    got = [d.probs for d in classical_trajectory(a, p0, t)]
    assert max_norm(np.array(got) - np.array(dense)) <= 1e-12
    if exact:
        assert all(np.array_equal(g, d) for g, d in zip(got, dense))
    complex_input = [d.probs for d in classical_trajectory(a.astype(np.complex128), p0, t)]
    assert np.array_equal(complex_input, got)
    m = classical_transition(a)
    assert m.dtype == np.complex128
    assert np.array_equal(m, (a.real / a.real.sum(1)[:, None]).astype(np.complex128))


def test_classical_walk_builds_no_dense_matrix():
    n = 1024
    a = np.zeros((n, n))  # C_n, stored densely as float64: 8 n^2 bytes
    a[np.arange(n), (np.arange(n) + 1) % n] = a[np.arange(n), np.arange(n) - 1] = 1
    p0 = ProbabilityVector(np.full(n, 1 / n))
    tracemalloc.start()
    try:
        classical_walk(a, p0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def random_multigraph(rng, n: int, integer: bool) -> MultiGraph:
    """A random graph with parallel arcs, a self-loop, and undirected edges
    among them an undirected self-loop, with an arc out of every vertex.
    Weights are positive integers, or positive and irregular."""
    def weights(size):
        return rng.integers(1, 4, size) * 1.0 if integer else rng.random(size) + 0.1

    k = rng.integers(0, 3 * n)
    tail = np.concatenate([np.arange(n), [0, 0], rng.integers(0, n, k)])
    head = np.concatenate([rng.integers(0, n, n), [0, 0], rng.integers(0, n, k)])
    ends = rng.integers(0, n, (rng.integers(0, 2 * n), 2)).tolist() + [[n - 1, n - 1]]
    edge_weight = weights(len(ends))
    return MultiGraph.from_columns(n, tail, head, weights(n + 2 + k), np.full(n + 2 + k, -1),
                                   *np.transpose(ends), edge_weight)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(0, 10), st.booleans())
@settings(max_examples=60, deadline=None)
def test_graph_walks_as_its_adjacency_property(seed, n, t, integer):
    """A graph's degrees are its arc sums, a matrix's its row sums: equal
    for integer weights, and within an ulp or so of each other otherwise."""
    rng = np.random.default_rng(seed)
    g = random_multigraph(rng, n, integer)
    a = adjacency(g)
    p = rng.random(n)
    p0 = ProbabilityVector(p / p.sum())
    got = [d.probs for d in classical_trajectory(g, p0, t)]
    want = [d.probs for d in classical_trajectory(a, p0, t)]
    if integer:
        assert np.array_equal(got, want)
        assert np.array_equal(classical_transition(g), classical_transition(a))
    else:
        assert all(max_norm(x - y) <= 1e-15 * k for k, (x, y) in enumerate(zip(got, want)))
        assert max_norm(classical_transition(g) - classical_transition(a)) <= 1e-15


@pytest.mark.parametrize("n, arcs, p0, message", [
    (2, [(0, 1, 1j), (1, 0, 1)], [0.5, 0.5], "real nonnegative weights"),
    (2, [(0, 1, -1), (1, 0, 1)], [0.5, 0.5], "real nonnegative weights"),
    (3, [(0, 1, 1), (1, 1, 1)], [0.25, 0.25, 0.5], "vertices [2] have zero out-degree"),
    (2, [(0, 1, 1), (1, 0, 1)], [0.25] * 4, "adjacency dimension 2 does not match p0 length 4"),
], ids=["complex", "negative", "zero-out-degree", "p0-length"])
def test_classical_walks_refuse_a_graph(n, arcs, p0, message):
    tail, head, weight = zip(*arcs)
    g = MultiGraph.from_columns(n, tail, head, weight, [-1] * len(arcs))
    with pytest.raises(PreconditionError, match=re.escape(message)):
        classical_walk(g, ProbabilityVector(p0), 1)


def test_classical_walk_on_a_graph_builds_no_dense_matrix():
    """A 3-regular graph at n = 10^5 walks on its arcs: a dense n x n
    adjacency would take 80 GB."""
    n, rng = 10 ** 5, np.random.default_rng(0)
    head = np.concatenate([rng.permutation(n) for _ in range(3)])
    g = MultiGraph.from_columns(n, np.tile(np.arange(n), 3), head, np.ones(3 * n),
                                np.full(3 * n, -1))
    p0 = ProbabilityVector(np.eye(1, n).ravel())
    tracemalloc.start()
    try:
        p = classical_walk(g, p0, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert abs(p.probs.sum() - 1) <= 1e-12 and np.count_nonzero(p.probs) > 1000


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


@contextmanager
def factored_steps():
    """Record the coin stack, as the spec holds it, of every step that
    applies U as coin then permutation (``coins._coin_step``)."""
    import qwalk.coins
    calls, kernel = [], qwalk.coins._coin_step

    def spy(coins, x):
        calls.append(coins.shape)
        return kernel(coins, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qwalk.coins, "_coin_step", spy)
        yield calls


def random_state(m: int, n: int, rng) -> WalkerState:
    amps = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    return WalkerState(m, n, amps / np.linalg.norm(amps))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 12),
       st.booleans(), st.booleans(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_factored_step_matches_dense_property(seed, d, n, decomposed, per_vertex, t):
    """A decomposed d-regular multigraph, or a dense monomial S with random
    unit phases (what ``walk --coin`` and ``evolve-op`` read), under global
    or per-vertex Haar coins: U walks factored, np.asarray(U) densely, and
    the two agree."""
    rng = np.random.default_rng(seed)
    if decomposed:
        a = sum(np.eye(n)[rng.permutation(n)] for _ in range(d))
        shift = assemble_shift(decompose_permutations(a))
    else:
        shift = np.zeros((d * n, d * n), dtype=np.complex128)
        shift[np.arange(d * n), rng.permutation(d * n)] = np.exp(2j * np.pi * rng.random(d * n))
    if per_vertex:
        spec = CoinSpec.per_vertex_coins([haar_unitary(d, rng) for _ in range(n)], d, n)
    else:
        spec = CoinSpec.global_coin(haar_unitary(d, rng), n)
    u = evolution(shift, spec)
    s0 = random_state(d, n, rng)
    with factored_steps() as calls:
        factored = evolve(u, s0, t)
        assert calls == [(n if per_vertex else 1, d, d)] * t
        dense = evolve(np.asarray(u), s0, t)
        assert len(calls) == t
    assert max_norm(factored.amplitudes - dense.amplitudes) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from(["haar", "grover", "per_vertex"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_factored_step_is_its_kernel_formula_property(seed, m, n, coin, unit_phase):
    """Bit for bit, with S x = phase * x[perm] and X = x.reshape(m, n): a
    complex global coin C steps as phase * (C @ X).reshape(-1)[perm], a real
    one as the same product of C.real on the float view of x, and n > 1
    per-vertex coins as phase * einsum("kij,jk->ik", coins, X).reshape(-1)[perm].
    With every phase exactly 1 the step is the gather alone. Each is within
    1e-12 of dense U."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m * n)
    phase = np.ones(m * n) if unit_phase else np.exp(2j * np.pi * rng.random(m * n))
    shift = np.zeros((m * n, m * n), dtype=np.complex128)
    shift[np.arange(m * n), perm] = phase
    coins = [haar_unitary(m, rng) for _ in range(n)]
    if coin == "per_vertex":
        spec = CoinSpec.per_vertex_coins(coins, m, n)
    else:
        spec = CoinSpec.global_coin(coins[0] if coin == "haar" else named_coin(coin, m), n)
    u = evolution(shift, spec)
    x = random_state(m, n, rng).amplitudes
    if spec.per_vertex:
        y = np.einsum("kij,jk->ik", spec.matrices, x.reshape(m, n))
    elif coin == "grover":
        y = (spec.matrices[0].real @ x.view(np.float64).reshape(m, 2 * n)).view(np.complex128)
    else:
        y = spec.matrices[0] @ x.reshape(m, n)
    oracle = y.reshape(-1)[perm] if unit_phase else phase * y.reshape(-1)[perm]
    got = step(u, WalkerState(m, n, x)).amplitudes
    assert got.tobytes() == oracle.tobytes()
    assert max_norm(got - np.asarray(u) @ x) <= 1e-12


def test_global_coin_kernel_bytes_do_not_depend_on_blas_threads():
    """At n = 10^5, m = 3, both global-coin products, the complex one of a
    Haar coin and the real one of the Grover coin on the float view of x,
    give the same bytes on one BLAS thread and two."""
    code = ("import hashlib, numpy as np; from qwalk.coins import _coin_step\n"
            "rng = np.random.default_rng(7)\n"
            "c = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]\n"
            "g = 2 / 3 - np.eye(3)\n"
            "x = rng.normal(size=300000) + 1j * rng.normal(size=300000)\n"
            "for coin in (c, g):\n"
            "    print(hashlib.md5(_coin_step(coin[None], x).tobytes()).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 12), st.booleans())
@settings(max_examples=40, deadline=None)
def test_multi_step_calls_return_the_last_step_property(seed, n, t, per_vertex):
    """Bit for bit: ``classical_walk`` is the last distribution that
    ``classical_trajectory`` yields, on a matrix and on a graph, and
    ``evolve(u, s, t)`` is t calls of ``step``, factored and dense."""
    rng = np.random.default_rng(seed)
    for a in (random_digraph(rng, n, False), random_multigraph(rng, n, False)):
        p = rng.random(n)
        p0 = ProbabilityVector(p / p.sum())
        *_, last = classical_trajectory(a, p0, t)
        assert classical_walk(a, p0, t).probs.tobytes() == last.probs.tobytes()
    m = 3
    shift = assemble_shift(decompose_permutations(
        sum(np.eye(n)[rng.permutation(n)] for _ in range(m))))
    coins = [haar_unitary(m, rng) for _ in range(n)]
    spec = (CoinSpec.per_vertex_coins(coins, m, n) if per_vertex
            else CoinSpec.global_coin(coins[0], n))
    for u in (evolution(shift, spec), haar_unitary(m * n, rng)):
        s0 = s = random_state(m, n, rng)
        for _ in range(t):
            s = step(u, s)
        assert evolve(u, s0, t).amplitudes.tobytes() == s.amplitudes.tobytes()


def test_hadamard_walk_spreads_ballistically():
    """Ambainis, Bach, Nayak, Vishwanath and Watrous (2001); Konno (2002):
    from (|0> + i|1>)/sqrt 2 at vertex 0, E[X_t] = 0 and E[X_t^2]/t^2 tends
    to 1 - 1/sqrt 2. While n > 2t the walk cannot wrap around C_n."""
    n, t = 512, 200
    shift = assemble_shift(cycle_shift_grid(n))
    u = evolution(shift, CoinSpec.global_coin(named_coin("hadamard", 2), n))
    amps = np.zeros(2 * n, dtype=np.complex128)
    amps[[0, n]] = np.array([1, 1j]) / np.sqrt(2)
    with factored_steps() as calls:
        p = measure_position(evolve(u, WalkerState(2, n, amps), t)).probs
    assert len(calls) == t
    v = np.arange(n)
    x = np.where(v < n // 2, v, v - n)
    assert abs(p @ x) <= 1e-12
    assert abs(p @ x ** 2 / t ** 2 - (1 - 1 / np.sqrt(2))) <= 2e-5


class TestFactoredOperator:
    """The U ``evolution`` returns for a monomial S: a WalkOperator of its
    certified factors, dense only through ``np.asarray``."""

    @pytest.fixture
    def u(self, rng):
        a = np.ones((4, 4)) + np.eye(4)  # 5-regular, with repeated loops
        spec = CoinSpec.per_vertex_coins([haar_unitary(5, rng) for _ in range(4)], 5, 4)
        return evolution(assemble_shift(decompose_permutations(a)), spec)

    def test_is_read_only(self, u):
        assert type(u) is WalkOperator and u.shape == (20, 20)
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.phase = np.ones(20)
        for factor in (u.phase, u.coins, u.perm):
            with pytest.raises(ValueError):
                factor[0] = 1

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 12),
           st.sampled_from(["haar", "per_vertex", "identity", "grover", "hadamard"]))
    @settings(max_examples=100, deadline=None)
    def test_dense_u_is_the_block_formula_property(self, seed, m, n, coin):
        """np.asarray(U), bit for bit, is the einsum that builds U from a
        dense S, on a grid in permutation form with random unit phases. The
        Hadamard coins (m = 2, 4) step as a real copy that drops the -0.0
        imaginary part of named_coin("hadamard", 4); dense U is still built
        from the spec's complex stack."""
        rng = np.random.default_rng(seed)
        if coin == "hadamard":
            m = 2 if m < 3 else 4
        grid = KrausGrid.from_permutation(m, n, rng.permutation(m * n),
                                          np.exp(2j * np.pi * rng.random(m * n)))
        if coin == "per_vertex":
            coins = np.stack([haar_unitary(m, rng) for _ in range(n)])
            spec = CoinSpec.per_vertex_coins(coins, m, n)
        else:
            c = haar_unitary(m, rng) if coin == "haar" else named_coin(coin, m)
            coins, spec = np.stack([c] * n), CoinSpec.global_coin(c, n)
        oracle = np.einsum("iakb,bkj->iajb", grid.matrix.reshape(m, n, m, n), coins)
        u = np.asarray(evolution(grid, spec))
        assert u.tobytes() == oracle.reshape(m * n, m * n).tobytes()

    @pytest.mark.parametrize("derive", [
        np.array,
        lambda u: np.linalg.matrix_power(u, 2),
    ], ids=["array", "matpow"])
    def test_derived_arrays_walk_densely(self, u, rng, derive):
        v = derive(u)
        assert type(v) is np.ndarray
        s0 = random_state(5, 4, rng)
        with factored_steps() as calls:
            out = evolve(v, s0, 3)
        assert calls == []
        oracle = np.linalg.matrix_power(v, 3) @ s0.amplitudes
        assert max_norm(out.amplitudes - oracle) <= 1e-12

    def test_pickled_value_walks_factored(self, u, rng):
        v = pickle.loads(pickle.dumps(u))
        s0 = random_state(5, 4, rng)
        with factored_steps() as calls:
            out = evolve(v, s0, 3)
        assert calls == [(4, 5, 5)] * 3
        assert out.amplitudes.tobytes() == evolve(u, s0, 3).amplitudes.tobytes()

    @pytest.mark.parametrize("combine", [
        lambda u, a: np.matmul(u, a[0]),
        lambda u, a: u - a,
        lambda u, a: a - u,
        lambda u, a: u * 1,
        lambda u, a: a[0] @ u,
    ], ids=["matmul", "sub", "rsub", "mul", "rmatmul"])
    def test_ufuncs_and_arithmetic_refuse_it(self, u, combine):
        with pytest.raises(TypeError):
            combine(u, np.asarray(u))

    @pytest.mark.parametrize("shape", [(19,), (21,), (20, 1), (20, 20), ()])
    def test_state_of_another_size_is_refused(self, u, shape):
        with pytest.raises(PreconditionError, match="cannot step a state of shape"):
            u @ np.ones(shape, dtype=np.complex128)

    @pytest.mark.parametrize("convert", [
        lambda x: x.tolist(),
        lambda x: x.real.copy(),
        lambda x: np.round(4 * x.real).astype(np.int64),
        lambda x: np.repeat(x, 2)[::2],
        lambda x: x.astype(object),
    ], ids=["list", "float64", "int", "strided", "object"])
    def test_state_that_is_not_a_complex_array_is_converted(self, u, rng, convert):
        """Per-vertex coins and a real global coin, which steps on the float
        view of a contiguous complex copy of x."""
        grover = evolution(KrausGrid.from_permutation(5, 4, rng.permutation(20)),
                           CoinSpec.global_coin(named_coin("grover", 5), 4))
        x = convert(random_state(5, 4, rng).amplitudes)
        for op in (u, grover):
            got = op @ x
            assert got.dtype == np.complex128
            assert max_norm(got - np.asarray(op) @ np.asarray(x, dtype=np.complex128)) <= 1e-12

    @pytest.mark.parametrize("x", [np.array(["a"] * 20), [object()] * 20, [[1, 2]] * 19 + [1]],
                             ids=["strings", "objects", "ragged"])
    def test_state_that_is_not_numbers_is_refused(self, u, x):
        with pytest.raises(PreconditionError, match="does not convert to complex128"):
            u @ x

    def test_state_of_another_split_walks_as_densely(self, u, rng):
        # a (2, 10) state has U's dimension 20 but not its (5, 4) split
        s0 = random_state(2, 10, rng)
        with factored_steps() as calls:
            out = evolve(u, s0, 3)
        assert calls == [(4, 5, 5)] * 3
        assert max_norm(out.amplitudes - evolve(np.asarray(u), s0, 3).amplitudes) <= 1e-12

    def test_save_load_roundtrips_bytes(self, u, tmp_path):
        np.save(tmp_path / "u.npy", u)  # through np.asanyarray, so u.__array__
        loaded = np.load(tmp_path / "u.npy")
        assert loaded.shape == u.shape and loaded.dtype == np.complex128
        assert loaded.tobytes() == np.asarray(u).tobytes()

    def test_evolution_allocates_no_dense_u(self, rng):
        m, n = 3, 600
        grid = KrausGrid.from_permutation(m, n, rng.permutation(m * n),
                                          np.exp(2j * np.pi * rng.random(m * n)))
        spec = CoinSpec.global_coin(named_coin("grover", m), n)
        tracemalloc.start()
        try:
            evolution(grid, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (m * n) ** 2 / 10  # a tenth of dense U's 51.8 MB

    def test_changing_the_coin_afterwards_changes_nothing(self, c4_shift):
        c = named_coin("hadamard", 2)
        u = evolution(c4_shift, CoinSpec.global_coin(c, 4))
        s0 = basis_state(2, 4, 0, 0)
        before = evolve(u, s0, 3).amplitudes
        c[:] = np.eye(2)
        assert np.array_equal(evolve(u, s0, 3).amplitudes, before)

    def test_non_monomial_shift_gives_a_read_only_plain_array(self, rng):
        u = evolution(haar_unitary(6, rng), CoinSpec.global_coin(named_coin("dft", 3), 2))
        assert type(u) is np.ndarray
        assert not u.flags.writeable
