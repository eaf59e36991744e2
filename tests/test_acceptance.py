"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import numpy as np
import pytest

from conftest import (
    cycle_adjacency,
    cycle_shift_grid,
    haar_unitary,
    hypercube_adjacency,
    right_shift,
)
from qwalk import (
    Arc,
    CoinSpec,
    KrausGrid,
    MultiGraph,
    ProbabilityVector,
    adjacency,
    assemble_shift,
    basis_state,
    classical_transition,
    classical_walk,
    coin_matrix,
    column_adjacency,
    decompose_permutations,
    evolution,
    evolve,
    extract_graph,
    max_norm,
    measure_position,
    named_coin,
    split_directed,
    split_undirected,
    unitarity_residual,
    verify_kraus,
)
from qwalk import fileio
from qwalk.cli import main


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_forward_compilation():
    """Permutation decomposition of the complete 4-graph with loops."""
    j4 = np.ones((4, 4), dtype=np.complex128)
    grid = decompose_permutations(j4)
    sum_residual = max_norm(grid.block_sum() - j4.T)
    assert sum_residual == 0
    shift = assemble_shift(grid)
    residual = unitarity_residual(shift.matrix)
    assert residual < 1e-12
    report("1 (forward compilation)",
           f"m={grid.m}, unitarity residual {residual:.2e}")


def test_criterion_2_completeness_detection():
    """Random-unitary partitions pass both completeness relations; a
    1e-3 single-entry perturbation is detected with residual >= 5e-4."""
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(20):
        u = haar_unitary(12, rng)
        for m in (1, 2, 3, 4, 6, 12):
            grid = KrausGrid.from_matrix(u, m)
            rep = verify_kraus(None, grid)
            assert rep.column_ok and rep.row_ok, (trial, m)
            checked += 1

        # bump the largest-magnitude entry by 1e-3 along its phase
        bad = u.copy()
        r, c = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
        bad[r, c] += 1e-3 * bad[r, c] / abs(bad[r, c])
        for m in (2, 3, 4, 6, 12):
            rep = verify_kraus(None, KrausGrid.from_matrix(bad, m))
            residual = max(rep.column_residual, rep.row_residual)
            assert not (rep.column_ok and rep.row_ok), (trial, m)
            assert residual >= 5e-4, (trial, m, residual)
    report("2 (completeness relations)", f"{checked} partitions checked")


def test_criterion_3_roundtrip_with_coin_tags():
    """graph -> decompose -> assemble -> extract recovers the adjacency
    and tags arcs one coin per permutation."""
    fixtures = {
        "C4": cycle_adjacency(4),
        "C8": cycle_adjacency(8),
        "J4": np.ones((4, 4), dtype=np.complex128),
        "Q3": hypercube_adjacency(3),
    }
    for name, a in fixtures.items():
        grid = decompose_permutations(a)
        shift = assemble_shift(grid)
        grid2, graph = extract_graph(shift.matrix, grid.m)
        assert max_norm(adjacency(graph) - a) <= 1e-12, name
        for i in range(grid.m):
            for j in range(grid.m):
                assert np.array_equal(grid2.blocks[i][j], grid.blocks[i][j])
        # arcs tagged j recover exactly permutation j (graph side)
        for j in range(grid.m):
            tagged = np.zeros((graph.n, graph.n), dtype=np.complex128)
            for arc in graph.arcs:
                if arc.coin_tag == j:
                    tagged[arc.tail, arc.head] += arc.weight
            assert np.array_equal(tagged, grid.blocks[j][j].T), (name, j)
    report("3 (roundtrip + coin tags)", f"{len(fixtures)} regular graphs")


def test_criterion_4_inverse_extraction(tmp_path):
    """Inverse extraction for SWAP, identity, and the full partition
    family of a random 8-dim unitary via the CLI."""
    swap = np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=np.complex128)
    _, g = extract_graph(swap, 2)
    assert np.array_equal(adjacency(g), np.ones((2, 2)))
    _, g = extract_graph(np.eye(4), 2)
    assert np.array_equal(adjacency(g), 2 * np.eye(2))

    u = haar_unitary(8, np.random.default_rng(11))
    u_path = tmp_path / "u8.json"
    fileio.save_matrix(u, u_path)
    out = tmp_path / "family.json"
    assert main(["extract", str(u_path), "--all-partitions",
                 "--out", str(out)]) == 0
    for m in (1, 2, 4, 8):
        graph = fileio.load_graph(tmp_path / f"family.m{m}.json")
        n = 8 // m
        # independent oracle: direct block summation over index arithmetic
        oracle = np.zeros((n, n), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                oracle += u[i * n:(i + 1) * n, j * n:(j + 1) * n].T
        assert max_norm(adjacency(graph) - oracle) <= 1e-12, m
        sidecar = fileio.load_matrix(tmp_path / f"family.m{m}.adjacency.json")
        assert max_norm(sidecar - oracle) <= 1e-12, m
    report("4 (inverse extraction)", "SWAP, I4 and m in {1,2,4,8} family")


def test_criterion_5_general_coin():
    """Per-vertex coin degenerates to the global form bit-exactly; the
    evolution blocks obey the weighted-Kraus formula."""
    rng = np.random.default_rng(13)
    for m in (2, 3, 4):
        for n in (2, 3, 5):
            c = haar_unitary(m, rng)
            per = coin_matrix(CoinSpec.per_vertex_coins([c] * n, m, n))
            assert np.array_equal(per, np.kron(c, np.eye(n))), (m, n)

    shift = assemble_shift(cycle_shift_grid(4))
    c = haar_unitary(2, rng)
    u = np.asarray(evolution(shift, CoinSpec.global_coin(c, 4)))  # dense U, to slice
    blocks = shift.blocks
    for i in range(2):
        for j in range(2):
            expected = sum(c[k, j] * blocks[i][k] for k in range(2))
            got = u[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
            assert max_norm(got - expected) <= 1e-12, (i, j)
    report("5 (general coin)", "9 (m,n) pairs + U block formula")


def test_criterion_6_column_adjacency():
    """Per-coin effective adjacencies of the Hadamard walk on C4, and
    the loss of adjacency recovery under a nontrivial coin."""
    shift = assemble_shift(cycle_shift_grid(4))
    u = evolution(shift, CoinSpec.global_coin(named_coin("hadamard", 2), 4))
    r = right_shift(4)
    l = r.T
    s = 1 / np.sqrt(2)
    assert max_norm(column_adjacency(u, 2, 0) - s * (r.T + l.T)) <= 1e-12
    assert max_norm(column_adjacency(u, 2, 1) - s * (r.T - l.T)) <= 1e-12
    block_sum = KrausGrid.from_matrix(u, 2).block_sum()
    assert max_norm(block_sum - shift.block_sum()) > 1e-6
    report("6 (column adjacencies)", "Hadamard/C4 fixture")


def test_criterion_7_walk_correctness():
    """Hadamard walk on C8: iteration vs matrix-power oracle, and
    probability conservation at every step."""
    shift = assemble_shift(cycle_shift_grid(8))
    u = evolution(shift, CoinSpec.global_coin(named_coin("hadamard", 2), 8))
    s0 = basis_state(2, 8, 0, 0)
    for t in range(1, 17):
        iterated = evolve(u, s0, t)
        oracle = np.linalg.matrix_power(u, t) @ s0.amplitudes
        assert max_norm(iterated.amplitudes - oracle) <= 1e-10, t
        total = measure_position(iterated).probs.sum()
        assert abs(total - 1) <= 1e-12, t
    report("7 (walk correctness)", "t = 1..16 on C8")


def test_criterion_8_classical_reduction(tmp_path):
    """Identity-coin permutation walk matches the deterministic classical
    walk byte for byte at the CSV level."""
    shift = assemble_shift(cycle_shift_grid(4))
    op_path = tmp_path / "shift.json"
    fileio.save_matrix(shift.matrix, op_path)
    state_path = tmp_path / "s0.json"
    fileio.save_state(basis_state(2, 4, 0, 0), state_path)
    # coin-0 subvector is steered by block R^T; p' = M^T p matches it
    # when the classical transition matrix is R itself
    adj_path = tmp_path / "perm.json"
    fileio.save_matrix(right_shift(4), adj_path)
    p0_path = tmp_path / "p0.json"
    fileio.save_probability_vector(
        ProbabilityVector(np.array([1.0, 0, 0, 0])), p0_path)

    q_csv, c_csv = tmp_path / "q.csv", tmp_path / "c.csv"
    assert main(["walk", str(op_path), str(state_path), "--steps", "9",
                 "--out", str(q_csv), "--trajectory"]) == 0
    assert main(["classical", str(adj_path), str(p0_path), "--steps", "9",
                 "--out", str(c_csv), "--trajectory"]) == 0
    assert q_csv.read_bytes() == c_csv.read_bytes()
    report("8 (classical reduction)", "identical CSV, 10 recorded steps")


def test_criterion_9_classical_baseline():
    """Recurrence and matrix-power forms of the classical walk agree."""
    p0 = ProbabilityVector(np.array([1.0, 0, 0, 0]))
    for name, a in [("C4", cycle_adjacency(4)),
                    ("J4", np.ones((4, 4), dtype=np.complex128))]:
        mt = classical_transition(a).real.T
        for t in range(33):
            out = classical_walk(a, p0, t)
            oracle = np.linalg.matrix_power(mt, t) @ p0.probs
            assert max_norm(out.probs - oracle) <= 1e-12, (name, t)
            assert np.all(out.probs >= 0)
            assert abs(out.probs.sum() - 1) <= 1e-10, (name, t)
    report("9 (classical baseline)", "C4 and J4, t = 0..32")


def test_criterion_10_edge_transformation_invariance():
    """Random split transformations never change the adjacency matrix."""
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        arcs = tuple(
            Arc(int(rng.integers(n)), int(rng.integers(n)),
                complex(rng.normal(), rng.normal()))
            for _ in range(rng.integers(1, 10)))
        from qwalk import Edge
        edges = tuple(
            Edge(int(rng.integers(n)), int(rng.integers(n)),
                 complex(rng.normal(), rng.normal()))
            for _ in range(rng.integers(0, 5)))
        g = MultiGraph(n, arcs, edges)
        before = adjacency(g)

        new_arcs = []
        for a in g.arcs:
            k = int(rng.integers(1, 4))
            parts = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
            weights = list(parts) + [a.weight - parts.sum()]
            new_arcs.extend(split_directed(a, weights))
        for e in g.undirected:
            new_arcs.extend(split_undirected(e))
        after = adjacency(MultiGraph(n, tuple(new_arcs)))
        assert max_norm(after - before) <= 1e-12, trial
    report("10 (edge-transformation invariance)", "50 random multigraphs")
