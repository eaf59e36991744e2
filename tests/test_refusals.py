"""Refusals: one reader per adjacency, and a table of every refused input
that no other test reaches, with its exception class, or the exit code
where the CLI delivers it."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import cycle_shift_grid
from qwalk import (
    Arc,
    CoinSpec,
    Edge,
    KrausGrid,
    MultiGraph,
    NonUnitaryError,
    PreconditionError,
    ProbabilityVector,
    WalkerState,
    adjacency,
    as_matrix,
    basis_state,
    classical_trajectory,
    classical_transition,
    classical_walk,
    decompose_permutations,
    evolution,
    evolve,
    from_adjacency,
    is_unitary,
    named_coin,
    union,
    verify_kraus,
)
from qwalk import fileio
from qwalk.cli import main
from qwalk.linalg import require_unitary

NON_SQUARE = np.ones((2, 3))
P4 = ProbabilityVector(np.full(4, 0.25))


@pytest.mark.parametrize("read", [
    decompose_permutations,
    lambda a: verify_kraus(a, cycle_shift_grid(2)),
    from_adjacency,
    classical_transition,
    lambda a: classical_walk(a, P4, 1),
], ids=["decompose", "verify", "from_adjacency", "classical_transition", "classical_walk"])
def test_every_adjacency_reader_refuses_a_non_square_matrix(read):
    with pytest.raises(PreconditionError, match="^adjacency matrix must be square$"):
        read(NON_SQUARE)


def test_verify_refuses_a_non_square_adjacency_file(tmp_path, capsys):
    grid, adjacency = tmp_path / "grid.json", tmp_path / "a.json"
    fileio.save_grid(cycle_shift_grid(2), grid)
    fileio.save_matrix(NON_SQUARE, adjacency)
    assert main(["verify", str(grid), "--adjacency", str(adjacency)]) == 2
    assert "adjacency matrix must be square" in capsys.readouterr().err


@pytest.mark.parametrize("call, error", [
    (lambda: CoinSpec(0, 2, np.eye(1)[None]), PreconditionError),
    (lambda: CoinSpec(1, 0, np.eye(1)[None]), PreconditionError),
    (lambda: CoinSpec.per_vertex_coins([np.eye(2)] * 3, 2, 2), PreconditionError),
    (lambda: Arc(-1, 0), PreconditionError),
    (lambda: Arc(0, 0, 1.0, -1), PreconditionError),
    (lambda: Edge(0, -1), PreconditionError),
    (lambda: Edge(0, 1, 0), PreconditionError),
    (lambda: MultiGraph(2, undirected=[Edge(0, 2)]), PreconditionError),
    (lambda: MultiGraph(2, names=("a",)), PreconditionError),
    (lambda: union([]), PreconditionError),
    (lambda: as_matrix(np.ones(3)), ValueError),
    (lambda: named_coin("identity", 2 ** 31), PreconditionError),
    (lambda: named_coin("identity", 0), PreconditionError),
    (lambda: KrausGrid.from_matrix(np.ones((2, 4)), 1), PreconditionError),
    (lambda: WalkerState(0, 1, [1.0]), PreconditionError),
    (lambda: WalkerState(1, 0, []), PreconditionError),
    (lambda: WalkerState(2, 2, [1, 0, 0]), PreconditionError),
    (lambda: basis_state(2, 2, 0, 0).subvector(2), PreconditionError),
    (lambda: ProbabilityVector([]), PreconditionError),
    (lambda: evolve(np.eye(2), basis_state(1, 2, 0, 0), -1), PreconditionError),
    (lambda: next(classical_trajectory(np.ones((4, 4)), P4, -1)), PreconditionError),
    (lambda: next(classical_trajectory(np.ones((3, 3)), P4, 1)), PreconditionError),
], ids=["coin-m0", "coin-n0", "per-vertex-too-many", "arc-negative-endpoint",
        "arc-negative-coin", "edge-negative-endpoint", "edge-zero-weight",
        "edge-vertex-ge-n", "names-wrong-length", "union-empty", "as-matrix-1d",
        "named-coin-too-large", "named-coin-m0", "grid-from-non-square", "state-m0",
        "state-n0", "state-amplitude-count",
        "subvector-out-of-range", "probabilities-empty", "evolve-negative-t",
        "trajectory-negative-t", "trajectory-p0-length"])
def test_library_refuses(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("args, message", [
    ((0, 2, [0, 1]), "grid dimensions must be positive"),
    ((1, 2, [0.0, 1.0]), "integer permutation of range"),
    ((1, 2, [True, False]), "integer permutation of range"),
    ((1, 1, 0), "integer permutation of range"),
    ((1, 2, [[0, 1]]), "integer permutation of range"),
    ((1, 3, [0, 1]), "integer permutation of range"),
    ((1, 3, [0, 0, 2]), "integer permutation of range"),
    ((1, 2, [1, 2]), "integer permutation of range"),
    ((1, 2, [[0], [1, 2]]), "numeric arrays"),
    ((1, 2, [1, 0], [1]), "phase must be 2 finite entries"),
    ((1, 2, [1, 0], [1, np.nan]), "phase must be 2 finite entries"),
    ((1, 2, [1, 0], [1, complex(0, np.inf)]), "phase must be 2 finite entries"),
    ((1, 2, [1, 0], ["a", "b"]), "numeric arrays"),
    ((1, 2, [0, -1]), "integer permutation of range"),
    ((1, 2, np.array([2 ** 63, 0], dtype=np.uint64)), "integer permutation of range"),
], ids=["m0", "float-perm", "bool-perm", "scalar-perm", "2d-perm", "short-perm",
        "repeated-perm", "perm-out-of-range", "ragged-perm", "short-phase", "nan-phase",
        "inf-phase", "text-phase", "negative-perm", "uint64-perm-2-63"])
def test_from_permutation_refuses(args, message):
    with pytest.raises(PreconditionError, match=message):
        KrausGrid.from_permutation(*args)


def test_from_permutation_refuses_before_it_builds_arrays_of_nm_entries():
    """A perm of the wrong length is refused at m n = 10^7 at a tracemalloc
    peak under 1 MB: one complex128 array of nm entries would be 160 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="integer permutation of range"):
            KrausGrid.from_permutation(1, 10 ** 7, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_load_graph_refuses_a_negative_coin(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "arcs": [{"tail": 0, "head": 1, "w": [1, 0],
                                                  "coin": -1}]}))
    with pytest.raises(PreconditionError):
        fileio.load_graph(path)


@pytest.mark.parametrize("argv, code, message", [
    (["walk", "{i4}", "{state}", "--steps", "1"], 2, "does not match state dimension"),
    (["walk", "{i4}", "{state}", "--steps", "0"], 2, "does not match state dimension"),
    (["coin", "{coin}"], 1, "unknown coin kind"),
    (["walk", "{i4}", "{short}", "--steps", "1"], 2, "expected 4 amplitudes, got 3"),
    (["coin", "{coin_m0}"], 2, "coin dimension must be positive"),
], ids=["walk-dimension", "walk-dimension-steps-0", "coin-unknown-kind",
        "walk-amplitude-count", "coin-named-m0"])
def test_cli_refuses(tmp_path, capsys, argv, code, message):
    files = {name: tmp_path / f"{name}.json"
             for name in ("i4", "state", "coin", "short", "coin_m0")}
    fileio.save_matrix(np.eye(4), files["i4"])
    fileio.save_state(basis_state(2, 4, 0, 0), files["state"])
    files["coin"].write_text(json.dumps({"m": 1, "n": 4, "kind": "diagonal", "matrices": [
        {"rows": 1, "cols": 1, "entries": [[1, 0]]}]}))
    files["short"].write_text(json.dumps({"m": 2, "n": 2,
                                          "amplitudes": [[1, 0], [0, 0], [0, 0]]}))
    files["coin_m0"].write_text(json.dumps({"m": 0, "n": 4, "kind": "named", "name": "identity"}))
    argv = [a.format(**files) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# Finite inputs so large that the arithmetic of their checks overflows.
HUGE_2X2 = np.full((2, 2), 1e308)
HALF = ProbabilityVector([0.5, 0.5])
OVERFLOWING_S = np.full((2, 2), 1.7e308)  # S (H (x) I) has entries past the float range
HADAMARD = CoinSpec.global_coin(named_coin("hadamard", 2), 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: WalkerState(1, 2, [1e200, 0]), PreconditionError, "not normalized"),
    (lambda: ProbabilityVector([1e308, 1e308]), PreconditionError, "sum to inf"),
    (lambda: CoinSpec.global_coin(np.diag([1e200, 1.0]), 2), NonUnitaryError, "residual inf"),
    (lambda: CoinSpec.global_coin(np.full((2, 2), 1e200), 2), NonUnitaryError, "not unitary"),
    (lambda: evolution(np.diag([1e200, 1.0]), CoinSpec.global_coin(np.eye(2), 1)),
     NonUnitaryError, "residual nan"),  # accepted with a NaN residual, warnings aside
    (lambda: classical_walk(HUGE_2X2, HALF, 1), PreconditionError, "infinite out-degree"),
    (lambda: classical_walk(from_adjacency(HUGE_2X2), HALF, 1), PreconditionError,
     "infinite out-degree"),
    (lambda: classical_transition(HUGE_2X2), PreconditionError, "infinite out-degree"),
    (lambda: evolution(OVERFLOWING_S, HADAMARD), NonUnitaryError, "residual nan"),
], ids=["state", "distribution", "coin-monomial", "coin-dense", "evolution", "classical-matrix",
        "classical-graph", "transition-matrix", "evolution-dense"])
def test_huge_finite_inputs_are_refused_by_qwalk(call, error, message):
    # pytest turns numpy's overflow warnings into errors: these must not warn
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("a", [np.diag([1e200, 1.0]), np.full((2, 2), 1e200),
                               np.array([[1e200, 1e200], [1e200, -1e200]])],
                         ids=["monomial", "dense", "dense-cancelling"])
def test_huge_entries_are_not_unitary(a):
    assert is_unitary(a) is False
    with pytest.raises(NonUnitaryError):
        require_unitary(a)
    grid = KrausGrid.from_matrix(a, 1)
    report = verify_kraus(None, grid)
    assert not (report.column_ok or report.row_ok)


def test_a_huge_phase_fails_completeness():
    grid = KrausGrid.from_permutation(1, 2, np.array([1, 0]), np.array([1e200, 1], complex))
    report = verify_kraus(None, grid)  # with no overflow warning
    assert not (report.column_ok or report.row_ok)


@pytest.mark.parametrize("graph", [
    MultiGraph.from_columns(2, [0, 0], [1, 1], [1e308, 1e308], [-1, -1]),
    MultiGraph.from_columns(2, [], [], [], [], [0, 1], [1, 0], [1e308, 1e308]),
], ids=["arcs", "edges"])
@pytest.mark.parametrize("read", [
    adjacency,
    decompose_permutations,
    lambda g: verify_kraus(g, cycle_shift_grid(2)),
    lambda g: classical_walk(g, HALF, 1),
], ids=["adjacency", "decompose", "verify", "classical_walk"])
def test_every_graph_reader_refuses_weights_that_sum_past_the_float_range(read, graph):
    with pytest.raises(PreconditionError, match="^summed arc and edge weights must be finite$"):
        read(graph)


def test_cli_refuses_an_overflowing_degree_with_one_error_line(tmp_path):
    """Run as a user runs it, with numpy's warnings shown: stderr is the
    one error line, and no CSV is written."""
    adjacency, probs, out = tmp_path / "a.json", tmp_path / "p.json", tmp_path / "c.csv"
    fileio.save_matrix(HUGE_2X2, adjacency)
    fileio.save_probability_vector(HALF, probs)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "qwalk.cli", "classical", str(adjacency),
                           str(probs), "--steps", "2", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: vertices [0, 1] have infinite out-degree\n"
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["evolve-op", "walk"])
def test_cli_refuses_an_overflowing_evolution_with_one_error_line(tmp_path, command):
    """Run as a user runs it, with numpy's warnings shown: stderr is the
    one error line, and no file is written."""
    shift, coin, state, out = (tmp_path / name for name in ("s.json", "c.json", "p.json", "out"))
    fileio.save_matrix(OVERFLOWING_S, shift)
    fileio.save_coin_spec(HADAMARD, coin)
    fileio.save_state(basis_state(2, 1, 0, 0), state)
    argv = ([shift, coin] if command == "evolve-op" else
            [shift, state, "--coin", coin, "--steps", "2"])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "qwalk.cli", command, *map(str, argv),
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == "error: evolution operator is not unitary (residual nan)\n"
    assert proc.stdout == "" and not out.exists()
