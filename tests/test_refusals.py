"""Refusals: one reader per adjacency, and a table of every refused input
that no other test reaches, with its exception class, or the exit code
where the CLI delivers it."""

import json

import numpy as np
import pytest

from conftest import cycle_shift_grid
from qwalk import (
    Arc,
    CoinSpec,
    Edge,
    KrausGrid,
    MultiGraph,
    PreconditionError,
    ProbabilityVector,
    WalkerState,
    as_matrix,
    basis_state,
    classical_trajectory,
    classical_transition,
    classical_walk,
    decompose_permutations,
    evolve,
    from_adjacency,
    named_coin,
    union,
    verify_kraus,
)
from qwalk import fileio
from qwalk.cli import main

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
    (lambda: KrausGrid.from_matrix(np.ones((2, 4)), 1), PreconditionError),
    (lambda: WalkerState(0, 1, [1.0]), PreconditionError),
    (lambda: WalkerState(1, 0, []), PreconditionError),
    (lambda: basis_state(2, 2, 0, 0).subvector(2), PreconditionError),
    (lambda: ProbabilityVector([]), PreconditionError),
    (lambda: evolve(np.eye(2), basis_state(1, 2, 0, 0), -1), PreconditionError),
    (lambda: next(classical_trajectory(np.ones((4, 4)), P4, -1)), PreconditionError),
    (lambda: next(classical_trajectory(np.ones((3, 3)), P4, 1)), PreconditionError),
], ids=["coin-m0", "coin-n0", "per-vertex-too-many", "arc-negative-endpoint",
        "arc-negative-coin", "edge-negative-endpoint", "edge-zero-weight",
        "edge-vertex-ge-n", "names-wrong-length", "union-empty", "as-matrix-1d",
        "named-coin-too-large", "grid-from-non-square", "state-m0", "state-n0",
        "subvector-out-of-range", "probabilities-empty", "evolve-negative-t",
        "trajectory-negative-t", "trajectory-p0-length"])
def test_library_refuses(call, error):
    with pytest.raises(error):
        call()


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
], ids=["walk-dimension", "walk-dimension-steps-0", "coin-unknown-kind"])
def test_cli_refuses(tmp_path, capsys, argv, code, message):
    i4, state, coin = (tmp_path / name for name in ("i4.json", "state.json", "coin.json"))
    fileio.save_matrix(np.eye(4), i4)
    fileio.save_state(basis_state(2, 4, 0, 0), state)
    coin.write_text(json.dumps({"m": 1, "n": 4, "kind": "diagonal",
                                "matrices": [{"rows": 1, "cols": 1, "entries": [[1, 0]]}]}))
    argv = [a.format(i4=i4, state=state, coin=coin) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
