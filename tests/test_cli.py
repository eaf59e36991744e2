import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_adjacency, cycle_shift_grid, haar_unitary, matrix_obj, spy_stack_checks
from qwalk import (
    Arc,
    ProbabilityVector,
    WalkerState,
    adjacency,
    assemble_shift,
    basis_state,
    classical_walk,
    extract_family,
    max_norm,
    named_coin,
)
from qwalk import fileio
from qwalk.cli import main

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=np.complex128)


def write_matrix(tmp_path, name, a):
    path = tmp_path / name
    fileio.save_matrix(a, path)
    return str(path)


class TestDecompose:
    def test_complete_graph(self, tmp_path, capsys):
        adj = write_matrix(tmp_path, "j4.json", np.ones((4, 4)))
        out = tmp_path / "grid.json"
        assert main(["decompose", adj, "--out", str(out)]) == 0
        assert "m = 4" in capsys.readouterr().out
        grid = fileio.load_grid(out)
        assert max_norm(grid.block_sum() - np.ones((4, 4))) == 0

    def test_cycle(self, tmp_path):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        out = tmp_path / "grid.json"
        assert main(["decompose", adj, "--out", str(out)]) == 0
        assert fileio.load_grid(out).m == 2

    def test_irregular_exits_2(self, tmp_path, capsys):
        star = np.zeros((4, 4))
        star[0, 1:] = 1
        star[1:, 0] = 1
        adj = write_matrix(tmp_path, "star.json", star)
        assert main(["decompose", adj, "--out", str(tmp_path / "g.json")]) == 2
        assert "[3, 1, 1, 1]" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "g.json")]) == 1


class TestVerify:
    def test_roundtrip_with_decompose(self, tmp_path):
        adj = write_matrix(tmp_path, "j4.json", np.ones((4, 4)))
        grid = tmp_path / "grid.json"
        assert main(["decompose", adj, "--out", str(grid)]) == 0
        assert main(["verify", str(grid), "--adjacency", adj]) == 0

    def test_grid_only(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        fileio.save_grid(cycle_shift_grid(4), grid_path)
        assert main(["verify", str(grid_path)]) == 0

    def test_zeroed_block_exits_4(self, tmp_path, capsys):
        grid = cycle_shift_grid(4)
        zero = np.zeros((4, 4))
        from qwalk import KrausGrid
        broken = KrausGrid(2, 4, ((zero, grid.blocks[0][1]),
                                  (grid.blocks[1][0], grid.blocks[1][1])))
        path = tmp_path / "broken.json"
        fileio.save_grid(broken, path)
        assert main(["verify", str(path)]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestAssembleAndEvolveOp:
    def test_assemble(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        fileio.save_grid(cycle_shift_grid(4), grid_path)
        out = tmp_path / "shift.json"
        assert main(["assemble", str(grid_path), "--out", str(out)]) == 0
        s = fileio.load_matrix(out)
        assert np.array_equal(s, assemble_shift(cycle_shift_grid(4)).matrix)

    def test_coin_and_evolve_op(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        fileio.save_grid(cycle_shift_grid(4), grid_path)
        shift_path = tmp_path / "shift.json"
        main(["assemble", str(grid_path), "--out", str(shift_path)])
        coin_path = tmp_path / "coin.json"
        coin_path.write_text('{"m": 2, "n": 4, "kind": "named", "name": "hadamard"}')
        built = tmp_path / "coinmat.json"
        assert main(["coin", str(coin_path), "--out", str(built)]) == 0
        assert fileio.load_matrix(built).shape == (8, 8)
        u_path = tmp_path / "u.json"
        assert main(["evolve-op", str(shift_path), str(coin_path),
                     "--out", str(u_path)]) == 0
        from qwalk import is_unitary
        assert is_unitary(fileio.load_matrix(u_path))

    def test_global_coin_bytes_match_per_vertex_spec(self, tmp_path):
        h = matrix_obj(named_coin("hadamard", 2))
        outs = []
        for kind, matrices in (("global", [h]), ("per_vertex", [h] * 4)):
            spec = tmp_path / f"{kind}.json"
            spec.write_text(json.dumps({"m": 2, "n": 4, "kind": kind,
                                        "matrices": matrices}))
            outs.append(tmp_path / f"{kind}.out.json")
            assert main(["coin", str(spec), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestWalk:
    @pytest.fixture
    def setup(self, tmp_path):
        shift = assemble_shift(cycle_shift_grid(4))
        op = write_matrix(tmp_path, "shift.json", shift.matrix)
        state_path = tmp_path / "s0.json"
        fileio.save_state(basis_state(2, 4, 0, 0), state_path)
        coin_path = tmp_path / "coin.json"
        coin_path.write_text('{"m": 2, "n": 4, "kind": "named", "name": "hadamard"}')
        return op, str(state_path), str(coin_path)

    def test_trajectory_row_count(self, setup, tmp_path, capsys):
        op, state, coin = setup
        out = tmp_path / "walk.csv"
        assert main(["walk", op, state, "--coin", coin, "--steps", "10",
                     "--out", str(out), "--trajectory"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 44  # header + 11 steps x 4 vertices
        echoed = capsys.readouterr().out
        assert echoed.startswith("total probability = ")
        assert abs(float(echoed.split("=")[1]) - 1) <= 1e-10

    def test_zero_steps_echoes_initial(self, setup, tmp_path):
        op, state, _ = setup
        out = tmp_path / "init.csv"
        assert main(["walk", op, state, "--steps", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "0,0,1"

    def test_per_step_sums(self, setup, tmp_path):
        op, state, coin = setup
        out = tmp_path / "walk.csv"
        main(["walk", op, state, "--coin", coin, "--steps", "10",
              "--out", str(out), "--trajectory"])
        rows = out.read_text().splitlines()[1:]
        sums = {}
        for row in rows:
            t, _, p = row.split(",")
            sums[t] = sums.get(t, 0.0) + float(p)
        assert all(abs(s - 1) <= 1e-10 for s in sums.values())

    def test_perturbed_operator_exits_3(self, setup, tmp_path, capsys):
        op, state, coin = setup
        bad = fileio.load_matrix(op).copy()
        bad[0, 0] += 0.01
        bad_path = write_matrix(tmp_path, "bad.json", bad)
        assert main(["walk", bad_path, state, "--steps", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "walk operator is not unitary" in capsys.readouterr().err
        assert main(["walk", bad_path, state, "--coin", coin, "--steps", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "evolution operator is not unitary" in capsys.readouterr().err
        assert main(["evolve-op", bad_path, coin, "--out", str(tmp_path / "u.json")]) == 3
        assert "evolution operator is not unitary" in capsys.readouterr().err

    def test_tolerance_accepted_operator_walks_1000_steps(self, tmp_path, rng, capsys):
        op = write_matrix(tmp_path, "u.json", haar_unitary(16, rng) * (1 + 4e-11))
        state = tmp_path / "s0.json"
        fileio.save_state(basis_state(2, 8, 0, 0), state)
        assert main(["walk", op, str(state), "--steps", "1000",
                     "--out", str(tmp_path / "w.csv")]) == 0
        total = float(capsys.readouterr().out.split("=")[1])
        assert total == pytest.approx((1 + 4e-11) ** 2000, abs=1e-12)  # 1 + 8e-8

    def test_coin_walk_is_factored_and_matches_evolve_op_then_walk(
            self, tmp_path, rng, monkeypatch):
        """``walk --coin`` applies U as coin then permutation, ``walk`` on a
        U file densely; their probabilities agree to 1e-12."""
        m, n = 3, 5
        s = np.zeros((m * n, m * n), dtype=np.complex128)
        s[np.arange(m * n), rng.permutation(m * n)] = np.exp(2j * np.pi * rng.random(m * n))
        shift = write_matrix(tmp_path, "s.json", s)
        coin = tmp_path / "coin.json"
        coin.write_text(json.dumps({"m": m, "n": n, "kind": "per_vertex", "matrices": [
            matrix_obj(haar_unitary(m, rng)) for _ in range(n)]}))
        amps = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
        state = tmp_path / "s0.json"
        fileio.save_state(WalkerState(m, n, amps / np.linalg.norm(amps)), state)
        factored, einsum = [], np.einsum

        def spy(subscripts, *operands, **kwargs):  # the factored step's kernel
            if subscripts == "kij,jk->ik":
                factored.append(operands[0].shape)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        walk = ["--steps", "20", "--trajectory", "--out"]
        assert main(["walk", shift, str(state), "--coin", str(coin),
                     *walk, str(tmp_path / "coin.csv")]) == 0
        assert factored == [(n, m, m)] * 20
        assert main(["evolve-op", shift, str(coin), "--out", str(tmp_path / "u.json")]) == 0
        assert main(["walk", str(tmp_path / "u.json"), str(state),
                     *walk, str(tmp_path / "u.csv")]) == 0
        assert len(factored) == 20
        rows = [np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
                for name in ("coin.csv", "u.csv")]
        assert np.array_equal(rows[0][:, :2], rows[1][:, :2])
        assert max_norm(rows[0][:, 2] - rows[1][:, 2]) <= 1e-12

    def test_coin_walk_checks_each_operator_once(self, setup, tmp_path, monkeypatch):
        import qwalk.coins
        import qwalk.linalg
        import qwalk.shift
        dense, stacks, certified = [], [], []
        residual, detect = qwalk.linalg.unitarity_residual, qwalk.shift.monomial
        spy_stack_checks(monkeypatch, stacks)
        monkeypatch.setattr(qwalk.linalg, "unitarity_residual",
                            lambda a: dense.append(a.shape) or residual(a))
        monkeypatch.setattr(qwalk.shift, "monomial",
                            lambda s: certified.append(s.shape) or detect(s))
        op, state, coin = setup
        assert main(["walk", op, state, "--coin", coin, "--steps", "2",
                     "--out", str(tmp_path / "w.csv")]) == 0
        assert dense == []  # S is checked only through U
        # the coin, then U certified from S as (perm, phase) and the coin stack
        assert stacks == [((1, 2, 2), "coin"), ((4, 2, 2), "evolution operator")]
        assert certified == [(8, 8)]


class TestClassical:
    def test_two_steps(self, tmp_path):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        p0_path = tmp_path / "p0.json"
        fileio.save_probability_vector(
            ProbabilityVector(np.array([1.0, 0, 0, 0])), p0_path)
        out = tmp_path / "cl.csv"
        assert main(["classical", adj, str(p0_path), "--steps", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1:] == ["2,0,0.5", "2,1,0", "2,2,0.5", "2,3,0"]

    def test_trajectory_matches_per_t_walks(self, tmp_path):
        a = np.ones((5, 5)) + np.eye(5)
        p0 = ProbabilityVector(np.array([0.25, 0.75, 0, 0, 0]))
        adj = write_matrix(tmp_path, "a.json", a)
        p0_path = tmp_path / "p0.json"
        fileio.save_probability_vector(p0, p0_path)
        out = tmp_path / "cl.csv"
        assert main(["classical", adj, str(p0_path), "--steps", "15",
                     "--out", str(out), "--trajectory"]) == 0
        dists = [(t, classical_walk(a, p0, t).probs) for t in range(16)]
        expected = tmp_path / "expected.csv"
        fileio.write_distribution_csv(dists, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_zero_row_exits_2(self, tmp_path):
        a = np.eye(3)
        a[1, 1] = 0
        adj = write_matrix(tmp_path, "bad.json", a)
        p0_path = tmp_path / "p0.json"
        fileio.save_probability_vector(
            ProbabilityVector(np.array([1.0, 0, 0])), p0_path)
        assert main(["classical", adj, str(p0_path), "--steps", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestExtract:
    def test_swap(self, tmp_path):
        u = write_matrix(tmp_path, "swap.json", SWAP)
        out = tmp_path / "graph.json"
        assert main(["extract", u, "--m", "2", "--out", str(out)]) == 0
        g = fileio.load_graph(out)
        assert np.array_equal(adjacency(g), np.ones((2, 2)))
        sidecar = fileio.load_matrix(tmp_path / "graph.adjacency.json")
        assert np.array_equal(sidecar, np.ones((2, 2)))

    def test_identity_m4(self, tmp_path):
        u = write_matrix(tmp_path, "i4.json", np.eye(4))
        out = tmp_path / "graph.json"
        assert main(["extract", u, "--m", "4", "--out", str(out)]) == 0
        g = fileio.load_graph(out)
        assert g.n == 1 and len(g.arcs) == 4

    @pytest.mark.parametrize("which", [["--m", "2", "--all-partitions"], []],
                             ids=["both", "neither"])
    def test_needs_exactly_one_of_m_and_all_partitions(self, tmp_path, capsys, which):
        u = write_matrix(tmp_path, "swap.json", SWAP)
        with pytest.raises(SystemExit) as exc:
            main(["extract", u, *which, "--out", str(tmp_path / "graph.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--all-partitions" in err and "Traceback" not in err
        assert not list(tmp_path.glob("graph*"))

    def test_all_partitions(self, tmp_path, rng):
        u = write_matrix(tmp_path, "u8.json", haar_unitary(8, rng))
        out = tmp_path / "family.json"
        assert main(["extract", u, "--all-partitions", "--out", str(out)]) == 0
        for m in (1, 2, 4, 8):
            g = fileio.load_graph(tmp_path / f"family.m{m}.json")
            assert g.n == 8 // m

    def test_all_partitions_checks_unitarity_once(self, tmp_path, rng, monkeypatch):
        import qwalk.linalg
        calls = []
        residual = qwalk.linalg.unitarity_residual
        monkeypatch.setattr(qwalk.linalg, "unitarity_residual",
                            lambda a: calls.append(a.shape) or residual(a))
        u = write_matrix(tmp_path, "u8.json", haar_unitary(8, rng))
        assert main(["extract", u, "--all-partitions",
                     "--out", str(tmp_path / "family.json")]) == 0
        assert calls == [(8, 8)]

    def test_all_partitions_builds_no_arc_objects(self, tmp_path, rng, monkeypatch, capsys):
        built, parent = [], os.getpid()
        init = Arc.__init__

        def counted(self, *a, **k):
            if os.getpid() != parent:  # the counter would not reach the parent
                raise RuntimeError("an extraction worker built an Arc")
            built.append(a)
            init(self, *a, **k)

        monkeypatch.setattr(Arc, "__init__", counted)
        u = write_matrix(tmp_path, "u12.json", haar_unitary(12, rng))
        out = tmp_path / "family.json"
        assert main(["extract", u, "--all-partitions", "--out", str(out)]) == 0
        assert built == []
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[1].split()[0] for line in lines] == [
            str(144 // m) for m in (1, 2, 3, 4, 6, 12)]
        assert len(fileio.load_graph(tmp_path / "family.m2.json").arcs) == 72
        assert len(built) == 72  # the counter sees arcs built on request

    def test_all_partitions_matches_serial_family(self, tmp_path, rng, capsys):
        u = haar_unitary(12, rng)
        path = write_matrix(tmp_path, "u12.json", u)
        (tmp_path / "serial").mkdir()
        expected = []
        for m, grid, graph in extract_family(u):
            out = tmp_path / "serial" / f"family.m{m}.json"
            fileio.save_graph(graph, out)
            fileio.save_matrix(grid.block_sum().T, out.with_suffix(".adjacency.json"))
            expected.append(f"m={m} n={grid.n}: {graph.tail.size} arcs -> "
                            f"{tmp_path / f'family.m{m}.json'} (adjacency: "
                            f"{tmp_path / f'family.m{m}.adjacency.json'})")
        capsys.readouterr()
        assert main(["extract", path, "--all-partitions",
                     "--out", str(tmp_path / "family.json")]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert multiprocessing.active_children() == []
        for f in sorted((tmp_path / "serial").iterdir()):
            assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name
        assert len(list((tmp_path / "serial").iterdir())) == 12

    @pytest.mark.parametrize("out, code", [("family.json", 0), ("missing/family.json", 1)])
    def test_all_partitions_keeps_no_family_in_the_parent(self, tmp_path, rng, out, code):
        import qwalk.cli
        path = write_matrix(tmp_path, "u6.json", haar_unitary(6, rng))
        assert main(["extract", path, "--all-partitions", "--out", str(tmp_path / out)]) == code
        assert qwalk.cli._family is None  # the workers inherited U; the parent holds none

    def test_worker_error_exits_1(self, tmp_path, rng, capfd):
        u = write_matrix(tmp_path, "u12.json", haar_unitary(12, rng))
        (tmp_path / "family.m2.json").mkdir()
        assert main(["extract", u, "--all-partitions",
                     "--out", str(tmp_path / "family.json")]) == 1
        err = capfd.readouterr().err
        assert "error:" in err and "family.m2.json" in err and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_2(self, tmp_path, rng, capfd, monkeypatch):
        parent, save = os.getpid(), fileio.save_graph

        def dies_at_m2(graph, path):
            if os.getpid() != parent and str(path).endswith(".m2.json"):
                os._exit(9)
            save(graph, path)

        monkeypatch.setattr(fileio, "save_graph", dies_at_m2)
        u = write_matrix(tmp_path, "u12.json", haar_unitary(12, rng))
        assert main(["extract", u, "--all-partitions",
                     "--out", str(tmp_path / "family.json")]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_non_divisible_exits_2(self, tmp_path, rng):
        u = write_matrix(tmp_path, "u6.json", haar_unitary(6, rng))
        assert main(["extract", u, "--m", "4",
                     "--out", str(tmp_path / "g.json")]) == 2

    @pytest.mark.parametrize("u", [np.eye(4), np.eye(4)[[1, 0, 3, 2]]],
                             ids=["identity", "permutation"])
    def test_zero_tolerance_stores_no_zero_arcs(self, tmp_path, u):
        path = write_matrix(tmp_path, "u.json", u)
        out = tmp_path / "g.json"
        assert main(["extract", path, "--m", "2", "--tol", "0", "--out", str(out)]) == 0
        assert len(fileio.load_graph(out).arcs) == 4

    def test_non_unitary_exits_3(self, tmp_path):
        u = write_matrix(tmp_path, "bad.json", np.ones((4, 4)))
        assert main(["extract", u, "--m", "2",
                     "--out", str(tmp_path / "g.json")]) == 3


class TestCompile:
    def test_hadamard_on_cycle(self, tmp_path):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        out = tmp_path / "u.json"
        assert main(["compile", adj, "--coin-name", "hadamard",
                     "--out", str(out)]) == 0
        from qwalk import is_unitary
        assert is_unitary(fileio.load_matrix(out))

    def test_takes_at_most_one_of_coin_file_and_coin_name(self, tmp_path, capsys):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        coin = tmp_path / "coin.json"
        coin.write_text('{"m": 2, "n": 4, "kind": "named", "name": "hadamard"}')
        with pytest.raises(SystemExit) as exc:
            main(["compile", adj, "--coin-file", str(coin), "--coin-name", "identity",
                  "--out", str(tmp_path / "u.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--coin-name" in err and "Traceback" not in err
        assert not (tmp_path / "u.json").exists()

    def test_checks_each_operator_once(self, tmp_path, monkeypatch):
        import qwalk.cli
        import qwalk.coins
        import qwalk.linalg
        import qwalk.shift
        dense, stacks, rechecks = [], [], []
        residual = qwalk.linalg.unitarity_residual
        spy_stack_checks(monkeypatch, stacks)
        monkeypatch.setattr(qwalk.linalg, "unitarity_residual",
                            lambda a: dense.append(a.shape) or residual(a))
        for module in (qwalk.cli, qwalk.shift):
            for name in ("assemble_shift", "verify_kraus"):
                monkeypatch.setattr(module, name, lambda *a, name=name, f=getattr(module, name):
                                    rechecks.append(name) or f(*a))
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        assert main(["compile", adj, "--coin-name", "hadamard",
                     "--out", str(tmp_path / "u.json")]) == 0
        assert dense == [] and rechecks == []  # S is checked only through U
        # the coin, then U certified from S as (perm, phase) and the coin stack
        assert stacks == [((1, 2, 2), "coin"), ((4, 2, 2), "evolution operator")]


I2, Z2, I3 = (matrix_obj(a) for a in (np.eye(2), np.zeros((2, 2)), np.eye(3)))
NON_SQUARE = matrix_obj(np.ones((2, 3)))


class TestBadInput:
    @pytest.mark.parametrize("argv, obj, code", [
        (["extract", "{file}", "--m", "0"], matrix_obj(SWAP), 2),
        (["extract", "{file}", "--m", "-1"], matrix_obj(SWAP), 2),
        (["verify", "{file}"], {"m": 2, "n": 2, "blocks": 5}, 1),
        (["verify", "{file}"], {"m": 2, "n": 2, "blocks": [5, 5]}, 1),
        (["decompose", "{file}"], {"rows": 2, "cols": 2, "entries": 5}, 1),
        (["classical", "{c4}", "{file}", "--steps", "1"], {"n": 4, "probs": "ab"}, 1),
        (["classical", "{c4}", "{file}", "--steps", "1"], {"n": 1, "probs": 5}, 1),
        (["coin", "{file}"], {"m": "x", "n": 4, "kind": "named", "name": "grover"}, 1),
        (["verify", "{file}"], {"m": 2, "n": 2, "blocks": [[I2, Z2], [Z2]]}, 2),
        (["verify", "{file}"], {"m": 3, "n": 2, "blocks": [[I2, Z2], [Z2, I2]]}, 2),
        (["verify", "{file}"], {"m": 2, "n": 3, "blocks": [[I2, Z2], [Z2, I2]]}, 2),
        (["verify", "{file}"], {"m": 2, "n": 2, "blocks": [[I2, Z2], [Z2, I3]]}, 2),
        (["verify", "{file}"], {"m": 0, "n": 2, "blocks": []}, 2),
        (["extract", "{file}", "--m", "1"],
         {"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]}, 1),
        (["walk", "{c4}", "{file}", "--steps", "1"],
         {"m": 1, "n": 4, "amplitudes": [[10 ** 400, 0]] + [[0, 0]] * 3}, 1),
        (["classical", "{c4}", "{file}", "--steps", "1"],
         {"n": 4, "probs": [[0.25]] * 4}, 1),
        (["classical", "{c4}", "{file}", "--steps", "1"],
         {"n": 4, "probs": ["0.25"] * 4}, 1),
        (["walk", "{file}", "{state}", "--steps", "1"], NON_SQUARE, 2),
        (["extract", "{file}", "--m", "1"], NON_SQUARE, 2),
        (["evolve-op", "{file}", "{coin}"], NON_SQUARE, 2),
        (["coin", "{file}"], {"m": 2, "n": True, "kind": "named", "name": "hadamard"}, 1),
        (["coin", "{file}"], {"m": -1, "n": 4, "kind": "per_vertex", "matrices": [I2]}, 2),
        (["coin", "{file}"],
         {"m": 10 ** 20, "n": 4, "kind": "per_vertex", "matrices": [I2]}, 1),
        (["coin", "{file}"], {"m": 3, "n": 3, "kind": "global", "matrices": [I3, I2]}, 1),
        (["coin", "{file}"], {"m": 2, "n": 3, "kind": "global", "matrices": [I3]}, 2),
        (["extract", "{file}", "--m", "1"], {"rows": True, "cols": 1, "entries": [[1, 0]]}, 1),
        (["walk", "{c4}", "{file}", "--steps", "1"],
         {"m": True, "n": 4, "amplitudes": [[1, 0]] + [[0, 0]] * 3}, 1),
        (["assemble", "{file}"], {"m": True, "n": 2, "blocks": [[I2]]}, 1),
        (["decompose", "{file}"], {"rows": 1, "cols": 1, "entries": [[1e20, 0]]}, 2),
        (["extract", "{file}", "--m", "1"],
         b'{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], "note": "\xff"}', 1),
        (["classical", "{c4}", "{file}", "--steps", "1"],
         b'{"n": 4, "probs": [0.25, 0.25, 0.25, 0.25], "note": "\xff"}', 1),
        (["extract", "{file}", "--m", "1"],
         b'{"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [1' + b"0" * 5000 + b', 0]]}', 1),
        (["classical", "{c4}", "{file}", "--steps", "1"],
         b'{"n": 4, "probs": [1' + b"0" * 5000 + b', 0, 0, 0]}', 1),
        (["extract", "{file}", "--m", "1"], b'{"rows": 1, "cols": 1, "entries": [[0.0, 0.0]], '
         b'"note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", 1),
        (["classical", "{c4}", "{file}", "--steps", "1"],
         b'{"n": 4, "probs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", 1),
        (["decompose", "{file}"], {"rows": 0, "cols": 0, "entries": []}, 1),
        (["extract", "{file}", "--m", "1"], {"rows": -1, "cols": 2, "entries": []}, 1),
    ], ids=["extract-m0", "extract-m-neg", "grid-blocks-int", "grid-rows-int",
            "matrix-entries-int", "probs-str", "probs-int", "coin-m-str",
            "grid-ragged-rows", "grid-wrong-m", "grid-wrong-n", "grid-mixed-sizes",
            "grid-m0", "matrix-int-overflow", "state-int-overflow", "probs-nested",
            "probs-numeric-strings", "walk-non-square", "extract-non-square",
            "evolve-op-non-square", "coin-n-bool", "coin-m-neg", "coin-m-huge",
            "coin-global-two-matrices", "coin-global-m-mismatch",
            "matrix-rows-bool", "state-m-bool", "grid-m-bool", "decompose-huge-entry",
            "matrix-not-utf8", "probs-not-utf8", "matrix-int-too-long", "probs-int-too-long",
            "matrix-nested-too-deep", "probs-nested-too-deep", "matrix-rows-0",
            "matrix-rows-neg"])
    def test_exit_code_without_traceback(self, tmp_path, capsys, argv, obj, code):
        path = tmp_path / "input.json"
        if isinstance(obj, bytes):  # a file that json.dumps cannot write
            path.write_bytes(obj)
        else:
            path.write_text(json.dumps(obj))
        c4 = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        state, coin = tmp_path / "state.json", tmp_path / "coin.json"
        fileio.save_state(basis_state(2, 4, 0, 0), state)
        coin.write_text('{"m": 2, "n": 4, "kind": "named", "name": "hadamard"}')
        argv = [a.format(file=path, c4=c4, state=state, coin=coin) for a in argv]
        if argv[0] != "verify":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_matrix_entry_exits_1(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
        assert main(["extract", str(path), "--m", "1",
                     "--out", str(tmp_path / "g.json")]) == 1
        err = capsys.readouterr().err
        assert "NaN or Inf" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["-0.001", "nan", "x"])
    def test_bad_tolerance_rejected_by_parser(self, tmp_path, capsys, tol):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        with pytest.raises(SystemExit) as exc:
            main(["compile", adj, "--tol", tol, "--out", str(tmp_path / "u.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tol: must be a nonnegative number: {tol!r}" in err
        assert "_tolerance" not in err and "Traceback" not in err

    def test_decompose_takes_no_tolerance(self, tmp_path, capsys):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        with pytest.raises(SystemExit) as exc:
            main(["decompose", adj, "--out", str(tmp_path / "g.json"), "--tol", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol 5" in err and "Traceback" not in err
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("steps", ["x", "-1", "1.5"])
    def test_bad_steps_rejected_by_parser(self, tmp_path, capsys, steps):
        adj = write_matrix(tmp_path, "c4.json", cycle_adjacency(4))
        p0 = tmp_path / "p0.json"
        p0.write_text('{"probs": [1, 0, 0, 0]}')
        with pytest.raises(SystemExit) as exc:
            main(["classical", adj, str(p0), "--steps", steps, "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --steps: must be a nonnegative integer: {steps!r}" in err
        assert "_steps" not in err and "Traceback" not in err

    def test_non_integer_grid_size_exits_1(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        fileio.save_grid(cycle_shift_grid(4), path)
        obj = json.loads(path.read_text())
        obj["m"] = "2"
        path.write_text(json.dumps(obj))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "integers" in err and "Traceback" not in err


def limit_address_space(mib: int) -> str:
    """Code that sets an address-space limit of ``mib`` MiB on itself only,
    so that an input that sizes more memory than exists fails at once
    instead of being allocated."""
    return f"""
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = {mib} * 2 ** 20 if hard == resource.RLIM_INFINITY else min(hard, {mib} * 2 ** 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
"""


LIMIT_ADDRESS_SPACE = limit_address_space(1536)
LIMITED_CHILD = LIMIT_ADDRESS_SPACE + """
from qwalk.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child on one BLAS thread, capped by the
    ``limit_address_space`` code it starts with, if any."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_process_pool():
    """Only ``extract --all-partitions`` pays for importing the pool."""
    proc = run_limited("import sys, qwalk.cli; "
                       "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command, obj", [
    ("decompose", {"rows": 1, "cols": 1, "entries": [[20000, 0]]}),
    ("coin", {"m": 1, "n": 2 ** 42, "kind": "per_vertex",
              "matrices": [matrix_obj(np.eye(1))]}),
    ("coin", {"m": 2 ** 42, "n": 1, "kind": "named", "name": "identity"}),
    ("coin", {"m": 2 ** 62, "n": 1, "kind": "named", "name": "hadamard"}),
    ("coin", {"m": 2, "n": 2 ** 42, "kind": "named", "name": "hadamard"}),
], ids=["decompose-d20000", "per-vertex-n-2**42", "identity-m-2**42", "hadamard-m-2**62",
        "global-n-2**42"])
def test_more_memory_than_exists_exits_2(tmp_path, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    proc = run_limited(LIMITED_CHILD, command, str(path), "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_decompose_verify_assemble_fit_in_1_5_gb_at_n_4000():
    # A dense S of this shift would be (3 * 4000)^2 complex entries, 2.3 GB.
    proc = run_limited(LIMIT_ADDRESS_SPACE + """
import numpy as np
from qwalk import assemble_shift, decompose_permutations, verify_kraus
n = 4000
rng = np.random.default_rng(n)
a = np.zeros((n, n), dtype=np.complex128)
for _ in range(3):
    a[np.arange(n), rng.permutation(n)] += 1
grid = decompose_permutations(a)
report = verify_kraus(a, grid)
shift = assemble_shift(grid)
print(grid.m, report.passed, report.sum_residual, shift.m * shift.n)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "True", "0.0", "12000"]


@pytest.mark.parametrize("d", [3, 4])  # odd degree takes matchings, even only splits
def test_graph_decompose_verify_assemble_fit_in_1_5_gb_at_n_100000(d):
    # A dense adjacency of this graph would be (10^5)^2 float64 entries, 80 GB;
    # the walk stage steps U of the grid from its factors, 10 times. The whole
    # child peaked at 218-229 MiB of address space at d = 3 and 271-295 MiB at
    # d = 4 (VmPeak, 1 BLAS thread), so it runs under 448 MiB, not 1.5 GB.
    proc = run_limited(limit_address_space(448) + f"""
import numpy as np
from qwalk import (CoinSpec, MultiGraph, WalkerState, assemble_shift, decompose_permutations,
                   evolution, evolve, named_coin, verify_kraus)
n, d = 10 ** 5, {d}
rng = np.random.default_rng(n)
head = np.concatenate([rng.permutation(n) for _ in range(d)])
g = MultiGraph.from_columns(n, np.tile(np.arange(n), d), head, np.ones(d * n), np.full(d * n, -1))
grid = decompose_permutations(g)
report = verify_kraus(g, grid)
shift = assemble_shift(grid)
print(grid.m, report.passed, report.sum_residual, shift.m * shift.n)
# dense U would be (d n)^2 complex128 entries, 1.44 TB at d = 3
u = evolution(shift, CoinSpec.global_coin(named_coin("grover", d), n))
x = rng.normal(size=d * n) + 1j * rng.normal(size=d * n)
x /= np.linalg.norm(x)
out = evolve(u, WalkerState(d, n, x), 10).amplitudes
perm, phase = grid.monomial()
c = 2 / d - np.eye(d)  # the Grover coin, numpy only
for _ in range(10):
    x = phase * (c @ x.reshape(d, n)).reshape(-1)[perm]
print(float(np.abs(out - x).max()) <= 1e-12)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(d), "True", "0.0", str(d * 10 ** 5), "True"]


def test_decompose_verify_roundtrip_always_passes(tmp_path, rng):
    from conftest import hypercube_adjacency
    for a in [np.ones((4, 4)), cycle_adjacency(6), hypercube_adjacency(3)]:
        adj = write_matrix(tmp_path, "a.json", a)
        grid = tmp_path / "grid.json"
        assert main(["decompose", adj, "--out", str(grid)]) == 0
        assert main(["verify", str(grid), "--adjacency", adj]) == 0


class TestTolerance:
    """--tol governs the coin's unitarity, the state's norm and the
    distribution's sum, as it does the operators'."""

    @pytest.fixture
    def files(self, tmp_path):
        h6 = np.round(named_coin("hadamard", 2), 6)  # residual 6.2e-7
        inputs = {
            "eye4": matrix_obj(np.eye(4)),
            "one": matrix_obj(np.ones((1, 1))),
            "j2": matrix_obj(np.ones((2, 2))),
            "coin": {"m": 2, "n": 2, "kind": "global",
                     "matrices": [matrix_obj(h6)]},
            "state": {"m": 1, "n": 4,
                      "amplitudes": [[np.sqrt((1 + 1e-7) / 4), 0]] * 4},
            "state_1e-9": {"m": 2, "n": 2, "amplitudes": [[np.sqrt(1 + 5e-10), 0]]
                           + [[0, 0]] * 3},
            "basis": {"m": 2, "n": 2, "amplitudes": [[1, 0]] + [[0, 0]] * 3},
            "probs": {"n": 1, "probs": [1.0000001]},
        }
        paths = {}
        for name, obj in inputs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            with open(paths[name], "w") as f:
                json.dump(obj, f)
        paths["out"] = str(tmp_path / "out")
        return paths

    @pytest.mark.parametrize("argv, tol, code", [
        (["coin", "{coin}"], "1e-5", 3),
        (["walk", "{eye4}", "{state}", "--steps", "3"], "1e-5", 2),
        (["classical", "{one}", "{probs}", "--steps", "3"], "1e-5", 2),
        (["walk", "{eye4}", "{state_1e-9}", "--steps", "3"], "1e-9", 2),
        (["evolve-op", "{eye4}", "{coin}"], "1e-5", 3),
        (["walk", "{eye4}", "{basis}", "--coin", "{coin}", "--steps", "3"], "1e-5", 3),
    ], ids=["coin", "state", "probs", "state-1e-9", "evolve-op-coin", "walk-coin"])
    def test_reaches_initial_inputs(self, files, capsys, argv, tol, code):
        argv = [a.format(**files) for a in argv] + ["--out", files["out"]]
        assert main(argv) == code
        assert main(argv + ["--tol", tol]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_compile_coin_file(self, files):
        argv = ["compile", files["j2"], "--coin-file", files["coin"], "--out", files["out"]]
        assert main(argv) == 3
        assert main(argv + ["--tol", "1e-5"]) == 0


H_OBJ = matrix_obj(named_coin("hadamard", 2))
FUZZ_INPUTS = {
    "c4": matrix_obj(cycle_adjacency(4)),
    "shift": matrix_obj(assemble_shift(cycle_shift_grid(4)).matrix),
    "grid": {"m": 2, "n": 2, "blocks": [[I2, Z2], [Z2, I2]]},
    "coin": {"m": 2, "n": 4, "kind": "named", "name": "hadamard"},
    "pv_coin": {"m": 2, "n": 4, "kind": "per_vertex", "matrices": [H_OBJ, H_OBJ]},
    "state": {"m": 2, "n": 4, "amplitudes": [[1, 0]] + [[0, 0]] * 7},
    "probs": {"n": 4, "probs": [0.25, 0.75, 0, 0]},
}


FUZZ_COMMANDS = [
    ["decompose", "{c4}"],
    ["verify", "{grid}", "--adjacency", "{c4}"],
    ["assemble", "{grid}"],
    ["coin", "{coin}"],
    ["coin", "{pv_coin}"],
    ["evolve-op", "{shift}", "{pv_coin}"],
    ["walk", "{shift}", "{state}", "--coin", "{coin}", "--steps", "2"],
    ["classical", "{c4}", "{probs}", "--steps", "2"],
    ["extract", "{shift}", "--m", "2"],
    ["compile", "{c4}", "--coin-file", "{pv_coin}"],
]

# Small integers, and integers that must be rejected before they size an
# array; never one that would make numpy allocate much.
FUZZ_VALUES = st.one_of(
    st.integers(-2, 8), st.sampled_from([10 ** 20, -10 ** 20, 2 ** 63]),
    st.booleans(), st.none(), st.sampled_from([0.5, -1.0, 1e-7, 2.0, 1.7e308, -1.7e308, 1e200]),
    st.text(max_size=3), st.lists(st.integers(-2, 8), max_size=3),
    st.just({}))


def _paths(obj, path=()):
    """Every path into a JSON value: keys and indices, outermost first."""
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(
        obj if isinstance(obj, list) else ())
    for key, value in children:
        yield from _paths(value, path + (key,))


DELETE = object()


def _mutate(obj, path, value):
    """A copy of ``obj`` whose value at ``path`` is ``value``, or deleted
    when ``value`` is DELETE."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_input_exits_0_to_4(tmp_path_factory, data):
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS))
    names = [a[1:-1] for a in argv if a.startswith("{")]
    target = data.draw(st.sampled_from(names))
    inputs = dict(FUZZ_INPUTS)
    path = data.draw(st.sampled_from(list(_paths(inputs[target]))))
    value = data.draw(FUZZ_VALUES | st.just(DELETE) if path else FUZZ_VALUES)
    inputs[target] = _mutate(inputs[target], path, value)
    indent = data.draw(st.sampled_from([None, 1]))  # both layouts of a zero pair
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name in names:
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(inputs[name], indent=indent))
    argv = [a.format(**files) for a in argv]
    if argv[0] != "verify":
        argv += ["--out", str(tmp / "out.json")]
    assert main(argv) in range(5)
