"""The README's library examples and CLI block run as written, so the
documentation cannot drift from the library or the command."""

import re
import shlex
from pathlib import Path

import numpy as np

from conftest import cycle_adjacency
from qwalk import ProbabilityVector, basis_state, fileio
from qwalk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    probs = namespace["measure_position"](namespace["state"]).probs
    assert abs(probs.sum() - 1) <= 1e-12
    assert np.array2string(probs) in capsys.readouterr().out
    assert namespace["grid"].m == 4 and namespace["grid"].n == 10 ** 5
    assert abs(namespace["p"].probs.sum() - 1) <= 1e-12


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every line of the CLI block exits 0 in order, on a C_8 adjacency, a
    named Hadamard coin file, a basis state and a uniform p0."""
    text = README.read_text(encoding="utf-8")
    lines = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1).splitlines()
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    fileio.save_matrix(cycle_adjacency(8), "adjacency.json")
    Path("coin.json").write_text('{"m": 2, "n": 8, "kind": "named", "name": "hadamard"}')
    fileio.save_state(basis_state(2, 8, 0, 0), "state.json")
    fileio.save_probability_vector(ProbabilityVector(np.full(8, 1 / 8)), "p0.json")
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qwalk"
        assert main(argv[1:]) == 0, line
    assert "Traceback" not in capsys.readouterr().err
