"""The README's library examples run as written, in order, in one
namespace, so the documentation cannot drift from the library."""

import re
from pathlib import Path

import numpy as np

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
