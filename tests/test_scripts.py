"""Smoke tests: each script in scripts/ runs at a small size and writes
the files it announces."""

import csv
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def step_sums(path: Path) -> dict[int, float]:
    sums: dict[int, float] = defaultdict(float)
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            sums[int(row["step"])] += float(row["probability"])
    return sums


def test_hadamard_cycle_walk(tmp_path):
    run_script("hadamard_cycle_walk.py", "--n", "8", "--steps", "5",
               "--out-dir", str(tmp_path))
    for name in ("quantum_c8.csv", "classical_c8.csv"):
        sums = step_sums(tmp_path / name)
        assert sorted(sums) == list(range(6))
        assert all(abs(s - 1) <= 1e-12 for s in sums.values()), (name, sums)


def test_unitary_partition_family(tmp_path):
    run_script("unitary_partition_family.py", "--dim", "8", "--seed", "3",
               "--out-dir", str(tmp_path))
    expected = {"unitary.json"} | {f"graph_m{m}.json" for m in (1, 2, 4, 8)}
    assert {p.name for p in tmp_path.iterdir()} == expected
