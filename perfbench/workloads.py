"""Seeded inputs and the operations of one pass, per workload.

Inputs are written with numpy and stdlib ``json`` in the README formats,
never with ``qwalk.fileio``, so a defect in the program's writers cannot
hide one in its readers.
"""

import json
from pathlib import Path

import numpy as np

# lib-regular3: random 3-regular multigraph, Grover coin, dim 1536.
LIB_N, LIB_D, LIB_STEPS = 512, 3, 500
# cli-cycle: Hadamard walk on the cycle C_256, dim 512.
CYCLE_N, CYCLE_STEPS = 256, 200
# haar-extract: one Haar unitary; 240 has 20 divisors.
HAAR_DIM = 240

WORKLOADS = ("lib-regular3", "cli-cycle", "haar-extract")


def _matrix_obj(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "entries": [[z.real, z.imag] for z in a.reshape(-1).tolist()]}


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def random_state(rng, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_distribution(rng, n: int) -> np.ndarray:
    p = rng.random(n)
    return p / p.sum()


def cycle_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    v = np.arange(n)
    a[v, (v + 1) % n] = 1
    a[v, (v - 1) % n] = 1
    return a


def haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def generate(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng(seed)
    if workload == "lib-regular3":
        a = np.zeros((LIB_N, LIB_N))
        for _ in range(LIB_D):
            a[np.arange(LIB_N), rng.permutation(LIB_N)] += 1
        np.save(out / "adjacency.npy", a)
        np.save(out / "psi0.npy", random_state(rng, LIB_D * LIB_N))
        np.save(out / "p0.npy", random_distribution(rng, LIB_N))
    elif workload == "cli-cycle":
        _write_json(_matrix_obj(cycle_adjacency(CYCLE_N)), out / "adjacency.json")
        psi = random_state(rng, 2 * CYCLE_N)
        _write_json({"m": 2, "n": CYCLE_N,
                     "amplitudes": [[z.real, z.imag] for z in psi.tolist()]},
                    out / "state.json")
        _write_json({"n": CYCLE_N, "probs": random_distribution(rng, CYCLE_N).tolist()},
                    out / "p0.json")
    elif workload == "haar-extract":
        _write_json(_matrix_obj(haar_unitary(rng, HAAR_DIM)), out / "u.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def cli_operations(workload: str, inputs: Path, out: Path) -> list[tuple[str, str, list[str]]]:
    """(operation, stage, qwalk argv) of one pass of a CLI workload, in order.
    The stage names the end-to-end timing the operation counts towards."""
    if workload == "cli-cycle":
        u = str(out / "u.json")
        steps = str(CYCLE_STEPS)
        return [
            ("compile", "compile_s", ["compile", str(inputs / "adjacency.json"),
                                      "--coin-name", "hadamard", "--out", u]),
            ("walk", "walk_s", ["walk", u, str(inputs / "state.json"), "--steps", steps,
                                "--trajectory", "--out", str(out / "walk.csv")]),
            ("classical", "walk_s", ["classical", str(inputs / "adjacency.json"),
                                     str(inputs / "p0.json"), "--steps", steps,
                                     "--trajectory", "--out", str(out / "classical.csv")]),
            ("extract", "extract_s", ["extract", u, "--m", "2",
                                      "--out", str(out / "graph.json")]),
        ]
    if workload == "haar-extract":
        return [("extract", "extract_s", ["extract", str(inputs / "u.json"),
                                          "--all-partitions",
                                          "--out", str(out / "family.json")])]
    raise ValueError(f"{workload!r} is not a CLI workload")
