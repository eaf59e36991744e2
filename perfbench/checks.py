"""Output checks against references computed with numpy and stdlib json
only; nothing here imports qwalk.

Each check returns {operation: [problem, ...]}; an operation whose list is
non-empty counts as failed.
"""

import csv
import json
from pathlib import Path

import numpy as np

TOL = 1e-10       # structure and library results
CSV_TOL = 1e-12   # trajectory CSVs
CSV_HEADER = ["step", "vertex", "probability"]


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_matrix(path) -> np.ndarray:
    obj = load_json(path)
    e = np.array(obj["entries"], dtype=np.float64).reshape(-1, 2)
    return (e[:, 0] + 1j * e[:, 1]).reshape(obj["rows"], obj["cols"])


def grover(m: int) -> np.ndarray:
    return (2.0 / m) * np.ones((m, m)) - np.eye(m)


def hadamard() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def quantum_reference(u, psi0, m: int, n: int, steps: int) -> np.ndarray:
    """Position distributions at t = 0..steps of psi <- U psi."""
    out = np.empty((steps + 1, n))
    psi = psi0
    for t in range(steps + 1):
        if t:
            psi = u @ psi
        out[t] = (np.abs(psi.reshape(m, n)) ** 2).sum(axis=0)
    return out


def classical_reference(a, p0, steps: int) -> np.ndarray:
    """Distributions at t = 0..steps of p <- M^T p with M = D^-1 A."""
    mt = (a / a.sum(axis=1, keepdims=True)).T
    out = np.empty((steps + 1, a.shape[0]))
    p = p0
    for t in range(steps + 1):
        if t:
            p = mt @ p
        out[t] = p
    return out


def _worst(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def check_unitary(u, problems: list) -> None:
    r = _worst(u.conj().T @ u - np.eye(u.shape[0]))
    if r > TOL:
        problems.append(f"U is not unitary (residual {r:.3e})")


def check_shift(u, coin, a, problems: list) -> None:
    """S = U (C (x) I)^dag must be a 0/1 matrix made of permutation or zero
    blocks, and the sum of its blocks must equal A^T."""
    dim, m = u.shape[0], coin.shape[0]
    n = dim // m
    s = np.einsum("ril,ji->rjl", u.reshape(dim, m, n), coin.conj()).reshape(dim, dim)
    bits = np.round(s.real)
    if _worst(s - bits) > TOL or not np.isin(bits, (0.0, 1.0)).all():
        problems.append("S = U (C (x) I)^dag is not a 0/1 matrix")
        return
    b = bits.reshape(m, n, m, n)
    row_sums = b.sum(axis=3).transpose(0, 2, 1)   # [i, j, r] of block (i, j)
    col_sums = b.sum(axis=1)                      # [i, j, c] of block (i, j)
    perm = (row_sums == 1).all(axis=2) & (col_sums == 1).all(axis=2)
    zero = (row_sums == 0).all(axis=2) & (col_sums == 0).all(axis=2)
    if (not (perm | zero).all() or not (bits.sum(axis=0) == 1).all()
            or not (bits.sum(axis=1) == 1).all()):
        problems.append("S is not a permutation-block matrix")
    r = _worst(b.sum(axis=(0, 2)) - a.T)
    if r > TOL:
        problems.append(f"block sum of S differs from A^T by {r:.3e}")


def read_trajectory_csv(path, steps: int, n: int) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{Path(path).name}: bad header")
    body = rows[1:]
    if len(body) != (steps + 1) * n:
        raise ValueError(f"{Path(path).name}: {len(body)} rows, expected {(steps + 1) * n}")
    idx = np.array([(int(r[0]), int(r[1])) for r in body])
    want = np.stack([np.repeat(np.arange(steps + 1), n), np.tile(np.arange(n), steps + 1)], 1)
    if not np.array_equal(idx, want):
        raise ValueError(f"{Path(path).name}: (step, vertex) columns out of order")
    return np.array([float(r[2]) for r in body]).reshape(steps + 1, n)


def check_csv(path, reference, problems: list) -> None:
    steps, n = reference.shape[0] - 1, reference.shape[1]
    try:
        got = read_trajectory_csv(path, steps, n)
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
        return
    r = _worst(got - reference)
    if r > CSV_TOL:
        problems.append(f"{Path(path).name} differs from the numpy reference by {r:.3e}")


def check_extracted(u, m: int, graph_path, adjacency_path, problems: list) -> None:
    """The adjacency file must equal the sum of U's m x m blocks, transposed;
    the graph must hold one arc per entry of magnitude >= TOL of each
    per-coin block-column sum (transposed), tagged with its coin."""
    n = u.shape[0] // m
    blocks = u.reshape(m, n, m, n)
    try:
        adjacency = load_matrix(adjacency_path)
        graph = load_json(graph_path)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"m={m}: unreadable output: {exc}")
        return
    r = _worst(adjacency - blocks.sum(axis=(0, 2)).T)
    if r > TOL:
        problems.append(f"m={m}: adjacency differs from the block sum by {r:.3e}")
    per_coin = blocks.sum(axis=0).transpose(1, 2, 0)   # [j, tail, head]
    present = np.abs(per_coin) >= TOL
    arcs = graph["arcs"]
    if len(arcs) != int(present.sum()):
        problems.append(f"m={m}: {len(arcs)} arcs, expected {int(present.sum())}")
        return
    got = np.zeros_like(per_coin)
    if arcs:
        coin = np.array([a["coin"] for a in arcs])
        tail = np.array([a["tail"] for a in arcs])
        head = np.array([a["head"] for a in arcs])
        w = np.array([a["w"] for a in arcs], dtype=np.float64)
        np.add.at(got, (coin, tail, head), w[:, 0] + 1j * w[:, 1])
    r = _worst(got - np.where(present, per_coin, 0))
    if graph["n"] != n or r > TOL:
        problems.append(f"m={m}: arcs differ from the per-coin block sums by {r:.3e}")


def check_lib(inputs: Path, dumps: Path, steps: int) -> dict:
    problems: list[str] = []
    a = np.load(inputs / "adjacency.npy")
    psi0 = np.load(inputs / "psi0.npy")
    p0 = np.load(inputs / "p0.npy")
    u = np.load(dumps / "u.npy")
    n = a.shape[0]
    m = psi0.shape[0] // n
    check_unitary(u, problems)
    check_shift(u, grover(m), a, problems)
    r = _worst(np.load(dumps / "dists.npy") - quantum_reference(u, psi0, m, n, steps)[1:])
    if r > TOL:
        problems.append(f"walk distributions differ from the numpy reference by {r:.3e}")
    r = _worst(np.load(dumps / "classical.npy") - classical_reference(a, p0, steps)[-1])
    if r > TOL:
        problems.append(f"classical result differs from the numpy reference by {r:.3e}")
    return {"pipeline": problems}


def check_cycle(inputs: Path, out: Path, steps: int) -> dict:
    a = load_matrix(inputs / "adjacency.json").real
    state = load_json(inputs / "state.json")
    psi0 = np.array(state["amplitudes"], dtype=np.float64) @ np.array([1.0, 1j])
    p0 = np.array(load_json(inputs / "p0.json")["probs"])
    result = {"compile": [], "walk": [], "classical": [], "extract": []}
    try:
        u = load_matrix(out / "u.json")
    except (OSError, ValueError, KeyError) as exc:
        result["compile"].append(f"u.json unreadable: {exc}")
        return result
    check_unitary(u, result["compile"])
    check_shift(u, hadamard(), a, result["compile"])
    m, n = state["m"], state["n"]
    check_csv(out / "walk.csv", quantum_reference(u, psi0, m, n, steps), result["walk"])
    check_csv(out / "classical.csv", classical_reference(a, p0, steps), result["classical"])
    check_extracted(u, 2, out / "graph.json", out / "graph.adjacency.json", result["extract"])
    return result


def check_haar(inputs: Path, out: Path) -> dict:
    u = load_matrix(inputs / "u.json")
    problems: list[str] = []
    dim = u.shape[0]
    for m in range(1, dim + 1):
        if dim % m == 0:
            check_extracted(u, m, out / f"family.m{m}.json",
                            out / f"family.m{m}.adjacency.json", problems)
    return {"extract": problems}
