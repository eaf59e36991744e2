"""JSON and CSV serialization for every on-disk format.

Complex scalars are stored as [re, im] pairs. Floats in CSV output use
17-significant-digit formatting so identical inputs produce byte-identical
files on every platform.
"""

import csv
import json

import numpy as np

from .coins import CoinSpec, named_coin
from .errors import FileFormatError
from .graphs import Arc, Edge, MultiGraph
from .linalg import ComplexMatrix, as_matrix
from .shift import KrausGrid
from .walk import ProbabilityVector, WalkerState

__all__ = [
    "fmt_float",
    "load_matrix", "save_matrix", "matrix_to_obj", "matrix_from_obj",
    "load_graph", "save_graph",
    "load_grid", "save_grid",
    "load_coin_spec", "save_coin_spec",
    "load_state", "save_state",
    "load_probability_vector", "save_probability_vector",
    "write_distribution_csv",
]

CSV_HEADER = ("step", "vertex", "probability")


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _save_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def _pair_to_complex(pair) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) for x in pair)):
        raise FileFormatError(f"expected a [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_from_obj(obj) -> ComplexMatrix:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"matrix object missing field: {exc}") from exc
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
        raise FileFormatError("matrix rows/cols must be positive integers")
    if len(entries) != rows * cols:
        raise FileFormatError(
            f"matrix has {len(entries)} entries, expected {rows * cols}")
    flat = [_pair_to_complex(e) for e in entries]
    try:
        return as_matrix(np.array(flat, dtype=np.complex128).reshape(rows, cols))
    except ValueError as exc:  # NaN or Inf entries
        raise FileFormatError(str(exc)) from exc


def matrix_to_obj(a: ComplexMatrix) -> dict:
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [_complex_to_pair(z) for z in a.reshape(-1)],
    }


def load_matrix(path) -> ComplexMatrix:
    return matrix_from_obj(_load_json(path))


def save_matrix(a: ComplexMatrix, path) -> None:
    _save_json(matrix_to_obj(a), path)


def load_graph(path) -> MultiGraph:
    obj = _load_json(path)
    try:
        arcs = tuple(
            Arc(item["tail"], item["head"], _pair_to_complex(item["w"]),
                item.get("coin"))
            for item in obj.get("arcs", []))
        undirected = tuple(
            Edge(item["u"], item["v"], _pair_to_complex(item["w"]))
            for item in obj.get("undirected", []))
        names = obj.get("names")
        return MultiGraph(obj["n"], arcs, undirected,
                          tuple(names) if names is not None else None)
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed graph file: {exc}") from exc


def save_graph(g: MultiGraph, path) -> None:
    obj = {
        "n": g.n,
        "arcs": [{"tail": a.tail, "head": a.head,
                  "w": _complex_to_pair(a.weight), "coin": a.coin_tag}
                 for a in g.arcs],
        "undirected": [{"u": e.u, "v": e.v, "w": _complex_to_pair(e.weight)}
                       for e in g.undirected],
        "names": list(g.names) if g.names is not None else None,
    }
    _save_json(obj, path)


def load_grid(path) -> KrausGrid:
    obj = _load_json(path)
    try:
        m, n, rows = obj["m"], obj["n"], obj["blocks"]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed grid file: {exc}") from exc
    if not (isinstance(m, int) and isinstance(n, int)):
        raise FileFormatError("grid m/n must be integers")
    blocks = tuple(tuple(matrix_from_obj(b) for b in row) for row in rows)
    return KrausGrid(m, n, blocks)


def save_grid(grid: KrausGrid, path) -> None:
    obj = {
        "m": grid.m,
        "n": grid.n,
        "blocks": [[matrix_to_obj(b) for b in row] for row in grid.blocks],
    }
    _save_json(obj, path)


def load_coin_spec(path) -> CoinSpec:
    obj = _load_json(path)
    try:
        m, n, kind = obj["m"], obj["n"], obj["kind"]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed coin file: {exc}") from exc
    if kind == "named":
        name = obj.get("name")
        if not isinstance(name, str):
            raise FileFormatError("named coin requires a 'name' string")
        return CoinSpec.global_coin(named_coin(name, m), n)
    matrices = obj.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        raise FileFormatError(f"coin kind {kind!r} requires a 'matrices' list")
    mats = [matrix_from_obj(c) for c in matrices]
    if kind == "global":
        if len(mats) != 1:
            raise FileFormatError("global coin takes exactly one matrix")
        return CoinSpec.global_coin(mats[0], n)
    if kind == "per_vertex":
        return CoinSpec.per_vertex_coins(mats, m, n)
    raise FileFormatError(f"unknown coin kind {kind!r}")


def save_coin_spec(spec: CoinSpec, path) -> None:
    obj = {
        "m": spec.m,
        "n": spec.n,
        "kind": "per_vertex" if spec.per_vertex else "global",
        "name": None,
        "matrices": [matrix_to_obj(c) for c in spec.matrices],
    }
    _save_json(obj, path)


def load_state(path) -> WalkerState:
    obj = _load_json(path)
    try:
        amps = [_pair_to_complex(p) for p in obj["amplitudes"]]
        return WalkerState(obj["m"], obj["n"],
                           np.array(amps, dtype=np.complex128))
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed state file: {exc}") from exc


def save_state(s: WalkerState, path) -> None:
    obj = {
        "m": s.m,
        "n": s.n,
        "amplitudes": [_complex_to_pair(z) for z in s.amplitudes],
    }
    _save_json(obj, path)


def load_probability_vector(path) -> ProbabilityVector:
    obj = _load_json(path)
    try:
        probs = np.array(obj["probs"], dtype=np.float64)
        if obj.get("n") is not None and obj["n"] != probs.shape[0]:
            raise FileFormatError("probability vector length disagrees with n")
        return ProbabilityVector(probs)
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed probability file: {exc}") from exc


def save_probability_vector(p: ProbabilityVector, path) -> None:
    _save_json({"n": p.n, "probs": [float(x) for x in p.probs]}, path)


def write_distribution_csv(rows, path) -> None:
    """Write (step, vertex, probability) rows with fixed float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for step_idx, vertex, prob in rows:
            writer.writerow([step_idx, vertex, fmt_float(prob)])
