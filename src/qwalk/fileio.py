"""JSON and CSV serialization for every on-disk format.

Complex scalars are stored as [re, im] pairs. JSON files have the layout
of ``json.dump(obj, f, indent=1)``, and floats in them are written as
json writes them (the shortest repr); floats in CSV output use
17-significant-digit formatting. Identical inputs produce byte-identical
files on every platform.

Matrix files are read and written at about the cost of their nonzero
entries. On reading, exact zero pairs laid out as qwalk writes them, or
as json.dumps' default layout does, are collapsed before json parses
the text; on writing, every +0.0 is the literal "0.0" and only the other
numbers go through json. The distribution CSV formats each step's
column in one call.
"""

import json
from itertools import compress, repeat
from operator import is_not

import numpy as np

from .coins import CoinSpec, named_coin
from .errors import FileFormatError, PreconditionError
from .graphs import Edge, MultiGraph
from .linalg import ComplexMatrix, DEFAULT_TOL, Tolerance, as_matrix
from .shift import KrausGrid
from .walk import ProbabilityVector, WalkerState

__all__ = [
    "fmt_float",
    "load_matrix", "save_matrix", "matrix_from_obj",
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


def _load_json(path, parse=json.loads):
    """``parse`` of the text of the UTF-8 file at ``path``. Bad input raises
    json.JSONDecodeError, or FileFormatError for the rest of what reading
    and json refuse: invalid UTF-8, an integer of over 4300 digits,
    nesting deeper than the stack."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"unreadable JSON: {exc}") from exc


# The JSON writers write exactly the text of json.dump(obj, f, indent=1)
# plus a newline. ``obj`` is a skeleton of dicts, lists and scalars,
# rendered piece by piece; its bulk values (complex arrays, probabilities,
# arcs) are ``_records`` callables of the nesting level, which render
# CHUNK records per piece from one json.dumps per column of numbers
# (_column_texts), so no Python call is made per number and the whole
# text is never held.

CHUNK = 4096


def _save_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_chunks(obj, 0))
        f.write("\n")


def _chunks(obj, level: int):
    """The json indent-1 text of ``obj`` nested ``level`` deep, in pieces."""
    if callable(obj):
        yield from obj(level)
    elif isinstance(obj, dict) and obj:
        pad = "\n" + " " * (level + 1)
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{',' if i else ''}{pad}{json.dumps(key)}: "
            yield from _chunks(value, level + 1)
        yield "\n" + " " * level + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        pad = "\n" + " " * (level + 1)
        yield "["
        for i, value in enumerate(obj):
            yield f"{',' if i else ''}{pad}"
            yield from _chunks(value, level + 1)
        yield "\n" + " " * level + "]"
    else:
        yield json.dumps(obj)


def _scalar_texts(values: list) -> list[str]:
    """json's text of each of a list of numbers, booleans and nulls, from
    one C-encoded dumps (no such text contains ", ")."""
    return json.dumps(values)[1:-1].split(", ")


def _column_texts(column: np.ndarray) -> list[str]:
    """json's text of each value of a 1-D array (ints, floats, or objects
    that are ints or None). A float64 +0.0, the one float whose bits are
    all zero, is "0.0" without json, so a mostly-zero column costs about
    as much as its other values; those, -0.0 among them, go through
    _scalar_texts."""
    if column.dtype == np.float64:
        kept = np.flatnonzero(column.view(np.uint64))
        if kept.size < column.size:
            texts = ["0.0"] * column.size
            for k, text in zip(kept.tolist(), _scalar_texts(column[kept].tolist())):
                texts[k] = text
            return texts
    return _scalar_texts(column.tolist())


_FIELD = "\0"  # marks a template field; json writes it as "\u0000"


def _template(skeleton, level: int) -> list[str]:
    """The json text of ``skeleton`` nested ``level`` deep, split at its
    _FIELD leaves: one more literal piece than there are fields."""
    return "".join(_chunks(skeleton, level)).split(json.dumps(_FIELD))


def _records(skeleton, count: int, columns):
    """Bulk value: a list of ``count`` records laid out as ``skeleton``,
    whose _FIELD leaves take, in order, the values of the 1-D arrays that
    ``columns(i, j)`` returns for records i..j-1."""
    def render(level):
        if not count:
            yield "[]"
            return
        pieces = _template(skeleton, level + 1)
        fields = len(pieces) - 1
        sep = ",\n" + " " * (level + 1)
        # A chunk alternates pieces and field texts, record after record; the
        # piece before a record's first field also closes the record before.
        pattern = [None] * (2 * fields)
        pattern[::2] = [pieces[-1] + sep + pieces[0], *pieces[1:-1]]
        pattern *= CHUNK
        yield "["
        for i in range(0, count, CHUNK):
            texts = list(map(_column_texts, columns(i, i + CHUNK)))
            out = pattern[:2 * fields * len(texts[0])]
            out[0] = (sep if i else sep[1:]) + pieces[0]
            for f, column in enumerate(texts):
                out[2 * f + 1::2 * fields] = column
            yield "".join(out) + pieces[-1]
        yield "\n" + " " * level + "]"
    return render


def _pairs(z):
    """Bulk value: a complex array as a list of [re, im] pairs."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    return _records([_FIELD, _FIELD], z.size,
                    lambda i, j: (z.real[i:j], z.imag[i:j]))


_ARC = {"tail": _FIELD, "head": _FIELD, "w": [_FIELD, _FIELD], "coin": _FIELD}


def _number_array(items, width: int | None, error: str) -> np.ndarray:
    """A JSON list of numbers (``width`` None) or of ``width``-number
    lists as a float array; booleans count as numbers, as in json."""
    if not isinstance(items, list):
        raise FileFormatError(error)
    shape = (len(items),) if width is None else (len(items), width)
    if not items:
        return np.zeros(shape)
    try:
        a = np.array(items)  # no dtype: numpy would parse strings as numbers
    except ValueError as exc:  # ragged nesting
        raise FileFormatError(error) from exc
    if a.dtype.kind not in "biuf" or a.shape != shape:  # strings, nulls, big ints
        raise FileFormatError(error)
    return a.astype(np.float64)


def _ints(what: str, *values) -> np.ndarray:
    """The values as an int64 array, refusing any that is not a JSON
    integer (booleans are not) or does not fit in 64 bits, before any of
    them sizes an array."""
    if not (set(map(type, values)) <= {int}
            and -2 ** 63 <= min(values, default=0) <= max(values, default=0) < 2 ** 63):
        raise FileFormatError(f"{what} must be 64-bit integers")
    return np.array(values, dtype=np.int64)


def _fields(obj, error: str, *keys) -> list:
    """obj[key] for each of ``keys``, refusing a missing one, or an ``obj``
    that is not an object, as FileFormatError(f"{error}: ...")."""
    try:
        return [obj[key] for key in keys]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{error}: {exc}") from exc


def _complex_vector(items, what: str) -> np.ndarray:
    pairs = _number_array(items, 2, f"{what} must be a list of [re, im] number pairs")
    return np.ascontiguousarray(pairs).view(np.complex128).reshape(-1)


def matrix_from_obj(obj) -> ComplexMatrix:
    return _matrix(obj, _complex_vector)


def _matrix(obj, vector) -> ComplexMatrix:
    """The matrix of a parsed matrix object whose entries list ``vector``
    reads, with matrix_from_obj's checks in its order."""
    rows, cols, entries = _fields(obj, "matrix object missing field", "rows", "cols", "entries")
    _ints("matrix rows/cols", rows, cols)
    if rows < 1 or cols < 1:
        raise FileFormatError("matrix rows/cols must be positive integers")
    flat = vector(entries, "matrix entries")
    if flat.size != rows * cols:
        raise FileFormatError(
            f"matrix has {flat.size} entries, expected {rows * cols}")
    try:
        return as_matrix(flat.reshape(rows, cols))
    except ValueError as exc:  # NaN or Inf entries
        raise FileFormatError(str(exc)) from exc


def _matrix_skeleton(a: ComplexMatrix) -> dict:
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": _pairs(a)}


# An exact zero pair as the matrix writer lays it out, and as json.dumps'
# default layout does.
_ZERO_PAIRS = ("[\n   0.0,\n   0.0\n  ]", "[0.0, 0.0]")


def _parse_matrix(text: str) -> ComplexMatrix:
    """matrix_from_obj(json.loads(text)), with each of _ZERO_PAIRS in the
    text collapsed to one null before json parses it.

    Each None in the parsed entries then stands for a zero pair. The text
    is parsed as it is where it holds a null (it would pass for a pair) or
    a backslash (an escape such as "\\[" could turn a pair inside a string
    into valid text), or where the parsed entries do not hold one None per
    collapsed pair (a pair inside a string, or outside the entries). So the
    collapse never changes what is read or refused."""
    collapsed, zeros = text, 0
    if "\\" not in text:
        for pair in _ZERO_PAIRS:
            shorter = collapsed.replace(pair, "null")
            zeros += (len(collapsed) - len(shorter)) // (len(pair) - len("null"))
            collapsed = shorter
    if zeros and "null" not in text:
        try:
            obj = json.loads(collapsed)
        except (ValueError, RecursionError):  # json's own error comes below
            obj = None
        entries = obj.get("entries") if isinstance(obj, dict) else None
        if isinstance(entries, list) and entries.count(None) == zeros:
            return _matrix(obj, _scattered)
    return matrix_from_obj(json.loads(text))


def _scattered(entries: list, what: str) -> np.ndarray:
    """_complex_vector of ``entries`` whose None items are zero pairs."""
    nonzero = np.fromiter(map(is_not, entries, repeat(None)), bool, len(entries))
    flat = np.zeros(len(entries), dtype=np.complex128)
    flat[nonzero] = _complex_vector(list(compress(entries, nonzero)), what)
    return flat


def load_matrix(path) -> ComplexMatrix:
    return _load_json(path, _parse_matrix)


def save_matrix(a: ComplexMatrix, path) -> None:
    _save_json(_matrix_skeleton(a), path)


def load_graph(path) -> MultiGraph:
    obj = _load_json(path)
    try:
        arcs, edges = obj.get("arcs", []), obj.get("undirected", [])
        tail, head = [a["tail"] for a in arcs], [a["head"] for a in arcs]
        w, coins = [a["w"] for a in arcs], [a.get("coin") for a in arcs]
        u, v, edge_w = ([e[key] for e in edges] for key in ("u", "v", "w"))
        n, names = obj["n"], obj.get("names")
    except (AttributeError, TypeError, KeyError) as exc:
        raise FileFormatError(f"malformed graph file: {exc}") from exc
    u, v = _ints("edge u/v", *u), _ints("edge u/v", *v)
    weights = _complex_vector(w + edge_w, "arc and edge weights")
    if not np.isfinite(weights).all():
        raise FileFormatError("arc and edge weights must be finite")
    weight, edge_w = np.split(weights, [len(w)])
    undirected = tuple(map(Edge, u.tolist(), v.tolist(), edge_w.tolist()))
    tail, head = _ints("arc tail/head", *tail), _ints("arc tail/head", *head)
    coin = _ints("arc coin", *(-1 if c is None else c for c in coins))  # -1: untagged
    if np.count_nonzero(coin < 0) != coins.count(None):
        raise PreconditionError("coin_tag must be nonnegative")
    _ints("graph n", n)
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise FileFormatError("graph names must be a list of strings or null")
    return MultiGraph.from_columns(n, tail, head, weight, coin, undirected,
                                   tuple(names) if names is not None else None)


def save_graph(g: MultiGraph, path) -> None:
    coin = g.coin.astype(object)  # Python ints, and None for an untagged arc
    coin[g.coin < 0] = None
    obj = {
        "n": g.n,
        "arcs": _records(_ARC, g.tail.size, lambda i, j: (
            g.tail[i:j], g.head[i:j], g.weight.real[i:j], g.weight.imag[i:j], coin[i:j])),
        "undirected": [{"u": e.u, "v": e.v, "w": [float(e.weight.real), float(e.weight.imag)]}
                       for e in g.undirected],
        "names": list(g.names) if g.names is not None else None,
    }
    _save_json(obj, path)


def load_grid(path) -> KrausGrid:
    obj = _load_json(path)
    m, n, rows = _fields(obj, "malformed grid file", "m", "n", "blocks")
    _ints("grid m/n", m, n)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise FileFormatError("grid blocks must be a list of rows of matrices")
    return KrausGrid(m, n, [[matrix_from_obj(b) for b in row] for row in rows])


def save_grid(grid: KrausGrid, path) -> None:
    obj = {
        "m": grid.m,
        "n": grid.n,
        "blocks": [[_matrix_skeleton(b) for b in row] for row in grid.blocks],
    }
    _save_json(obj, path)


def load_coin_spec(path, tol: Tolerance = DEFAULT_TOL) -> CoinSpec:
    obj = _load_json(path)
    m, n, kind = _fields(obj, "malformed coin file", "m", "n", "kind")
    _ints("coin m/n", m, n)
    if kind == "named":
        name = obj.get("name")
        if not isinstance(name, str):
            raise FileFormatError("named coin requires a 'name' string")
        return CoinSpec.global_coin(named_coin(name, m), n, tol)
    matrices = obj.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        raise FileFormatError(f"coin kind {kind!r} requires a 'matrices' list")
    mats = [matrix_from_obj(c) for c in matrices]
    if kind == "global":
        if len(mats) != 1:
            raise FileFormatError("global coin takes exactly one matrix")
        return CoinSpec(m, n, mats, tol)
    if kind == "per_vertex":
        return CoinSpec.per_vertex_coins(mats, m, n, tol)
    raise FileFormatError(f"unknown coin kind {kind!r}")


def save_coin_spec(spec: CoinSpec, path) -> None:
    obj = {
        "m": spec.m,
        "n": spec.n,
        "kind": "per_vertex" if spec.per_vertex else "global",
        "name": None,
        "matrices": [_matrix_skeleton(c) for c in spec.matrices],
    }
    _save_json(obj, path)


def load_state(path, tol: Tolerance = DEFAULT_TOL) -> WalkerState:
    obj = _load_json(path)
    m, n, amps = _fields(obj, "malformed state file", "m", "n", "amplitudes")
    amps = _complex_vector(amps, "state amplitudes")
    _ints("state m/n", m, n)
    return WalkerState(m, n, amps, tol)


def save_state(s: WalkerState, path) -> None:
    _save_json({"m": s.m, "n": s.n, "amplitudes": _pairs(s.amplitudes)}, path)


def load_probability_vector(path, tol: Tolerance = DEFAULT_TOL) -> ProbabilityVector:
    obj = _load_json(path)
    [probs] = _fields(obj, "malformed probability file", "probs")
    probs = _number_array(probs, None, "probs must be a flat list of numbers")
    n = obj.get("n")
    if n is not None:
        _ints("probability n", n)
        if n != probs.size:
            raise FileFormatError("probability vector length disagrees with n")
    return ProbabilityVector(probs, tol)


def save_probability_vector(p: ProbabilityVector, path) -> None:
    probs = _records(_FIELD, p.n, lambda i, j: (p.probs[i:j],))
    _save_json({"n": p.n, "probs": probs}, path)


def write_distribution_csv(dists, path) -> None:
    """Write (step, vertex, probability) rows from (step, probs) pairs,
    ``probs`` a 1-D float array over the vertices, the probability with
    fmt_float's formatting. Each step's rows are formatted by one %."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(CSV_HEADER) + "\n")
        template, n = "", 0
        for step, probs in dists:
            probs = np.asarray(probs, dtype=np.float64).tolist()
            if len(probs) != n:
                n = len(probs)
                template = "".join(f"%d,{v},%.17g\n" for v in range(n))
            fields = [step] * (2 * n)
            fields[1::2] = probs
            f.write(template % tuple(fields))
