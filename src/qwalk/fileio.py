"""JSON and CSV serialization for every on-disk format.

Complex scalars are stored as [re, im] pairs. JSON files have the layout
of ``json.dump(obj, f, indent=1)``, and floats in them are written as
json writes them (the shortest repr); floats in CSV output use
17-significant-digit formatting. Identical inputs produce byte-identical
files on every platform.

Matrix and state files, and the matrices of grid and coin files, are
read and written at about the cost of their nonzero entries and zero
runs. On reading, the file's bytes are searched for runs of exact zero
pairs in one layout, that of the first zero pair: the layout qwalk
writes, or json.dumps' default one. Each maximal run is collapsed to one
``true``, a token the writers never write, before the rest is decoded
and json parses it; each such true then stands for its run. On writing,
json lays out the skeleton of the file, a run of +0.0 pairs is one
repeated string, every other +0.0 is the literal "0.0" and only the
other numbers go through json. The distribution CSV formats each step's
column in one call.
"""

import json
from itertools import islice, repeat

import numpy as np

from .coins import CoinSpec, named_coin
from .errors import FileFormatError, PreconditionError
from .graphs import MultiGraph
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


def _loads(data: bytes):
    """json.loads of ``data`` decoded strictly as UTF-8."""
    return json.loads(data.decode("utf-8"))


def _load_json(path, *parse):
    """json.loads, or _parse(data, *parse), of the bytes ``data`` of the file
    at ``path``. Bad input raises json.JSONDecodeError, or FileFormatError
    for the rest of what reading and json refuse: invalid UTF-8, an integer
    of over 4300 digits, nesting deeper than the stack."""
    try:
        with open(path, "rb") as f:
            return _parse(f.read(), *parse) if parse else _loads(f.read())
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"unreadable JSON: {exc}") from exc


# The JSON writers write exactly the text of json.dump(obj, f, indent=1)
# plus a newline. ``obj`` is a skeleton of dicts, lists and scalars, which
# json lays out; its bulk values (complex arrays, probabilities, arcs) are
# ``_records`` callables of the nesting level, which render CHUNK records
# per piece from one json.dumps per column of numbers (_column_texts), and
# each run of +0.0 pairs as one repeated string, so no Python call is made
# per number and the whole text is never held.

CHUNK = 4096


def _save_json(obj, path) -> None:
    # json dumps each bulk value as a marker string, made longer until no
    # other text holds it (names may hold any string); each value is then
    # streamed at the indentation of its marker's line.
    marker, bulk, pieces = "", [], []
    while len(pieces) != len(bulk) + 1:
        marker, bulk = marker + "\0", []
        text = json.dumps(obj, indent=1, default=lambda value: bulk.append(value) or marker)
        pieces = text.split(json.dumps(marker))
    with open(path, "w", encoding="utf-8") as f:
        for piece, value in zip(pieces, bulk):
            line = piece.rpartition("\n")[2]
            f.write(piece)
            f.writelines(value(len(line) - len(line.lstrip(" "))))
        f.write(pieces[-1] + "\n")


def _column_texts(column: np.ndarray) -> list[str]:
    """json's text of each value of a 1-D array (ints, floats, or objects
    that are ints or None), from one C-encoded dumps (no such text contains
    ", "). A float64 +0.0, the one float whose bits are all zero, is "0.0"
    without json, so a mostly-zero column costs about as much as its other
    values."""
    if column.dtype == np.float64:
        kept = np.flatnonzero(column.view(np.uint64))
        if kept.size < column.size:
            texts = ["0.0"] * column.size
            for k, text in zip(kept.tolist(), _column_texts(column[kept])):
                texts[k] = text
            return texts
    return json.dumps(column.tolist())[1:-1].split(", ")


_FIELD = "\0"  # marks a template field; json writes it as "\u0000"


def _template(skeleton, level: int) -> list[str]:
    """The json text of ``skeleton`` nested ``level`` deep, split at its
    _FIELD leaves: one more literal piece than there are fields."""
    text = json.dumps(skeleton, indent=1)
    return text.replace("\n", "\n" + " " * level).split(json.dumps(_FIELD))


def _records(skeleton, count: int, columns, gaps=None):
    """Bulk value: a list of ``count`` records laid out as ``skeleton``,
    whose _FIELD leaves take, in order, the values of the 1-D arrays that
    ``columns(i, j)`` returns for records i..j-1. ``gaps``, if given, holds
    count + 1 run lengths: gaps[k] records whose every field is +0.0 come
    before record k, and gaps[count] after the last; each run is written
    as repeated text, CHUNK records per piece."""
    gaps = np.zeros(count + 1, dtype=np.int64) if gaps is None else gaps

    def render(level):
        pieces = _template(skeleton, level + 1)
        fields = len(pieces) - 1
        sep = ",\n" + " " * (level + 1)
        # A chunk alternates pieces and field texts, record after record; the
        # piece before a record's first field also closes the record before.
        pattern = [None] * (2 * fields)
        pattern[::2] = [pieces[-1] + sep + pieces[0], *pieces[1:-1]]
        pattern *= CHUNK
        blank = sep + "0.0".join(pieces)

        def blanks(run):
            whole, part = divmod(run, CHUNK)
            if whole:
                yield from repeat(blank * CHUNK, whole)
            if part:
                yield blank * part

        def items():  # the text of every record after its separator
            for i in range(0, count, CHUNK):
                texts = list(map(_column_texts, columns(i, i + CHUNK)))
                out = pattern[:2 * fields * len(texts[0])]
                out[0] = sep + pieces[0]
                for f, column in enumerate(texts):
                    out[2 * f + 1::2 * fields] = column
                done, runs = 0, gaps[i:i + len(texts[0])]
                at = np.flatnonzero(runs)
                for k, run in zip(at.tolist(), runs[at].tolist()):
                    if k:
                        yield "".join(out[done:2 * fields * k]) + pieces[-1]
                    yield from blanks(run)
                    done = 2 * fields * k
                    out[done] = sep + pieces[0]
                del out[:done]
                yield "".join(out) + pieces[-1]
            yield from blanks(int(gaps[count]))

        rest = items()
        first = next(rest, None)
        if first is None:
            yield "[]"
            return
        yield "[" + first[1:]  # the first separator has no comma
        yield from rest
        yield "\n" + " " * level + "]"
    return render


def _pairs(z):
    """Bulk value: a complex array as a list of [re, im] pairs, its runs of
    +0.0 pairs (a -0.0 part is not +0.0) written as repeated text."""
    z = np.ascontiguousarray(z, dtype=np.complex128).reshape(-1)
    bits = z.view(np.uint64)
    kept = np.flatnonzero(np.logical_or(bits[::2], bits[1::2]))
    gaps = np.diff(kept, prepend=-1, append=z.size) - 1
    z = z[kept]
    return _records([_FIELD, _FIELD], z.size,
                    lambda i, j: (z.real[i:j], z.imag[i:j]), gaps)


_ARC = {"tail": _FIELD, "head": _FIELD, "w": [_FIELD, _FIELD], "coin": _FIELD}
_EDGE = {"u": _FIELD, "v": _FIELD, "w": [_FIELD, _FIELD]}


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


def _gallop(data: bytes, at: int, blocks: list) -> tuple[int, int]:
    """(end, count): data[at:end] is the longest run, ``count`` long, of
    blocks[0] repeated; blocks[k] is blocks[0] * 2**k, and is added to the
    list when first needed. O(log count) calls to bytes.startswith."""
    k = 0
    while True:
        if k == len(blocks):
            blocks.append(blocks[-1] * 2)
        if not data.startswith(blocks[k], at):
            break
        at += len(blocks[k])
        k += 1
    count = (1 << k) - 1
    for j in reversed(range(k)):
        if data.startswith(blocks[j], at):
            at += len(blocks[j])
            count += 1 << j
    return at, count


def _collapse(data: bytes, level: int):
    """(data with each maximal run of exact zero pairs replaced by one
    true, the run lengths in order), or None where it holds no run, a
    backslash, or a true of its own. Runs are looked for in one layout,
    that of the first zero pair: json.dump(indent=1)'s, for an item of a
    list nested ``level`` deep, or json.dumps' default one. Pairs in the
    other layout are left to json."""
    if b"\\" in data:
        return None
    pad = b" " * level
    pair, sep = b"[\n" + pad + b" 0.0,\n" + pad + b" 0.0\n" + pad + b"]", b",\n" + pad
    start = data.find(pair)
    # the other layout is looked for only before that pair: one scan at most
    at = data.find(b"[0.0, 0.0]", 0, len(data) if start < 0 else start)
    if at >= 0:
        pair, sep, start = b"[0.0, 0.0]", b", ", at
    blocks = [sep + pair]
    pieces, runs, done = [], [], 0
    while start >= 0:
        end, run = _gallop(data, start + len(pair), blocks)
        pieces += (data[done:start], b"true")
        runs.append(run + 1)
        done = end
        start = data.find(pair, done)
    pieces.append(data[done:])
    collapsed = b"".join(pieces)
    if not runs or collapsed.count(b"true") != len(runs):
        return None
    return collapsed, runs


def _parse(data: bytes, level: int, select):
    """(json.loads of data's text, vector): ``vector`` reads, as
    _complex_vector does, the lists of [re, im] pairs (a matrix's entries,
    a state's amplitudes) that ``select(obj)`` returns in document order,
    each in turn, their zero pairs ``level`` deep.

    The data is parsed with its zero runs collapsed (_collapse), and each
    true (itself, not a number 1) in those lists then stands for its run.
    It is parsed as it is where it holds a true (it would pass for a run)
    or a backslash (an escape such as "\\[" could turn a pair inside a
    string into valid text), or where those lists do not hold one true per
    run, all told (a run inside a string, or outside those lists). So the
    collapse never changes what is read or refused."""
    collapsed = _collapse(data, level)
    if collapsed is not None:
        collapsed, runs = collapsed
        try:
            obj = _loads(collapsed)
            lists = select(obj)
        except (ValueError, RecursionError, LookupError, TypeError):
            lists = None  # the decoder's, json's or the reader's own error comes below
        if (lists is not None and all(isinstance(e, list) for e in lists)
                and sum(x is True for e in lists for x in e) == len(runs)):
            lengths = iter(runs)
            return obj, lambda entries, what: _expanded(
                entries, list(islice(lengths, sum(x is True for x in entries))), what)
    return _loads(data), _complex_vector


def _expanded(entries: list, runs: list, what: str) -> np.ndarray:
    """_complex_vector of ``entries`` whose k-th true stands for runs[k]
    zero pairs."""
    marks = [x is True for x in entries]
    counts = np.ones(len(entries), dtype=np.int64)
    counts[np.flatnonzero(marks)] = runs
    pairs = [[0.0, 0.0] if mark else x for x, mark in zip(entries, marks)]
    return np.repeat(_complex_vector(pairs, what), counts)


# The nesting level of an item of a pair list in each file's layout.
_MATRIX_LEVEL, _COIN_LEVEL, _GRID_LEVEL = 2, 4, 5


def load_matrix(path) -> ComplexMatrix:
    return _matrix(*_load_json(path, _MATRIX_LEVEL, lambda obj: [obj["entries"]]))


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
    tail, head = _ints("arc tail/head", *tail), _ints("arc tail/head", *head)
    coin = _ints("arc coin", *(-1 if c is None else c for c in coins))  # -1: untagged
    if np.count_nonzero(coin < 0) != coins.count(None):
        raise PreconditionError("coin_tag must be nonnegative")
    _ints("graph n", n)
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise FileFormatError("graph names must be a list of strings or null")
    return MultiGraph.from_columns(n, tail, head, weight, coin, u, v, edge_w, names)


def save_graph(g: MultiGraph, path) -> None:
    coin = g.coin.astype(object)  # Python ints, and None for an untagged arc
    coin[g.coin < 0] = None
    obj = {
        "n": g.n,
        "arcs": _records(_ARC, g.tail.size, lambda i, j: (
            g.tail[i:j], g.head[i:j], g.weight.real[i:j], g.weight.imag[i:j], coin[i:j])),
        "undirected": _records(_EDGE, g.edge_u.size, lambda i, j: (
            g.edge_u[i:j], g.edge_v[i:j], g.edge_weight.real[i:j], g.edge_weight.imag[i:j])),
        "names": g.names,
    }
    _save_json(obj, path)


def load_grid(path) -> KrausGrid:
    obj, vector = _load_json(path, _GRID_LEVEL, lambda obj: [
        b["entries"] for row in obj["blocks"] for b in row])
    m, n, rows = _fields(obj, "malformed grid file", "m", "n", "blocks")
    _ints("grid m/n", m, n)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise FileFormatError("grid blocks must be a list of rows of matrices")
    return KrausGrid(m, n, [[_matrix(b, vector) for b in row] for row in rows])


def save_grid(grid: KrausGrid, path) -> None:
    obj = {
        "m": grid.m,
        "n": grid.n,
        "blocks": [[_matrix_skeleton(b) for b in row] for row in grid.blocks],
    }
    _save_json(obj, path)


def load_coin_spec(path, tol: Tolerance = DEFAULT_TOL) -> CoinSpec:
    obj, vector = _load_json(path, _COIN_LEVEL, lambda obj: [
        c["entries"] for c in obj["matrices"]])
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
    mats = [_matrix(c, vector) for c in matrices]
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
    """A state file's state; its amplitudes are read as a matrix's entries are."""
    obj, vector = _load_json(path, _MATRIX_LEVEL, lambda obj: [obj["amplitudes"]])
    m, n, amps = _fields(obj, "malformed state file", "m", "n", "amplitudes")
    amps = vector(amps, "state amplitudes")
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
