"""Spans and counters around qwalk's public functions, installed from
outside the package so that the program's sources stay untouched.

A span records a name, start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so shared by every process on the host), its
parent span and the pass it belongs to. Functions called thousands of
times per pass only accumulate a call count and a total time. Everything
stays in memory until ``Recorder.dump`` writes it out at process exit.

``pass_metrics`` turns the spans of one pass into per-layer figures. A
layer's self time is the duration of its spans minus the time their child
spans and counted calls cover; counted calls are self time of the layer
that defines the counted function.
"""

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "graphs", "shift", "coins", "walk", "fileio", "cli")

# Called thousands of times per pass: counted, never spanned.
COUNTED_FUNCTIONS = {"linalg.as_matrix", "fileio.fmt_float"}
COUNTED_CLASSES = {"graphs.Arc", "graphs.MultiGraph"}


class Recorder:
    """In-memory spans, counters and byte counts of one process."""

    def __init__(self, pass_id: int, parent: str | None = None):
        self.pass_id = pass_id
        self.root_parent = parent
        self.spans: list[dict] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.facts: Counter = Counter()            # name -> summed bytes
        self.installed: list[str] = []
        self._stack: list[dict] = []
        self._counting = 0
        self._seq = 0

    def open(self, name: str) -> dict:
        self._seq += 1
        parent = self._stack[-1]["id"] if self._stack else self.root_parent
        rec = {"id": f"{os.getpid()}:{self._seq}", "name": name,
               "parent": parent, "pass": self.pass_id, "counted_ns": 0,
               "start": time.perf_counter_ns(), "end": None}
        self._stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(rec)

    def spanned(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if probe is not None:
                try:
                    probe(self.facts, fn, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # the function's signature changed: its bytes read 0
            return result
        return wrapper

    def counted(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._counting == 0
            self._counting += 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._counting -= 1
                cell[0] += 1
                cell[1] += dt
                if outermost and self._stack:
                    self._stack[-1]["counted_ns"] += dt
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"installed": self.installed, "spans": self.spans,
                       "counters": self.counters, "facts": dict(self.facts)}, f)


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _probe_step(facts, fn, args, kwargs, result):
    u, state = args[0], args[1]
    facts["walk.step_bytes"] += (_nbytes(u) + _nbytes(state.amplitudes)
                                 + _nbytes(result.amplitudes))


def _probe_grid(facts, fn, args, kwargs, result):
    # Zero blocks of a decomposed grid are one shared array: count it once.
    unique = {id(b): b for row in args[0].blocks for b in row}
    facts["shift.grid_bytes"] += sum(_nbytes(b) for b in unique.values())


def _probe_operator(facts, fn, args, kwargs, result):
    facts["coins.operator_bytes"] += _nbytes(result)


def _probe_file(key):
    def probe(facts, fn, args, kwargs, result):
        path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
        facts[key] += os.path.getsize(path)
    return probe


PROBES = {
    "walk.step": _probe_step,
    "shift.assemble_shift": _probe_grid,
    "coins.coin_matrix": _probe_operator,
    "coins.evolution": _probe_operator,
}


def _probe_for(name: str):
    if name.startswith("fileio.load_"):
        return _probe_file("fileio.read_bytes")
    if name.startswith(("fileio.save_", "fileio.write_")):
        return _probe_file("fileio.written_bytes")
    return PROBES.get(name)


def install(rec: Recorder) -> None:
    """Wrap every public function of every qwalk layer, in every qwalk
    namespace that binds it, so calls made through ``from x import f``
    and calls inside a module are both seen."""
    import qwalk

    modules = {layer: importlib.import_module(f"qwalk.{layer}") for layer in LAYERS}
    namespaces = [qwalk, *modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) and name in COUNTED_CLASSES:
                obj.__init__ = rec.counted(name, obj.__init__)
            elif inspect.isfunction(obj):
                wrapped = (rec.counted(name, obj) if name in COUNTED_FUNCTIONS
                           else rec.spanned(name, obj, _probe_for(name)))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
            else:
                continue
            rec.installed.append(name)


def load_traces(paths) -> dict:
    """Merge the dumps of the processes of one pass."""
    merged = {"installed": set(), "spans": [], "counters": Counter(),
              "counted_s": Counter(), "facts": Counter()}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
        merged["installed"].update(d["installed"])
        merged["spans"].extend(d["spans"])
        for name, (calls, ns) in d["counters"].items():
            merged["counters"][name] += calls
            merged["counted_s"][name] += ns / 1e9
        merged["facts"].update(d["facts"])
    return merged


def _dur(name):
    return lambda p: p["dur"][name]


def _calls(name):
    return lambda p: p["calls"][name]


def _mb(fact):
    return lambda p: p["facts"][fact] / 1e6


def _prefix_dur(prefix):
    return lambda p: sum(d for n, d in p["dur"].items() if n.startswith(prefix))


# metric -> (qwalk names it needs, how it is computed from one pass)
LAYER_METRICS = {
    "walk.steps": (["walk.step"], _calls("walk.step")),
    "walk.bytes_per_step": (["walk.step"], lambda p: (
        p["facts"]["walk.step_bytes"] / p["calls"]["walk.step"]
        if p["calls"]["walk.step"] else 0.0)),
    "linalg.as_matrix_calls": (["linalg.as_matrix"],
                               lambda p: p["counters"]["linalg.as_matrix"]),
    "linalg.as_matrix_s": (["linalg.as_matrix"],
                           lambda p: p["counted_s"]["linalg.as_matrix"]),
    "walk.classical_s": (["walk.classical_walk"], _dur("walk.classical_walk")),
    "walk.classical_calls": (["walk.classical_walk"], _calls("walk.classical_walk")),
    "shift.decompose_s": (["shift.decompose_permutations"],
                          _dur("shift.decompose_permutations")),
    "shift.verify_s": (["shift.verify_kraus"], _dur("shift.verify_kraus")),
    "shift.assemble_s": (["shift.assemble_shift"], _dur("shift.assemble_shift")),
    "shift.grid_mb": (["shift.assemble_shift"], _mb("shift.grid_bytes")),
    "linalg.unitarity_s": (["linalg.unitarity_residual"],
                           _dur("linalg.unitarity_residual")),
    "linalg.unitarity_calls": (["linalg.unitarity_residual"],
                               _calls("linalg.unitarity_residual")),
    "coins.coin_s": (["coins.coin_matrix"], _dur("coins.coin_matrix")),
    "coins.evolution_s": (["coins.evolution"], _dur("coins.evolution")),
    "coins.operator_mb": (["coins.coin_matrix", "coins.evolution"],
                          _mb("coins.operator_bytes")),
    "fileio.load_s": (["fileio.load_matrix"], _prefix_dur("fileio.load_")),
    "fileio.save_s": (["fileio.save_matrix"], _prefix_dur("fileio.save_")),
    "fileio.csv_s": (["fileio.write_distribution_csv"],
                     _dur("fileio.write_distribution_csv")),
    "fileio.read_mb": (["fileio.load_matrix"], _mb("fileio.read_bytes")),
    "fileio.written_mb": (["fileio.save_matrix"], _mb("fileio.written_bytes")),
    "shift.extract_s": (["shift.extract_graph"], _dur("shift.extract_graph")),
    "graphs.arcs": (["graphs.Arc"], lambda p: p["counters"]["graphs.Arc"]),
    "graphs.build_s": (["graphs.Arc", "graphs.MultiGraph"], lambda p: (
        p["counted_s"]["graphs.Arc"] + p["counted_s"]["graphs.MultiGraph"])),
    **{f"cli.{cmd}_s": ([f"cli.cmd_{cmd}"], _dur(f"cli.cmd_{cmd}"))
       for cmd in ("compile", "walk", "classical", "extract")},
    **{f"{layer}.self_s": ([], lambda p, layer=layer: p["self"][layer])
       for layer in LAYERS},
    "other.self_s": ([], lambda p: p["self"]["bench"]),
}

# Figures that repeat exactly from pass to pass of one seed.
EXACT_METRICS = ("walk.steps", "walk.bytes_per_step", "walk.classical_calls",
                 "linalg.as_matrix_calls", "linalg.unitarity_calls",
                 "shift.grid_mb", "coins.operator_mb", "fileio.read_mb",
                 "fileio.written_mb", "graphs.arcs")


def pass_metrics(trace: dict) -> tuple[dict, list[float]]:
    """Per-layer figures of one pass, and the durations of its walk steps
    in ms. A metric whose qwalk function no longer exists is left out."""
    dur, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
    covered = defaultdict(int)
    for s in trace["spans"]:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    steps_ms = []
    for s in trace["spans"]:
        ns = s["end"] - s["start"]
        dur[s["name"]] += ns / 1e9
        calls[s["name"]] += 1
        self_s[s["name"].split(".", 1)[0]] += (
            ns - covered[s["id"]] - s["counted_ns"]) / 1e9
        if s["name"] == "walk.step":
            steps_ms.append(ns / 1e6)
    for name, secs in trace["counted_s"].items():
        self_s[name.split(".", 1)[0]] += secs
    view = {"dur": dur, "calls": calls, "self": self_s, "facts": trace["facts"],
            "counters": trace["counters"], "counted_s": trace["counted_s"]}
    out = {}
    for metric, (needs, compute) in LAYER_METRICS.items():
        if all(n in trace["installed"] for n in needs):
            out[metric] = float(compute(view))
    return out, steps_ms
