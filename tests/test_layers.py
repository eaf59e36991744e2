"""The package's modules import down one order of layers, so that no
layer depends on one above it."""

import ast
from pathlib import Path

LAYERS = ("errors", "linalg", "graphs", "shift", "coins", "walk", "fileio", "cli")
SRC = Path(__file__).resolve().parents[1] / "src" / "qwalk"


def imported_layers(tree: ast.Module):
    """The qwalk modules that ``tree`` imports, relatively or by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qwalk."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("qwalk."))


def test_every_module_is_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    for layer in LAYERS:
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        for name in imported_layers(tree):
            assert LAYERS.index(name) < LAYERS.index(layer), f"{layer} imports {name}"


def test_no_class_subclasses_ndarray():
    """U is a value that numpy reads through ``__array__``, never an
    ndarray subclass whose copies and views would walk by another path."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base) for base in node.bases]
                assert not any(b.split(".")[-1] == "ndarray" for b in bases), \
                    f"{path.stem}.{node.name} subclasses {bases}"
